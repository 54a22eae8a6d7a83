"""Unit tests for classification metrics."""

import pytest

from repro.core import ConfigurationError
from repro.fc import ConfusionMatrix, confusion


class TestConfusionMatrix:
    def test_perfect_classifier(self):
        matrix = ConfusionMatrix(tp=10, fp=0, tn=10, fn=0)
        assert matrix.accuracy == 1.0
        assert matrix.precision == 1.0
        assert matrix.recall == 1.0
        assert matrix.f1 == 1.0
        assert matrix.mcc == 1.0

    def test_inverted_classifier(self):
        matrix = ConfusionMatrix(tp=0, fp=10, tn=0, fn=10)
        assert matrix.accuracy == 0.0
        assert matrix.mcc == -1.0

    def test_known_values(self):
        matrix = ConfusionMatrix(tp=6, fp=2, tn=8, fn=4)
        assert matrix.accuracy == pytest.approx(0.7)
        assert matrix.precision == pytest.approx(0.75)
        assert matrix.recall == pytest.approx(0.6)
        assert matrix.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_degenerate_denominators(self):
        matrix = ConfusionMatrix(tp=0, fp=0, tn=5, fn=0)
        assert matrix.precision == 0.0
        assert matrix.recall == 0.0
        assert matrix.f1 == 0.0
        assert matrix.mcc == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfusionMatrix(tp=-1, fp=0, tn=0, fn=0)


class TestConfusionBuilder:
    def test_counts(self):
        matrix = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (matrix.tp, matrix.fn, matrix.tn, matrix.fp) == (2, 1, 1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            confusion([1, 0], [1])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            confusion([1, 2], [1, 0])
