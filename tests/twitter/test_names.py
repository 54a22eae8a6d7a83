"""Unit tests for stylistic screen-name generation.

Handles are drawn as code columns over a batch of counter-based keys
and rendered to text, as every generated follower's handle is.
"""

import string

import numpy as np

from repro.twitter.draws import Draws, draw_matrix, stream_keys
from repro.twitter.names import (
    bot_handles,
    digit_fraction,
    display_names,
    human_handles,
    render_handle,
    render_name,
)

_HANDLE_COLUMNS = ("handle_style", "handle_a", "handle_b", "handle_c",
                   "handle_d", "handle_bits")


def _draws(seed, count):
    return Draws(*draw_matrix(stream_keys(seed, np.arange(count))))


def _rendered(columns, count):
    values = [np.broadcast_to(columns[name], (count,)).tolist()
              for name in _HANDLE_COLUMNS]
    return [render_handle(*row) for row in zip(*values)]


def human_screen_names(seed, count):
    return _rendered(human_handles(_draws(seed, count)), count)


def bot_screen_names(seed, count):
    return _rendered(bot_handles(_draws(seed, count)), count)


class TestHumanNames:
    def test_valid_handles(self):
        for handle in human_screen_names(1, 200):
            assert 1 <= len(handle) <= 15
            assert all(c in string.ascii_lowercase + string.digits + "._"
                       for c in handle)

    def test_low_digit_fraction_on_average(self):
        fractions = [digit_fraction(handle)
                     for handle in human_screen_names(2, 300)]
        assert sum(fractions) / len(fractions) < 0.2

    def test_large_space(self):
        handles = set(human_screen_names(3, 500))
        assert len(handles) > 450


class TestBotNames:
    def test_valid_handles(self):
        for handle in bot_screen_names(4, 200):
            assert 1 <= len(handle) <= 15
            assert all(c in string.ascii_lowercase + string.digits
                       for c in handle)

    def test_high_digit_fraction_on_average(self):
        fractions = [digit_fraction(handle)
                     for handle in bot_screen_names(5, 300)]
        assert sum(fractions) / len(fractions) > 0.35

    def test_separates_from_human_names(self):
        """The feature the classifier uses must actually separate."""
        human = sorted(digit_fraction(handle)
                       for handle in human_screen_names(6, 300))
        bot = sorted(digit_fraction(handle)
                     for handle in bot_screen_names(7, 300))
        # Compare medians: a robust gap, not perfect separation.
        assert bot[150] > human[150] + 0.2


class TestDisplayName:
    def test_title_case_two_words(self):
        columns = display_names(_draws(8, 50))
        for first, last in zip(columns["name_first"].tolist(),
                               columns["name_last"].tolist()):
            name = render_name(columns["name_kind"], first, last, "handle")
            parts = name.split(" ")
            assert len(parts) == 2
            assert all(part[0].isupper() for part in parts)


class TestDigitFraction:
    def test_values(self):
        assert digit_fraction("abc123") == 0.5
        assert digit_fraction("abcdef") == 0.0
        assert digit_fraction("12345") == 1.0
        assert digit_fraction("") == 0.0
