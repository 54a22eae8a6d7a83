"""The classifier-feature example of docs/extending.md runs as documented.

The guide's code block is the advertised way to add an FC feature, so
it is executed verbatim here and the feature set it builds is
extracted, checked against a hand computation and trained on.
"""

import pathlib
import re

import numpy as np

from repro.core.timeutil import DAY
from repro.fc import batch_classifier, build_gold_standard, train_detector

GUIDE = pathlib.Path(__file__).resolve().parents[2] / "docs" / "extending.md"


def feature_example() -> str:
    """The first python block of the guide's feature section."""
    text = GUIDE.read_text(encoding="utf-8")
    section = text.split("## Adding a classifier feature", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_example_feature_set_extracts_and_trains():
    namespace = {}
    exec(compile(feature_example(), str(GUIDE), "exec"), namespace)
    extended = namespace["extended"]
    assert extended.names[-1] == "friends_per_day"
    gold = build_gold_standard(n_fake=60, n_genuine=60, seed=4,
                               timeline_depth=0)
    users, now = gold.users(), gold.now
    column = extended.extract_matrix(users, None, now)[:, -1]
    expected = [user.friends_count / max(user.age_at(now) / DAY, 1.0)
                for user in users]
    assert np.array_equal(column, np.array(expected))
    detector = train_detector(gold, feature_set=extended, n_trees=5)
    verdicts = detector.predict(users, None, now)
    assert verdicts.shape == (len(users),)
    assert np.array_equal(batch_classifier(detector).predict(users, None, now),
                          verdicts)
