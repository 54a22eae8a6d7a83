"""Edge cases of the batch-criteria API's mask pipelines.

The differential parity suite (``tests/twitter/test_columnar_parity``)
holds the columnar path to the per-account oracle on realistic
populations; this file covers the degenerate corners those worlds never
produce — empty samples, all-fake samples, hand-built mixed samples —
for each of the three rule-based engines, plus the provenance masks
``classify_all`` records.
"""

import numpy as np
import pytest

from repro.analytics import (
    StatusPeopleCriteria,
    TwitterauditCriteria,
    build_sample_block,
)
from repro.api import UserObject
from repro.core import DAY, PAPER_EPOCH, YEAR
from repro.fc.rulesets import SocialbakersCriteria
from repro.obs.provenance import ProvenanceSink

from . import criteria_oracle

NOW = PAPER_EPOCH


def make_user(**overrides):
    defaults = dict(
        user_id=1, screen_name="u", name="User",
        created_at=PAPER_EPOCH - YEAR,
        description="bio", location="Rome", url="",
        default_profile_image=False, verified=False,
        followers_count=200, friends_count=180, statuses_count=500,
        last_status_at=PAPER_EPOCH - DAY,
    )
    defaults.update(overrides)
    return UserObject(**defaults)


#: One obviously-fake profile per engine's criteria.
FAKES = {
    "statuspeople": dict(followers_count=3, friends_count=800,
                         statuses_count=2),
    # Suspicious (ratio + empty profile) but active, so the published
    # flow lands on "fake" rather than "inactive".
    "socialbakers": dict(followers_count=10, friends_count=500,
                         description="", location=""),
    "twitteraudit": dict(statuses_count=0, last_status_at=None,
                         followers_count=10, friends_count=500),
}

#: A mixed sample touching every verdict class of every engine.
MIXED = [
    make_user(user_id=1),                                     # engaged human
    make_user(user_id=2, **FAKES["statuspeople"]),
    make_user(user_id=3, **FAKES["socialbakers"]),
    make_user(user_id=4, **FAKES["twitteraudit"]),
    make_user(user_id=5, last_status_at=PAPER_EPOCH - 40 * DAY),
    make_user(user_id=6, last_status_at=PAPER_EPOCH - 100 * DAY),
    make_user(user_id=7, followers_count=0, friends_count=0,
              statuses_count=1, last_status_at=PAPER_EPOCH - 200 * DAY),
    make_user(user_id=8, default_profile_image=True,
              created_at=PAPER_EPOCH - 10 * DAY),
]

ENGINE_CRITERIA = [
    ("statuspeople", StatusPeopleCriteria(), False),
    ("socialbakers", SocialbakersCriteria(), True),
    ("twitteraudit", TwitterauditCriteria(), False),
]

IDS = [name for name, __, __ in ENGINE_CRITERIA]


def assert_matches_oracle(verdicts, oracle):
    assert verdicts.codes.dtype == np.int64
    assert verdicts.codes.tolist() == oracle.codes
    assert verdicts.counts() == oracle.counts()
    assert verdicts.extras == oracle.extras


@pytest.mark.parametrize("name,criteria,timelined", ENGINE_CRITERIA, ids=IDS)
class TestMaskPipelineEdges:
    def test_empty_sample(self, name, criteria, timelined):
        timelines = [] if timelined else None
        block = build_sample_block([], timelines)
        assert len(block) == 0
        verdicts = criteria.classify_block(block, NOW)
        assert len(verdicts) == 0
        assert all(count == 0 for count in verdicts.counts().values())
        assert_matches_oracle(criteria.classify_all([], timelines, NOW),
                              criteria_oracle.classify(criteria, [],
                                                       timelines, NOW))

    def test_all_fake_sample(self, name, criteria, timelined):
        users = [make_user(user_id=i, **FAKES[name]) for i in range(7)]
        timelines = [[] for __ in users] if timelined else None
        verdicts = criteria.classify_all(users, timelines, NOW)
        assert verdicts.counts()[criteria.labels[0]] == len(users)
        assert verdicts.codes.tolist() == [0] * len(users)

    def test_mixed_sample_matches_scalar(self, name, criteria, timelined):
        timelines = ([None if user.user_id % 3 == 0 else []
                      for user in MIXED] if timelined else None)
        assert_matches_oracle(
            criteria.classify_all(MIXED, timelines, NOW),
            criteria_oracle.classify(criteria, MIXED, timelines, NOW))

    def test_row_block_sample_matches_scalar(self, name, criteria, timelined):
        """The structured-rows fast path (field views) stays identical."""
        from repro.twitter.columnar.schema import UserRowBlock

        timelines = [[] for __ in MIXED] if timelined else None
        assert_matches_oracle(
            criteria.classify_all(UserRowBlock.from_users(MIXED), timelines,
                                  NOW),
            criteria_oracle.classify(criteria, MIXED, timelines, NOW))

    def test_sink_masks_equal_explain_fires(self, name, criteria, timelined):
        """``classify_all(..., sink=)`` records exactly the rules
        ``explain`` names, account by account."""
        timelines = [[] for __ in MIXED] if timelined else None
        sink = ProvenanceSink()
        with_sink = criteria.classify_all(MIXED, timelines, NOW, sink=sink)
        oracle = criteria_oracle.classify(criteria, MIXED, timelines, NOW)
        assert sink.rule_ids == criteria.rule_ids
        for rule in criteria.rule_ids:
            assert np.asarray(sink.mask(rule), dtype=bool).tolist() \
                == oracle.fires[rule], rule
        assert with_sink.codes.tolist() == \
            criteria.classify_all(MIXED, timelines, NOW).codes.tolist()
