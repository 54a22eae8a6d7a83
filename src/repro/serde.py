"""JSON serialization for the library's long-lived artefacts.

Three things are worth persisting across runs:

* **worlds** — a :class:`~repro.twitter.population.SyntheticWorld` is
  *generative*: every follower is a pure function of the master seed
  and the target specs, so a 41 M-follower world serializes to a few
  kilobytes of spec and reconstructs bit-identically;
* **audit reports** — the paper's tables are collections of these;
* **gold standards** — the Fake Project's "training dataset is
  available on request" (Section IV-D); this is the exportable form.

All functions produce plain JSON-compatible dictionaries; ``save_json``
/ ``load_json`` wrap file IO.  JSON restricts mapping keys to strings,
so report ``details`` dictionaries have their keys coerced on write.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Union

from .api.endpoints import UserObject
from .audit import AuditReport
from .core.errors import ConfigurationError
from .fc.dataset import GoldExample, GoldStandard
from .twitter.account import BehaviorProfile, Label
from .twitter.population import (
    FollowerSegmentSpec,
    PostRefBurst,
    SyntheticWorld,
    TargetSpec,
)
from .twitter.tweet import Tweet

#: Bumped whenever the on-disk layout changes incompatibly.
FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


def _require_version(payload: Dict[str, Any], kind: str) -> None:
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported {kind} format version: {version!r} "
            f"(this library reads version {FORMAT_VERSION})")
    if payload.get("kind") != kind:
        raise ConfigurationError(
            f"expected a {kind!r} document, got {payload.get('kind')!r}")


def _jsonify(value: Any) -> Any:
    """Coerce a nested structure into JSON-compatible types."""
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------------
# Audit reports
# ---------------------------------------------------------------------------

def audit_report_to_dict(report: AuditReport) -> Dict[str, Any]:
    """Serialize one audit report."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "audit_report",
        "tool": report.tool,
        "target": report.target,
        "followers_count": report.followers_count,
        "sample_size": report.sample_size,
        "fake_pct": report.fake_pct,
        "genuine_pct": report.genuine_pct,
        "inactive_pct": report.inactive_pct,
        "response_seconds": report.response_seconds,
        "cached": report.cached,
        "assessed_at": report.assessed_at,
        "completeness": report.completeness,
        "errors_seen": report.errors_seen,
        "details": _jsonify(dict(report.details)),
    }


def audit_report_from_dict(payload: Dict[str, Any]) -> AuditReport:
    """Rebuild an audit report serialized by :func:`audit_report_to_dict`."""
    _require_version(payload, "audit_report")
    return AuditReport(
        tool=payload["tool"],
        target=payload["target"],
        followers_count=payload["followers_count"],
        sample_size=payload["sample_size"],
        fake_pct=payload["fake_pct"],
        genuine_pct=payload["genuine_pct"],
        inactive_pct=payload["inactive_pct"],
        response_seconds=payload["response_seconds"],
        cached=payload["cached"],
        assessed_at=payload["assessed_at"],
        # Documents written before the fault-injection layer predate
        # these fields; a clean, complete audit is the right default.
        completeness=payload.get("completeness", 1.0),
        errors_seen=payload.get("errors_seen", 0),
        details=payload["details"],
    )


# ---------------------------------------------------------------------------
# Target specs and worlds
# ---------------------------------------------------------------------------

def _behavior_to_dict(behavior: BehaviorProfile) -> Dict[str, Any]:
    return {
        "tweets_per_day": behavior.tweets_per_day,
        "retweet_ratio": behavior.retweet_ratio,
        "link_ratio": behavior.link_ratio,
        "spam_ratio": behavior.spam_ratio,
        "mention_ratio": behavior.mention_ratio,
        "hashtag_ratio": behavior.hashtag_ratio,
        "duplicate_pool": behavior.duplicate_pool,
        "api_source_ratio": behavior.api_source_ratio,
    }


def _behavior_from_dict(payload: Dict[str, Any]) -> BehaviorProfile:
    return BehaviorProfile(**payload)


def _segment_to_dict(segment: FollowerSegmentSpec) -> Dict[str, Any]:
    return {
        "fraction": segment.fraction,
        "personas": dict(segment.personas),
        "duration_frac": segment.duration_frac,
        "gamma": segment.gamma,
    }


def _segment_from_dict(payload: Dict[str, Any]) -> FollowerSegmentSpec:
    return FollowerSegmentSpec(
        fraction=payload["fraction"],
        personas=payload["personas"],
        duration_frac=payload["duration_frac"],
        gamma=payload["gamma"],
    )


def _burst_to_dict(burst: PostRefBurst) -> Dict[str, Any]:
    return {
        "days_after": burst.days_after,
        "count": burst.count,
        "personas": dict(burst.personas),
        "delivery_per_hour": burst.delivery_per_hour,
        "daily_attrition": burst.daily_attrition,
    }


def target_spec_to_dict(spec: TargetSpec) -> Dict[str, Any]:
    """Serialize one target spec (its cohorts and purchased blocks too)."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "target_spec",
        "screen_name": spec.screen_name,
        "followers": spec.followers,
        "segments": [_segment_to_dict(segment) for segment in spec.segments],
        "created_at": spec.created_at,
        "follow_window_days": spec.follow_window_days,
        "daily_new_followers": spec.daily_new_followers,
        "post_ref_bursts": [_burst_to_dict(burst)
                            for burst in spec.post_ref_bursts],
        "statuses_count": spec.statuses_count,
        "friends_count": spec.friends_count,
        "verified": spec.verified,
        "display_name": spec.display_name,
        "description": spec.description,
        "behavior": _behavior_to_dict(spec.behavior),
    }


def target_spec_from_dict(payload: Dict[str, Any]) -> TargetSpec:
    """Rebuild a target spec serialized by :func:`target_spec_to_dict`."""
    _require_version(payload, "target_spec")
    return TargetSpec(
        screen_name=payload["screen_name"],
        followers=payload["followers"],
        segments=[_segment_from_dict(segment)
                  for segment in payload["segments"]],
        created_at=payload["created_at"],
        follow_window_days=payload["follow_window_days"],
        daily_new_followers=payload["daily_new_followers"],
        # Documents written before purchases were serialized hold none.
        post_ref_bursts=tuple(PostRefBurst(**burst)
                              for burst in payload.get("post_ref_bursts", ())),
        statuses_count=payload["statuses_count"],
        friends_count=payload["friends_count"],
        verified=payload["verified"],
        display_name=payload["display_name"],
        description=payload["description"],
        behavior=_behavior_from_dict(payload["behavior"]),
    )


def _target_to_dict(population) -> Dict[str, Any]:
    """A target's spec and, if it has any, its explicit departures."""
    payload = target_spec_to_dict(population.spec)
    departures = population.schedule.departures
    if departures:
        payload["departures"] = [[position, at] for position, at in departures]
    return payload


def world_to_dict(world: SyntheticWorld) -> Dict[str, Any]:
    """Serialize a whole synthetic world (seed + ref time + specs, and
    each target's unfollows as ``[position, instant]`` pairs)."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "world",
        "seed": world.seed,
        "ref_time": world.ref_time,
        "targets": [_target_to_dict(population)
                    for population in world.targets()],
    }


def world_from_dict(payload: Dict[str, Any]) -> SyntheticWorld:
    """Reconstruct a synthetic world; followers regenerate identically."""
    _require_version(payload, "world")
    world = SyntheticWorld(seed=payload["seed"], ref_time=payload["ref_time"])
    for spec_payload in payload["targets"]:
        population = world.add_target(target_spec_from_dict(spec_payload))
        for position, at in spec_payload.get("departures", ()):
            population.schedule.depart(position, at)
    return world


# ---------------------------------------------------------------------------
# Gold standards
# ---------------------------------------------------------------------------

def _user_to_dict(user: UserObject) -> Dict[str, Any]:
    return {
        "user_id": user.user_id,
        "screen_name": user.screen_name,
        "name": user.name,
        "created_at": user.created_at,
        "description": user.description,
        "location": user.location,
        "url": user.url,
        "default_profile_image": user.default_profile_image,
        "verified": user.verified,
        "followers_count": user.followers_count,
        "friends_count": user.friends_count,
        "statuses_count": user.statuses_count,
        "last_status_at": user.last_status_at,
    }


def _user_from_dict(payload: Dict[str, Any]) -> UserObject:
    return UserObject(**payload)


def _tweet_to_dict(tweet: Tweet) -> Dict[str, Any]:
    return {
        "tweet_id": tweet.tweet_id,
        "user_id": tweet.user_id,
        "created_at": tweet.created_at,
        "text": tweet.text,
        "source": tweet.source,
    }


def _tweet_from_dict(payload: Dict[str, Any]) -> Tweet:
    return Tweet(**payload)


def gold_standard_to_dict(gold: GoldStandard) -> Dict[str, Any]:
    """Serialize a gold standard: users, timelines and a-priori labels."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "gold_standard",
        "now": gold.now,
        "examples": [
            {
                "user": _user_to_dict(example.user),
                "timeline": [_tweet_to_dict(tweet)
                             for tweet in example.timeline],
                "label": example.label.value,
            }
            for example in gold.examples
        ],
    }


def gold_standard_from_dict(payload: Dict[str, Any]) -> GoldStandard:
    """Rebuild a gold standard serialized by :func:`gold_standard_to_dict`."""
    _require_version(payload, "gold_standard")
    examples: List[GoldExample] = []
    for item in payload["examples"]:
        examples.append(GoldExample(
            user=_user_from_dict(item["user"]),
            timeline=tuple(_tweet_from_dict(tweet)
                           for tweet in item["timeline"]),
            label=Label(item["label"]),
        ))
    return GoldStandard(examples, payload["now"])


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

def save_json(payload: Dict[str, Any], path: PathLike) -> None:
    """Write a serialized document to disk (UTF-8, indented)."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    pathlib.Path(path).write_text(text, encoding="utf-8")


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a serialized document from disk."""
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
