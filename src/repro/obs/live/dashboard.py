"""The fleet health dashboard: incremental ASCII frames + JSONL snapshots.

A dashboard is a *view* over one :class:`~repro.obs.live.telemetry.
LiveTelemetry` plane: each :meth:`FleetDashboard.snapshot` captures the
selected streams' trailing aggregates, every SLO's burn status, and the
active alert set into one canonical dict (floats rounded, keys sorted
on export) — so two deterministic runs produce byte-identical snapshot
files, which is what lets the CI smoke job diff them as goldens.

The ASCII renderer turns a snapshot into a compact console frame; the
JSONL exporter appends one snapshot per line.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ...core.timeutil import isoformat
from .telemetry import LiveTelemetry

#: Decimal places snapshot floats are rounded to (canonical export).
_ROUND = 6

#: Leaf types :func:`_canonical` returns unchanged: a dict's values of
#: these types are kept without a call (a fleet's per-handle counts).
_PLAIN = (int, str)


def _canonical(value):
    """Recursively round floats so snapshots serialise byte-stably."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, _ROUND)
    if isinstance(value, dict):
        return {str(key): item if type(item) in _PLAIN else _canonical(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def snapshot_to_json(snapshot: Mapping[str, object]) -> str:
    """One snapshot as a canonical single-line JSON document."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


class FleetDashboard:
    """Renders and exports the health of a monitored fleet.

    Parameters
    ----------
    live:
        The telemetry plane to read.
    panels:
        Stream names to include in snapshots, in display order.  When
        omitted every registered stream is shown — fleet runs that must
        stay byte-identical across scheduling modes pass an explicit,
        mode-invariant panel list instead.
    horizon:
        Trailing window (seconds) the per-stream panel aggregates
        cover.
    title:
        Frame heading.
    """

    def __init__(self, live: LiveTelemetry, *,
                 panels: Optional[Sequence[str]] = None,
                 horizon: float = 86400.0,
                 title: str = "fleet health") -> None:
        self._live = live
        self._panels = tuple(panels) if panels is not None else None
        self._horizon = horizon
        self._title = title
        self._frames = 0

    @property
    def frames(self) -> int:
        """Snapshots taken so far."""
        return self._frames

    def _panel_streams(self) -> List[Tuple[str, object]]:
        if self._panels is None:
            return sorted(self._live.all_streams().items())
        found = [(name, self._live.find_stream(name))
                 for name in self._panels]
        return [(name, stream) for name, stream in found
                if stream is not None]

    def snapshot(self, now: float,
                 fleet: Optional[Mapping[str, object]] = None
                 ) -> Dict[str, object]:
        """Capture one canonical dashboard snapshot at instant ``now``.

        ``fleet`` is workload-supplied state (per-handle counters,
        audit verdicts) merged in under the ``"fleet"`` key.
        """
        self._frames += 1
        streams: Dict[str, object] = {}
        for name, stream in self._panel_streams():
            window = stream.trailing(now, self._horizon)
            streams[name] = {
                "count": window.count,
                "sum": window.sum,
                "last": window.last,
                "total": stream.total_sum,
            }
        slos = [{
            "name": status.spec.name,
            "fast_burn": status.fast_burn,
            "slow_burn": status.slow_burn,
            "fast_ratio": status.fast_ratio,
            "firing": status.firing,
        } for status in self._live.slos.statuses()]
        fired, resolved = self._live.alerts.counts()
        snapshot: Dict[str, object] = {
            "frame": self._frames,
            "time": now,
            "iso": isoformat(now),
            "streams": streams,
            "slos": slos,
            "alerts": {
                "active": list(self._live.alerts.active()),
                "fired": fired,
                "resolved": resolved,
            },
        }
        if fleet is not None:
            snapshot["fleet"] = dict(fleet)
        return _canonical(snapshot)  # type: ignore[return-value]

    # -- rendering ----------------------------------------------------------

    def render(self, snapshot: Mapping[str, object]) -> str:
        """One ASCII console frame of a snapshot."""
        lines = [f"=== {self._title} · frame {snapshot['frame']} "
                 f"· {snapshot['iso']} ==="]
        slos = snapshot.get("slos") or []
        for slo in slos:
            flag = "FIRING" if slo["firing"] else "ok"
            lines.append(
                f"  slo {slo['name']:<24} burn fast {slo['fast_burn']:6.2f} "
                f"slow {slo['slow_burn']:6.2f}  ratio {slo['fast_ratio']:.4f} "
                f" [{flag}]")
        alerts = snapshot.get("alerts") or {}
        active = alerts.get("active") or []
        lines.append(
            f"  alerts: {len(active)} active "
            f"({alerts.get('fired', 0)} fired / "
            f"{alerts.get('resolved', 0)} resolved)"
            + (": " + ", ".join(active) if active else ""))
        for name, panel in (snapshot.get("streams") or {}).items():
            last = panel.get("last")
            last_text = "-" if last is None else f"{last:g}"
            lines.append(
                f"  {name:<28} window n={panel['count']:<5} "
                f"sum={panel['sum']:<10g} last={last_text:<8} "
                f"total={panel['total']:g}")
        fleet = snapshot.get("fleet")
        if fleet:
            for key in sorted(fleet):
                lines.append(f"  fleet.{key}: {self._fleet_cell(fleet[key])}")
        return "\n".join(lines)

    @staticmethod
    def _fleet_cell(value: object) -> str:
        """Render one workload-supplied value compactly."""
        if isinstance(value, dict):
            return ", ".join(f"{key}={value[key]}" for key in sorted(value))
        return str(value)

    def write_snapshot(self, handle, snapshot: Mapping[str, object]) -> None:
        """Append one snapshot as a JSON line to an open file handle."""
        handle.write(snapshot_to_json(snapshot) + "\n")
