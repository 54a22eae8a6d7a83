"""The lazy world under the names the host benchmark imports.

:class:`repro.twitter.population.SyntheticWorld` serves every
``users/lookup`` as a structured row block
(:meth:`~repro.twitter.population.SyntheticWorld.user_row_block`).
"""

from __future__ import annotations

from ..generator import build_world
from ..population import SyntheticWorld

# hostbench/layers.py and hostbench/workloads.py import these two names.
ColumnarWorld = SyntheticWorld
build_columnar_world = build_world
