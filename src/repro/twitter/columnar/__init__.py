"""Structured-row account encoding.

See :mod:`repro.twitter.columnar.schema` for the row dtype and the
:class:`UserRowBlock` that
:meth:`repro.twitter.population.SyntheticWorld.user_row_block` returns.
Row blocks and user-object lists of one world classify identically;
``tests/twitter/test_columnar_parity.py`` enforces that.
"""

from .schema import (
    ACCOUNT_DTYPE,
    STRING_WIDTHS,
    UserRowBlock,
    user_object_from_row,
)
from .world import ColumnarWorld, build_columnar_world

__all__ = [
    "ACCOUNT_DTYPE",
    "ColumnarWorld",
    "STRING_WIDTHS",
    "UserRowBlock",
    "build_columnar_world",
    "user_object_from_row",
]
