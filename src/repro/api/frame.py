"""Chunked int64 id storage for Obama-scale follower lists.

A crawled follower list for a 10M-follower account held as a Python
``list`` of ``int`` costs ~28 bytes per element plus pointer overhead —
roughly 360 MB.  :class:`IdFrame` keeps the ids in a list of int64 NumPy
arrays instead (one block per appended page batch, ~8 bytes/id), while
remaining a :class:`collections.abc.Sequence`:

* ``len()``, integer indexing (including negative) and slicing work;
* iteration yields plain Python ints, so downstream consumers see the
  same values a list would give them;
* ``random.sample(frame, k)`` draws *identically* to
  ``random.sample(list(frame), k)`` — CPython's sampler only consumes
  ``len()`` and ``__getitem__`` — which is what keeps audit sampling
  bit-identical after the crawler switched to frames.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import Iterable, Iterator, List

import numpy as np

#: Block granularity when a frame compacts or slices itself.
BLOCK_SIZE = 262_144


class IdFrame(Sequence):
    """Append-only sequence of int64 ids stored in chunked arrays."""

    def __init__(self, ids: Iterable[int] = ()) -> None:
        self._blocks: List[np.ndarray] = []
        self._offsets: List[int] = []  # cumulative length after each block
        self._length = 0
        if ids is not None:
            self.extend(ids)

    def extend(self, ids: Iterable[int]) -> None:
        """Append a batch of ids as one block (empty batches are no-ops)."""
        if isinstance(ids, IdFrame):
            for block in ids._blocks:
                self._append_block(block.copy())
            return
        if isinstance(ids, np.ndarray):
            block = np.ascontiguousarray(ids, dtype=np.int64)
            if block is ids:
                block = block.copy()
        else:
            block = np.fromiter(ids, dtype=np.int64)
        self._append_block(block)

    def _append_block(self, block: np.ndarray) -> None:
        if block.size == 0:
            return
        self._blocks.append(block)
        self._length += int(block.size)
        self._offsets.append(self._length)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._slice(index)
        if not isinstance(index, (int, np.integer)):
            raise TypeError(f"indices must be integers or slices: {index!r}")
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("IdFrame index out of range")
        block_index = bisect_right(self._offsets, index)
        start = self._offsets[block_index - 1] if block_index else 0
        return int(self._blocks[block_index][index - start])

    def _slice(self, index: slice) -> "IdFrame":
        start, stop, step = index.indices(self._length)
        result = IdFrame()
        if step == 1:
            cursor = 0
            for block in self._blocks:
                block_start = max(start - cursor, 0)
                block_stop = min(stop - cursor, block.size)
                if block_stop > block_start:
                    result._append_block(block[block_start:block_stop].copy())
                cursor += block.size
                if cursor >= stop:
                    break
        else:
            result._append_block(
                np.fromiter((self[i] for i in range(start, stop, step)),
                            dtype=np.int64))
        return result

    def __iter__(self) -> Iterator[int]:
        for block in self._blocks:
            for value in block.tolist():
                yield value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IdFrame):
            if self._length != other._length:
                return False
            return all(a == b for a, b in zip(self, other))
        if isinstance(other, (list, tuple)):
            return self._length == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> None:  # mutable container
        raise TypeError("IdFrame is unhashable")

    def __repr__(self) -> str:
        preview = ", ".join(str(v) for v in self[:4])
        ellipsis = ", ..." if self._length > 4 else ""
        return (f"IdFrame([{preview}{ellipsis}] len={self._length} "
                f"blocks={len(self._blocks)})")
