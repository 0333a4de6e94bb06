"""Contiguous sub-channel allocation patterns.

Every allocatable unit is a contiguous block of sub-channels (the single-carrier
constraint), so the full catalogue of options on N sub-channels is one empty
pattern plus N*(N+1)/2 blocks.  All users share the same catalogue; each model
scores it as one (user, pattern) table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

MAX_SUBCHANNELS = 32


class PatternBoundsError(ValueError):
    """Sub-channel count outside the supported 1..MAX_SUBCHANNELS range."""


@dataclass(frozen=True, eq=False)
class PatternSet:
    """Ordered catalogue of contiguous patterns on ``n_subchannels`` channels.

    Column 0 is the empty pattern.  The remaining columns are sorted by
    (length, start), both ascending.  Sub-channel indices are 1-based.
    Instances are immutable; treat the derived arrays as read-only.  A set
    hashes and compares by identity, as ``enumerate_patterns`` keeps one
    catalogue per sub-channel count.
    """

    n_subchannels: int
    columns: tuple[tuple[int, ...], ...]

    EMPTY = 0

    @property
    def n_patterns(self) -> int:
        return len(self.columns)

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.columns], dtype=np.int64)

    @cached_property
    def matrix(self) -> np.ndarray:
        """0/1 incidence matrix, shape (n_subchannels, n_patterns)."""
        mat = np.zeros((self.n_subchannels, self.n_patterns), dtype=np.int8)
        for j, col in enumerate(self.columns):
            for n in col:
                mat[n - 1, j] = 1
        return mat

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        out = {}
        for j, col in enumerate(self.columns):
            if col:
                out[(col[0], len(col))] = j
        return out

    def index_of(self, start: int, length: int) -> int:
        """Column index of the block [start, start+length-1]; 0 selects empty."""
        if length == 0:
            return self.EMPTY
        try:
            return self._index[(start, length)]
        except KeyError:
            raise KeyError(f"no contiguous pattern with start={start} length={length}") from None

    def index_of_set(self, subchannels: tuple[int, ...]) -> int:
        sub = tuple(sorted(subchannels))
        if not sub:
            return self.EMPTY
        if sub != tuple(range(sub[0], sub[0] + len(sub))):
            raise KeyError(f"{subchannels} is not contiguous")
        return self.index_of(sub[0], len(sub))


def enumerate_patterns(n_subchannels: int) -> PatternSet:
    """The empty pattern plus every contiguous block, one catalogue per count.

    Every call with the same count, a Python or a numpy int, returns the same
    PatternSet.  Raises PatternBoundsError unless 1 <= n_subchannels <=
    MAX_SUBCHANNELS.
    """
    if not isinstance(n_subchannels, (int, np.integer)) or isinstance(n_subchannels, bool):
        raise PatternBoundsError(f"sub-channel count must be an int, got {n_subchannels!r}")
    if not 1 <= n_subchannels <= MAX_SUBCHANNELS:
        raise PatternBoundsError(
            f"sub-channel count must be in 1..{MAX_SUBCHANNELS}, got {n_subchannels}"
        )
    return _catalogue(int(n_subchannels))


@cache
def _catalogue(n_subchannels: int) -> PatternSet:
    cols: list[tuple[int, ...]] = [()]
    for length in range(1, n_subchannels + 1):
        for start in range(1, n_subchannels - length + 2):
            cols.append(tuple(range(start, start + length)))
    return PatternSet(n_subchannels=n_subchannels, columns=tuple(cols))
