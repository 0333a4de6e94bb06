"""Contiguous sub-channel allocation patterns and the (user, pattern) option table.

Every allocatable unit is a contiguous block of sub-channels (the single-carrier
constraint), so the full catalogue of options on N sub-channels is one empty
pattern plus N*(N+1)/2 blocks.  All users share the same catalogue; each model
scores it as one ``OptionTable``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

MAX_SUBCHANNELS = 32


def read_only(array) -> np.ndarray:
    """A view of ``array`` that raises ValueError on an in-place write."""
    view = np.asarray(array).view()
    view.flags.writeable = False
    return view


def require_integer(name: str, value) -> None:
    """Refuse, naming the field, a ``value`` that is a bool or not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_number(name: str, value) -> None:
    """Refuse, naming the field, a ``value`` that is not a real number, or a
    sequence with an entry that is not; a bool or a string is not a number."""
    many = isinstance(value, (tuple, list, np.ndarray))
    if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in (value if many else (value,))):
        raise ValueError(f"{name} must be {'numbers' if many else 'a number'}, got {value!r}")


def require_bool(name: str, value) -> None:
    """Refuse, naming the field, a ``value`` that is not a bool: the string
    "false" would read as true."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")


class PatternBoundsError(ValueError):
    """Sub-channel count outside the supported 1..MAX_SUBCHANNELS range."""


@dataclass(frozen=True, eq=False)
class PatternSet:
    """Catalogue of contiguous patterns on ``n_subchannels`` channels.

    Column 0 is the empty pattern and every other column one block of
    sub-channels, listed by its 1-based indices.  The catalogue is the one
    owner of block geometry: ``starts`` and ``sizes`` give each column's
    first sub-channel and length, and no reader relies on the order of the
    columns.  Instances are immutable and the derived arrays read-only,
    since every caller shares them.  A set hashes and compares by identity,
    as ``enumerate_patterns`` keeps one catalogue per sub-channel count.
    """

    n_subchannels: int
    columns: tuple[tuple[int, ...], ...]

    @property
    def n_patterns(self) -> int:
        return len(self.columns)

    @cached_property
    def starts(self) -> np.ndarray:
        """Each block's 0-based first sub-channel, 0 for the empty pattern."""
        return read_only(np.array([c[0] - 1 if c else 0 for c in self.columns], dtype=np.int64))

    @cached_property
    def sizes(self) -> np.ndarray:
        return read_only(np.array([len(c) for c in self.columns], dtype=np.int64))


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
    # by (length, start): the options' order, and so every tie-break, follows it
    cols: list[tuple[int, ...]] = [()]
    for length in range(1, n_subchannels + 1):
        for start in range(1, n_subchannels - length + 2):
            cols.append(tuple(range(start, start + length)))
    return PatternSet(n_subchannels=n_subchannels, columns=tuple(cols))


@dataclass(frozen=True)
class OptionTable:
    """One drop's (user, pattern) options, as both models build them.

    Every array has shape (K, J), column j scoring pattern j of ``patterns``.
    ``weights`` is what the assignment minimises (-utility for sumax, cost
    for jamsc), NaN where ``allowed`` is False.  ``modulation`` indexes
    ``modulation_names``, -1 for none; ``power_w`` is the per-sub-channel
    transmit power and ``snr_eff`` the effective SNR, NaN where undefined.
    """

    patterns: PatternSet
    weights: np.ndarray
    allowed: np.ndarray
    modulation: np.ndarray
    modulation_names: tuple[str, ...]
    power_w: np.ndarray
    snr_eff: np.ndarray

    @property
    def n_users(self) -> int:
        return self.weights.shape[0]

    @property
    def infeasible_users(self) -> tuple[int, ...]:
        """Users left with no allowed option at all."""
        return tuple(np.nonzero(~self.allowed.any(axis=1))[0].tolist())

    def total(self, pattern_choice: Sequence[int]) -> float:
        """Total weight of one pattern index per user, summed in user order.

        Raises ValueError unless there is one choice per user and each is
        allowed; overlapping patterns are summed, as feasibility is checked
        elsewhere.
        """
        if len(pattern_choice) != self.n_users:
            raise ValueError("need exactly one pattern index per user")
        total = 0.0
        for k, j in enumerate(pattern_choice):
            if not self.allowed[k, j]:
                raise ValueError(f"choice (user={k}, pattern={j}) is masked")
            total += float(self.weights[k, j])
        return total
