"""Joint adaptive-modulation / sum-cost minimisation model (jamsc).

Each (user, pattern) option carries the lowest modulation whose minimum
sub-channel count the pattern reaches.  Its transmit power is set so the
pattern's effective MMSE SNR exactly meets that modulation's activation
threshold, and its cost is -exp(p_max - p): cheapest when the power headroom
is largest.  The lowest modulation is exact for the joint problem: on a fixed
pattern the solved power rises with the threshold, so the cost never falls as
the modulation order rises.  Options whose pattern is too short to carry the
user's target rate under any modulation are masked out entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelGains, EmptyPatternError, ScenarioConfig
from .patterns import PatternSet, enumerate_patterns
from .sumax import ModulationTable

# Ceiling guard: keeps exact rate/capacity matches from rounding up on fp dust.
_CEIL_GUARD = 1e-9


class PowerSolveError(RuntimeError):
    """The target-SNR power equation could not be bracketed or solved."""


@dataclass(frozen=True)
class FrameConfig:
    """Frame timing used to convert a bit rate into a sub-channel count."""

    tti_s: float = 0.5e-3
    symbols_per_subchannel: int = 12

    def __post_init__(self) -> None:
        if self.tti_s <= 0:
            raise ValueError("tti_s must be positive")
        if self.symbols_per_subchannel < 1:
            raise ValueError("symbols_per_subchannel must be >= 1")


def min_subchannels(target_rate_bps: float, bits_per_symbol: int, frame: FrameConfig) -> int:
    """Fewest sub-channels that carry ``target_rate_bps`` in one TTI.

    ceil(rate * tti / (bits_per_symbol * symbols_per_subchannel)), at least 1.
    """
    if target_rate_bps <= 0:
        raise ValueError("target_rate_bps must be positive")
    if bits_per_symbol <= 0:
        raise ValueError("bits_per_symbol must be positive")
    bits_needed = target_rate_bps * frame.tti_s
    bits_per_pattern_unit = bits_per_symbol * frame.symbols_per_subchannel
    return max(1, math.ceil(bits_needed / bits_per_pattern_unit - _CEIL_GUARD))


def min_count_matrix(
    targets_bps: Sequence[float], table: ModulationTable, frame: FrameConfig
) -> np.ndarray:
    """(K, M) matrix of minimum sub-channel counts for each user and modulation."""
    return np.array(
        [[min_subchannels(r, b, frame) for b in table.bits_per_symbol] for r in targets_bps],
        dtype=np.int64,
    )


def lowest_modulation(patterns: PatternSet, min_counts: np.ndarray) -> np.ndarray:
    """(K, J) index of the lowest modulation each (user, pattern) can carry.

    ``min_counts`` must be (K, M) with entries >= 1, non-increasing along the
    modulation axis (higher-order modulations never need more sub-channels),
    so the modulations a pattern reaches are a suffix of the table.  Entries
    are -1 where the pattern reaches none, and always for the empty pattern.
    A user whose minima all exceed the band size simply ends up with no
    option; that is reported, not fatal.
    """
    counts = np.asarray(min_counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError(f"min_counts must be 2-D (users x modulations), got shape {counts.shape}")
    if (counts < 1).any():
        raise ValueError("min_counts entries must be >= 1")
    if counts.shape[1] > 1 and (np.diff(counts, axis=1) > 0).any():
        raise ValueError("min_counts must be non-increasing along the modulation axis")
    # the count of modulations the pattern misses is the first one it reaches
    lowest = (counts[:, :, None] > patterns.sizes[None, None, :]).sum(axis=1)
    return np.where(lowest < counts.shape[1], lowest, -1)


def _solve_powers_vec(gains_padded: np.ndarray, sizes: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Vector bisection for the per-option target-SNR powers.

    Row t of ``gains_padded`` holds the pattern's gains padded with zeros.
    Solves sum_n p*g / (size + p*g) = size * thr / (1 + thr) for p > 0; the
    left side grows monotonically from 0 to the pattern size, so a unique
    positive root always exists.
    """
    sizes = np.asarray(sizes, dtype=float)
    target = sizes * thresholds / (1.0 + thresholds)

    def lhs(p):
        pg = p[:, None] * gains_padded
        return np.sum(pg / (sizes[:, None] + pg), axis=1)

    hi = np.ones(len(sizes))
    for _ in range(200):
        short = lhs(hi) < target
        if not short.any():
            break
        hi = np.where(short, hi * 2.0, hi)
    else:
        raise PowerSolveError("failed to bracket the target-SNR power")
    lo = np.zeros(len(sizes))
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        below = lhs(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def solve_pattern_power(pattern_gains: Sequence[float], threshold: float) -> float:
    """Power that makes the pattern's effective MMSE SNR equal the threshold.

    ``pattern_gains`` holds the normalised gains of the pattern's sub-channels.
    Bisection with a doubling upper bracket; the residual of the defining
    equation is driven below 1e-10 in relative terms.
    """
    g = np.asarray(pattern_gains, dtype=float)
    if g.size == 0:
        raise EmptyPatternError("cannot solve power for an empty pattern")
    if (g <= 0).any() or not np.isfinite(g).all():
        raise ValueError("pattern gains must be finite and > 0")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return float(_solve_powers_vec(g[None, :], np.array([g.size]), np.array([float(threshold)]))[0])


def cost(p_max: float, power: float) -> float:
    """Option cost -exp(p_max - power); more headroom means lower cost."""
    return -math.exp(p_max - power)


@dataclass(frozen=True)
class JamscInstance:
    """Per-(user, pattern) modulation, power and cost for one realisation.

    ``modulation``, ``powers`` and ``costs`` have shape (K, J).  A masked
    option has modulation -1 and NaN power and cost; masked options carry no
    usable numbers.
    """

    modulation: np.ndarray
    powers: np.ndarray
    costs: np.ndarray
    patterns: PatternSet
    table: ModulationTable
    targets_bps: np.ndarray
    p_max: np.ndarray
    seed: int | None = None

    @property
    def n_users(self) -> int:
        return self.costs.shape[0]

    @property
    def allowed(self) -> np.ndarray:
        return self.modulation >= 0

    @property
    def infeasible_users(self) -> tuple[int, ...]:
        """Users left with no allowed option at all."""
        return tuple(np.nonzero(~self.allowed.any(axis=1))[0].tolist())


def build_jamsc(
    gains: ChannelGains,
    config: ScenarioConfig,
    targets_bps: Sequence[float],
    table: ModulationTable,
    frame: FrameConfig = FrameConfig(),
    patterns: PatternSet | None = None,
    strict_cap: bool = False,
) -> JamscInstance:
    """Build the jamsc option tables for one channel realisation.

    With ``strict_cap`` options whose solved power exceeds the user's budget
    are masked out; every higher modulation on that pattern needs still more
    power, so masking the whole (user, pattern) is exact.  By default they
    stay allowed and simply price in as very costly.  Users left with no option at all are
    listed in ``infeasible_users`` rather than raising here.
    """
    g = gains.gains
    k_users, n_sub = g.shape
    if patterns is None:
        patterns = enumerate_patterns(n_sub)
    if patterns.n_subchannels != n_sub:
        raise ValueError("pattern set does not match the channel's sub-channel count")
    targets = np.asarray(targets_bps, dtype=float)
    if targets.shape != (k_users,):
        raise ValueError(f"targets_bps must have shape ({k_users},)")
    p_max = config.per_user("p_max_w")

    modulation = lowest_modulation(patterns, min_count_matrix(targets, table, frame))
    k_idx, j_idx = np.nonzero(modulation >= 0)
    powers = np.full(modulation.shape, np.nan)
    costs = np.full(modulation.shape, np.nan)
    if len(k_idx):
        sizes = patterns.sizes[j_idx]
        padded = np.zeros((len(k_idx), int(sizes.max())))
        for t, (k, j) in enumerate(zip(k_idx, j_idx)):
            col = patterns.columns[j]
            padded[t, : len(col)] = g[k, col[0] - 1 : col[0] - 1 + len(col)]
        thr = np.asarray(table.thresholds, dtype=float)[modulation[k_idx, j_idx]]
        p = _solve_powers_vec(padded, sizes, thr)
        powers[k_idx, j_idx] = p
        costs[k_idx, j_idx] = -np.exp(p_max[k_idx] - p)
        if strict_cap:
            over = p > p_max[k_idx]
            modulation[k_idx[over], j_idx[over]] = -1
            powers[k_idx[over], j_idx[over]] = np.nan
            costs[k_idx[over], j_idx[over]] = np.nan

    return JamscInstance(
        modulation=modulation,
        powers=powers,
        costs=costs,
        patterns=patterns,
        table=table,
        targets_bps=targets,
        p_max=p_max,
        seed=gains.seed,
    )


def sum_cost(instance: JamscInstance, pattern_choice: Sequence[int]) -> float:
    """Total cost of one pattern index per user, each at its lowest modulation.

    Raises ValueError when a chosen option is masked; masked entries never
    contribute a numeric cost.
    """
    if len(pattern_choice) != instance.n_users:
        raise ValueError("need exactly one pattern index per user")
    total = 0.0
    for k, j in enumerate(pattern_choice):
        if instance.modulation[k, j] < 0:
            raise ValueError(f"choice (user={k}, pattern={j}) is masked")
        total += float(instance.costs[k, j])
    return total
