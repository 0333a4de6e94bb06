"""Joint adaptive-modulation / sum-cost minimisation model (jamsc).

Each (user, pattern) option carries the lowest modulation whose minimum
sub-channel count the pattern reaches.  Its transmit power p is set so the
pattern's effective SNR, over the per-sub-channel SNRs p * g_n / size, exactly
meets that modulation's activation threshold thr under the scenario's
equaliser: the root of sum_n p*g_n / (size + p*g_n) = size * thr / (1 + thr)
for MMSE (a Newton solve), and p = thr * sum_n 1/g_n for ZF, whose effective
SNR is the harmonic mean.  Its cost is -exp(p_max - p): cheapest when the
power headroom is largest.  The lowest modulation is exact for the joint
problem: on a fixed pattern the solved power rises with the threshold, so
the cost never falls as the modulation order rises.  Options whose pattern is too short to carry the
user's target rate under any modulation are masked out entirely.  What does
not depend on the gains (the modulations, masks, SNRs, options and the power
solve's padded gain index) is a ``JamscPlan``, built once per configuration
and shared read-only by its drops; a strict-cap drop masks copies of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channel import ChannelGains, EmptyPatternError, ScenarioConfig
from .patterns import OptionTable, PatternSet, enumerate_patterns, read_only, require_integer
from .sumax import ModulationTable

# Ceiling guard: keeps exact rate/capacity matches from rounding up on fp dust.
_CEIL_GUARD = 1e-9


# Newton passes per power solve: from the Jensen start, paper drops settle in at
# most 13 (9.5 on average), gains spread over ten decades in under 20.
MAX_NEWTON_STEPS = 100


class PowerSolveError(RuntimeError):
    """The target-SNR power equation gave a non-finite power or did not settle."""


@dataclass(frozen=True)
class FrameConfig:
    """Frame timing used to convert a bit rate into a sub-channel count."""

    tti_s: float = 0.5e-3
    symbols_per_subchannel: int = 12

    def __post_init__(self) -> None:
        if not 0 < self.tti_s < math.inf:
            raise ValueError(f"tti_s must be positive and finite, got {self.tti_s}")
        if not 1 <= self.symbols_per_subchannel < math.inf:
            raise ValueError(f"symbols_per_subchannel must be finite and >= 1, got {self.symbols_per_subchannel}")
        require_integer("symbols_per_subchannel", self.symbols_per_subchannel)


def _min_counts(rates: np.ndarray, bits: np.ndarray, frame: FrameConfig) -> np.ndarray:
    """ceil(rate * tti / (bits_per_symbol * symbols_per_subchannel)), at least 1, broadcast."""
    if not (np.isfinite(rates) & (rates > 0)).all():
        raise ValueError(f"target_rate_bps must be positive and finite, got {np.ravel(rates).tolist()}")
    if (bits <= 0).any():
        raise ValueError("bits_per_symbol must be positive")
    bits_needed = rates * frame.tti_s
    bits_per_pattern_unit = bits * frame.symbols_per_subchannel
    return np.maximum(1, np.ceil(bits_needed / bits_per_pattern_unit - _CEIL_GUARD)).astype(np.int64)


def min_subchannels(target_rate_bps: float, bits_per_symbol: int, frame: FrameConfig) -> int:
    """Fewest sub-channels that carry ``target_rate_bps`` in one TTI, one entry of ``min_count_matrix``."""
    return int(_min_counts(np.asarray(target_rate_bps, dtype=float), np.asarray(bits_per_symbol), frame))


def min_count_matrix(targets_bps: Sequence[float], table: ModulationTable, frame: FrameConfig) -> np.ndarray:
    """(K, M) matrix of minimum sub-channel counts for each user and modulation."""
    rates = np.asarray(targets_bps, dtype=float)[:, None]
    return _min_counts(rates, np.asarray(table.bits_per_symbol), frame)


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


def _jensen_start(gains_padded: np.ndarray, sizes: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per-row lower bound size**2 * thr / sum(g) on the target-SNR power.

    h(z) = z / (size + z) is concave, so by Jensen's inequality
    f(p) = sum_n h(p*g_n) <= size * h(p * mean(g)), and the bound is the p at
    which the right side meets the target.  It is the root itself for one
    sub-channel and for equal gains.  An all-zero row divides by zero.
    """
    sizes = np.asarray(sizes, dtype=float)
    return sizes * sizes * thresholds / gains_padded.sum(axis=1)


def _solve_powers_vec(gains_padded: np.ndarray, sizes: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Newton's method for the per-option target-SNR powers.

    Row t of ``gains_padded`` holds the pattern's gains padded with zeros.
    Solves f(p) = sum_n p*g / (size + p*g) = size * thr / (1 + thr) for p > 0.
    f rises from f(0) = 0 towards the pattern size, so a unique positive root
    exists.  f is concave, so each tangent lies on or above f: a Newton step
    from below the root lands at or below it, and the iterates from the
    Jensen lower bound ``_jensen_start`` rise monotonically to the root with
    no bracket.  A row steps only while the step raises p, and the loop ends
    when no row moves.  Rows are independent and each row's sums run over its
    own padded lanes alone, so a batch returns the bits of one-row calls on
    the same padded rows, however the steps reuse their buffers.  Raises
    PowerSolveError on a non-finite power or after MAX_NEWTON_STEPS steps.
    """
    sizes = np.asarray(sizes, dtype=float)[:, None]
    target = sizes[:, 0] * thresholds / (1.0 + thresholds)
    weighted_gains = gains_padded * sizes
    pg, den = np.empty(gains_padded.shape), np.empty(gains_padded.shape)
    terms = np.empty((2, *gains_padded.shape))  # the terms of f(p) and of f'(p)
    # a non-finite step raises below, so numpy's own warnings would only repeat it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = _jensen_start(gains_padded, sizes[:, 0], thresholds)
        for _ in range(MAX_NEWTON_STEPS):
            np.multiply(p[:, None], gains_padded, out=pg)
            np.add(sizes, pg, out=den)
            np.divide(pg, den, out=terms[0])
            np.divide(weighted_gains, np.multiply(den, den, out=den), out=terms[1])
            lhs, slope = terms.sum(axis=2)
            p_next = p + (target - lhs) / slope
            if not np.isfinite(p_next).all():
                raise PowerSolveError("target-SNR power is not finite")
            moves = p_next > p
            if not moves.any():
                return p
            p = np.where(moves, p_next, p)
    raise PowerSolveError(f"target-SNR power did not settle in {MAX_NEWTON_STEPS} Newton steps")


def solve_pattern_power(pattern_gains: Sequence[float], threshold: float) -> float:
    """Power that makes the pattern's effective MMSE SNR equal the threshold.

    ``pattern_gains`` holds the normalised gains of the pattern's sub-channels.
    One unpadded row of the Newton solve in ``_solve_powers_vec``; the
    residual ends below 1e-10 in relative terms.  ``build_jamsc`` pads its
    rows with zeros, whose sums round otherwise, so its powers are within
    some tens of ulps of this one, not bit for bit.
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
    """Option cost -exp(p_max - power); more headroom means lower cost.

    Within one ulp of ``build_jamsc``'s cost at the same power (``np.exp``).
    """
    return -math.exp(p_max - power)


@dataclass(frozen=True, eq=False)
class JamscPlan:
    """What a jamsc build takes from its configuration alone, read-only as every drop shares it.

    Per modulation table: each (user, pattern)'s lowest modulation (-1 where
    none), its mask, SNR and option (users, patterns) in row-major order.
    Per option of every table in turn: ``lanes``, the flat index of its
    gains in the (K, N + 1) gains padded with a zero column, its size and
    threshold; ``splits`` parts the tables' options.
    """

    modulation: tuple[np.ndarray, ...]
    allowed: tuple[np.ndarray, ...]
    snr_eff: tuple[np.ndarray, ...]
    options: tuple[tuple[np.ndarray, np.ndarray], ...]
    lanes: np.ndarray
    sizes: np.ndarray
    thresholds: np.ndarray
    splits: np.ndarray


# Plans ``build_jamsc`` keeps, one per configuration: a campaign uses one.
@lru_cache(maxsize=4)
def _plan(
    patterns: PatternSet, targets: tuple[float, ...], tables: tuple[ModulationTable, ...], frame: FrameConfig
) -> JamscPlan:
    """The plan of ``build_jamsc`` for one configuration."""
    modulation = [
        read_only(lowest_modulation(patterns, min_count_matrix(targets, table, frame))) for table in tables
    ]
    options = [tuple(map(read_only, np.nonzero(m >= 0))) for m in modulation]
    k_all = np.concatenate([k for k, _ in options])
    j_all = np.concatenate([j for _, j in options])
    sizes = patterns.sizes[j_all]
    lanes = np.arange(int(sizes.max(initial=0)))
    n_pad = patterns.n_subchannels + 1
    # row t, lane i: option t's i-th sub-channel, or its user's zero column
    sub = np.where(lanes < sizes[:, None], patterns.starts[j_all, None] + lanes, n_pad - 1)
    thresholds = [np.asarray(table.thresholds, dtype=float) for table in tables]
    return JamscPlan(
        modulation=tuple(modulation),
        allowed=tuple(read_only(m >= 0) for m in modulation),
        snr_eff=tuple(read_only(np.where(m >= 0, thr[m], np.nan)) for m, thr in zip(modulation, thresholds)),
        options=tuple(options),
        lanes=read_only(k_all[:, None] * n_pad + sub),
        sizes=read_only(sizes.astype(float)),
        thresholds=read_only(np.concatenate([thr[m[k, j]] for thr, m, (k, j) in zip(thresholds, modulation, options)])),
        splits=read_only(np.cumsum([len(k) for k, _ in options])[:-1]),
    )


def build_jamsc(
    gains: ChannelGains,
    config: ScenarioConfig,
    targets_bps: Sequence[float],
    tables: Sequence[ModulationTable],
    frame: FrameConfig = FrameConfig(),
    patterns: PatternSet | None = None,
    strict_cap: bool = False,
) -> tuple[OptionTable, ...]:
    """Build the jamsc option tables for one channel realisation, one per modulation table.

    An option's weight is its cost and its SNR the threshold of its
    modulation; a masked option has modulation -1 and NaN weight, power
    and SNR.  The modulations, masks, SNRs and options come from a
    ``JamscPlan``, built on first use and kept per (pattern set, targets,
    modulation tables, frame); a build gathers the gains, solves the powers
    and prices the costs.  The options of every table get their powers from
    one batched call, the Newton solve for MMSE or the closed form for ZF
    (see the module docstring); its rows are independent, so each table
    holds the bits a build on its table alone gives.  With ``strict_cap``
    options whose solved power exceeds the user's budget are masked out, in
    copies of the plan's arrays; every higher modulation on that pattern
    needs still more power, so masking the whole (user, pattern) is exact.
    By default they stay allowed and simply price in as very costly, and
    the table holds the plan's read-only arrays.  Users left with no option
    at all are listed in the table's ``infeasible_users`` rather than
    raising here.  A ``p_max_w`` so large that the costs, or their per-user
    maxima summed, overflow float64 raises ValueError.
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
    plan = _plan(patterns, tuple(targets.tolist()), tuple(tables), frame)

    padded = np.zeros((k_users, n_sub + 1))
    if config.equalizer == "zf":
        # the harmonic mean of the SNRs p * g / size is p / sum(1 / g)
        padded[:, :n_sub] = 1.0 / g
        solved = plan.thresholds * padded.take(plan.lanes).sum(axis=1)
    else:
        padded[:, :n_sub] = g
        solved = _solve_powers_vec(padded.take(plan.lanes), plan.sizes, plan.thresholds)

    built = []
    per_table = zip(tables, plan.modulation, plan.allowed, plan.snr_eff, plan.options, np.split(solved, plan.splits))
    for table, modulation, allowed, snr_eff, (k_idx, j_idx), p in per_table:
        powers = np.full(modulation.shape, np.nan)
        costs = np.full(modulation.shape, np.nan)
        powers[k_idx, j_idx] = p
        with np.errstate(over="ignore"):  # an overflow is refused below
            costs[k_idx, j_idx] = -np.exp(p_max[k_idx] - p)
            # the oracle and the assignment value add up one cost per user
            scale = np.abs(np.where(allowed, costs, 0.0)).max(axis=1).sum()
        if not np.isfinite(scale):
            raise ValueError(f"p_max_w up to {p_max.max():g} W overflows the jamsc costs -exp(p_max_w - power)")
        if strict_cap:
            over = p > p_max[k_idx]
            modulation, allowed, snr_eff = modulation.copy(), allowed.copy(), snr_eff.copy()
            cells = k_idx[over], j_idx[over]
            modulation[cells] = -1
            allowed[cells] = False
            powers[cells] = costs[cells] = snr_eff[cells] = np.nan
        built.append(
            OptionTable(
                patterns=patterns,
                weights=costs,
                allowed=allowed,
                modulation=modulation,
                modulation_names=table.names,
                power_w=powers,
                snr_eff=snr_eff,
            )
        )
    return tuple(built)
