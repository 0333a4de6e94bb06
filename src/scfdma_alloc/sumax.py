"""Sum-utility maximisation model (sumax) and threshold-based adaptive modulation.

Each user k is scored on every contiguous pattern j: the total power budget is
spread evenly over the pattern (respecting the per-sub-channel peak), the
equaliser's effective SNR is computed, and the utility defaults to the weighted
rate  w_k * |pattern| * log2(1 + snr_eff).  The empty pattern scores 0.  Each
option carries the highest modulation whose SNR threshold it meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelGains, EmptyPatternError, ScenarioConfig, effective_snr_mmse, effective_snr_zf
from .patterns import OptionTable, PatternSet, enumerate_patterns, require_integer


@dataclass(frozen=True)
class ModulationTable:
    """Modulation orders with effective-SNR activation thresholds (linear scale).

    Names are distinct, bits_per_symbol are integers, and thresholds must be
    strictly increasing with bits_per_symbol.  The defaults are synthetic
    placeholders (6/12/18 dB); calibrate per deployment.
    """

    names: tuple[str, ...] = ("QPSK", "16QAM", "64QAM")
    bits_per_symbol: tuple[int, ...] = (2, 4, 6)
    thresholds: tuple[float, ...] = (4.0, 16.0, 64.0)

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.bits_per_symbol) == len(self.thresholds)):
            raise ValueError("names, bits_per_symbol and thresholds must have equal length")
        if len(self.names) == 0:
            raise ValueError("modulation table cannot be empty")
        if not all(0 < b < np.inf for b in self.bits_per_symbol):
            raise ValueError(f"bits_per_symbol must be positive and finite, got {self.bits_per_symbol}")
        for b in self.bits_per_symbol:
            require_integer("bits_per_symbol", b)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"names repeat a name: {self.names}")
        if not all(0 < t < np.inf for t in self.thresholds):
            raise ValueError(f"thresholds must be positive and finite, got {self.thresholds}")
        if any(b2 <= b1 for b1, b2 in zip(self.bits_per_symbol, self.bits_per_symbol[1:])):
            raise ValueError("bits_per_symbol must be strictly increasing")
        if any(t2 <= t1 for t1, t2 in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    @property
    def n_modulations(self) -> int:
        return len(self.names)

    def restricted(self, name: str) -> "ModulationTable":
        """Single-entry table for fixed-modulation runs."""
        if name not in self.names:
            raise ValueError(f"unknown modulation {name!r}; have {self.names}")
        i = self.names.index(name)
        return ModulationTable(
            names=(self.names[i],),
            bits_per_symbol=(self.bits_per_symbol[i],),
            thresholds=(self.thresholds[i],),
        )


def select_modulation(snr_eff: float, table: ModulationTable) -> int | None:
    """Highest modulation whose threshold is still met; None if even the lowest fails.

    The boundary is inclusive: snr_eff equal to a threshold activates it.
    """
    best = None
    for m, thr in enumerate(table.thresholds):
        if thr <= snr_eff:
            best = m
    return best


def pattern_effective_snr(
    gain_row: np.ndarray,
    pattern: Sequence[int],
    p_max: float,
    p_peak: float,
    equalizer: str = "mmse",
) -> float:
    """Effective SNR of one user on one pattern under even power spreading.

    Per-sub-channel power is min(p_peak, p_max / len(pattern)).  ``pattern``
    holds 1-based sub-channel indices; empty patterns raise EmptyPatternError.
    """
    if len(pattern) == 0:
        raise EmptyPatternError("effective SNR is undefined for the empty pattern")
    idx = np.asarray(pattern, dtype=int) - 1
    power = min(p_peak, p_max / len(pattern))
    snrs = power * np.asarray(gain_row, dtype=float)[idx]
    if equalizer == "mmse":
        return effective_snr_mmse(snrs)
    if equalizer == "zf":
        return effective_snr_zf(snrs)
    raise ValueError(f"unknown equalizer {equalizer!r}")


def weighted_rate(n_subchannels: int, snr_eff: np.ndarray) -> np.ndarray:
    """Default utility shape: pattern size times spectral efficiency, elementwise."""
    return n_subchannels * np.log2(1.0 + snr_eff)


def build_sumax(
    gains: ChannelGains,
    config: ScenarioConfig,
    weights: Sequence[float] | None = None,
    patterns: PatternSet | None = None,
    rate_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = weighted_rate,
    modulations: ModulationTable = ModulationTable(),
) -> OptionTable:
    """Score every (user, pattern) pair on one channel realisation.

    ``rate_fn(sizes, snr_eff)`` is the pluggable utility shape, called once
    per build: ``sizes`` is the (J-1,) int array of the non-empty patterns'
    sizes, broadcast against their (K, J-1) effective SNRs.  The per-user
    weight multiplies it, and the table's weights are the utilities negated.
    Utilities are non-negative for non-decreasing rate_fn with
    rate_fn(size, 0) = 0.  Every option is allowed, at power
    min(p_peak, p_max / size) and the highest of ``modulations`` whose
    threshold its effective SNR meets (``select_modulation``).  The empty
    pattern has utility 0, power 0, NaN SNR and no modulation.  Raises
    ValueError for weights that are not one finite number per user.
    """
    g = gains.gains
    k_users, n_sub = g.shape
    if patterns is None:
        patterns = enumerate_patterns(n_sub)
    if patterns.n_subchannels != n_sub:
        raise ValueError("pattern set does not match the channel's sub-channel count")
    w = np.ones(k_users) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (k_users,):
        raise ValueError(f"weights must have shape ({k_users},)")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w.tolist()}")
    p_max = config.per_user("p_max_w")
    p_peak = config.per_user("p_peak_w")

    # per-length powers (K, N) and SNR transforms (K, N, N), the last axis the
    # sub-channel; a block's mean transform is one window of the cumulative sum
    power = np.minimum(p_peak[:, None], p_max[:, None] / np.arange(1, n_sub + 1))
    snr = power[:, :, None] * g[:, None, :]
    t = snr / (1.0 + snr) if config.equalizer == "mmse" else 1.0 / snr
    csum = np.concatenate([np.zeros((k_users, n_sub, 1)), np.cumsum(t, axis=2)], axis=2)
    sizes, starts = patterns.sizes[1:], patterns.starts[1:]
    mean = (csum[:, sizes - 1, starts + sizes] - csum[:, sizes - 1, starts]) / sizes
    gamma = mean / (1.0 - mean) if config.equalizer == "mmse" else 1.0 / mean

    shape = (k_users, patterns.n_patterns)
    utilities = np.zeros(shape)
    utilities[:, 1:] = w[:, None] * rate_fn(sizes, gamma)
    power_w = np.zeros(shape)
    power_w[:, 1:] = power[:, sizes - 1]
    snr_eff = np.full(shape, np.nan)
    snr_eff[:, 1:] = gamma
    # the count of thresholds at or below the SNR, less one, as select_modulation
    modulation = np.searchsorted(modulations.thresholds, snr_eff, "right") - 1
    modulation[:, 0] = -1  # the empty pattern's NaN SNR sorts past every threshold
    return OptionTable(
        patterns=patterns,
        weights=-utilities,
        allowed=np.ones(shape, dtype=bool),
        modulation=modulation,
        modulation_names=modulations.names,
        power_w=power_w,
        snr_eff=snr_eff,
    )
