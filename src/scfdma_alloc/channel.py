"""Scenario configuration, uplink channel generation, and effective-SNR formulas.

Per-user link gain combines Cost-Hata path loss, lognormal shadowing, and
per-sub-channel Rayleigh power fading, normalised by the thermal noise power of
one sub-channel.  The resulting gain is "SNR per transmitted watt", so
snr[k, n] = p * gains[k, n] for transmit power p on that sub-channel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .patterns import MAX_SUBCHANNELS, require_bool, require_integer, require_number


def config_from_dict(cls, data: dict, section: str):
    """Build the config dataclass ``cls`` from one parsed JSON section.

    Keys that are not fields of ``cls`` raise ValueError naming ``section``;
    JSON lists become tuples, the type of the dataclasses' sequence fields.
    """
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    return cls(**{k: (tuple(v) if isinstance(v, list) else v) for k, v in data.items()})


class EmptyPatternError(ValueError):
    """An operation that needs at least one sub-channel got an empty pattern."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Deployment and radio parameters for one simulated cell.

    Propagation defaults follow the Cost-Hata (COST-231) urban-macro model at
    2 GHz with a 30 m base station and 1.5 m terminals; they are plain
    configuration values that a caller may override.  Frozen, so no field
    skips the checks: ``dataclasses.replace`` checks its copy.  Powers are in watts:
    ``p_max_w`` is each user's total budget, ``p_peak_w`` the per-sub-channel
    cap.  Either may be a scalar or a per-user sequence.  Raises ValueError,
    naming the field, for a number field that holds a string or a bool, for
    a ``rayleigh_fading`` that is not a bool, for a NaN or infinite number
    (``p_peak_w`` may be infinite: no cap), for a non-integer or bool
    ``n_users`` or ``n_subchannels`` and for a non-positive frequency,
    height, bandwidth or power.
    """

    n_users: int = 4
    n_subchannels: int = 8
    subchannel_bandwidth_hz: float = 180e3
    cell_radius_m: float = 800.0
    min_distance_m: float = 50.0
    carrier_freq_mhz: float = 2000.0
    bs_height_m: float = 30.0
    ue_height_m: float = 1.5
    metro_correction_db: float = 3.0
    shadowing_std_db: float = 8.0
    noise_psd_dbm_hz: float = -174.0
    p_max_w: float | tuple[float, ...] = 1.0
    p_peak_w: float | tuple[float, ...] = 0.5
    equalizer: str = "mmse"
    rayleigh_fading: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "rayleigh_fading":
                require_bool(f.name, value)
            elif f.name in ("n_users", "n_subchannels"):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{f.name} must be a finite number, got {value!r}")
                require_integer(f.name, value)
            elif f.name != "equalizer":
                require_number(f.name, value)
                arr = np.asarray(value, dtype=float)
                # an infinite per-sub-channel peak is no cap: p_max_w still bounds the power
                if np.isnan(arr).any() or (np.isinf(arr).any() and f.name != "p_peak_w"):
                    raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("subchannel_bandwidth_hz", "carrier_freq_mhz", "bs_height_m", "ue_height_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not 1 <= self.n_subchannels <= MAX_SUBCHANNELS:
            raise ValueError(f"n_subchannels must be in 1..{MAX_SUBCHANNELS}, got {self.n_subchannels}")
        if self.equalizer not in ("mmse", "zf"):
            raise ValueError(f"equalizer must be 'mmse' or 'zf', got {self.equalizer!r}")
        if not 0 < self.min_distance_m <= self.cell_radius_m:
            raise ValueError("need 0 < min_distance_m <= cell_radius_m")
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing_std_db must be >= 0")
        for name in ("p_max_w", "p_peak_w"):
            arr = self.per_user(name)
            if (arr <= 0).any():
                raise ValueError(f"{name} must be positive")

    def per_user(self, name: str) -> np.ndarray:
        """Scalar-or-sequence power field expanded to a length-K array."""
        value = getattr(self, name)
        if np.isscalar(value):
            return np.full(self.n_users, float(value))
        arr = np.asarray(value, dtype=float)
        if arr.shape != (self.n_users,):
            raise ValueError(f"{name} must be scalar or length {self.n_users}, got shape {arr.shape}")
        return arr

    @property
    def noise_power_w(self) -> float:
        return 10.0 ** ((self.noise_psd_dbm_hz - 30.0) / 10.0) * self.subchannel_bandwidth_hz

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return config_from_dict(cls, data, "scenario")

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ChannelGains:
    """One channel realisation: normalised gains, shape (n_users, n_subchannels)."""

    gains: np.ndarray
    seed: int
    distances_m: np.ndarray = field(repr=False, default=None)

    @property
    def n_users(self) -> int:
        return self.gains.shape[0]

    @property
    def n_subchannels(self) -> int:
        return self.gains.shape[1]

    def to_csv(self, path: str) -> None:
        """Write one row per user, one column per sub-channel, full precision."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in self.gains:
                fh.write(",".join(repr(float(g)) for g in row) + "\n")


def cost_hata_path_loss_db(distance_m: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Cost-Hata (COST-231) path loss in dB at the configured frequency/heights."""
    d_km = np.asarray(distance_m, dtype=float) / 1000.0
    log_f = np.log10(cfg.carrier_freq_mhz)
    a_hm = (1.1 * log_f - 0.7) * cfg.ue_height_m - (1.56 * log_f - 0.8)
    slope = 44.9 - 6.55 * np.log10(cfg.bs_height_m)
    return (
        46.3
        + 33.9 * log_f
        - 13.82 * np.log10(cfg.bs_height_m)
        - a_hm
        + slope * np.log10(d_km)
        + cfg.metro_correction_db
    )


def generate_channel(cfg: ScenarioConfig, seed: int) -> ChannelGains:
    """Draw one deterministic channel realisation for the given seed.

    Users are placed uniformly over the annulus between min_distance_m and
    cell_radius_m (uniform in area).  Shadowing is lognormal per user;
    Rayleigh power fading is an independent unit-mean exponential per
    (user, sub-channel), or exactly 1 when ``rayleigh_fading`` is off.
    Raises ValueError for a negative seed.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    k, n = cfg.n_users, cfg.n_subchannels
    u = rng.uniform(size=k)
    dist = np.sqrt(cfg.min_distance_m**2 + u * (cfg.cell_radius_m**2 - cfg.min_distance_m**2))
    loss_db = cost_hata_path_loss_db(dist, cfg)
    loss_db = loss_db + rng.normal(0.0, cfg.shadowing_std_db, size=k)
    if cfg.rayleigh_fading:
        fading = rng.exponential(1.0, size=(k, n))
    else:
        fading = np.ones((k, n))
    gains = 10.0 ** (-loss_db[:, None] / 10.0) * fading / cfg.noise_power_w
    return ChannelGains(gains=gains, seed=seed, distances_m=dist)


def _as_positive_snrs(snrs) -> np.ndarray:
    x = np.asarray(snrs, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise EmptyPatternError("effective SNR needs a non-empty 1-D SNR vector")
    if (x <= 0).any() or not np.isfinite(x).all():
        raise ValueError("per-sub-channel SNRs must be finite and > 0")
    return x


def effective_snr_mmse(snrs) -> float:
    """Effective post-equaliser SNR of an MMSE receiver over the given sub-channels.

    With m = mean(x / (1 + x)) the result is (1/m - 1)**-1, always positive and
    finite for positive inputs.
    """
    x = _as_positive_snrs(snrs)
    m = float(np.mean(x / (1.0 + x)))
    return m / (1.0 - m)


def effective_snr_zf(snrs) -> float:
    """Effective SNR of a zero-forcing receiver: harmonic mean of the inputs."""
    x = _as_positive_snrs(snrs)
    return x.size / float(np.sum(1.0 / x))
