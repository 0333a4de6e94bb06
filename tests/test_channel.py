import json
import math
import re

import numpy as np
import pytest

from scfdma_alloc.channel import (
    ChannelGains,
    EmptyPatternError,
    ScenarioConfig,
    cost_hata_path_loss_db,
    effective_snr_mmse,
    effective_snr_zf,
    generate_channel,
)


def test_scenario_defaults_valid():
    cfg = ScenarioConfig()
    assert cfg.n_users == 4
    assert cfg.n_subchannels == 8
    assert cfg.equalizer == "mmse"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_users": 0},
        {"n_subchannels": 0},
        {"equalizer": "dfe"},
        {"min_distance_m": 0.0},
        {"min_distance_m": 900.0, "cell_radius_m": 800.0},
        {"shadowing_std_db": -1.0},
        {"p_max_w": 0.0},
        {"p_peak_w": (0.5, -0.1)},
    ],
)
def test_scenario_validation(kwargs):
    base = {"n_users": 2}
    base.update(kwargs)
    with pytest.raises(ValueError):
        ScenarioConfig(**base)


NUMERIC_FIELDS = (
    "n_users", "n_subchannels", "subchannel_bandwidth_hz", "cell_radius_m", "min_distance_m",
    "carrier_freq_mhz", "bs_height_m", "ue_height_m", "metro_correction_db", "shadowing_std_db",
    "noise_psd_dbm_hz", "p_max_w", "p_peak_w",
)


@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_scenario_refuses_nan_naming_the_field(name):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        ScenarioConfig(**{name: math.nan})
    if name in ("p_max_w", "p_peak_w"):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            ScenarioConfig(n_users=2, **{name: (1.0, math.nan)})


@pytest.mark.parametrize("name", [n for n in NUMERIC_FIELDS if n != "p_peak_w"])
def test_scenario_refuses_infinite_numbers_naming_the_field(name):
    for value in (math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            ScenarioConfig(**{name: value})


def test_an_infinite_peak_is_no_per_subchannel_cap():
    cfg = ScenarioConfig(n_users=2, p_peak_w=(math.inf, 0.5))
    assert cfg.per_user("p_peak_w").tolist() == [math.inf, 0.5]
    with pytest.raises(ValueError, match="p_peak_w must be positive"):
        ScenarioConfig(p_peak_w=-math.inf)


@pytest.mark.parametrize(
    "name, value", [("n_users", 2.5), ("n_users", True), ("n_subchannels", 6.5), ("n_subchannels", False)]
)
def test_scenario_refuses_a_count_that_is_not_an_integer(name, value):
    # these used to end at the first drop in a TypeError or a PatternBoundsError
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        ScenarioConfig(**{name: value})
    assert getattr(ScenarioConfig(**{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize(
    "name, value, match",
    [
        # "false" is truthy: this ran with fading
        ("rayleigh_fading", "false", "must be true or false"),
        ("rayleigh_fading", 0, "must be true or false"),
        # this ended in a TypeError from a comparison
        ("cell_radius_m", "800", "must be a number"),
        # these ran as 1.0 W and 1.0 dB
        ("p_max_w", "1.0", "must be a number"),
        ("metro_correction_db", True, "must be a number"),
        ("p_peak_w", (0.5, "0.5", 0.5, 0.5), "must be numbers"),
        ("p_max_w", (1.0, False, 1.0, 1.0), "must be numbers"),
    ],
)
def test_scenario_refuses_a_string_or_bool_where_a_number_or_bool_goes(name, value, match):
    with pytest.raises(ValueError, match=f"^{name} {match}, got {re.escape(repr(value))}$"):
        ScenarioConfig(**{name: value})
    assert not ScenarioConfig(rayleigh_fading=np.bool_(False)).rayleigh_fading
    assert ScenarioConfig(n_users=2, p_max_w=np.array([1.0, 2.0])).per_user("p_max_w").tolist() == [1.0, 2.0]


@pytest.mark.parametrize("name", ["subchannel_bandwidth_hz", "carrier_freq_mhz", "bs_height_m", "ue_height_m"])
def test_scenario_refuses_a_non_positive_frequency_height_or_bandwidth(name):
    for value in (0.0, -5.0):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            ScenarioConfig(**{name: value})


def test_per_user_broadcast_and_sequence():
    cfg = ScenarioConfig(n_users=3, p_max_w=2.0, p_peak_w=(0.5, 0.6, 0.7))
    assert cfg.per_user("p_max_w").tolist() == [2.0, 2.0, 2.0]
    assert cfg.per_user("p_peak_w").tolist() == [0.5, 0.6, 0.7]
    bad = ScenarioConfig(n_users=3)
    object.__setattr__(bad, "p_max_w", (1.0, 1.0))
    with pytest.raises(ValueError):
        bad.per_user("p_max_w")


def test_noise_power_value():
    cfg = ScenarioConfig()
    expected = 10.0 ** ((-174.0 - 30.0) / 10.0) * 180e3
    assert cfg.noise_power_w == pytest.approx(expected, rel=1e-12)
    assert cfg.noise_power_w == pytest.approx(7.165929069962975e-16, rel=1e-12)


def test_path_loss_value_at_500m():
    cfg = ScenarioConfig()
    log_f = math.log10(2000.0)
    a_hm = (1.1 * log_f - 0.7) * 1.5 - (1.56 * log_f - 0.8)
    expected = (
        46.3
        + 33.9 * log_f
        - 13.82 * math.log10(30.0)
        - a_hm
        + (44.9 - 6.55 * math.log10(30.0)) * math.log10(0.5)
        + 3.0
    )
    got = cost_hata_path_loss_db(np.array([500.0]), cfg)
    assert got[0] == pytest.approx(expected, rel=1e-12)
    assert got[0] == pytest.approx(130.14027022997823, rel=1e-12)


def test_path_loss_monotone_in_distance():
    cfg = ScenarioConfig()
    d = np.array([100.0, 200.0, 400.0, 800.0])
    loss = cost_hata_path_loss_db(d, cfg)
    assert np.all(np.diff(loss) > 0)


def test_generate_channel_deterministic():
    cfg = ScenarioConfig(n_users=3, n_subchannels=5)
    a = generate_channel(cfg, 42)
    b = generate_channel(cfg, 42)
    c = generate_channel(cfg, 43)
    assert np.array_equal(a.gains, b.gains)
    assert not np.array_equal(a.gains, c.gains)
    assert a.seed == 42
    assert a.n_users == 3 and a.n_subchannels == 5


def test_distances_within_annulus():
    cfg = ScenarioConfig(n_users=50, n_subchannels=2)
    for seed in range(5):
        ch = generate_channel(cfg, seed)
        assert np.all(ch.distances_m >= cfg.min_distance_m)
        assert np.all(ch.distances_m <= cfg.cell_radius_m)


def test_gains_reduce_to_path_loss_when_fading_off():
    cfg = ScenarioConfig(
        n_users=4, n_subchannels=3, shadowing_std_db=0.0, rayleigh_fading=False
    )
    ch = generate_channel(cfg, 7)
    loss = cost_hata_path_loss_db(ch.distances_m, cfg)
    expected = 10.0 ** (-loss / 10.0) / cfg.noise_power_w
    assert np.allclose(ch.gains, expected[:, None], rtol=1e-12)
    assert np.allclose(ch.gains, ch.gains[:, :1], rtol=0)


def test_rayleigh_power_mean_is_one():
    cfg = ScenarioConfig(
        n_users=1, n_subchannels=1, shadowing_std_db=0.0, rayleigh_fading=True
    )
    base = generate_channel(
        ScenarioConfig(
            n_users=1, n_subchannels=1, shadowing_std_db=0.0, rayleigh_fading=False
        ),
        0,
    )
    rng = np.random.default_rng(123)
    draws = rng.exponential(1.0, size=10_000)
    assert abs(draws.mean() - 1.0) < 0.05
    assert base.gains[0, 0] > 0


def test_effective_snr_mmse_two_point():
    assert effective_snr_mmse([1.0, 3.0]) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_effective_snr_zf_two_point():
    assert effective_snr_zf([1.0, 3.0]) == pytest.approx(1.5, rel=1e-12)


def test_effective_snr_single_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = float(rng.uniform(0.01, 100.0))
        assert effective_snr_mmse([x]) == pytest.approx(x, rel=1e-10)
        assert effective_snr_zf([x]) == pytest.approx(x, rel=1e-12)


def test_effective_snr_mmse_between_min_and_max():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.uniform(0.05, 50.0, size=rng.integers(2, 8))
        eff = effective_snr_mmse(x)
        assert x.min() <= eff <= x.max()
        zf = effective_snr_zf(x)
        assert zf <= eff


def test_effective_snr_rejects_empty_and_nonpositive():
    with pytest.raises(EmptyPatternError):
        effective_snr_mmse([])
    with pytest.raises(EmptyPatternError):
        effective_snr_zf([])
    with pytest.raises(ValueError):
        effective_snr_mmse([1.0, 0.0])
    with pytest.raises(ValueError):
        effective_snr_zf([-1.0])


def test_from_dict_roundtrip(tmp_path):
    data = {"n_users": 2, "n_subchannels": 4, "p_peak_w": [0.3, 0.4]}
    cfg = ScenarioConfig.from_dict(data)
    assert cfg.n_users == 2
    assert cfg.p_peak_w == (0.3, 0.4)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    cfg2 = ScenarioConfig.from_file(str(path))
    assert cfg2 == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({"n_users": 2, "bogus": 1})


def test_gains_csv_full_precision(tmp_path):
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    ch = generate_channel(cfg, 9)
    path = tmp_path / "gains.csv"
    ch.to_csv(str(path))
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    assert np.array_equal(parsed, ch.gains)
