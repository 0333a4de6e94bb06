import math

import numpy as np
import pytest

from scfdma_alloc.channel import EmptyPatternError, ScenarioConfig, generate_channel
from scfdma_alloc.patterns import enumerate_patterns
from scfdma_alloc.sumax import (
    ModulationTable,
    build_sumax,
    pattern_effective_snr,
    select_modulation,
    weighted_rate,
)


def test_modulation_table_defaults():
    t = ModulationTable()
    assert t.names == ("QPSK", "16QAM", "64QAM")
    assert t.bits_per_symbol == (2, 4, 6)
    assert t.thresholds == (4.0, 16.0, 64.0)


def test_modulation_table_rejects_non_increasing_thresholds():
    with pytest.raises(ValueError):
        ModulationTable(thresholds=(4.0, 4.0, 64.0))
    with pytest.raises(ValueError):
        ModulationTable(thresholds=(16.0, 4.0, 64.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -4.0])
def test_modulation_table_refuses_non_finite_and_non_positive_entries(bad):
    with pytest.raises(ValueError, match="^thresholds must be positive and finite"):
        ModulationTable(thresholds=(bad, 16.0, 64.0))
    with pytest.raises(ValueError, match="^bits_per_symbol must be positive and finite"):
        ModulationTable(bits_per_symbol=(bad, 4, 6))


@pytest.mark.parametrize("bits", [(2, 4.5, 6), (2.0, 4, 6), (True, 4, 6), (2, 4, np.float64(6.0))])
def test_modulation_table_refuses_bits_that_are_not_integers(bits):
    with pytest.raises(ValueError, match="^bits_per_symbol must be an integer"):
        ModulationTable(bits_per_symbol=bits)


@pytest.mark.parametrize("bits", [("2", 4, 6), (2, None, 6)])
def test_modulation_table_refuses_bits_that_are_not_numbers(bits):
    # the string ended in a TypeError from the positivity comparison
    with pytest.raises(ValueError, match="^bits_per_symbol must be numbers"):
        ModulationTable(bits_per_symbol=bits)


@pytest.mark.parametrize("thresholds", [("4", "16", "64"), (True, 16.0, 64.0)])
def test_modulation_table_refuses_thresholds_that_are_not_numbers(thresholds):
    # the strings ended in a TypeError from a comparison, and True ran as a threshold of 1
    with pytest.raises(ValueError, match="^thresholds must be numbers"):
        ModulationTable(thresholds=thresholds)


@pytest.mark.parametrize("names", [("A", "A", "B"), ("A", "B", "A"), ("QPSK", "QPSK", "QPSK")])
def test_modulation_table_refuses_repeated_names(names):
    with pytest.raises(ValueError, match="^names repeat a name"):
        ModulationTable(names=names)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"names": ("QPSK", "16QAM")}, "names, bits_per_symbol and thresholds must have equal length"),
        ({"thresholds": (4.0, 16.0, 64.0, 256.0)}, "names, bits_per_symbol and thresholds must have equal length"),
        ({"names": (), "bits_per_symbol": (), "thresholds": ()}, "modulation table cannot be empty"),
        ({"bits_per_symbol": (2, 6, 4)}, "bits_per_symbol must be strictly increasing"),
        ({"bits_per_symbol": (2, 4, 4)}, "bits_per_symbol must be strictly increasing"),
    ],
)
def test_modulation_table_refuses_a_malformed_table(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ModulationTable(**fields)


def test_modulation_table_takes_integer_bits_of_any_integer_type():
    assert ModulationTable(bits_per_symbol=(np.int64(2), 4, np.int32(6))).bits_per_symbol[0] == 2


def test_modulation_table_restricted():
    t = ModulationTable()
    r = t.restricted("16QAM")
    assert r.names == ("16QAM",)
    assert r.bits_per_symbol == (4,)
    assert r.thresholds == (16.0,)
    with pytest.raises(ValueError):
        t.restricted("8PSK")


def test_select_modulation_boundaries_inclusive():
    t = ModulationTable()
    assert select_modulation(3.9999, t) is None
    assert select_modulation(4.0, t) == 0
    assert select_modulation(15.9, t) == 0
    assert select_modulation(16.0, t) == 1
    assert select_modulation(63.9, t) == 1
    assert select_modulation(64.0, t) == 2
    assert select_modulation(1e6, t) == 2


def test_pattern_power_split_respects_peak():
    gains = np.array([2.0, 6.0])
    # budget 1 W over two sub-channels would allow 0.5 each; peak also 0.5
    eff = pattern_effective_snr(gains, (1, 2), p_max=1.0, p_peak=0.5)
    assert eff == pytest.approx(5.0 / 3.0, rel=1e-12)
    # low peak binds instead of the budget
    eff2 = pattern_effective_snr(gains, (1, 2), p_max=1.0, p_peak=0.25)
    snrs = 0.25 * gains
    m = np.mean(snrs / (1 + snrs))
    assert eff2 == pytest.approx(m / (1 - m), rel=1e-12)


def test_pattern_power_zf_mode():
    gains = np.array([2.0, 6.0])
    eff = pattern_effective_snr(gains, (1, 2), p_max=1.0, p_peak=0.5, equalizer="zf")
    assert eff == pytest.approx(1.5, rel=1e-12)


def test_weighted_rate_formula():
    assert weighted_rate(2, 3.0) == pytest.approx(4.0, rel=1e-12)
    assert weighted_rate(3, 0.0) == 0.0


def test_build_matches_naive_per_pattern_loop():
    cfg = ScenarioConfig(n_users=3, n_subchannels=5)
    for seed in range(5):
        ch = generate_channel(cfg, seed)
        ps = enumerate_patterns(5)
        weights = np.random.default_rng(seed).uniform(0.5, 1.5, 3)
        inst = build_sumax(ch, cfg, weights=weights, patterns=ps)
        p_max = cfg.per_user("p_max_w")
        p_peak = cfg.per_user("p_peak_w")
        for k in range(3):
            for j, col in enumerate(ps.columns):
                if not col:
                    assert inst.weights[k, j] == 0.0
                    assert np.isnan(inst.snr_eff[k, j])
                    continue
                eff = pattern_effective_snr(
                    ch.gains[k], col, p_max[k], p_peak[k], cfg.equalizer
                )
                expected = weights[k] * weighted_rate(len(col), eff)
                assert -inst.weights[k, j] == pytest.approx(expected, rel=1e-10)
                assert inst.snr_eff[k, j] == pytest.approx(eff, rel=1e-10)


def test_build_default_weights_are_ones():
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    ch = generate_channel(cfg, 1)
    inst = build_sumax(ch, cfg)
    assert np.array_equal(inst.weights, build_sumax(ch, cfg, weights=[1.0, 1.0]).weights)


def test_utilities_grow_with_weight():
    cfg = ScenarioConfig(n_users=2, n_subchannels=4)
    ch = generate_channel(cfg, 3)
    lo = build_sumax(ch, cfg, weights=[1.0, 1.0])
    hi = build_sumax(ch, cfg, weights=[2.0, 1.0])
    nonempty = slice(1, None)
    assert np.allclose(hi.weights[0, nonempty], 2.0 * lo.weights[0, nonempty])
    assert np.array_equal(hi.weights[1], lo.weights[1])


def test_sum_utility_matches_manual_sum():
    cfg = ScenarioConfig(n_users=3, n_subchannels=4)
    ch = generate_channel(cfg, 11)
    inst = build_sumax(ch, cfg)
    choice = (2, 0, 5)
    manual = 0.0
    for k, j in enumerate(choice):
        manual = manual + float(inst.weights[k, j])
    assert inst.total(choice) == manual
    with pytest.raises(ValueError, match="one pattern index per user"):
        inst.total(choice[:2])


def test_sum_utility_ignores_feasibility():
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    ch = generate_channel(cfg, 2)
    inst = build_sumax(ch, cfg)
    # overlapping full patterns are still summable; feasibility is checked elsewhere
    full = inst.patterns.n_patterns - 1
    val = inst.total((full, full))
    assert val == pytest.approx(
        float(inst.weights[0, full] + inst.weights[1, full]), rel=1e-12
    )


def test_custom_rate_function_is_used():
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    ch = generate_channel(cfg, 4)

    def flat_rate(n_sub, snr_eff):
        return np.ones_like(np.asarray(snr_eff, dtype=float))

    inst = build_sumax(ch, cfg, rate_fn=flat_rate)
    nonempty = -inst.weights[:, 1:]
    assert np.allclose(nonempty, 1.0)

    calls = []

    def sized_rate(sizes, snr_eff):
        calls.append((sizes, snr_eff.shape))
        return np.sqrt(sizes) * snr_eff

    inst = build_sumax(ch, cfg, weights=[2.0, 0.5], rate_fn=sized_rate)
    (sizes, shape), = calls  # one call per build, on every non-empty pattern at once
    assert sizes.dtype == np.int64 and sizes.tolist() == inst.patterns.sizes[1:].tolist()
    assert shape == (2, inst.patterns.n_patterns - 1)
    for k, w in enumerate((2.0, 0.5)):
        for j in range(1, inst.patterns.n_patterns):
            assert -inst.weights[k, j] == w * (np.sqrt(inst.patterns.sizes[j]) * inst.snr_eff[k, j])


def test_pattern_effective_snr_refuses_the_empty_pattern_and_an_unknown_equalizer():
    gains = np.array([1.0, 2.0, 3.0])
    with pytest.raises(EmptyPatternError, match="^effective SNR is undefined for the empty pattern$"):
        pattern_effective_snr(gains, (), 1.0, 1.0)
    with pytest.raises(ValueError, match="^unknown equalizer 'mrc'$"):
        pattern_effective_snr(gains, (1, 2), 1.0, 1.0, equalizer="mrc")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"patterns": enumerate_patterns(4)}, "pattern set does not match the channel's sub-channel count"),
        ({"weights": [1.0, 1.0, 1.0]}, r"weights must have shape \(2,\)"),
        ({"weights": [[1.0, 1.0]]}, r"weights must have shape \(2,\)"),
    ],
)
def test_build_sumax_refuses_a_catalogue_or_weights_of_another_shape(kwargs, message):
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_sumax(generate_channel(cfg, 4), cfg, **kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_are_refused(bad):
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    ch = generate_channel(cfg, 4)
    with pytest.raises(ValueError, match="weights must be finite"):
        build_sumax(ch, cfg, weights=[1.0, bad])


@pytest.mark.parametrize("weights", [["1", True], ("1", "1"), np.array([1.0, True], dtype=object)])
def test_build_sumax_refuses_weights_that_are_not_numbers(weights):
    # the list scored with weights 1 and 1
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    with pytest.raises(ValueError, match="^weights must be numbers"):
        build_sumax(generate_channel(cfg, 4), cfg, weights=weights)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"equalizer": "zf"}, {"p_max_w": (0.3, 1.0, 2.0, 0.6), "p_peak_w": (0.5, 0.1, 0.5, 0.25)}],
    ids=["mmse", "zf", "per-user-powers"],
)
def test_table_modulation_power_and_snr_match_the_scalar_reference(overrides):
    cfg = ScenarioConfig(n_users=4, n_subchannels=8, **overrides)
    table = ModulationTable()
    p_max, p_peak = cfg.per_user("p_max_w"), cfg.per_user("p_peak_w")
    for seed in range(20):
        ch = generate_channel(cfg, seed)
        inst = build_sumax(ch, cfg, modulations=table)
        assert inst.allowed.all() and inst.modulation_names == table.names
        assert (inst.modulation[:, 0] == -1).all() and (inst.power_w[:, 0] == 0.0).all()
        assert np.isnan(inst.snr_eff[:, 0]).all()
        for k in range(cfg.n_users):
            for j, col in enumerate(inst.patterns.columns[1:], start=1):
                snr = float(inst.snr_eff[k, j])
                m = select_modulation(snr, table)
                assert inst.modulation[k, j] == (-1 if m is None else m)
                assert inst.power_w[k, j] == min(float(p_peak[k]), float(p_max[k]) / len(col))
                eff = pattern_effective_snr(ch.gains[k], col, p_max[k], p_peak[k], cfg.equalizer)
                assert snr == pytest.approx(eff, rel=1e-10)


def test_an_snr_exactly_on_a_threshold_activates_it():
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    ch = generate_channel(cfg, 5)
    snr = float(build_sumax(ch, cfg).snr_eff[1, 4])
    on = ModulationTable(thresholds=(snr / 4, snr, 4 * snr))
    above = ModulationTable(thresholds=(snr / 4, np.nextafter(snr, np.inf), 4 * snr))
    assert build_sumax(ch, cfg, modulations=on).modulation[1, 4] == select_modulation(snr, on) == 1
    assert build_sumax(ch, cfg, modulations=above).modulation[1, 4] == select_modulation(snr, above) == 0
