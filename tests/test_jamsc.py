import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfdma_alloc import jamsc
from scfdma_alloc.channel import ScenarioConfig, effective_snr_mmse, effective_snr_zf, generate_channel
from scfdma_alloc.jamsc import (
    FrameConfig,
    PowerSolveError,
    _jensen_start,
    _solve_powers_vec,
    build_jamsc,
    cost,
    min_count_matrix,
    min_subchannels,
    solve_pattern_power,
)
from scfdma_alloc.patterns import MAX_SUBCHANNELS, enumerate_patterns
from scfdma_alloc.sumax import ModulationTable

# How far the scalar helpers may sit from the table's bits: the build sums the
# Newton rows zero-padded to its longest block, which rounds otherwise than an
# unpadded row and can end the solve tens of ulps away (51 at most over about
# 1,700 drops of three scenarios with and without fading); ``cost``'s
# ``math.exp`` and the build's ``np.exp`` differ by at most one ulp.
POWER_ULPS = 64
COST_ULPS = 1


def ulps(got: float, want: float) -> float:
    """|got - want| in units of the last place of ``want``."""
    return abs(got - want) / np.spacing(abs(want))


def test_min_subchannels_140kbps_triple():
    frame = FrameConfig()
    got = tuple(min_subchannels(140e3, b, frame) for b in (2, 4, 6))
    assert got == (3, 2, 1)


def test_min_subchannels_exact_boundary_not_rounded_up():
    frame = FrameConfig()
    # bits/TTI for 2 sub-channels at 4 bits/symbol: 2 * 12 * 4 = 96 bits
    rate = 96 / frame.tti_s
    assert min_subchannels(rate, 4, frame) == 2


def test_min_subchannels_floor_is_one():
    assert min_subchannels(1.0, 6, FrameConfig()) == 1


def test_min_count_matrix_shape_and_values():
    frame = FrameConfig()
    table = ModulationTable()
    m = min_count_matrix((140e3, 70e3), table, frame)
    assert m.shape == (2, 3)
    assert m[0].tolist() == [3, 2, 1]
    assert m[1].tolist() == [
        min_subchannels(70e3, 2, frame),
        min_subchannels(70e3, 4, frame),
        min_subchannels(70e3, 6, frame),
    ]
    # entry by entry over five modulations: rates whose bits per TTI are exact
    # multiples of a modulation's bits per sub-channel land on a ceiling
    # boundary, and their neighbours one ulp off
    bits = (1, 2, 3, 4, 6)
    wide = ModulationTable(
        names=("BPSK", "QPSK", "8PSK", "16QAM", "64QAM"), bits_per_symbol=bits,
        thresholds=(1.0, 4.0, 8.0, 16.0, 64.0),
    )
    unit = frame.symbols_per_subchannel / frame.tti_s
    on_boundary = {(c, b): c * b * unit for b in bits for c in (1, 2, 5, 7)}
    near = [np.nextafter(r, d) for r in on_boundary.values() for d in (0.0, np.inf)]
    rates = [*on_boundary.values(), *near, *np.random.default_rng(3).uniform(1.0, 2e6, 200), 1.0, 140e3]
    counts = min_count_matrix(rates, wide, frame)
    assert counts.shape == (len(rates), 5) and counts.dtype == np.int64
    for k, rate in enumerate(rates):
        assert counts[k].tolist() == [min_subchannels(rate, b, frame) for b in bits]
    for (c, b), rate in on_boundary.items():
        assert min_subchannels(rate, b, frame) == c  # not rounded up past the boundary


@pytest.mark.parametrize(
    "rate, bits, message",
    [
        (140e3, math.nan, "bits_per_symbol must be positive and finite"),  # was INT64_MIN
        (140e3, math.inf, "bits_per_symbol must be positive and finite"),  # was 1
        (140e3, 0, "bits_per_symbol must be positive"),
        (140e3, -2, "bits_per_symbol must be positive"),
        (140e3, True, "bits_per_symbol must be an integer"),  # was 6, at one bit per symbol
        (140e3, 2.5, "bits_per_symbol must be an integer"),  # was 3
        (140e3, "4", "bits_per_symbol must be an integer"),  # was a UFuncTypeError
        ("140e3", 4, "target_rate_bps must be a number"),  # ran as 140 kbps
    ],
)
def test_min_subchannels_refuses_each_bad_field_by_name(rate, bits, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        min_subchannels(rate, bits, FrameConfig())


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"patterns": enumerate_patterns(4)}, "pattern set does not match the channel's sub-channel count"),
        ({"targets_bps": (140e3,)}, r"targets_bps must have shape \(2,\)"),
        ({"targets_bps": ((140e3, 140e3),)}, r"targets_bps must have shape \(2,\)"),
    ],
)
def test_build_jamsc_refuses_a_catalogue_or_targets_of_another_shape(kwargs, message):
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    fields = {"targets_bps": (140e3, 140e3), "tables": (ModulationTable(),), **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_jamsc(generate_channel(cfg, 4), cfg, **fields)


@pytest.mark.parametrize("targets", [["140e3", True], ("140e3", "140e3"), np.array([140e3, True], dtype=object)])
def test_min_count_matrix_refuses_targets_that_are_not_numbers(targets):
    # the list ran as 140 kbps and 1 bps
    with pytest.raises(ValueError, match="^targets_bps must be numbers"):
        min_count_matrix(targets, ModulationTable(), FrameConfig())


@pytest.mark.parametrize("targets", [("140e3", "140e3"), (140e3, True), np.array(["140e3", "140e3"])])
def test_build_jamsc_refuses_targets_that_are_not_numbers(targets):
    # the strings built a table at 140 kbps
    cfg = ScenarioConfig(n_users=2, n_subchannels=3)
    with pytest.raises(ValueError, match="^targets_bps must be numbers"):
        build_jamsc(generate_channel(cfg, 4), cfg, targets, (ModulationTable(),))


@pytest.mark.parametrize("rate", [0.0, -140e3, math.nan, math.inf, -math.inf])
def test_rates_that_are_not_positive_and_finite_are_refused(rate):
    frame = FrameConfig()
    with pytest.raises(ValueError, match="target_rate_bps must be positive and finite"):
        min_subchannels(rate, 4, frame)
    with pytest.raises(ValueError, match="target_rate_bps must be positive and finite"):
        min_count_matrix((140e3, rate), ModulationTable(), frame)


@pytest.mark.parametrize(
    "kwargs, field",
    [({"tti_s": math.nan}, "tti_s"), ({"tti_s": math.inf}, "tti_s"), ({"tti_s": 0.0}, "tti_s"),
     ({"symbols_per_subchannel": math.nan}, "symbols_per_subchannel"),
     ({"symbols_per_subchannel": math.inf}, "symbols_per_subchannel"),
     ({"symbols_per_subchannel": 0}, "symbols_per_subchannel")],
)
def test_frame_refuses_non_finite_and_non_positive_fields(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        FrameConfig(**kwargs)


@pytest.mark.parametrize("count", [12.5, 12.0, True, np.float64(12.0), "12"])
def test_frame_refuses_a_symbol_count_that_is_not_an_integer(count):
    with pytest.raises(ValueError, match="^symbols_per_subchannel must be an integer"):
        FrameConfig(symbols_per_subchannel=count)


@pytest.mark.parametrize("tti", ["0.001", True])
def test_frame_refuses_a_tti_that_is_not_a_number(tti):
    # the string ended in a TypeError from a comparison, and True ran as a 1 s frame
    with pytest.raises(ValueError, match=f"^tti_s must be a number, got {tti!r}$"):
        FrameConfig(tti_s=tti)


def test_power_solver_equal_gain_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = float(rng.uniform(0.01, 100.0))
        n_p = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.1, 64.0))
        p = solve_pattern_power([g] * n_p, gamma)
        assert p == pytest.approx(n_p * gamma / g, rel=1e-9)


def test_power_solver_residual_and_recovered_snr():
    gains = [1.0, 3.0]
    gamma = 1.0
    p = solve_pattern_power(gains, gamma)
    # independent residual check of the defining per-sub-channel power split
    share = sum(p * g / (2.0 + p * g) for g in gains)
    target = 2.0 * gamma / (1.0 + gamma)
    assert abs(share - target) <= 1e-10 * max(1.0, target)
    snrs = [p * g / 2.0 for g in gains]
    assert effective_snr_mmse(snrs) == pytest.approx(gamma, rel=1e-8)


def test_power_solver_bisection_vs_grid_scan():
    gains = np.array([0.5, 2.0, 8.0])
    gamma = 3.0
    p = solve_pattern_power(gains, gamma)

    def recovered(total):
        per = total / gains.size
        return effective_snr_mmse(per * gains)

    grid = np.linspace(max(p * 0.5, 1e-9), p * 1.5, 20001)
    errs = np.array([abs(recovered(t) - gamma) for t in grid])
    assert abs(grid[np.argmin(errs)] - p) <= (grid[1] - grid[0]) * 2


def test_power_solver_monotone_in_threshold():
    gains = [1.0, 4.0]
    powers = [solve_pattern_power(gains, g) for g in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(powers, powers[1:]))


def fixed_bisection(gains_padded, sizes, thresholds):
    """Reference powers: a doubling bracket, then 120 bisection steps."""
    sizes = np.asarray(sizes, dtype=float)
    target = sizes * thresholds / (1.0 + thresholds)

    def lhs(p):
        pg = p[:, None] * gains_padded
        return np.sum(pg / (sizes[:, None] + pg), axis=1)

    hi = np.ones(len(sizes))
    while (lhs(hi) < target).any():
        hi = np.where(lhs(hi) < target, hi * 2.0, hi)
    lo = np.zeros(len(sizes))
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        below = lhs(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_newton_powers_match_bisection_and_batch_equals_rows():
    rng = np.random.default_rng(11)
    rows = 300
    sizes = rng.integers(1, 9, rows)
    # gain scales from 1e-12 to 1e12 put the roots from ~1e12 down to ~1e-12
    scale = 10.0 ** rng.uniform(-12, 12, rows)
    gains = rng.uniform(0.1, 2.0, (rows, 8)) * scale[:, None]
    gains[np.arange(8)[None, :] >= sizes[:, None]] = 0.0
    thresholds = 10.0 ** rng.uniform(-2, 2, rows)
    want = fixed_bisection(gains, sizes, thresholds)
    assert want.min() < 1e-9 and want.max() > 1e9
    got = _solve_powers_vec(gains, sizes, thresholds)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    for t in range(0, rows, 37):  # rows are independent: a one-row call gives the same bits
        one = _solve_powers_vec(gains[t : t + 1], sizes[t : t + 1], thresholds[t : t + 1])
        assert one.tobytes() == got[t : t + 1].tobytes()


def newton_loop(gains_padded, sizes, thresholds):
    """``_solve_powers_vec`` as it was before it reused its buffers: the reference for its bits."""
    sizes = np.asarray(sizes, dtype=float)[:, None]
    target = sizes[:, 0] * thresholds / (1.0 + thresholds)
    weighted_gains = gains_padded * sizes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = _jensen_start(gains_padded, sizes[:, 0], thresholds)
        for _ in range(jamsc.MAX_NEWTON_STEPS):
            pg = p[:, None] * gains_padded
            den = sizes + pg
            lhs = np.sum(pg / den, axis=1)
            slope = np.sum(weighted_gains / (den * den), axis=1)
            p_next = p + (target - lhs) / slope
            if not np.isfinite(p_next).all():
                raise PowerSolveError("target-SNR power is not finite")
            moves = p_next > p
            if not moves.any():
                return p
            p = np.where(moves, p_next, p)
    raise PowerSolveError(f"target-SNR power did not settle in {jamsc.MAX_NEWTON_STEPS} Newton steps")


# one row: its size as a share of the lane count, log10 of its gains (ten
# decades apart at most), log10 of its threshold
NEWTON_ROW = st.tuples(
    st.floats(0.0, 1.0, exclude_max=True),
    st.lists(st.floats(-5.0, 5.0), min_size=MAX_SUBCHANNELS, max_size=MAX_SUBCHANNELS),
    st.floats(-2.0, 2.0),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.lists(NEWTON_ROW, min_size=1, max_size=40))
def test_newton_powers_keep_the_bits_of_the_plain_loop(rows):
    # the same rows cut to every lane count a catalogue has, which covers the
    # lane-major sum's blocks of 8 and its leftover lanes; each row's size is
    # its share of the lane count, so padded rows are as common at every count
    shares = np.array([share for share, _, _ in rows])
    decades = np.array([gains for _, gains, _ in rows])
    thresholds = 10.0 ** np.array([thr for _, _, thr in rows])
    for lanes in range(1, MAX_SUBCHANNELS + 1):
        sizes = 1 + (shares * lanes).astype(int)
        sizes[0] = lanes  # the build pads to its longest block
        gains = 10.0 ** decades[:, :lanes]
        gains[np.arange(lanes)[None, :] >= sizes[:, None]] = 0.0  # padded as the build pads
        got, want = _solve_powers_vec(gains, sizes, thresholds), newton_loop(gains, sizes, thresholds)
        assert got.tobytes() == want.tobytes(), lanes


def test_the_jensen_start_is_a_lower_bound_on_the_power():
    rng = np.random.default_rng(11)  # the rows of the Newton-against-bisection test
    sizes = rng.integers(1, 9, 300)
    scale = 10.0 ** rng.uniform(-12, 12, 300)
    gains = rng.uniform(0.1, 2.0, (300, 8)) * scale[:, None]
    gains[np.arange(8)[None, :] >= sizes[:, None]] = 0.0
    cases = [(gains, sizes, 10.0 ** rng.uniform(-2, 2, 300))]
    rng = np.random.default_rng(5)  # gains spread over ten decades within a row
    sizes = rng.integers(1, 9, 10_000)
    gains = 10.0 ** rng.uniform(-5, 5, (10_000, 8))
    gains[np.arange(8)[None, :] >= sizes[:, None]] = 0.0
    cases.append((gains, sizes, 10.0 ** rng.uniform(-2, 2, 10_000)))
    for gains, sizes, thresholds in cases:
        p0 = _jensen_start(gains, sizes, thresholds)
        pg = p0[:, None] * gains
        lhs = np.sum(pg / (sizes[:, None] + pg), axis=1)
        target = sizes * thresholds / (1.0 + thresholds)
        several = sizes > 1
        assert (lhs[several] <= target[several]).all()
        # on one sub-channel the start is the root, up to the rounding of both sides
        assert (lhs[~several] <= target[~several] + 4 * np.spacing(target[~several])).all()
        assert (p0 <= _solve_powers_vec(gains, sizes, thresholds)).all()


def test_power_solver_raises_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(jamsc, "MAX_NEWTON_STEPS", 2)
    with pytest.raises(PowerSolveError, match="did not settle in 2 Newton steps"):
        solve_pattern_power([0.5, 2.0, 8.0], 3.0)


def test_power_solver_raises_on_a_non_finite_power():
    gains = np.array([[1.0, 3.0], [0.0, 0.0]])
    with pytest.raises(PowerSolveError, match="not finite"):
        _solve_powers_vec(gains, np.array([2, 2]), np.array([1.0, 1.0]))


def test_power_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_pattern_power([], 1.0)
    with pytest.raises(ValueError):
        solve_pattern_power([1.0, -2.0], 1.0)
    with pytest.raises(ValueError):
        solve_pattern_power([1.0], 0.0)


def test_cost_value():
    assert cost(1.0, 0.3) == pytest.approx(-math.exp(0.7), rel=1e-12)
    # lower power means lower (better) cost
    assert cost(1.0, 0.1) < cost(1.0, 0.9)


def _small_setup(seed=0, n_users=2, n_sub=4):
    cfg = ScenarioConfig(n_users=n_users, n_subchannels=n_sub)
    ch = generate_channel(cfg, seed)
    table = ModulationTable()
    frame = FrameConfig()
    return cfg, ch, table, frame


def _lowest_reachable(length, counts_row):
    """Independent reading of the lowest-modulation rule: first m the length reaches."""
    if length == 0:
        return -1
    return next((m for m, c in enumerate(counts_row) if length >= c), -1)


def test_build_jamsc_masks_and_costs():
    cfg, ch, table, frame = _small_setup()
    (inst,) = build_jamsc(ch, cfg, (140e3, 140e3), (table,), frame)
    ps = enumerate_patterns(4)
    counts = min_count_matrix((140e3, 140e3), table, frame)
    p_max = cfg.per_user("p_max_w")
    assert inst.modulation.shape == inst.power_w.shape == inst.weights.shape == (2, ps.n_patterns)
    assert inst.modulation_names == table.names
    for k in range(2):
        for j, col in enumerate(ps.columns):
            m = _lowest_reachable(len(col), counts[k])
            assert inst.modulation[k, j] == m
            assert inst.allowed[k, j] == (m >= 0)
            if m < 0:
                assert np.isnan(inst.weights[k, j])
                assert np.isnan(inst.power_w[k, j])
                assert np.isnan(inst.snr_eff[k, j])
                continue
            assert inst.snr_eff[k, j] == table.thresholds[m]
            p = solve_pattern_power(ch.gains[k, [n - 1 for n in col]], table.thresholds[m])
            assert ulps(p, inst.power_w[k, j]) <= POWER_ULPS
            assert ulps(cost(p_max[k], inst.power_w[k, j]), inst.weights[k, j]) <= COST_ULPS
            # every higher modulation the pattern also reaches costs at least as much
            for m_hi in range(m + 1, table.n_modulations):
                p_hi = solve_pattern_power(ch.gains[k, [n - 1 for n in col]], table.thresholds[m_hi])
                assert cost(p_max[k], p_hi) >= inst.weights[k, j]


def test_build_jamsc_strict_cap_blocks_over_budget():
    cfg, ch, table, frame = _small_setup(seed=5)
    cfg = replace(cfg, cell_radius_m=1500.0)
    ch = generate_channel(cfg, 5)
    (plain,) = build_jamsc(ch, cfg, (140e3, 140e3), (table,), frame)
    (strict,) = build_jamsc(ch, cfg, (140e3, 140e3), (table,), frame, strict_cap=True)
    p_max = cfg.per_user("p_max_w")
    over = (plain.power_w > p_max[:, None]) & plain.allowed
    assert over.any() and not over.all()
    assert not strict.allowed[over].any()
    assert np.isnan(strict.weights[over]).all() and np.isnan(strict.power_w[over]).all()
    assert np.isnan(strict.snr_eff[over]).all()
    assert (strict.modulation[over] == -1).all()
    kept = strict.allowed
    assert np.array_equal(kept, plain.allowed & ~over)
    assert np.array_equal(strict.modulation[kept], plain.modulation[kept])
    assert np.array_equal(strict.weights[kept], plain.weights[kept])
    # masking the whole (user, pattern) is exact: higher modulations need more power
    for k, j in np.argwhere(over):
        col = plain.patterns.columns[j]
        for m in range(int(plain.modulation[k, j]) + 1, table.n_modulations):
            assert solve_pattern_power(ch.gains[k, [n - 1 for n in col]], table.thresholds[m]) > p_max[k]


# p_max_w = 800 overflows single costs; at 709 every cost is finite but the
# per-user maxima add up past the float64 range
@pytest.mark.parametrize("p_max_w", [800.0, 709.0])
def test_build_jamsc_refuses_costs_that_overflow(p_max_w):
    cfg, ch, table, frame = _small_setup(seed=5, n_users=4, n_sub=8)
    (base,) = build_jamsc(ch, cfg, np.full(4, 140e3), (table,), frame)
    big = ScenarioConfig(n_users=4, n_subchannels=8, p_max_w=p_max_w)
    with pytest.raises(ValueError, match="p_max_w up to .* W overflows the jamsc costs"):
        build_jamsc(ch, big, np.full(4, 140e3), (table,), frame)
    if p_max_w < 710.0:
        assert np.isfinite(np.exp(p_max_w - np.nanmin(base.power_w)))


@pytest.mark.parametrize("strict_cap", [False, True])
@pytest.mark.parametrize(
    "n_users, n_sub, radius, targets",
    [
        (4, 8, 1500.0, (4e6, 140e3, 140e3, 140e3)),  # user 0 has no option at 4 Mbps
        (5, 3, 1000.0, (140e3,) * 5),  # more users than sub-channels
    ],
)
def test_one_build_of_several_tables_equals_one_build_per_table(strict_cap, n_users, n_sub, radius, targets):
    cfg = ScenarioConfig(n_users=n_users, n_subchannels=n_sub, cell_radius_m=radius)
    frame = FrameConfig()
    full = ModulationTable()
    tables = (full, *(full.restricted(name) for name in full.names))
    for seed in range(3):
        ch = generate_channel(cfg, seed)
        together = build_jamsc(ch, cfg, targets, tables, frame, strict_cap=strict_cap)
        assert len(together) == len(tables)
        for table, got in zip(tables, together):
            (want,) = build_jamsc(ch, cfg, targets, (table,), frame, strict_cap=strict_cap)
            assert got.modulation_names == table.names
            for field in ("modulation", "power_w", "weights", "snr_eff", "allowed"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            assert got.infeasible_users == want.infeasible_users
        if n_users == 4:
            assert all(inst.infeasible_users[:1] == (0,) for inst in together)
        if strict_cap:  # the cap masks options in every table
            uncapped = build_jamsc(ch, cfg, targets, tables, frame)
            assert all(c.allowed.sum() < u.allowed.sum() for c, u in zip(together, uncapped))


def plan_arrays(plan):
    """Every array of a jamsc plan, named by field (and table)."""
    out = {}
    for field in ("modulation", "allowed", "snr_eff", "options"):
        for i, value in enumerate(getattr(plan, field)):
            for t, array in enumerate(value if field == "options" else (value,)):
                out[f"{field}[{i}][{t}]"] = array
    out.update((field, getattr(plan, field)) for field in ("lanes", "sizes", "thresholds", "splits"))
    return out


@pytest.mark.parametrize("equalizer, p_max_w", [("mmse", 1.0), ("zf", 1.0), ("mmse", (0.3, 1.0, 2.0, 0.6, 0.5))])
@pytest.mark.parametrize(
    "n_users, n_sub, radius, targets",
    [(4, 8, 1500.0, (4e6, 140e3, 140e3, 140e3)), (5, 3, 1000.0, (140e3,) * 5)],  # the draws above
)
def test_a_build_from_a_warm_plan_equals_one_from_a_fresh_plan(equalizer, p_max_w, n_users, n_sub, radius, targets):
    p_max_w = p_max_w if np.isscalar(p_max_w) else p_max_w[:n_users]
    cfg = ScenarioConfig(n_users=n_users, n_subchannels=n_sub, cell_radius_m=radius, equalizer=equalizer, p_max_w=p_max_w)
    full = ModulationTable()
    tables = (full, *(full.restricted(name) for name in full.names))
    for strict_cap in (False, True):
        build_jamsc(generate_channel(cfg, 99), cfg, targets, tables, strict_cap=strict_cap)  # warms the plan
        for seed in range(3):
            ch = generate_channel(cfg, seed)
            warm = build_jamsc(ch, cfg, targets, tables, strict_cap=strict_cap)
            jamsc._plan.cache_clear()
            fresh = build_jamsc(ch, cfg, targets, tables, strict_cap=strict_cap)
            for got, want in zip(warm, fresh, strict=True):
                for field in ("modulation", "power_w", "weights", "snr_eff", "allowed"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field


def test_a_strict_cap_build_leaves_the_plan_and_the_next_plain_build_alone():
    cfg = ScenarioConfig(cell_radius_m=1500.0)
    tables = (ModulationTable(), ModulationTable().restricted("16QAM"))
    targets = np.full(4, 140e3)
    ch = generate_channel(cfg, 5)
    before = build_jamsc(ch, cfg, targets, tables)
    plan = jamsc._plan(enumerate_patterns(8), tuple(targets.tolist()), tables, FrameConfig())
    kept = {name: array.copy() for name, array in plan_arrays(plan).items()}
    strict = build_jamsc(ch, cfg, targets, tables, strict_cap=True)
    assert all(s.allowed.sum() < b.allowed.sum() for s, b in zip(strict, before))  # the cap masks options
    after = build_jamsc(ch, cfg, targets, tables)
    assert jamsc._plan(enumerate_patterns(8), tuple(targets.tolist()), tables, FrameConfig()) is plan
    for name, array in plan_arrays(plan).items():
        assert array.tobytes() == kept[name].tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    for i, (b, a) in enumerate(zip(before, after, strict=True)):
        for field in ("modulation", "power_w", "weights", "snr_eff", "allowed"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        # a plain build hands out the plan's arrays, so none of them can be written
        assert a.modulation is plan.modulation[i]
        assert not (a.modulation.flags.writeable or a.allowed.flags.writeable or a.snr_eff.flags.writeable)


def test_build_jamsc_flags_users_without_any_option():
    cfg, ch, table, frame = _small_setup(n_sub=4)
    # 4 Mbps needs more sub-channels than exist at any modulation order
    (inst,) = build_jamsc(ch, cfg, (4e6, 140e3), (table,), frame)
    assert inst.infeasible_users == (0,)


def test_sum_cost_and_masked_choice_rejection():
    cfg, ch, table, frame = _small_setup(seed=3)
    (inst,) = build_jamsc(ch, cfg, (140e3, 140e3), (table,), frame)
    choices = [int(np.argmax(inst.allowed[k])) for k in range(2)]
    total = inst.total(choices)
    manual = sum(float(inst.weights[k, j]) for k, j in enumerate(choices))
    assert total == manual
    blocked = np.argwhere(~inst.allowed)
    assert len(blocked)
    for kb, jb in blocked:
        bad = list(choices)
        bad[kb] = int(jb)
        with pytest.raises(ValueError, match="is masked"):
            inst.total(bad)
    with pytest.raises(ValueError):
        inst.total(choices[:1])


def test_vectorised_powers_match_scalar_solver():
    cfg, ch, table, frame = _small_setup(seed=8, n_users=3, n_sub=5)
    (inst,) = build_jamsc(ch, cfg, (140e3,) * 3, (table,), frame)
    ps = inst.patterns
    idx = np.argwhere(inst.allowed)
    rng = np.random.default_rng(0)
    rng.shuffle(idx)
    for k, j in idx[:40]:
        col = ps.columns[j]
        m = inst.modulation[k, j]
        p = solve_pattern_power(ch.gains[k, [n - 1 for n in col]], table.thresholds[m])
        assert ulps(p, inst.power_w[k, j]) <= POWER_ULPS


@pytest.mark.parametrize("fading", [True, False])
def test_power_targets_follow_the_equaliser(fading, monkeypatch):
    zf = ScenarioConfig(equalizer="zf", rayleigh_fading=fading, p_max_w=(0.3, 1.0, 2.0, 0.6))
    mmse = replace(zf, equalizer="mmse")
    gains = generate_channel(zf, 12).gains
    tables = (ModulationTable(), ModulationTable().restricted("16QAM"))
    newton, solves = jamsc._solve_powers_vec, []

    def spy(padded, sizes, thresholds):
        solves.append((padded, newton(padded, sizes, thresholds)))
        return solves[-1][1]

    monkeypatch.setattr(jamsc, "_solve_powers_vec", spy)
    built = {sc.equalizer: build_jamsc(generate_channel(sc, 12), sc, np.full(4, 140e3), tables) for sc in (zf, mmse)}
    # ZF needs no Newton solve; MMSE solves every option of both tables in one call
    ((padded, newton_powers),) = solves
    rows = iter(zip(padded, newton_powers))
    for zf_table, mmse_table, table in zip(built["zf"], built["mmse"], tables):
        assert np.array_equal(zf_table.allowed, mmse_table.allowed)
        for k, j in np.argwhere(zf_table.allowed):
            block = gains[k, [n - 1 for n in zf_table.patterns.columns[j]]]
            thr = table.thresholds[zf_table.modulation[k, j]]
            # ZF: the harmonic mean of the per-sub-channel SNRs p * g / size meets the threshold
            p = zf_table.power_w[k, j]
            assert effective_snr_zf(p * block / block.size) == pytest.approx(thr, rel=1e-12)
            assert ulps(cost(zf.per_user("p_max_w")[k], p), zf_table.weights[k, j]) <= COST_ULPS
            # MMSE keeps the Newton solve's bits, on the block's gains padded with zeros
            row, newton_power = next(rows)
            assert np.array_equal(row, np.pad(block, (0, len(row) - block.size)))
            assert mmse_table.power_w[k, j].tobytes() == newton_power.tobytes()
            if not fading:  # equal gains: both targets are size * thr / g
                assert p == pytest.approx(mmse_table.power_w[k, j], rel=1e-12)
    assert next(rows, None) is None


@pytest.mark.parametrize("fading", [True, False])
def test_scalar_helpers_give_the_table_to_within_their_ulp_bounds(fading):
    sc = ScenarioConfig(rayleigh_fading=fading, p_max_w=(0.3, 1.0, 2.0, 0.6))
    tables = (ModulationTable(), ModulationTable().restricted("16QAM"))
    p_max = sc.per_user("p_max_w")
    worst = [0.0, 0.0]
    for seed in range(20):
        gains = generate_channel(sc, seed).gains
        for built, table in zip(build_jamsc(generate_channel(sc, seed), sc, np.full(4, 140e3), tables), tables):
            for k, j in np.argwhere(built.allowed):
                block = gains[k, [n - 1 for n in built.patterns.columns[j]]]
                p = solve_pattern_power(block, table.thresholds[built.modulation[k, j]])
                worst[0] = max(worst[0], ulps(p, built.power_w[k, j]))
                worst[1] = max(worst[1], ulps(cost(p_max[k], built.power_w[k, j]), built.weights[k, j]))
    assert 0 < worst[0] <= POWER_ULPS
    assert worst[1] == COST_ULPS
    if fading:
        # seed 12, user 0 on sub-channels 1-4 at threshold 4: one ulp apart
        (built, _) = build_jamsc(generate_channel(sc, 12), sc, np.full(4, 140e3), tables)
        j = built.patterns.columns.index((1, 2, 3, 4))
        p = solve_pattern_power(generate_channel(sc, 12).gains[0, :4], 4.0)
        assert (p, built.power_w[0, j]) == (12.29789234431992, 12.297892344319921)
