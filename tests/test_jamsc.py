import math

import numpy as np
import pytest

from scfdma_alloc.channel import ScenarioConfig, effective_snr_mmse, generate_channel
from scfdma_alloc.jamsc import (
    FrameConfig,
    build_jamsc,
    cost,
    min_count_matrix,
    min_subchannels,
    solve_pattern_power,
    sum_cost,
)
from scfdma_alloc.patterns import enumerate_patterns
from scfdma_alloc.sumax import ModulationTable


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
    inst = build_jamsc(ch, cfg, (140e3, 140e3), table, frame)
    ps = enumerate_patterns(4)
    counts = min_count_matrix((140e3, 140e3), table, frame)
    p_max = cfg.per_user("p_max_w")
    assert inst.modulation.shape == inst.powers.shape == inst.costs.shape == (2, ps.n_patterns)
    for k in range(2):
        for j, col in enumerate(ps.columns):
            m = _lowest_reachable(len(col), counts[k])
            assert inst.modulation[k, j] == m
            assert inst.allowed[k, j] == (m >= 0)
            if m < 0:
                assert np.isnan(inst.costs[k, j])
                assert np.isnan(inst.powers[k, j])
                continue
            p = solve_pattern_power(ch.gains[k, [n - 1 for n in col]], table.thresholds[m])
            assert inst.powers[k, j] == pytest.approx(p, rel=1e-10)
            assert inst.costs[k, j] == pytest.approx(cost(p_max[k], p), rel=1e-10)
            # every higher modulation the pattern also reaches costs at least as much
            for m_hi in range(m + 1, table.n_modulations):
                p_hi = solve_pattern_power(ch.gains[k, [n - 1 for n in col]], table.thresholds[m_hi])
                assert cost(p_max[k], p_hi) >= inst.costs[k, j]


def test_build_jamsc_strict_cap_blocks_over_budget():
    cfg, ch, table, frame = _small_setup(seed=5)
    cfg.cell_radius_m = 1500.0
    ch = generate_channel(cfg, 5)
    plain = build_jamsc(ch, cfg, (140e3, 140e3), table, frame)
    strict = build_jamsc(ch, cfg, (140e3, 140e3), table, frame, strict_cap=True)
    p_max = cfg.per_user("p_max_w")
    over = (plain.powers > p_max[:, None]) & plain.allowed
    assert over.any() and not over.all()
    assert not strict.allowed[over].any()
    assert np.isnan(strict.costs[over]).all() and np.isnan(strict.powers[over]).all()
    assert (strict.modulation[over] == -1).all()
    kept = strict.allowed
    assert np.array_equal(kept, plain.allowed & ~over)
    assert np.array_equal(strict.modulation[kept], plain.modulation[kept])
    assert np.array_equal(strict.costs[kept], plain.costs[kept])
    # masking the whole (user, pattern) is exact: higher modulations need more power
    for k, j in np.argwhere(over):
        col = plain.patterns.columns[j]
        for m in range(int(plain.modulation[k, j]) + 1, table.n_modulations):
            assert solve_pattern_power(ch.gains[k, [n - 1 for n in col]], table.thresholds[m]) > p_max[k]


def test_build_jamsc_flags_users_without_any_option():
    cfg, ch, table, frame = _small_setup(n_sub=4)
    # 4 Mbps needs more sub-channels than exist at any modulation order
    inst = build_jamsc(ch, cfg, (4e6, 140e3), table, frame)
    assert inst.infeasible_users == (0,)


def test_sum_cost_and_masked_choice_rejection():
    cfg, ch, table, frame = _small_setup(seed=3)
    inst = build_jamsc(ch, cfg, (140e3, 140e3), table, frame)
    choices = [int(np.argmax(inst.allowed[k])) for k in range(2)]
    total = sum_cost(inst, choices)
    manual = sum(float(inst.costs[k, j]) for k, j in enumerate(choices))
    assert total == manual
    blocked = np.argwhere(~inst.allowed)
    assert len(blocked)
    for kb, jb in blocked:
        bad = list(choices)
        bad[kb] = int(jb)
        with pytest.raises(ValueError):
            sum_cost(inst, bad)
    with pytest.raises(ValueError):
        sum_cost(inst, choices[:1])


def test_vectorised_powers_match_scalar_solver():
    cfg, ch, table, frame = _small_setup(seed=8, n_users=3, n_sub=5)
    inst = build_jamsc(ch, cfg, (140e3,) * 3, table, frame)
    ps = inst.patterns
    idx = np.argwhere(inst.allowed)
    rng = np.random.default_rng(0)
    rng.shuffle(idx)
    for k, j in idx[:40]:
        col = ps.columns[j]
        m = inst.modulation[k, j]
        p = solve_pattern_power(ch.gains[k, [n - 1 for n in col]], table.thresholds[m])
        assert inst.powers[k, j] == pytest.approx(p, rel=1e-10)
