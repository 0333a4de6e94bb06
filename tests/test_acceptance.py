"""Acceptance suite: one test per contract-level requirement.

Each test prints the quantities it is required to report; heavy artefacts
(the oracle-comparison sweep and the 200-drop campaign) are computed once
per module and shared by the tests that consume them.
"""

import time

import numpy as np
import pytest

from scfdma_alloc.baselines import brute_force
from scfdma_alloc.channel import effective_snr_mmse
from scfdma_alloc.dual import (
    DualPoint,
    SolverConfig,
    diagnose_gap,
    dual_value,
    modified_instance,
    solve,
)
from scfdma_alloc.harness import (
    CampaignConfig,
    certification_sweep,
    complexity_table,
    gradient_check,
    run_campaign,
    sumax_assignment_for_seed,
    write_complexity_csv,
)
from scfdma_alloc.jamsc import FrameConfig, min_subchannels, solve_pattern_power
from scfdma_alloc.patterns import enumerate_patterns
from scfdma_alloc.sumax import ModulationTable


@pytest.fixture(scope="module")
def oracle_sweep():
    t0 = time.monotonic()
    sweep = certification_sweep()
    return sweep, time.monotonic() - t0


@pytest.fixture(scope="module")
def campaign_200():
    cfg = CampaignConfig(problem="both", n_drops=200, base_seed=42)
    t0 = time.monotonic()
    out = run_campaign(cfg)
    return out, time.monotonic() - t0


def test_01_certified_runs_match_exhaustive_oracle(oracle_sweep):
    sweep, elapsed = oracle_sweep
    assert sweep["n_runs"] >= 500
    assert sweep["all_certified_exact"] is True
    assert sweep["mean_ratio"] >= 0.98
    assert elapsed <= 300.0
    print(
        f"runs={sweep['n_runs']} certified_share={sweep['outcome_shares']['certified']:.3f} "
        f"mean_ratio={sweep['mean_ratio']:.6f} min_ratio={sweep['min_ratio']:.6f} "
        f"elapsed={elapsed:.1f}s"
    )


def test_02_certified_runs_close_duality_gap(oracle_sweep):
    sweep, _ = oracle_sweep
    certified = [r for r in sweep["rows"] if r["outcome"] == "certified"]
    assert certified
    assert all(r["gap_ok"] is True for r in certified)
    assert sweep["all_certified_gap_ok"] is True
    print(f"certified_runs={len(certified)} all_gaps_within_tolerance=True")


def test_03_analytic_gradients_match_finite_differences():
    combos = [(2, 4), (2, 5), (3, 4), (3, 5)]
    instances = [
        sumax_assignment_for_seed(k, n, 300 + 10 * i + j)
        for i, (k, n) in enumerate(combos)
        for j in range(5)
    ]
    assert len(instances) == 20
    t0 = time.monotonic()
    out = gradient_check(instances, points_per_instance=50, h=1e-6, seed=99)
    elapsed = time.monotonic() - t0
    assert out["n_points"] == 20 * 50
    assert out["max_rel_error"] <= 1e-6
    assert elapsed <= 60.0
    print(f"points={out['n_points']} max_rel_error={out['max_rel_error']:.3e} elapsed={elapsed:.1f}s")


def test_04_dual_function_is_midpoint_concave_on_cone():
    rng = np.random.default_rng(404)
    worst = np.inf
    for i in range(10):
        a = sumax_assignment_for_seed(2 + i % 2, 4 + i % 3, 400 + i)
        dim = a.n_resources + a.n_agents + a.n_options

        def point(vec):
            return DualPoint(
                cover_dual=vec[: a.n_resources],
                choice_dual=vec[a.n_resources : a.n_resources + a.n_agents],
                binary_dual=vec[a.n_resources + a.n_agents :],
            )

        # the choice and cover duals are free in sign; the binarity duals are positive
        n_free = a.n_resources + a.n_agents
        low = np.r_[np.full(n_free, -2.0), np.full(a.n_options, 0.5)]
        for _ in range(100):
            x = rng.uniform(low, 2.0)
            y = rng.uniform(low, 2.0)
            fx = dual_value(a, point(x))
            fy = dual_value(a, point(y))
            fm = dual_value(a, point(0.5 * (x + y)))
            margin = fm - 0.5 * (fx + fy)
            worst = min(worst, margin)
            assert margin >= -1e-9
    print(f"segments=1000 worst_midpoint_margin={worst:.3e}")


def test_05_power_solver_residual_and_closed_form():
    rng = np.random.default_rng(505)
    worst_res = 0.0
    worst_closed = 0.0
    worst_snr = 0.0
    for _ in range(1000):
        n_p = int(rng.integers(1, 9))
        gains = rng.lognormal(mean=0.0, sigma=1.5, size=n_p) * 10.0 ** rng.uniform(-2, 2)
        thr = float(rng.uniform(1.0, 64.0))
        p = solve_pattern_power(gains, thr)
        x = p * gains / n_p
        lhs = float(np.sum(x / (1.0 + x)))
        rhs = n_p * thr / (1.0 + thr)
        worst_res = max(worst_res, abs(lhs - rhs) / rhs)

        recovered = effective_snr_mmse(x)
        worst_snr = max(worst_snr, abs(recovered - thr) / thr)

        g0 = float(gains[0])
        p_eq = solve_pattern_power(np.full(n_p, g0), thr)
        expect = n_p * thr / g0
        worst_closed = max(worst_closed, abs(p_eq - expect) / expect)
    assert worst_res <= 1e-10
    assert worst_closed <= 1e-9
    assert worst_snr <= 1e-8
    print(
        f"draws=1000 worst_residual={worst_res:.2e} worst_closed_form={worst_closed:.2e} "
        f"worst_recovered_snr={worst_snr:.2e}"
    )


def test_06_pattern_columns_and_minimum_subchannel_counts():
    pats = enumerate_patterns(4)
    got = {frozenset(col) for col in pats.columns}
    expect = {
        frozenset(),
        frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4}),
        frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}),
        frozenset({1, 2, 3}), frozenset({2, 3, 4}),
        frozenset({1, 2, 3, 4}),
    }
    assert pats.n_patterns == 11
    assert got == expect

    frame = FrameConfig()
    table = ModulationTable()
    triple = tuple(min_subchannels(140e3, b, frame) for b in table.bits_per_symbol)
    assert triple == (3, 2, 1)
    print("n_patterns=11 min_subchannel_triple=(3, 2, 1)")


def test_07_campaign_mean_orderings_hold(campaign_200):
    out, elapsed = campaign_200
    assert out.ok
    assert elapsed <= 600.0

    sum_res = [r for r in out.results if r.problem == "sumax" and not r.error]
    assert len(sum_res) == 200
    means = {}
    for name in ("dual", "greedy", "round_robin"):
        vals = [r.records[name].objective for r in sum_res if r.records[name].feasible]
        assert len(vals) == 200
        means[name] = float(np.mean(vals))
    assert means["dual"] >= means["greedy"] >= means["round_robin"]
    wins = sum(
        1
        for r in sum_res
        if r.records["dual"].objective > r.records["round_robin"].objective
    )
    assert wins >= 0.95 * len(sum_res)

    jam_res = [r for r in out.results if r.problem == "jamsc" and not r.error]
    common = [
        r
        for r in jam_res
        if all(r.records[n].feasible for n in ("dual_am", "dual_fixed", "round_robin"))
    ]
    assert len(common) >= 100
    jam_means = {
        name: float(np.mean([r.records[name].objective for r in common]))
        for name in ("dual_am", "dual_fixed", "round_robin")
    }
    assert jam_means["dual_am"] <= jam_means["dual_fixed"] <= jam_means["round_robin"]
    print(
        f"sumax_means dual={means['dual']:.3f} greedy={means['greedy']:.3f} "
        f"rr={means['round_robin']:.3f} dual_beats_rr={wins}/200; "
        f"jamsc_means joint={jam_means['dual_am']:.3f} fixed={jam_means['dual_fixed']:.3f} "
        f"rr={jam_means['round_robin']:.3f} common_feasible={len(common)}/200 "
        f"elapsed={elapsed:.1f}s"
    )


def test_08_gap_diagnostic_consistency():
    cfg = SolverConfig()
    n_certified = 0
    n_uncertified = 0
    gaps = []
    for n_users, n_sub in ((2, 4), (2, 5)):
        for seed in range(5000, 5030):
            a = sumax_assignment_for_seed(n_users, n_sub, seed)
            rep = solve(a, cfg)
            assert rep.allocation is not None
            sel = a.selection_vector(rep.allocation)
            report = diagnose_gap(a, rep.dual_point, selection=sel)
            if rep.certified:
                n_certified += 1
                assert not report.theta.any()
                assert np.array_equal(report.modified_utilities, -a.weights)
            else:
                n_uncertified += 1
                mod = modified_instance(a, report)
                rep2 = solve(mod, cfg, start=rep.dual_point)
                assert rep2.allocation is not None
                assert np.array_equal(mod.selection_vector(rep2.allocation), sel)
            _, opt = brute_force(a)
            gaps.append((rep.primal_value - opt) / (1.0 + abs(opt)))
    assert n_certified >= 1
    assert n_uncertified >= 1
    gaps_arr = np.array(gaps)
    print(
        f"certified={n_certified} uncertified={n_uncertified} "
        f"oracle_gap mean={gaps_arr.mean():.3e} max={gaps_arr.max():.3e}"
    )


def test_09_operation_count_scales_with_problem_size(tmp_path):
    rows = complexity_table()
    assert len(rows) == 8
    path = tmp_path / "complexity.csv"
    write_complexity_csv(str(path), rows)
    assert path.exists()

    ratios = []
    for row in rows:
        model = row["n_agents"] * row["n_patterns"] + row["n_agents"] + row["n_subchannels"]
        ratios.append(row["ops_per_outer"] / model)
    mid = float(np.median(ratios))
    for row, ratio in zip(rows, ratios):
        assert mid / 1.5 <= ratio <= mid * 1.5
    print(
        "ops_per_outer / (K*J + K + N) ratios: "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + f" (median {mid:.2f})"
    )


def test_10_identical_seed_campaigns_are_byte_identical(tmp_path):
    def run(out_dir):
        cfg = CampaignConfig(problem="both", n_drops=3, base_seed=7, out_dir=str(out_dir))
        run_campaign(cfg)

    run(tmp_path / "a")
    run(tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert names
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
    print(f"compared_files={len(names)} all_byte_identical=True")
