import math

import numpy as np
import pytest

from scfdma_alloc import dual
from scfdma_alloc.assignment import AssignmentInstance, InfeasibleInstanceError
from scfdma_alloc.baselines import brute_force, exact_cover_search
from scfdma_alloc.dual import (
    DualDomainError,
    DualPoint,
    SolverConfig,
    diagnose_gap,
    dual_gradient,
    dual_value,
    modified_instance,
    project_rho,
    recover_indicator,
    repair_selection,
    solve,
    xi_value,
)
from scfdma_alloc.harness import sumax_assignment_for_seed


def hand_instance() -> AssignmentInstance:
    """One user, one sub-channel: empty option worth 0, full option worth 5."""
    return AssignmentInstance(
        kind="sumax",
        n_agents=1,
        n_resources=1,
        weights=np.array([0.0, -5.0]),
        agent_of=np.zeros(2, dtype=np.int64),
        agent_slices=((0, 2),),
        footprint_matrix=np.array([[0.0, 1.0]]),
        footprint_masks=(0, 1),
        provenance=((0, 0), (0, 1)),
        patterns=None,
    )


def no_cover_instance() -> AssignmentInstance:
    """Two users on two sub-channels whose only option is sub-channel 1: no exact cover."""
    return AssignmentInstance(
        kind="jamsc",
        n_agents=2,
        n_resources=2,
        weights=np.array([-1.0, -1.0]),
        agent_of=np.array([0, 1], dtype=np.int64),
        agent_slices=((0, 1), (1, 2)),
        footprint_matrix=np.array([[1.0, 1.0], [0.0, 0.0]]),
        footprint_masks=(1, 1),
        provenance=((0, 1), (1, 1)),
        patterns=None,
    )


def naive_dual_value(a: AssignmentInstance, d: DualPoint) -> float:
    """Independent scalar-loop transcription of the dual objective."""
    u = -a.weights
    total = 0.0
    for o in range(a.n_options):
        k = int(a.agent_of[o])
        price = sum(
            float(d.cover_dual[n]) * float(a.footprint_matrix[n, o])
            for n in range(a.n_resources)
        )
        s = float(u[o]) + float(d.binary_dual[o]) - float(d.choice_dual[k]) - price
        total -= 0.25 * s * s / float(d.binary_dual[o])
    return total - float(np.sum(d.cover_dual)) - float(np.sum(d.choice_dual))


def random_cone_point(a: AssignmentInstance, rng) -> DualPoint:
    return DualPoint(
        cover_dual=rng.uniform(0.5, 2.0, a.n_resources),
        choice_dual=rng.uniform(0.5, 2.0, a.n_agents),
        binary_dual=rng.uniform(0.5, 2.0, a.n_options),
    )


def test_dual_value_matches_naive_formula():
    rng = np.random.default_rng(0)
    a = sumax_assignment_for_seed(2, 4, 123)
    for _ in range(10):
        d = random_cone_point(a, rng)
        assert dual_value(a, d) == pytest.approx(naive_dual_value(a, d), rel=1e-12)


def test_dual_value_rejects_zero_binary_dual():
    a = hand_instance()
    d = DualPoint(
        cover_dual=np.array([1.0]),
        choice_dual=np.array([1.0]),
        binary_dual=np.array([1.0, 0.0]),
    )
    with pytest.raises(DualDomainError):
        dual_value(a, d)
    with pytest.raises(DualDomainError):
        dual_gradient(a, d)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for seed in (10, 11):
        a = sumax_assignment_for_seed(2, 4, seed)
        dim = a.n_resources + a.n_agents + a.n_options
        for _ in range(5):
            vec = rng.uniform(0.5, 2.0, dim)

            def unpack(v):
                return DualPoint(
                    cover_dual=v[: a.n_resources],
                    choice_dual=v[a.n_resources : a.n_resources + a.n_agents],
                    binary_dual=v[a.n_resources + a.n_agents :],
                )

            gc, gch, gb = dual_gradient(a, unpack(vec))
            analytic = np.concatenate([gc, gch, gb])
            fd = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[i] = (dual_value(a, unpack(vec + e)) - dual_value(a, unpack(vec - e))) / (
                    2 * h
                )
            err = np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic)))
            assert err <= 1e-6


def test_recover_indicator_formula():
    a = hand_instance()
    d = DualPoint(
        cover_dual=np.array([2.0]),
        choice_dual=np.array([1.0]),
        binary_dual=np.array([0.5, 1.5]),
    )
    frac = recover_indicator(a, d)
    # option 0: u=0, no cover price; option 1: u=5, priced by the sub-channel
    s0 = 0.0 + 0.5 - 1.0 - 0.0
    s1 = 5.0 + 1.5 - 1.0 - 2.0
    assert frac[0] == pytest.approx(s0 / 1.0, rel=1e-12)
    assert frac[1] == pytest.approx(s1 / 3.0, rel=1e-12)


def test_xi_equals_dual_at_recovered_indicator():
    rng = np.random.default_rng(2)
    a = sumax_assignment_for_seed(3, 4, 77)
    for _ in range(10):
        d = random_cone_point(a, rng)
        frac = recover_indicator(a, d)
        assert xi_value(a, frac, d) == pytest.approx(dual_value(a, d), rel=1e-10)


def test_project_rho_sign_flip_on_exact_zero():
    prev = np.array([0.4, -0.4, 2.0])
    proposed = np.array([0.0, 0.0, 1.0])
    out = project_rho(prev, proposed, 1e-3)
    # an exact-zero proposal lands on the floor, keeping the iterate's sign
    assert out[0] == 1e-3
    assert out[1] == -1e-3
    assert out[2] == 1.0
    assert np.array_equal(project_rho(out, proposed, 1e-3), out)


def test_project_rho_floors_small_magnitudes():
    prev = np.array([1.0, -1.0])
    proposed = np.array([1e-9, -1e-9])
    out = project_rho(prev, proposed, 1e-3)
    assert out[0] == 1e-3
    assert out[1] == -1e-3


def test_project_rho_degenerate_zero_pair():
    out = project_rho(np.array([0.0]), np.array([0.0]), 1e-3)
    assert out[0] == 1e-3


def test_exact_zero_slack_takes_one_binarity_step():
    # option 0's slack u - choice - cover_terms is exactly 0 at this start:
    # one step floors its dual at the offset, where a per-pass bump of the
    # offset would walk it for max_inner passes
    start = DualPoint(
        cover_dual=np.array([1.0]),
        choice_dual=np.array([0.0]),
        binary_dual=np.array([1.0, 1.0]),
    )
    cfg = SolverConfig()
    rep = solve(hand_instance(), cfg, start=start)
    assert rep.iterations[0] <= 2 * rep.outer_iterations
    assert rep.dual_point.binary_dual[0] == cfg.projection_offset
    assert rep.certified
    assert rep.primal_value == -5.0
    for k, n in ((2, 4), (2, 6), (3, 5)):
        for seed in range(2024, 2034):
            rep = solve(sumax_assignment_for_seed(k, n, seed), cfg)
            assert rep.iterations[0] <= 2 * rep.outer_iterations, (k, n, seed)


def test_solve_hand_instance_certifies_exact():
    a = hand_instance()
    rep = solve(a, SolverConfig())
    assert rep.certified
    assert not rep.repaired
    assert rep.primal_value == -5.0
    assert rep.allocation.option_index == (1,)
    assert abs(rep.duality_gap) <= 1e-6 * (1.0 + abs(rep.dual_value))
    sel = rep.fractional.round().astype(int)
    assert sel.tolist() == [0, 1]


def test_solve_refuses_instance_without_exact_cover(monkeypatch):
    with pytest.raises(InfeasibleInstanceError):
        solve(no_cover_instance())
    # a cover search cut by its node budget proves nothing, so the ascent runs
    monkeypatch.setattr(dual, "COVER_CHECK_NODES", 0)
    rep = solve(no_cover_instance(), SolverConfig(max_outer=5, max_inner=50))
    assert rep.allocation is None
    assert not rep.certified


def test_certified_runs_match_oracle():
    cfg = SolverConfig()
    n_cert = 0
    for seed in range(30):
        a = sumax_assignment_for_seed(2, 5, 400 + seed)
        rep = solve(a, cfg)
        _, opt = brute_force(a)
        if rep.certified:
            n_cert += 1
            assert rep.primal_value == opt
            assert abs(rep.duality_gap) <= 1e-6 * (1.0 + abs(rep.dual_value))
        if rep.allocation is not None:
            assert not a.allocation_violations(rep.allocation)
    assert n_cert >= 1


def test_degenerate_tie_is_truncated_and_repaired():
    # both options of both users identical: the relaxation sits at one half
    a = sumax_assignment_for_seed(2, 4, 5001)
    rep = solve(a, SolverConfig())
    assert rep.truncated
    assert not rep.certified
    assert rep.repaired
    _, opt = brute_force(a)
    assert rep.primal_value == opt  # bounded repair recovers the optimum here
    mid = rep.fractional[(rep.fractional > 0.4) & (rep.fractional < 0.6)]
    assert mid.size >= 2


def test_repair_returns_best_cover_within_cap():
    # one test id over several instances, each checked against the oracle
    rng = np.random.default_rng(5)
    for k, n, seed in ((3, 5, 62), (2, 4, 5001), (2, 6, 17), (3, 6, 63), (4, 6, 8), (4, 8, 31)):
        a = sumax_assignment_for_seed(k, n, seed)
        _, opt = brute_force(a)
        for frac in (np.zeros(a.n_options), rng.uniform(0.0, 1.0, a.n_options)):
            sel = repair_selection(a, frac)
            assert sel is not None
            assert not a.selection_violations(sel)
            assert a.value(a.allocation_from_selection(sel)) == opt, (k, n, seed)


def test_repair_none_when_budget_exhausted():
    a = sumax_assignment_for_seed(3, 6, 63)
    sel = repair_selection(a, np.zeros(a.n_options), node_cap=1)
    assert sel is None


def test_repair_keeps_incumbent_when_cap_stops_search():
    a = sumax_assignment_for_seed(4, 8, 31)
    frac = np.zeros(a.n_options)
    order = [sorted(a.agent_options(k), key=lambda o: (-frac[o], a.weights[o], o)) for k in range(4)]
    # the smallest cap that still reaches one full cover
    cap = next(c for c in range(1, 10**4) if exact_cover_search(a, order, c)[0] is not None)
    path, value, capped = exact_cover_search(a, order, cap)
    assert capped and path is not None
    sel = repair_selection(a, frac, node_cap=cap)
    assert sel is not None
    assert not a.selection_violations(sel)
    assert sorted(np.flatnonzero(sel).tolist()) == sorted(path)
    assert a.value(a.allocation_from_selection(sel)) == value
    _, opt = brute_force(a)
    assert value >= opt


def test_diagnose_gap_agreement_means_zero_theta():
    a = sumax_assignment_for_seed(2, 4, 5003)
    rep = solve(a, SolverConfig())
    assert rep.certified
    sel = a.selection_vector(rep.allocation)
    report = diagnose_gap(a, rep.dual_point, selection=sel)
    assert not report.theta.any()
    assert np.array_equal(report.modified_utilities, -a.weights)
    u = -a.weights
    floor = 1e-9 * max(1.0, float(np.max(np.abs(u))))
    expect = float(np.max(2.0 * np.abs(rep.dual_point.binary_dual) / np.maximum(np.abs(u), floor)))
    assert report.max_ratio == expect
    assert report.near_optimal == (report.max_ratio <= 0.05)


def test_diagnose_gap_disagreement_perturbs_utilities():
    a = sumax_assignment_for_seed(2, 4, 5003)
    rep = solve(a, SolverConfig())
    sel = a.selection_vector(rep.allocation).copy()
    k0 = list(a.agent_options(0))
    chosen = next(o for o in k0 if sel[o])
    other = next(o for o in k0 if not sel[o])
    sel[chosen], sel[other] = 0, 1
    report = diagnose_gap(a, rep.dual_point, selection=sel)
    implied = report.implied_selection
    assert report.theta[chosen] == implied[chosen] - 0
    assert report.theta[other] == implied[other] - 1
    u = -a.weights
    expect = u - 2.0 * report.theta * rep.dual_point.binary_dual
    assert np.array_equal(report.modified_utilities, expect)
    assert report.max_ratio > 0.0


def test_uncertified_resolve_reproduces_reported_selection():
    cfg = SolverConfig()
    checked = 0
    for seed in (5001, 5002, 5003, 5004, 5005, 5006):
        a = sumax_assignment_for_seed(2, 5, seed)
        rep = solve(a, cfg)
        if rep.certified or rep.allocation is None:
            continue
        sel = a.selection_vector(rep.allocation)
        report = diagnose_gap(a, rep.dual_point, selection=sel)
        mod = modified_instance(a, report)
        rep2 = solve(mod, cfg, start=rep.dual_point)
        assert rep2.allocation is not None
        assert np.array_equal(mod.selection_vector(rep2.allocation), sel)
        checked += 1
    assert checked >= 1


def test_solve_is_deterministic():
    a = sumax_assignment_for_seed(3, 6, 21)
    r1 = solve(a, SolverConfig())
    r2 = solve(a, SolverConfig())
    assert r1.primal_value == r2.primal_value
    assert r1.dual_value == r2.dual_value
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.fractional, r2.fractional)
    assert np.array_equal(r1.dual_point.binary_dual, r2.dual_point.binary_dual)


def test_solve_report_to_dict():
    rep = solve(hand_instance(), SolverConfig())
    d = rep.to_dict()
    assert d["certified"] is True
    assert d["primal_value"] == -5.0
    assert d["allocation"] == [1]
    assert d["iterations"] == list(rep.iterations)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(round_tol=0.6)
    with pytest.raises(ValueError):
        SolverConfig(projection_offset=2.0)
