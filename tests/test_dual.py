import math
import warnings

import numpy as np
import pytest

from scfdma_alloc import dual, harness
from scfdma_alloc.assignment import AssignmentInstance, InfeasibleInstanceError, OptionLayout, to_assignment
from scfdma_alloc.baselines import OracleCeilingError, brute_force
from scfdma_alloc.channel import ScenarioConfig, generate_channel
from scfdma_alloc.canonical import (
    DualDomainError,
    DualPoint,
    diagnose_gap,
    dual_gradient,
    dual_value,
    recover_indicator,
    xi_value,
)
from scfdma_alloc.dual import SolverConfig, project_rho, solve
from scfdma_alloc.harness import (
    CampaignConfig,
    desk_scenario,
    run_campaign,
    run_drop,
    sumax_assignment_for_seed,
)
from scfdma_alloc.jamsc import FrameConfig, build_jamsc
from scfdma_alloc.patterns import enumerate_patterns
from scfdma_alloc.sumax import ModulationTable, build_sumax

TIES = desk_scenario(3, 6, rayleigh_fading=False)
ZF = desk_scenario(4, 6, equalizer="zf")


def jamsc_assignment(seed: int) -> AssignmentInstance:
    sc = desk_scenario(3, 6)
    (model,) = build_jamsc(generate_channel(sc, seed), sc, np.full(3, 140e3), (ModulationTable(),), FrameConfig())
    return to_assignment(model)


def masked_instance(n_sub: int, allowed, weights) -> AssignmentInstance:
    """The (user, pattern) entries that ``allowed`` allows, at ``weights``."""
    layout = OptionLayout(enumerate_patterns(n_sub), np.array(allowed, dtype=bool))
    return AssignmentInstance(weights=np.array(weights, dtype=float), layout=layout)


def hand_instance() -> AssignmentInstance:
    """One user, one sub-channel: empty option worth 0, full option worth 5."""
    return masked_instance(1, [[1, 1]], [0.0, -5.0])


def no_cover_instance() -> AssignmentInstance:
    """Two users on two sub-channels whose only option is sub-channel 1: no exact cover."""
    return masked_instance(2, [[0, 1, 0, 0], [0, 1, 0, 0]], [-1.0, -1.0])


def assert_same_report(rep: dual.SolveReport, ref: dual.SolveReport) -> None:
    """Every field of two solve reports is equal, arrays bit for bit."""
    scalars = ("allocation", "primal_value", "dual_value", "duality_gap", "outcome", "termination", "outer_iterations")
    for name in scalars + ("violations",):
        assert getattr(rep, name) == getattr(ref, name), name
    for name in ("cover_dual", "choice_dual", "binary_dual"):
        assert np.array_equal(getattr(rep.dual_point, name), getattr(ref.dual_point, name)), name
    assert np.array_equal(rep.fractional, ref.fractional)


def unit_start(a: AssignmentInstance) -> DualPoint:
    """A warm start with every dual at 1."""
    return DualPoint(
        cover_dual=np.ones(a.n_resources), choice_dual=np.ones(a.n_agents), binary_dual=np.ones(a.n_options)
    )


@pytest.fixture
def landings(monkeypatch):
    """The binarity duals of each ``joint_system`` call, i.e. of each landing of the ascent."""
    calls = []
    exact_system = dual.joint_system

    def counted_system(inst, binary):
        calls.append(binary.copy())
        return exact_system(inst, binary)

    monkeypatch.setattr(dual, "joint_system", counted_system)
    return calls


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
    proposed = np.array([0.0, -0.4, 1.0])
    out = project_rho(proposed, 1e-3)
    # an exact-zero proposal lands on the floor; a negative one flips to |proposed|
    assert out[0] == 1e-3
    assert out[1] == 0.4
    assert out[2] == 1.0
    assert np.array_equal(project_rho(out, 1e-3), out)


def test_project_rho_floors_small_magnitudes():
    proposed = np.array([1e-9, -1e-9, 0.0, -0.0, 2.0, -0.5])
    out = project_rho(proposed, 1e-3)
    # magnitudes below the floor and exact zeros of either sign land on it
    assert out.tolist() == [1e-3, 1e-3, 1e-3, 1e-3, 2.0, 0.5]
    assert not np.signbit(out).any()
    assert np.array_equal(project_rho(out, 1e-3), out)


def test_project_rho_degenerate_zero_pair():
    out = project_rho(np.array([0.0, -0.0]), 1e-3)
    # a negative zero counts as zero, so both land on the positive floor
    assert out.tolist() == [1e-3, 1e-3]
    assert not np.signbit(out).any()


def test_exact_zero_slack_takes_one_binarity_step(landings):
    # option 0's slack u - choice - cover_terms is exactly 0 at this start:
    # one step floors its dual at the offset, FLOOR_SCALE * mean |u|, where a
    # per-pass bump of the offset would walk it one offset per round
    start = DualPoint(
        cover_dual=np.array([1.0]),
        choice_dual=np.array([0.0]),
        binary_dual=np.array([1.0, 1.0]),
    )
    cfg = SolverConfig()
    a = hand_instance()
    rep = solve(a, cfg, start=start)
    assert len(landings) == rep.outer_iterations
    assert rep.dual_point.binary_dual[0] == dual.FLOOR_SCALE * np.abs(a.utilities).mean() == 2.5e-5
    assert rep.certified
    assert rep.primal_value == -5.0
    for k, n in ((2, 4), (2, 6), (3, 5)):
        for seed in range(2024, 2034):
            landings.clear()
            rep = solve(sumax_assignment_for_seed(k, n, seed), cfg)
            assert len(landings) == rep.outer_iterations, (k, n, seed)


def test_solve_hand_instance_certifies_exact():
    a = hand_instance()
    rep = solve(a, SolverConfig())
    assert rep.outcome == "certified"
    assert rep.primal_value == -5.0
    assert rep.allocation.option_index == (1,)
    assert abs(rep.duality_gap) <= 1e-6 * (1.0 + abs(rep.dual_value))
    sel = rep.fractional.round().astype(int)
    assert sel.tolist() == [0, 1]


def test_solve_refuses_instance_without_exact_cover():
    with pytest.raises(InfeasibleInstanceError, match="no exact-cover assignment exists"):
        solve(no_cover_instance())


def test_unrepaired_solve_past_the_oracle_ceiling_has_no_allocation(monkeypatch):
    # without the sweep's proof that no cover exists, the solve only reports
    def refuse(a):
        raise OracleCeilingError("over the node ceiling")

    monkeypatch.setattr(dual, "require_cover", refuse)
    rep = solve(no_cover_instance(), SolverConfig(max_outer=5))
    assert rep.allocation is None
    assert rep.outcome == "unallocated"
    assert not rep.feasible


def size_bound_instance(n_agents: int, n_resources: int) -> AssignmentInstance:
    """Every agent's only options are the single sub-channels: sizes always sum to K."""
    singles = enumerate_patterns(n_resources).sizes == 1
    return masked_instance(n_resources, np.tile(singles, (n_agents, 1)), -np.ones(n_agents * n_resources))


@pytest.mark.parametrize("n_agents, n_resources", [(3, 2), (2, 3)])
def test_size_bounds_refuse_before_the_first_round(monkeypatch, n_agents, n_resources):
    # three one-sub-channel agents overfill two sub-channels; two leave one of three bare
    a = size_bound_instance(n_agents, n_resources)
    assert not a.layout.sizes_admit_cover

    def no_round(*args):
        raise AssertionError("the ascent ran a round")

    monkeypatch.setattr(dual, "joint_system", no_round)
    with pytest.raises(InfeasibleInstanceError, match="no exact-cover assignment exists"):
        solve(a)


def test_size_bounds_admit_a_coverable_instance():
    assert size_bound_instance(2, 2).layout.sizes_admit_cover
    assert no_cover_instance().layout.sizes_admit_cover  # necessary, not sufficient
    assert solve(size_bound_instance(2, 2)).allocation is not None


def test_joint_system_is_gram_of_constraint_matrix():
    # the stacked Gram system equals its block form: per-agent diagonal, cross block, cover Gram
    rng = np.random.default_rng(11)
    instances = [
        sumax_assignment_for_seed(3, 6, 21),
        to_assignment(build_sumax(generate_channel(TIES, 4), TIES)),  # equal sub-channels
        to_assignment(build_sumax(generate_channel(ZF, 5), ZF)),
        sumax_assignment_for_seed(5, 3, 8),  # more users than sub-channels
        jamsc_assignment(7),  # masked (user, pattern) table
        sumax_assignment_for_seed(6, 12, 3),  # 546 options
    ]
    for a in instances:
        one_hot = np.zeros((a.n_agents, a.n_options))
        one_hot[a.agent_of, np.arange(a.n_options)] = 1.0
        mat = a.footprint_matrix
        for _ in range(3):
            binary = rng.choice([-1.0, 1.0], a.n_options) * rng.uniform(0.01, 3.0, a.n_options)
            inv2b = 0.5 / binary
            q_fixed = (binary - a.weights) * inv2b
            cross = (mat * inv2b) @ one_hot.T
            h_blocks = np.block(
                [
                    [np.diag(np.bincount(a.agent_of, weights=inv2b, minlength=a.n_agents)), cross.T],
                    [cross, (mat * inv2b) @ mat.T],
                ]
            )
            rhs_blocks = np.concatenate(
                [np.bincount(a.agent_of, weights=q_fixed, minlength=a.n_agents), mat @ q_fixed]
            ) - 1.0
            h, rhs = dual.joint_system(a, binary)
            assert np.abs(h - h_blocks).max() <= 1e-12 * np.abs(h_blocks).max()
            assert np.abs(rhs - rhs_blocks).max() <= 1e-12 * np.abs(rhs_blocks).max()


def test_report_holds_the_indicator_and_value_of_its_dual_point(monkeypatch):
    # a solve forms the indicator only at its exit; it must be the evaluation
    # at the reported dual point, bit for bit, whichever exit was taken, and
    # the reported value is the Lagrangian bound at its choice and cover duals
    solves = []

    def recording(a, cfg=SolverConfig(), start=None):
        rep = solve(a, cfg, start)
        solves.append((a, rep))
        return rep

    monkeypatch.setattr(harness, "solve", recording)
    cfg = CampaignConfig()  # the paper's K = 4, N = 8
    for problem in ("sumax", "jamsc"):
        for i in range(60):
            run_drop(cfg, 42 + i, i, problem)
    for a, cfg in (
        (hand_instance(), SolverConfig()),
        (size_bound_instance(2, 2), SolverConfig()),
        (sumax_assignment_for_seed(2, 4, 5001), SolverConfig()),
        (sumax_assignment_for_seed(3, 6, 21), SolverConfig(max_outer=3)),
    ):
        recording(a, cfg)
        recording(a, cfg, unit_start(a))
    assert {rep.termination for _, rep in solves} == {"converged", "stagnation", "budget"}
    for a, rep in solves:
        assert np.array_equal(rep.fractional, recover_indicator(a, rep.dual_point))
        d = rep.dual_point
        reduced = a.weights + d.choice_dual[a.agent_of] + d.cover_dual @ a.footprint_matrix
        bound = float(np.minimum(reduced, 0.0).sum()) - float(d.choice_dual.sum()) - float(d.cover_dual.sum())
        assert abs(rep.dual_value - bound) <= 1e-12 * (1.0 + abs(bound))
        assert rep.dual_value >= dual_value(a, d)


def rounding_error(a: AssignmentInstance, stacked: np.ndarray) -> np.ndarray:
    """Each option's forward rounding-error bound (K + N + 1) eps (|u| + A |y|) on its slack u - A y."""
    scale = np.abs(a.utilities) + a.constraint_matrix @ np.abs(stacked)
    return (a.n_agents + a.n_resources + 1) * np.finfo(float).eps * scale


@pytest.mark.parametrize("seed", [2024, 2029, 2030])
def test_first_exact_cover_certifies_outside_the_rounding_band(monkeypatch, seed):
    # the proof needs no band on |s / rho|: the first landing whose options of
    # positive slack are an exact cover certifies there, some |s / rho| lying
    # outside [0.8, 1.2] (above it for seed 2029)
    a = sumax_assignment_for_seed(2, 4, seed)
    landed = []
    exact_evaluate = dual._evaluate

    def recorded(inst, stacked, binary):
        out = exact_evaluate(inst, stacked, binary)
        landed.append((out[0].copy(), binary.copy()))
        return out

    monkeypatch.setattr(dual, "_evaluate", recorded)
    rep = solve(a)
    covers = [not a.selection_violations((slack > 0).astype(np.int8)) for slack, _ in landed]
    assert covers.index(True) == len(landed) - 1 == rep.outer_iterations - 1
    slack, binary = landed[-1]
    ratio = np.abs(slack / binary)
    assert ratio.min() < 0.8 or ratio.max() > 1.2
    assert rep.certified
    assert rep.primal_value == brute_force(a)[1]


@pytest.mark.parametrize("margin, certifies_there", [(0.5, False), (2.0, True)])
def test_a_slack_within_its_rounding_error_does_not_certify(monkeypatch, margin, certifies_there):
    # at the first exact-cover landing, one option outside the cover gets the
    # slack -margin times its rounding-error bound: the options of positive
    # slack are still that cover, but inside the bound the sign is not proven
    a = sumax_assignment_for_seed(2, 4, 2030)
    exact_evaluate = dual._evaluate
    landings = []

    def nudged(inst, stacked, binary):
        slack, shifted, value = exact_evaluate(inst, stacked, binary)
        landings.append(len(landings) + 1)
        positive = slack > 0
        if len(landings) == 2:
            assert not inst.selection_violations(positive.astype(np.int8))
            o = int(np.flatnonzero(~positive)[0])
            slack = slack.copy()
            slack[o] = -margin * rounding_error(inst, stacked)[o]
        return slack, shifted, value

    monkeypatch.setattr(dual, "_evaluate", nudged)
    rep = solve(a)
    assert (rep.outer_iterations == 2) == certifies_there
    assert rep.outer_iterations >= 2
    if rep.certified:
        assert rep.primal_value == brute_force(a)[1]


@pytest.mark.parametrize("problem, seed", [("sumax", 208), ("jamsc", 239)])
def test_one_ulp_tie_does_not_end_the_ascent(problem, seed):
    # drops 166 and 197 of the default campaigns of base seed 42: near
    # convergence a round raises the dual by at most one ulp, and a single
    # such round used to end these ascents uncertified, one round early
    cfg = CampaignConfig(allocators_sumax=("dual",), allocators_jamsc=("dual_am",))
    (rec,) = run_drop(cfg, seed, problem=problem).records.values()
    assert rec.termination == "converged"
    assert rec.certified


def test_value_ties_before_convergence_do_not_end_the_ascent():
    # drop 189 of the default jamsc campaign of base seed 42: the plain round
    # sequence tied its best value three times while the binarity gradient
    # still fell by about 11% per round, and stopped by stagnation at round
    # 242, one round short of converging
    cfg = CampaignConfig(allocators_jamsc=("dual_am",))
    (rec,) = run_drop(cfg, 231, problem="jamsc").records.values()
    assert rec.termination == "converged"
    assert rec.certified


def test_creeping_ascent_ends_before_the_budget():
    # drop 78 of the default jamsc campaign of base seed 42: the plain round
    # sequence raised the dual by about 1e-7 per round and ran all 1,000
    # rounds; extrapolation reaches the point where the value stops rising
    cfg = CampaignConfig(allocators_jamsc=("dual_am",))
    (rec,) = run_drop(cfg, 120, problem="jamsc").records.values()
    assert rec.termination != "budget"
    assert rec.outer_iterations < cfg.solver.max_outer


def test_repair_order_ignores_rounding_noise_in_the_indicator():
    # jamsc drop 8 of the no-fading ZF config with per-user budgets (seed 50,
    # dual_fixed): two users' block centres are equal in exact arithmetic,
    # and noise of 1e-13 in the indicator used to swap the two users between
    # equal-cost blocks
    sc = ScenarioConfig(rayleigh_fading=False, equalizer="zf", p_max_w=(0.3, 1.0, 2.0, 0.6))
    fixed = ModulationTable().restricted("16QAM")
    (model,) = build_jamsc(generate_channel(sc, 50), sc, np.full(4, 140e3), (fixed,), FrameConfig())
    a = to_assignment(model)
    rep = solve(a)
    assert rep.outcome == "repaired"
    # users 0..3 on blocks 1-2, 3-4, 5-6, 7-8; the value's last bit follows the
    # power solve's rounding
    assert rep.allocation.option_index == (0, 30, 60, 90)
    assert rep.primal_value == -3.7789510477987847
    repaired = dual.repair_selection(a, rep.fractional)
    assert repaired.option_index == (0, 30, 60, 90)
    rng = np.random.default_rng(8)
    for _ in range(20):
        noise = rng.choice([-1e-13, 0.0, 1e-13], a.n_options)
        assert dual.repair_selection(a, rep.fractional + noise) == repaired


def test_termination_names_each_exit(monkeypatch):
    a = sumax_assignment_for_seed(3, 6, 21)
    cases = (
        (hand_instance(), SolverConfig(), "converged"),
        (sumax_assignment_for_seed(2, 4, 5001), SolverConfig(), "stagnation"),
        (a, SolverConfig(max_outer=1), "budget"),
    )
    for inst, cfg, want in cases:
        rep = solve(inst, cfg)
        assert rep.termination == want
        assert rep.truncated == (want != "converged")
        assert rep.outer_iterations <= cfg.max_outer
    exact_system = dual.joint_system

    def nan_system(inst, binary):
        h, rhs = exact_system(inst, binary)
        return h, np.full_like(rhs, np.nan)

    # a non-finite utility diverges at the first binarity step, cold or warm
    weights = a.weights.copy()
    weights[3] = math.inf
    for start in (None, unit_start(a)):
        rep = solve(a.with_weights(weights), SolverConfig(), start=start)
        assert (rep.termination, rep.outer_iterations) == ("diverged", 1)
    monkeypatch.setattr(dual, "joint_system", nan_system)
    rep = solve(a, SolverConfig())
    assert rep.termination == "diverged"
    assert rep.truncated
    assert rep.outer_iterations == 1
    assert rep.allocation is not None  # the repair still supplies a cover
    assert "dual iterates diverged to non-finite values" in rep.violations


def test_warm_start_outside_cone_stops_within_budget(landings):
    # mixed-sign binarity duals and some negative choice duals: outside the
    # cone the dual is not concave, but the first round sets the binarity
    # duals, so the start runs as its projection into the cone does
    a = sumax_assignment_for_seed(3, 5, 900)
    rng = np.random.default_rng(7)
    start = DualPoint(
        cover_dual=rng.uniform(0.1, 3.0, a.n_resources),
        choice_dual=rng.uniform(-1.0, 3.0, a.n_agents),
        binary_dual=rng.choice([-1.0, 1.0], a.n_options) * rng.uniform(0.01, 3.0, a.n_options),
    )
    assert (start.binary_dual < 0).any()
    cfg = SolverConfig()
    inside = DualPoint(
        cover_dual=start.cover_dual,
        choice_dual=start.choice_dual,
        binary_dual=project_rho(start.binary_dual, dual.PROJECTION_OFFSET),
    )
    rep = solve(a, cfg, start=inside)
    assert 0 < len(landings) == rep.outer_iterations <= cfg.max_outer
    assert (rep.dual_point.binary_dual > 0).all()
    assert_same_report(solve(a, cfg, start=start), rep)


def test_warm_start_binary_duals_are_replaced_by_the_first_step():
    # every round opens with the binarity step, so a warm start's rho is
    # never read: rho = project_rho(slack), rho = 1 and a rho that is zero,
    # negative, NaN or of another length all run the same ascent
    a = sumax_assignment_for_seed(3, 5, 900)
    choice, cover = np.ones(a.n_agents), np.ones(a.n_resources)
    slack = -a.weights - a.constraint_matrix @ np.concatenate([choice, cover])
    assert (np.abs(slack) >= 1.0).all()
    o = a.n_options
    rhos = (project_rho(slack, dual.PROJECTION_OFFSET), np.ones(o), np.zeros(o), np.full(o, -1.0),
            np.full(o, math.nan), np.ones(o + 1))
    reports = [
        solve(a, SolverConfig(), start=DualPoint(cover_dual=cover, choice_dual=choice, binary_dual=rho))
        for rho in rhos
    ]
    for rep in reports:
        assert rep.iterations == (rep.outer_iterations,) * 3
        assert_same_report(rep, reports[0])


def test_cold_start_lands_first_at_a_uniform_rho_sized_to_the_utilities(landings):
    a = sumax_assignment_for_seed(3, 5, 900)
    # the floor is relative, so even a mean |u| far below the old absolute
    # floor of 1e-3 is where the cold start lands
    for scale in (1.0, 1e-5, 1e5):
        inst = a.with_weights(scale * a.weights)
        landings.clear()
        solve(inst, SolverConfig())
        rho = np.abs(inst.utilities).mean()
        assert np.array_equal(landings[0], np.full(a.n_options, rho))
    assert rho > 1e3 * dual.PROJECTION_OFFSET
    # a warm start's first landing still takes the binarity step from its
    # slack, floored at FLOOR_SCALE * mean |u|
    landings.clear()
    solve(a, SolverConfig(), start=unit_start(a))
    slack = a.utilities - a.constraint_matrix @ np.ones(a.n_agents + a.n_resources)
    offset = dual.FLOOR_SCALE * np.abs(a.utilities).mean()
    assert np.array_equal(landings[0], project_rho(slack, offset))


def test_zero_utilities_start_on_the_floor_and_return_an_exact_cover(landings):
    a = sumax_assignment_for_seed(3, 5, 900)
    a = a.with_weights(np.zeros(a.n_options))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve(a, SolverConfig())
    assert np.array_equal(landings[0], np.full(a.n_options, dual.PROJECTION_OFFSET))
    assert rep.allocation is not None
    assert not a.allocation_violations(rep.allocation)
    assert rep.primal_value == 0.0


def test_cold_start_takes_at_most_three_quarters_of_the_unit_start_landings():
    # a start at y = 1 is the cold start the uniform rho replaced
    sc = ScenarioConfig(n_users=4, n_subchannels=8)
    cold = unit = 0
    for seed in range(30):
        a = to_assignment(build_sumax(generate_channel(sc, seed), sc))
        rep, ref = solve(a), solve(a, start=unit_start(a))
        cold += rep.outer_iterations
        unit += ref.outer_iterations
        assert rep.certified == ref.certified, seed
        if rep.certified:
            assert rep.allocation == ref.allocation, seed
    assert cold <= 0.75 * unit


def paper_instances(seed: int) -> tuple[AssignmentInstance, AssignmentInstance, AssignmentInstance]:
    """One paper-scale drop (K = 4, N = 8): its sumax, joint jamsc and 16QAM jamsc instances."""
    sc = ScenarioConfig(n_users=4, n_subchannels=8)
    gains = generate_channel(sc, seed)
    joint, fixed = (
        to_assignment(model)
        for model in build_jamsc(
            gains, sc, np.full(4, 140e3), (ModulationTable(), ModulationTable().restricted("16QAM")), FrameConfig()
        )
    )
    return to_assignment(build_sumax(gains, sc)), joint, fixed


def test_scaling_the_weights_by_a_power_of_four_scales_every_dual():
    # the floor and the cold start are in the utilities' units, and scaling
    # by a power of two is exact in float64, so every round is the same
    # round in other units
    def solves(instances, scale):
        sumax, joint, fixed = (a.with_weights(scale * a.weights) for a in instances)
        reps = [solve(sumax), solve(joint), solve(fixed)]
        return reps + [solve(fixed, start=reps[1].dual_point)]

    for seed in range(42, 62):
        instances = paper_instances(seed)
        base = solves(instances, 1.0)
        for k in (-10, -5, 5, 10):
            scale = 4.0**k
            names = ("sumax", "dual_am", "dual_fixed", "warm dual_fixed")
            for which, ref, rep in zip(names, base, solves(instances, scale)):
                where = (seed, k, which)
                assert (rep.outcome, rep.termination, rep.outer_iterations) == (
                    ref.outcome, ref.termination, ref.outer_iterations
                ), where
                assert rep.allocation == ref.allocation, where
                assert np.array_equal(rep.dual_point.choice_dual, scale * ref.dual_point.choice_dual), where
                assert np.array_equal(rep.dual_point.cover_dual, scale * ref.dual_point.cover_dual), where


def test_warm_started_dual_fixed_certifies_only_the_optimum(monkeypatch):
    solves = []

    def recording(a, cfg=SolverConfig(), start=None):
        rep = solve(a, cfg, start=start)
        solves.append((a, start, rep))
        return rep

    monkeypatch.setattr(harness, "solve", recording)
    cfg = CampaignConfig(problem="jamsc")  # the paper's K = 4, N = 8
    certified = 0
    for i in range(40):
        solves.clear()
        run_drop(cfg, 42 + i, i)
        (_, cold, am), (fixed, start, rep) = solves
        assert cold is None
        # dual_am never diverges here, so dual_fixed always starts from its duals
        assert am.termination != "diverged"
        assert np.array_equal(start.choice_dual, am.dual_point.choice_dual)
        assert np.array_equal(start.cover_dual, am.dual_point.cover_dual)
        if rep.certified:
            certified += 1
            assert rep.primal_value == brute_force(fixed)[1], i
    assert certified >= 30


def test_dual_fixed_before_dual_am_starts_cold():
    order = CampaignConfig(problem="jamsc", allocators_jamsc=("dual_fixed", "dual_am", "oracle_am", "round_robin"))
    alone = CampaignConfig(problem="jamsc", allocators_jamsc=("dual_fixed",))
    warm = CampaignConfig(problem="jamsc")
    moved = 0
    for seed in range(42, 52):
        first, cold, after = (run_drop(cfg, seed).records["dual_fixed"] for cfg in (order, alone, warm))
        for name in ("objective", "outcome", "termination", "outer_iterations"):
            assert getattr(first, name) == getattr(cold, name), (seed, name)
        moved += after.outer_iterations != cold.outer_iterations
    assert moved  # the default order does take the warm start


@pytest.mark.parametrize("failure", ["diverged", "raised"])
def test_dual_am_that_failed_leaves_dual_fixed_cold(monkeypatch, failure):
    starts = []

    def failing_am(a, cfg=SolverConfig(), start=None):
        starts.append(start)
        rep = solve(a, cfg, start=start)
        if len(starts) == 1:
            if failure == "raised":
                raise InfeasibleInstanceError("no exact-cover assignment exists for this instance")
            rep.termination = "diverged"
        return rep

    monkeypatch.setattr(harness, "solve", failing_am)
    res = run_drop(CampaignConfig(problem="jamsc"), 42)
    assert starts == [None, None]
    assert res.records["dual_fixed"].outcome is not None


def test_warm_start_of_another_shape_is_refused(landings):
    a = sumax_assignment_for_seed(3, 5, 900)
    k, n, o = a.n_agents, a.n_resources, a.n_options
    # the first keeps the stacked length K + N, so nothing else would catch it
    for choice, cover in ((k + 1, n - 1), (k - 1, n)):
        start = DualPoint(cover_dual=np.ones(cover), choice_dual=np.ones(choice), binary_dual=np.ones(o))
        with pytest.raises(ValueError, match="lengths"):
            solve(a, SolverConfig(), start=start)
    assert not landings


@pytest.mark.parametrize("p_max_w", [400.0, 700.0])
def test_high_power_budgets_raise_no_overflow_warning(p_max_w):
    # costs near -exp(p_max_w) put the ascent's differences and slacks where
    # their squares overflow float64
    cfg = CampaignConfig(
        problem="jamsc",
        n_drops=20,
        base_seed=5,
        scenario=ScenarioConfig(p_max_w=p_max_w),
        allocators_jamsc=("dual_am", "oracle_am", "dual_fixed", "round_robin"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = run_campaign(cfg)
    assert out.ok
    assert out.summary["per_allocator"]["jamsc"]["dual_am"]["outcome_shares"]["certified"] > 0


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
    assert rep.outcome == "repaired"
    _, opt = brute_force(a)
    assert rep.primal_value == opt  # bounded repair recovers the optimum here
    mid = rep.fractional[(rep.fractional > 0.4) & (rep.fractional < 0.6)]
    assert mid.size >= 2


def test_diagnose_gap_agreement_means_zero_theta():
    a = sumax_assignment_for_seed(2, 4, 5003)
    rep = solve(a, SolverConfig())
    assert rep.certified
    sel = a.selection_vector(rep.allocation)
    report = diagnose_gap(a, rep.dual_point, selection=sel)
    assert not report.theta.any()
    assert np.array_equal(report.modified_utilities, -a.weights)


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
        mod = a.with_weights(-report.modified_utilities)
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


@pytest.mark.parametrize(
    "setting",
    [
        {"max_outer": math.nan},
        {"max_outer": math.inf},
        {"max_outer": 2.5},
        {"max_outer": "10"},
        {"max_outer": -1},
        {"max_outer": 0},
        {"max_outer": True},
        {"max_outer": False},
    ],
)
def test_solver_config_rejects_unusable_setting(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        SolverConfig(**setting)


def test_dual_fixed_starts_from_dual_ams_dual_point_as_it_is():
    # the first round sets every binarity dual, so dual_fixed may start from
    # dual_am's own dual point, whose binarity duals number other options
    for seed in range(42, 52):
        _, joint, fixed = paper_instances(seed)
        point = solve(joint).dual_point
        assert len(point.binary_dual) != fixed.n_options
        ones = DualPoint(point.cover_dual, point.choice_dual, binary_dual=np.ones(fixed.n_options))
        assert_same_report(solve(fixed, start=point), solve(fixed, start=ones))


def test_warm_start_with_negative_choice_duals_is_accepted(landings):
    # the choice and cover constraints are equalities: their duals are free in sign
    a = sumax_assignment_for_seed(3, 5, 900)
    rng = np.random.default_rng(7)
    start = DualPoint(
        cover_dual=rng.uniform(-3.0, 3.0, a.n_resources),
        choice_dual=-rng.uniform(0.5, 3.0, a.n_agents),
        binary_dual=rng.uniform(0.01, 3.0, a.n_options),
    )
    rep = solve(a, SolverConfig(), start=start)
    assert len(landings) == rep.outer_iterations
    assert (rep.dual_point.binary_dual > 0).all()
    _, opt = brute_force(a)
    assert rep.certified
    assert rep.primal_value == opt


def test_free_sign_choice_duals_certify_the_optimum():
    # a converged point whose choice duals differ in sign still bounds every
    # exact cover from below, so its exact-cover rounding is the optimum
    a = sumax_assignment_for_seed(2, 4, 2024)
    rep = solve(a, SolverConfig())
    assert rep.termination == "converged"
    # the optimal duals form a face here; the ascent ends at one with mixed signs
    choice = rep.dual_point.choice_dual
    assert choice[0] < 0 < choice[1]
    assert rep.certified
    alloc, opt = brute_force(a)
    assert rep.primal_value == opt
    assert rep.allocation == alloc
    assert abs(rep.duality_gap) <= 1e-6 * (1.0 + abs(rep.dual_value))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_outer=0)
    # the floor, the cold start and the rounding tolerance are module
    # constants, and the exit test has no tolerance
    for removed in ("tol", "projection_offset", "init_value", "round_tol"):
        with pytest.raises(TypeError, match=removed):
            SolverConfig(**{removed: 0.1})
