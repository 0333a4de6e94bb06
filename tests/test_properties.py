"""Property tests of the dual solver and the jamsc option table.

Hypothesis runs derandomized, so every run draws the same examples.  The
sumax draws cover sub-channel ties (no Rayleigh fading), the ZF equalizer,
per-user power budgets and more users than sub-channels; the jamsc draws
cover ties, per-user budgets, the strict power cap, cells large enough for
costs to underflow to -0.0, and rates that leave some users without options.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scfdma_alloc.assignment import InfeasibleInstanceError, to_assignment
from scfdma_alloc.baselines import InfeasibleAllocationError, brute_force
from scfdma_alloc.channel import generate_channel
from scfdma_alloc.dual import SolverConfig, solve
from scfdma_alloc.harness import desk_scenario
from scfdma_alloc.jamsc import FrameConfig, build_jamsc, min_count_matrix, solve_pattern_power
from scfdma_alloc.sumax import ModulationTable, build_sumax

POWERS = st.lists(st.floats(0.05, 2.0), min_size=4, max_size=4)


def sumax_instance(k, n, seed, ties, zf, p_max):
    over = {"rayleigh_fading": not ties, "equalizer": "zf" if zf else "mmse"}
    if p_max is not None:
        over["p_max_w"] = tuple(p_max[:k])
    sc = desk_scenario(k, n, **over)
    weights = np.random.default_rng([seed, 7919]).uniform(0.5, 1.5, k)
    return to_assignment(build_sumax(generate_channel(sc, seed), sc, weights=weights))


solver_properties = settings(derandomize=True, database=None, deadline=None, max_examples=40)
instance_args = dict(
    k=st.integers(2, 4),
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    zf=st.booleans(),
    p_max=st.none() | POWERS,
)


@solver_properties
@given(**instance_args)
@example(k=4, n=3, seed=5, ties=True, zf=True, p_max=[0.1, 1.5, 0.3, 2.0])
def test_certified_solve_equals_brute_force(k, n, seed, ties, zf, p_max):
    a = sumax_instance(k, n, seed, ties, zf, p_max)
    rep = solve(a, SolverConfig())
    _, opt = brute_force(a)
    if rep.certified:
        assert rep.primal_value == opt
    if rep.allocation is not None:
        assert not a.allocation_violations(rep.allocation)
        assert rep.primal_value >= opt


@solver_properties
@given(**instance_args)
@example(k=4, n=3, seed=5, ties=True, zf=True, p_max=[0.1, 1.5, 0.3, 2.0])
def test_solve_twice_is_identical(k, n, seed, ties, zf, p_max):
    a = sumax_instance(k, n, seed, ties, zf, p_max)
    r1 = solve(a, SolverConfig())
    r2 = solve(a, SolverConfig())
    for name in ("cover_dual", "choice_dual", "binary_dual"):
        assert np.array_equal(getattr(r1.dual_point, name), getattr(r2.dual_point, name))
    assert r1.iterations == r2.iterations
    assert r1.outer_iterations == r2.outer_iterations


def jamsc_optimum(gains, sc, targets, table, frame, strict_cap):
    """Exact-cover optimum over every (user, modulation, pattern) option, or None.

    Enumerates the full three-index table with the scalar power solver and
    checks every combination of one option per user, summing costs in user
    order; no modulation is dropped up front.
    """
    k_users, n_sub = gains.shape
    p_max = sc.per_user("p_max_w")
    counts = min_count_matrix(targets, table, frame)
    options = []  # per user: (pattern bitmask, power)
    for k in range(k_users):
        mine = []
        for m, thr in enumerate(table.thresholds):
            for start in range(n_sub):
                for length in range(counts[k, m], n_sub - start + 1):
                    p = solve_pattern_power(gains[k, start : start + length], thr)
                    if not (strict_cap and p > p_max[k]):
                        mine.append((((1 << length) - 1) << start, p))
        options.append(mine)
    best = None
    full = (1 << n_sub) - 1
    for combo in itertools.product(*options):
        used = 0
        for mask, _ in combo:
            if used & mask:
                break
            used |= mask
        else:
            if used != full:
                continue
            costs = -np.exp(p_max - np.array([p for _, p in combo]))
            total = 0.0
            for c in costs.tolist():
                total += c
            best = total if best is None else min(best, total)
    return best


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    k=st.integers(2, 3),
    n=st.integers(3, 5),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    p_max=st.none() | POWERS,
    strict_cap=st.booleans(),
    radius=st.sampled_from([500.0, 2000.0, 5000.0]),
    rate=st.sampled_from([50e3, 140e3, 300e3, 600e3]),
)
@example(k=3, n=5, seed=17, ties=True, p_max=[0.05, 1.0, 2.0, 0.5], strict_cap=True, radius=2000.0, rate=140e3)
def test_lowest_modulation_table_keeps_the_joint_optimum(
    k, n, seed, ties, p_max, strict_cap, radius, rate
):
    over = {"rayleigh_fading": not ties, "cell_radius_m": radius}
    if p_max is not None:
        over["p_max_w"] = tuple(p_max[:k])
    sc = desk_scenario(k, n, **over)
    gains = generate_channel(sc, seed)
    table, frame = ModulationTable(), FrameConfig()
    targets = np.full(k, rate)
    want = jamsc_optimum(gains.gains, sc, targets, table, frame, strict_cap)
    try:
        _, got = brute_force(
            to_assignment(build_jamsc(gains, sc, targets, table, frame, strict_cap=strict_cap))
        )
    except (InfeasibleInstanceError, InfeasibleAllocationError):
        got = None
    assert got == want
