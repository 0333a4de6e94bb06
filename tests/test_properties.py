"""Property tests of the dual solver on small random sumax instances.

Hypothesis runs derandomized, so every run draws the same examples.  The
draws cover sub-channel ties (no Rayleigh fading), the ZF equalizer,
per-user power budgets and more users than sub-channels.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scfdma_alloc.assignment import to_assignment
from scfdma_alloc.baselines import brute_force
from scfdma_alloc.channel import generate_channel
from scfdma_alloc.dual import SolverConfig, solve
from scfdma_alloc.harness import desk_scenario
from scfdma_alloc.sumax import build_sumax

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
