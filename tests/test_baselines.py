import itertools
import math
import tracemalloc

import numpy as np
import pytest

from scfdma_alloc import baselines
from scfdma_alloc.assignment import AssignmentInstance, InfeasibleInstanceError, OptionLayout, to_assignment
from scfdma_alloc.baselines import (
    NO_COVER,
    SWEEP_BUDGET,
    InfeasibleAllocationError,
    OracleCeilingError,
    brute_force,
    cover_sweep,
    greedy,
    round_robin,
)
from scfdma_alloc.channel import ScenarioConfig, generate_channel
from scfdma_alloc.dual import solve
from scfdma_alloc.harness import desk_scenario, sumax_assignment_for_seed
from scfdma_alloc.jamsc import FrameConfig, build_jamsc
from scfdma_alloc.patterns import enumerate_patterns
from scfdma_alloc.sumax import ModulationTable, build_sumax

from incidence import incidence


def product_minimum(a: AssignmentInstance) -> tuple[tuple[int, ...], float]:
    """First-lexicographic minimiser by raw cartesian-product enumeration."""
    best_path = None
    best_value = np.inf
    per_agent = [list(a.agent_options(k)) for k in range(a.n_agents)]
    cover = incidence(a)
    for combo in itertools.product(*per_agent):
        if (cover[:, list(combo)].sum(axis=1) != 1).any():
            continue
        value = 0.0
        for o in combo:
            value += float(a.weights[o])
        if value < best_value:
            best_value = value
            best_path = combo
    return best_path, best_value


@pytest.mark.parametrize("n_users,n_sub,seed", [(2, 4, 31), (2, 4, 32), (3, 4, 33), (2, 5, 34)])
def test_brute_force_matches_product_enumeration(n_users, n_sub, seed):
    a = sumax_assignment_for_seed(n_users, n_sub, seed)
    alloc, value = brute_force(a)
    expect_path, expect_value = product_minimum(a)
    assert value == expect_value
    assert tuple(alloc.option_index) == expect_path


def per_agent_sweep(a: AssignmentInstance) -> np.ndarray:
    """``cover_sweep``'s table by one relaxation step per (sub-channel, agent)."""
    n_agents, n_res = a.n_agents, a.n_resources
    cost = a.cover_costs
    f = np.full((n_res + 1, 1 << n_agents), math.inf)
    f[0, 0] = 0.0
    for k in range(n_agents):
        f[0, 1 << k : 2 << k] = f[0, : 1 << k] + cost[k, 0, 0]
    for n in range(1, n_res + 1):
        for k in range(n_agents):
            lightest = (cost[k, :n, n, None] + f[:n]).min(axis=0)
            into = f[n].reshape(-1, 2, 1 << k)[:, 1]
            np.minimum(into, lightest.reshape(-1, 2, 1 << k)[:, 0], out=into)
    return f


def _jamsc_forms(n_users: int, n_sub: int, seed: int) -> list[AssignmentInstance]:
    """The joint and the fixed-modulation jamsc instances: no empty options, masked blocks."""
    sc = ScenarioConfig(n_users=n_users, n_subchannels=n_sub)
    tables = (ModulationTable(), ModulationTable().restricted("16QAM"))
    built = build_jamsc(generate_channel(sc, seed), sc, np.full(n_users, 140e3), tables, FrameConfig())
    return [to_assignment(t) for t in built]


@pytest.mark.parametrize(
    "forms",
    [
        pytest.param(lambda: [sumax_assignment_for_seed(4, 8, s) for s in (1, 2, 3)], id="sumax-4x8"),
        pytest.param(lambda: _jamsc_forms(4, 8, 5) + _jamsc_forms(4, 8, 6), id="jamsc-4x8"),
        pytest.param(lambda: [sumax_assignment_for_seed(1, 5, 7)], id="one-agent"),
        pytest.param(lambda: [sumax_assignment_for_seed(6, 4, 8), _masked(2, [[0, 1, 0, 1]] * 3)], id="K>N"),
        pytest.param(lambda: [sumax_assignment_for_seed(12, 24, 9)], id="12x24-blocks"),
    ],
)
def test_cover_sweep_matches_the_per_agent_sweep(forms):
    for a in forms():
        assert np.array_equal(cover_sweep(a), per_agent_sweep(a))  # inf cells included
    # (12, 24) takes one agent per step, paper scale all agents in one
    assert len(baselines._sweep_blocks(12, 24)) == 12
    assert len(baselines._sweep_blocks(4, 8)) == 1


@pytest.mark.parametrize("n_users,n_sub", [(12, 24), (16, 32)])
def test_cover_sweep_peaks_at_the_table_one_step_and_the_index(n_users, n_sub):
    a = sumax_assignment_for_seed(n_users, n_sub, 0)
    a.cover_costs  # the instance's, built before the sweep
    n_states = 1 << n_users
    baselines._sweep_blocks.cache_clear()  # the index counts too
    tracemalloc.start()
    try:
        f = cover_sweep(a, node_ceiling=10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f[-1, -1] < math.inf
    lo, hi, _ = baselines._sweep_blocks(n_users, n_sub)[0]
    table = (n_sub + 1) * (n_states + 1)
    step = max(SWEEP_BUDGET, n_sub * (n_states + 1))  # one agent's relaxations at least
    folds = 2 * (hi - lo) * (n_states + 1)  # a block's relaxed states and their gather
    index = n_users * n_states
    assert peak <= 8 * (table + step + folds + index) + 64 * 1024


def test_brute_force_tie_breaks_lexicographically():
    a = sumax_assignment_for_seed(2, 4, 40)
    tied = a.with_weights(np.full(a.n_options, -1.0))
    alloc, value = brute_force(tied)
    expect_path, expect_value = product_minimum(tied)
    assert value == expect_value == -2.0
    assert tuple(alloc.option_index) == expect_path


def test_brute_force_infeasible_cover_raises():
    # one user whose only option is sub-channel 1 of two, refused by the
    # size bounds before the dual's first round; two such users, whose sizes
    # do fill the band, refused by the sweep after the dual's repair
    for a in (_masked(2, [[0, 1, 0, 0]]), _masked(2, [[0, 1, 0, 0]] * 2)):
        with pytest.raises(InfeasibleInstanceError) as oracle:
            brute_force(a)
        with pytest.raises(InfeasibleInstanceError) as dual:
            solve(a)
        assert str(oracle.value) == str(dual.value) == NO_COVER


def test_brute_force_node_ceiling_refuses():
    a = sumax_assignment_for_seed(2, 4, 41)
    with pytest.raises(OracleCeilingError):
        brute_force(a, node_ceiling=1)


def test_brute_force_ceiling_bounds_near_tie_visits():
    a = sumax_assignment_for_seed(4, 8, 42)
    tied = a.with_weights(np.full(a.n_options, -1.0))
    relaxations = 2 ** (a.n_agents - 1) * a.n_options
    with pytest.raises(OracleCeilingError, match="near-tie"):
        brute_force(tied, node_ceiling=relaxations)
    _, value = brute_force(tied)
    assert value == -4.0


def test_oracle_finishes_at_twelve_by_twentyfour():
    cfg = desk_scenario(12, 24)
    inst = build_sumax(generate_channel(cfg, 100), cfg)
    a = to_assignment(inst)
    alloc, best = brute_force(a)
    assert not a.allocation_violations(alloc)
    assert best == a.value(alloc)
    assert a.value(greedy(a)) >= best
    # the default ceiling refuses (16, 32) before any work
    big = desk_scenario(16, 32)
    with pytest.raises(OracleCeilingError, match="relaxations"):
        brute_force(to_assignment(build_sumax(generate_channel(big, 100), big)))


@pytest.mark.parametrize("seed", [50, 51, 52])
def test_greedy_returns_exact_cover(seed):
    cfg = desk_scenario(3, 6)
    a = to_assignment(build_sumax(generate_channel(cfg, seed), cfg))
    alloc = greedy(a)
    assert len(alloc.option_index) == 3
    assert not a.allocation_violations(alloc)


@pytest.mark.parametrize("seed", [60, 61, 62, 63])
def test_greedy_never_beats_oracle(seed):
    cfg = desk_scenario(2, 5)
    inst = build_sumax(generate_channel(cfg, seed), cfg)
    a = to_assignment(inst)
    cols = [a.layout.pattern_of[o] for o in greedy(a).option_index]
    _, best = brute_force(a)
    assert inst.total(cols) >= best - 1e-9


def test_greedy_deterministic():
    cfg = desk_scenario(3, 6)
    inst = build_sumax(generate_channel(cfg, 70), cfg)
    again = build_sumax(generate_channel(cfg, 70), cfg)
    assert greedy(to_assignment(inst)) == greedy(to_assignment(again))


def test_greedy_refuses_an_agent_left_without_its_empty_option():
    # two agents, each with only the block of the one sub-channel
    with pytest.raises(InfeasibleAllocationError, match="not one of its agent's options"):
        greedy(_masked(1, [[0, 1], [0, 1]]))


def _blocks(a: AssignmentInstance, alloc) -> tuple[tuple[int, ...], ...]:
    """Each agent's chosen sub-channels, 1-based."""
    cover = incidence(a)
    return tuple(tuple((np.nonzero(cover[:, o])[0] + 1).tolist()) for o in alloc.option_index)


def test_round_robin_blocks():
    for (n_users, n_sub), want in {
        (3, 4): ((1, 2), (3,), (4,)),
        (2, 8): ((1, 2, 3, 4), (5, 6, 7, 8)),
        (4, 4): ((1,), (2,), (3,), (4,)),
        (4, 6): ((1, 2), (3, 4), (5,), (6,)),
    }.items():
        a = sumax_assignment_for_seed(n_users, n_sub, 0)
        assert _blocks(a, round_robin(a)) == want


@pytest.mark.parametrize("n_users,n_sub", [(3, 7), (5, 12), (1, 4)])
def test_round_robin_partitions_all_subchannels(n_users, n_sub):
    a = sumax_assignment_for_seed(n_users, n_sub, 0)
    alloc = round_robin(a)
    assert not a.allocation_violations(alloc)
    sizes = [len(b) for b in _blocks(a, alloc)]
    assert sum(sizes) == n_sub
    assert max(sizes) - min(sizes) <= 1


def test_round_robin_guards():
    a = sumax_assignment_for_seed(5, 4, 0)
    with pytest.raises(InfeasibleAllocationError, match=r"^round robin needs n_users <= n_subchannels, got 5 > 4$"):
        round_robin(a)
    # user 1's block is sub-channel 2, but its only option is sub-channel 1
    lopsided = _masked(2, [[0, 1, 1, 0], [0, 1, 0, 0]])
    with pytest.raises(
        InfeasibleAllocationError, match=r"^user 1 has no option on its round-robin block of sub-channels 2\.\.2$"
    ):
        round_robin(lopsided)


def _masked(n_sub: int, allowed) -> AssignmentInstance:
    """An instance of unit weights on the (user, pattern) entries that ``allowed`` allows."""
    layout = OptionLayout(enumerate_patterns(n_sub), np.array(allowed, dtype=bool))
    return AssignmentInstance(weights=np.ones(len(layout.agent_of)), layout=layout)


def test_option_at_reads_the_layout():
    a = sumax_assignment_for_seed(3, 5, 7)
    at = a.layout.option_at
    assert a.layout.option_at is at  # a second read rebuilds nothing
    for o in range(a.n_options):
        k, end, size = a.agent_of[o], a.layout.ends[o], a.sizes[o]
        assert at[k, end - size, end] == o
    # the same block for two agents is two cells; patterns on 2: (), (1,), (2,), (1, 2)
    shared = _masked(2, [[1, 0, 0, 1], [1, 0, 0, 1]])
    assert shared.layout.option_at[:, 0, 2].tolist() == [1, 3]
    assert shared.layout.option_at[:, 1, 1].tolist() == [0, 2]


def test_cover_costs_gather_the_weights_and_are_read_only():
    a = sumax_assignment_for_seed(3, 5, 8)
    at, cost = a.layout.option_at, a.cover_costs
    assert np.array_equal(cost[at >= 0], a.weights[at[at >= 0]])
    assert (cost[at < 0] == np.inf).all()
    assert a.cover_costs is cost
    with pytest.raises(ValueError, match="read-only"):
        cost[0, 0, 0] = 0.0
