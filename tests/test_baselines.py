import itertools

import numpy as np
import pytest

from scfdma_alloc.assignment import AssignmentInstance, OptionLayout, to_assignment
from scfdma_alloc.baselines import (
    InfeasibleAllocationError,
    OracleCeilingError,
    brute_force,
    greedy,
    round_robin,
)
from scfdma_alloc.channel import generate_channel
from scfdma_alloc.harness import desk_scenario, sumax_assignment_for_seed
from scfdma_alloc.sumax import build_sumax, sum_utility


def product_minimum(a: AssignmentInstance) -> tuple[tuple[int, ...], float]:
    """First-lexicographic minimiser by raw cartesian-product enumeration."""
    best_path = None
    best_value = np.inf
    per_agent = [list(a.agent_options(k)) for k in range(a.n_agents)]
    for combo in itertools.product(*per_agent):
        if (a.footprint_matrix[:, list(combo)].sum(axis=1) != 1).any():
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


def test_brute_force_tie_breaks_lexicographically():
    a = sumax_assignment_for_seed(2, 4, 40)
    tied = a.with_weights(np.full(a.n_options, -1.0))
    alloc, value = brute_force(tied)
    expect_path, expect_value = product_minimum(tied)
    assert value == expect_value == -2.0
    assert tuple(alloc.option_index) == expect_path


def test_brute_force_infeasible_cover_raises():
    a = AssignmentInstance(
        weights=np.array([-1.0]),
        layout=OptionLayout(
            n_agents=1,
            n_resources=2,
            agent_of=np.zeros(1, dtype=np.int64),
            agent_slices=((0, 1),),
            footprint_matrix=np.array([[1.0], [0.0]]),
            provenance=((0, 1),),
        ),
    )
    with pytest.raises(InfeasibleAllocationError):
        brute_force(a)


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
    cols = [a.provenance[o][1] for o in greedy(a).option_index]
    _, best = brute_force(a)
    assert sum_utility(inst, cols) <= -best + 1e-9


def test_greedy_deterministic():
    cfg = desk_scenario(3, 6)
    inst = build_sumax(generate_channel(cfg, 70), cfg)
    again = build_sumax(generate_channel(cfg, 70), cfg)
    assert greedy(to_assignment(inst)) == greedy(to_assignment(again))


def test_greedy_refuses_an_agent_left_without_its_empty_option():
    # two agents, each with only the block of the one sub-channel
    with pytest.raises(InfeasibleAllocationError, match="not one of its agent's options"):
        greedy(_hand_built([[1.0, 1.0]], [0, 1], n_agents=2))


def test_round_robin_blocks():
    assert round_robin(3, 4) == ((1, 2), (3,), (4,))
    assert round_robin(2, 8) == ((1, 2, 3, 4), (5, 6, 7, 8))
    assert round_robin(4, 4) == ((1,), (2,), (3,), (4,))
    assert round_robin(4, 6) == ((1, 2), (3, 4), (5,), (6,))


@pytest.mark.parametrize("n_users,n_sub", [(3, 7), (5, 12), (1, 4)])
def test_round_robin_partitions_all_subchannels(n_users, n_sub):
    blocks = round_robin(n_users, n_sub)
    flat = [n for blk in blocks for n in blk]
    assert sorted(flat) == list(range(1, n_sub + 1))
    assert len(flat) == n_sub
    sizes = [len(b) for b in blocks]
    assert max(sizes) - min(sizes) <= 1


def test_round_robin_guards():
    with pytest.raises(InfeasibleAllocationError):
        round_robin(5, 4)
    with pytest.raises(ValueError):
        round_robin(0, 4)
    with pytest.raises(ValueError):
        round_robin(3, 0)


def _hand_built(footprints, agent_of, n_agents=1):
    """An instance of unit weights on the given (n_resources, n_options) footprints."""
    footprints = np.asarray(footprints, dtype=float)
    agent_of = np.asarray(agent_of, dtype=np.int64)
    stops = np.cumsum(np.bincount(agent_of, minlength=n_agents)).tolist()
    return AssignmentInstance(
        weights=np.ones(len(agent_of)),
        layout=OptionLayout(
            n_agents=n_agents,
            n_resources=footprints.shape[0],
            agent_of=agent_of,
            agent_slices=tuple(zip([0] + stops[:-1], stops)),
            footprint_matrix=footprints,
            provenance=tuple((int(k), o) for o, k in enumerate(agent_of)),
        ),
    )


def test_option_at_reads_the_layout_and_refuses_a_split_footprint():
    a = sumax_assignment_for_seed(3, 5, 7)
    at = a.layout.option_at
    assert a.layout.option_at is at  # a second read rebuilds nothing
    for o in range(a.n_options):
        k, end, size = a.agent_of[o], a.layout.ends[o], a.sizes[o]
        assert at[k, end - size, end] == o
    split = _hand_built([[1.0], [0.0], [1.0]], [0])
    for oracle in (lambda a: a.layout.option_at, brute_force, greedy):
        with pytest.raises(ValueError, match="one contiguous block"):
            oracle(split)


def test_option_at_refuses_two_options_on_one_footprint():
    for footprints in ([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]):
        twice = _hand_built(footprints, [0, 0])
        with pytest.raises(ValueError, match="share an agent and a footprint"):
            brute_force(twice)
    # the same footprint for two agents is two cells
    shared = _hand_built([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]], [0, 1, 0, 1], n_agents=2)
    assert shared.layout.option_at[:, 0, 2].tolist() == [0, 1]
    assert shared.layout.option_at[:, 1, 1].tolist() == [2, 3]


def test_cover_costs_gather_the_weights_and_are_read_only():
    a = sumax_assignment_for_seed(3, 5, 8)
    at, cost = a.layout.option_at, a.cover_costs
    assert np.array_equal(cost[at >= 0], a.weights[at[at >= 0]])
    assert (cost[at < 0] == np.inf).all()
    assert a.cover_costs is cost
    with pytest.raises(ValueError, match="read-only"):
        cost[0, 0, 0] = 0.0
