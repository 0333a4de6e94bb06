import itertools

import numpy as np
import pytest

from scfdma_alloc.assignment import AssignmentInstance, OptionLayout, to_assignment
from scfdma_alloc.baselines import (
    InfeasibleAllocationError,
    OracleCeilingError,
    block_table,
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
    assert sum_utility(inst, greedy(inst)) <= -best
    # the default ceiling refuses (16, 32) before any work
    big = desk_scenario(16, 32)
    with pytest.raises(OracleCeilingError, match="relaxations"):
        brute_force(to_assignment(build_sumax(generate_channel(big, 100), big)))


@pytest.mark.parametrize("seed", [50, 51, 52])
def test_greedy_returns_exact_cover(seed):
    cfg = desk_scenario(3, 6)
    inst = build_sumax(generate_channel(cfg, seed), cfg)
    choice = greedy(inst)
    assert len(choice) == 3
    assert (inst.patterns.matrix[:, list(choice)].sum(axis=1) == 1).all()


@pytest.mark.parametrize("seed", [60, 61, 62, 63])
def test_greedy_never_beats_oracle(seed):
    cfg = desk_scenario(2, 5)
    inst = build_sumax(generate_channel(cfg, seed), cfg)
    got = sum_utility(inst, greedy(inst))
    _, best = brute_force(to_assignment(inst))
    assert got <= -best + 1e-9


def test_greedy_deterministic():
    cfg = desk_scenario(3, 6)
    inst = build_sumax(generate_channel(cfg, 70), cfg)
    again = build_sumax(generate_channel(cfg, 70), cfg)
    assert greedy(inst) == greedy(again)


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


def test_block_table_reads_the_layout_and_refuses_a_split_footprint():
    a = sumax_assignment_for_seed(3, 5, 7)
    ends, _, _ = block_table(a)
    assert ends is a.layout.ends
    assert block_table(a)[0] is ends  # a second call rebuilds nothing
    split = AssignmentInstance(
        weights=np.array([-1.0]),
        layout=OptionLayout(
            n_agents=1,
            n_resources=3,
            agent_of=np.zeros(1, dtype=np.int64),
            agent_slices=((0, 1),),
            footprint_matrix=np.array([[1.0], [0.0], [1.0]]),
            provenance=((0, 0),),
        ),
    )
    for oracle in (block_table, brute_force):
        with pytest.raises(ValueError, match="one contiguous block"):
            oracle(split)
