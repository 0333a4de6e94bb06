import itertools

import numpy as np
import pytest

from scfdma_alloc.assignment import (
    LAYOUT_CACHE_SIZE,
    Allocation,
    AssignmentInstance,
    InfeasibleInstanceError,
    OptionLayout,
    _layout,
    to_assignment,
)
from scfdma_alloc.channel import ScenarioConfig, generate_channel
from scfdma_alloc.harness import CampaignConfig, run_drop
from scfdma_alloc.jamsc import FrameConfig, build_jamsc
from scfdma_alloc.sumax import ModulationTable, build_sumax

from incidence import incidence


def _sumax_instance(seed=0, n_users=2, n_sub=3):
    cfg = ScenarioConfig(n_users=n_users, n_subchannels=n_sub)
    ch = generate_channel(cfg, seed)
    return build_sumax(ch, cfg)


def test_sumax_conversion_shape_and_weights():
    inst = _sumax_instance()
    a = to_assignment(inst)
    j = inst.patterns.n_patterns
    assert a.n_agents == 2
    assert a.n_resources == 3
    assert a.n_options == 2 * j
    for k in range(2):
        opts = a.agent_options(k)
        assert len(opts) == j
        for j_idx, o in enumerate(opts):
            assert a.weights[o] == inst.weights[k, j_idx]
            assert (a.agent_of[o], a.layout.pattern_of[o]) == (k, j_idx)
            col = inst.patterns.columns[j_idx]
            ones = set(np.nonzero(a.constraint_matrix[o, a.n_agents :])[0] + 1)
            assert ones == set(col)


def test_agent_slices_contiguous():
    a = to_assignment(_sumax_instance(n_users=3, n_sub=4))
    stops = [sl[1] for sl in a.agent_slices]
    starts = [sl[0] for sl in a.agent_slices]
    assert starts[0] == 0
    assert stops[-1] == a.n_options
    assert starts[1:] == stops[:-1]
    assert np.array_equal(a.agent_of, np.repeat(np.arange(3), a.n_options // 3))


def test_exact_cover_enumeration_k2_n2():
    a = to_assignment(_sumax_instance(n_users=2, n_sub=2))
    j = a.n_options // 2
    feasible = []
    for combo in itertools.product(range(j), repeat=2):
        alloc = Allocation(option_index=tuple(a.agent_options(k)[c] for k, c in enumerate(combo)))
        if not a.allocation_violations(alloc):
            feasible.append(combo)
    # patterns on two sub-channels: (), (1,), (2,), (1,2)
    assert sorted(feasible) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_value_matches_agent_order_sum_bitwise():
    inst = _sumax_instance(seed=4, n_users=3, n_sub=4)
    a = to_assignment(inst)
    rng = np.random.default_rng(10)
    for _ in range(25):
        combo = tuple(int(rng.integers(0, inst.patterns.n_patterns)) for _ in range(3))
        alloc = Allocation(option_index=tuple(a.agent_options(k)[j] for k, j in enumerate(combo)))
        manual = 0.0
        for o in alloc.option_index:
            manual = manual + float(a.weights[o])
        assert a.value(alloc) == manual
        assert a.value(alloc) == inst.total(combo)


def test_selection_vector_roundtrip():
    a = to_assignment(_sumax_instance(n_users=2, n_sub=3))
    alloc = Allocation(option_index=(a.agent_options(0)[2], a.agent_options(1)[1]))
    sel = a.selection_vector(alloc)
    assert sel.sum() == 2
    # options are grouped by agent, so the selected ones read back in agent order
    back = Allocation(tuple(np.flatnonzero(sel).tolist()))
    assert back == alloc


def test_selection_violations_messages():
    a = to_assignment(_sumax_instance(n_users=2, n_sub=2))
    sel = np.zeros(a.n_options, dtype=np.int8)
    v = a.selection_violations(sel)
    assert any("agent" in msg for msg in v)
    # both users grab the full block: over-covered sub-channels
    full = a.n_options // 2 - 1
    sel = np.zeros(a.n_options, dtype=np.int8)
    sel[a.agent_options(0)[full]] = 1
    sel[a.agent_options(1)[full]] = 1
    v = a.selection_violations(sel)
    assert v
    assert any("sub-channel" in msg or "cover" in msg for msg in v)


def test_allocation_violations_reports_uncovered():
    a = to_assignment(_sumax_instance(n_users=2, n_sub=3))
    alloc = Allocation(option_index=(a.agent_options(0)[0], a.agent_options(1)[0]))
    v = a.allocation_violations(alloc)
    assert v


def test_allocation_violations_name_each_choice_outside_its_agents_range():
    a = to_assignment(_sumax_instance(n_users=2, n_sub=3))
    own = (a.agent_options(0)[1], a.agent_options(1)[0])
    # -1 would index the last option, which is agent 1's
    for bad in (-1, a.n_options, a.agent_options(0)[2]):
        v = a.allocation_violations(Allocation(option_index=(own[0], bad)))
        assert v == [f"agent 1 chose option {bad} outside its range"]
    swapped = Allocation(option_index=own[::-1])
    assert a.allocation_violations(swapped) == [
        f"agent 0 chose option {own[1]} outside its range",
        f"agent 1 chose option {own[0]} outside its range",
    ]
    assert a.allocation_violations(Allocation(option_index=own[:1])) == ["allocation has 1 choices for 2 agents"]


def test_with_weights_replaces_only_weights():
    a = to_assignment(_sumax_instance())
    w = np.arange(a.n_options, dtype=float)
    b = a.with_weights(w)
    assert np.array_equal(b.weights, w)
    assert np.array_equal(b.constraint_matrix, a.constraint_matrix)
    assert b.layout is a.layout
    assert np.array_equal(a.weights, _sumax_instance().weights.ravel())


def test_jamsc_conversion_uses_mask():
    cfg = ScenarioConfig(n_users=2, n_subchannels=4)
    ch = generate_channel(cfg, 2)
    (inst,) = build_jamsc(ch, cfg, (140e3, 140e3), (ModulationTable(),), FrameConfig())
    a = to_assignment(inst)
    assert a.n_options == int(inst.allowed.sum())
    entries = list(zip(a.agent_of.tolist(), a.layout.pattern_of.tolist()))
    assert entries == sorted(entries)  # user, then pattern
    for o, (k, j) in enumerate(entries):
        assert inst.allowed[k, j]
        assert a.weights[o] == inst.weights[k, j]
    # the constraint matrix: each option's agent one-hot beside its block, column-major
    one_hot = np.zeros((a.n_options, a.n_agents))
    one_hot[np.arange(a.n_options), a.agent_of] = 1.0
    assert np.array_equal(a.constraint_matrix, np.hstack([one_hot, incidence(a).T]))
    assert a.constraint_matrix.flags.f_contiguous


def test_jamsc_conversion_rejects_infeasible_users():
    cfg = ScenarioConfig(n_users=2, n_subchannels=4)
    ch = generate_channel(cfg, 2)
    (inst,) = build_jamsc(ch, cfg, (4e6, 140e3), (ModulationTable(),), FrameConfig())
    with pytest.raises(InfeasibleInstanceError):
        to_assignment(inst)


def test_with_weights_rejects_shape_change():
    a = to_assignment(_sumax_instance())
    with pytest.raises(ValueError):
        a.with_weights(np.zeros(a.n_options + 1))


def test_weights_must_match_the_layout():
    layout = to_assignment(_sumax_instance()).layout
    n_options = len(layout.agent_of)
    for weights in (np.zeros(n_options - 1), np.zeros(n_options + 1), np.zeros((1, n_options))):
        with pytest.raises(ValueError, match="do not match the layout"):
            AssignmentInstance(weights=weights, layout=layout)


def _layout_arrays(layout):
    return {
        name: getattr(layout, name)
        for name in (
            "agent_of", "pattern_of", "sizes", "constraint_matrix",
            "half_colsum_minus_one", "ends", "option_at",
        )
    }


def test_drops_with_one_mask_share_one_read_only_layout():
    a, b = (to_assignment(_sumax_instance(seed, n_users=3, n_sub=5)) for seed in (1, 2))
    assert not np.array_equal(a.weights, b.weights)
    assert b.layout is a.layout
    for name, array in _layout_arrays(a.layout).items():
        assert getattr(b.layout, name) is array, name
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1
    assert a.constraint_matrix is a.layout.constraint_matrix
    assert a.constraint_matrix is b.constraint_matrix
    c = a.with_weights(np.arange(a.n_options, dtype=float))
    assert c.layout is a.layout
    # another mask has its own layout
    cfg = ScenarioConfig(n_users=3, n_subchannels=5)
    (jamsc,) = build_jamsc(generate_channel(cfg, 1), cfg, np.full(3, 140e3), (ModulationTable(),), FrameConfig())
    assert not jamsc.allowed.all()
    assert to_assignment(jamsc).layout is not a.layout


def test_hand_built_instance_builds_the_same_layout():
    a = to_assignment(_sumax_instance(3))
    allowed = np.ones((a.n_agents, a.layout.patterns.n_patterns), dtype=bool)
    hand = AssignmentInstance(weights=a.weights.copy(), layout=OptionLayout(a.layout.patterns, allowed))
    assert hand.layout is not a.layout
    for name, array in _layout_arrays(hand.layout).items():
        assert np.array_equal(array, getattr(a.layout, name)), name
        assert not array.flags.writeable
    assert hand.layout.agent_slices == a.agent_slices
    allowed[0, 0] = False  # the caller's own mask stays writeable, and the layout keeps its copy
    assert hand.layout.allowed.all()


def test_hand_built_layout_refuses_users_without_options_and_a_foreign_mask():
    patterns = _sumax_instance().patterns
    allowed = np.ones((3, patterns.n_patterns), dtype=bool)
    allowed[[0, 2]] = False
    with pytest.raises(InfeasibleInstanceError, match="users without any allowed option: 0, 2"):
        OptionLayout(patterns, allowed)
    with pytest.raises(ValueError, match="is not"):
        OptionLayout(patterns, np.ones((2, patterns.n_patterns + 1), dtype=bool))


def test_masks_varying_by_drop_never_outgrow_the_layout_cache():
    # a strict power cap at a 2 km radius masks options drop by drop
    cfg = CampaignConfig(
        scenario=ScenarioConfig(n_users=4, n_subchannels=8, cell_radius_m=2000.0),
        problem="jamsc", strict_cap=True, allocators_jamsc=("round_robin",),
    )
    misses = _layout.cache_info().misses
    for i in range(2 * LAYOUT_CACHE_SIZE):
        run_drop(cfg, 500 + i, i)
        assert _layout.cache_info().currsize <= LAYOUT_CACHE_SIZE
    assert _layout.cache_info().misses - misses > LAYOUT_CACHE_SIZE


def test_option_at_matches_a_scan_of_sizes_and_ends_on_strict_cap_masks():
    # a strict power cap masks options drop by drop; at a 500 m radius most drops stay feasible
    scen = ScenarioConfig(n_users=4, n_subchannels=8, cell_radius_m=500.0)
    n_res = scen.n_subchannels
    masks = set()
    for seed in range(400, 412):
        (inst,) = build_jamsc(
            generate_channel(scen, seed), scen, np.full(4, 140e3), (ModulationTable(),),
            FrameConfig(), strict_cap=True,
        )
        try:
            a = to_assignment(inst)
        except InfeasibleInstanceError:
            continue
        masks.add(inst.allowed.tobytes())
        sizes, ends = a.sizes.tolist(), a.layout.ends.tolist()
        for k in range(a.n_agents):
            for n in range(n_res + 1):
                for m in range(n, n_res + 1):
                    scan = [o for o in a.agent_options(k) if sizes[o] == m - n and (m == n or ends[o] == m)]
                    assert a.layout.option_at[k, n, m] == (scan[0] if scan else -1)
                    assert len(scan) <= 1
        below = np.tril(np.ones((n_res + 1, n_res + 1), dtype=bool), -1)
        assert (a.layout.option_at[:, below] == -1).all()
    assert len(masks) > 5


def dense_violations(a, options):
    """The violations of a selection read off the dense (choice, cover) matrix: the checkers' reference."""
    counts, k = a.constraint_matrix[list(options)].sum(axis=0).tolist(), a.n_agents
    out = [f"agent {i} selects {int(c)} options" for i, c in enumerate(counts[:k]) if c != 1]
    out += [f"sub-channel {n + 1} covered {int(c)} times" for n, c in enumerate(counts[k:]) if c != 1]
    return out


def test_both_checkers_read_the_spans_as_the_dense_matrix_counts():
    scen = ScenarioConfig(n_users=4, n_subchannels=8, cell_radius_m=500.0)
    instances = [to_assignment(_sumax_instance(seed, 3, 5)) for seed in range(3)]
    for seed in (400, 401):  # strict-cap masks leave agents different option counts
        (inst,) = build_jamsc(
            generate_channel(scen, seed), scen, np.full(4, 140e3), (ModulationTable(),), FrameConfig(), strict_cap=True
        )
        instances.append(to_assignment(inst))
    rng = np.random.default_rng(7)
    for a in instances:
        starts = (a.layout.ends - a.sizes).tolist()
        assert a.layout.spans == tuple(zip(a.agent_of.tolist(), starts, a.layout.ends.tolist()))
        for _ in range(200):
            selection = (rng.random(a.n_options) < rng.choice([0.02, 0.1, 0.3])).astype(np.int8)
            assert a.selection_violations(selection) == dense_violations(a, np.flatnonzero(selection))
            # one option per agent: only the cover can fail
            chosen = tuple(int(rng.integers(lo, hi)) for lo, hi in a.agent_slices)
            assert a.allocation_violations(Allocation(chosen)) == dense_violations(a, chosen)
