import itertools

import numpy as np
import pytest

from scfdma_alloc.assignment import (
    Allocation,
    InfeasibleInstanceError,
    to_assignment,
)
from scfdma_alloc.channel import ScenarioConfig, generate_channel
from scfdma_alloc.jamsc import FrameConfig, build_jamsc
from scfdma_alloc.sumax import ModulationTable, build_sumax, sum_utility


def _sumax_instance(seed=0, n_users=2, n_sub=3):
    cfg = ScenarioConfig(n_users=n_users, n_subchannels=n_sub)
    ch = generate_channel(cfg, seed)
    return build_sumax(ch, cfg)


def test_sumax_conversion_shape_and_weights():
    inst = _sumax_instance()
    a = to_assignment(inst)
    j = inst.patterns.n_patterns
    assert a.kind == "sumax"
    assert a.n_agents == 2
    assert a.n_resources == 3
    assert a.n_options == 2 * j
    for k in range(2):
        opts = a.agent_options(k)
        assert len(opts) == j
        for j_idx, o in enumerate(opts):
            assert a.weights[o] == -inst.utilities[k, j_idx]
            assert a.provenance[o] == (k, j_idx)
            col = inst.patterns.columns[j_idx]
            ones = set(np.nonzero(a.footprint_matrix[:, o])[0] + 1)
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
        alloc = a.allocation_from_tags([(k, j) for k, j in enumerate(combo)])
        manual = 0.0
        for o in alloc.option_index:
            manual = manual + float(a.weights[o])
        assert a.value(alloc) == manual
        assert -a.value(alloc) == sum_utility(inst, combo)


def test_selection_vector_roundtrip():
    a = to_assignment(_sumax_instance(n_users=2, n_sub=3))
    alloc = a.allocation_from_tags([(0, 2), (1, 1)])
    sel = a.selection_vector(alloc)
    assert sel.sum() == 2
    back = a.allocation_from_selection(sel)
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
    alloc = a.allocation_from_tags([(0, 0), (1, 0)])
    v = a.allocation_violations(alloc)
    assert v


def test_option_for_unknown_tag():
    a = to_assignment(_sumax_instance())
    with pytest.raises(KeyError):
        a.option_for((5, 0))


def test_with_weights_replaces_only_weights():
    a = to_assignment(_sumax_instance())
    w = np.arange(a.n_options, dtype=float)
    b = a.with_weights(w)
    assert np.array_equal(b.weights, w)
    assert np.array_equal(b.footprint_matrix, a.footprint_matrix)
    assert b.provenance == a.provenance
    assert np.array_equal(a.weights, -_sumax_instance().utilities.ravel())


def test_jamsc_conversion_uses_mask():
    cfg = ScenarioConfig(n_users=2, n_subchannels=4)
    ch = generate_channel(cfg, 2)
    inst = build_jamsc(ch, cfg, (140e3, 140e3), ModulationTable(), FrameConfig())
    a = to_assignment(inst)
    assert a.kind == "jamsc"
    assert a.n_options == int(inst.allowed.sum())
    assert list(a.provenance) == sorted(a.provenance)  # user, then pattern
    for o in range(a.n_options):
        k, j = a.provenance[o]
        assert inst.allowed[k, j]
        assert a.weights[o] == inst.costs[k, j]
        assert a.agent_of[o] == k
        assert np.array_equal(a.footprint_matrix[:, o], inst.patterns.matrix[:, j])


def test_jamsc_conversion_rejects_infeasible_users():
    cfg = ScenarioConfig(n_users=2, n_subchannels=4)
    ch = generate_channel(cfg, 2)
    inst = build_jamsc(ch, cfg, (4e6, 140e3), ModulationTable(), FrameConfig())
    with pytest.raises(InfeasibleInstanceError):
        to_assignment(inst)


def test_with_weights_rejects_shape_change():
    a = to_assignment(_sumax_instance())
    with pytest.raises(ValueError):
        a.with_weights(np.zeros(a.n_options + 1))
