import numpy as np
import pytest

from scfdma_alloc.jamsc import JamscInstance, lowest_modulation
from scfdma_alloc.patterns import (
    MAX_SUBCHANNELS,
    PatternBoundsError,
    PatternSet,
    enumerate_patterns,
)
from scfdma_alloc.sumax import ModulationTable


def count_contiguous_blocks(n: int) -> int:
    """Independent count of contiguous blocks plus the empty one."""
    count = 1
    for start in range(1, n + 1):
        for stop in range(start, n + 1):
            count += 1
    return count


def test_pattern_count_formula_small_range():
    for n in range(1, 13):
        ps = enumerate_patterns(n)
        assert ps.n_patterns == count_contiguous_blocks(n)
        assert ps.n_patterns == n * (n + 1) // 2 + 1


def test_pattern_count_n25():
    assert enumerate_patterns(25).n_patterns == 326


def test_empty_pattern_first():
    ps = enumerate_patterns(6)
    assert ps.columns[0] == ()
    assert ps.EMPTY == 0
    assert ps.sizes[0] == 0


def test_ordering_length_then_start():
    ps = enumerate_patterns(3)
    assert ps.columns == (
        (),
        (1,),
        (2,),
        (3,),
        (1, 2),
        (2, 3),
        (1, 2, 3),
    )


def test_n4_columns_as_sets():
    ps = enumerate_patterns(4)
    expected = {frozenset()}
    for start in range(1, 5):
        for stop in range(start, 5):
            expected.add(frozenset(range(start, stop + 1)))
    got = {frozenset(col) for col in ps.columns}
    assert len(ps.columns) == 11
    assert got == expected


def test_matrix_matches_columns():
    ps = enumerate_patterns(5)
    assert ps.matrix.shape == (5, ps.n_patterns)
    for j, col in enumerate(ps.columns):
        ones = {int(n) for n in np.nonzero(ps.matrix[:, j])[0] + 1}
        assert ones == set(col)
    assert ps.matrix[:, 0].sum() == 0


def test_bitmasks_consistent_with_columns():
    ps = enumerate_patterns(6)
    for j, col in enumerate(ps.columns):
        mask = 0
        for n in col:
            mask |= 1 << (n - 1)
        assert ps.bitmasks[j] == mask


def test_index_of_roundtrip():
    ps = enumerate_patterns(7)
    for j, col in enumerate(ps.columns):
        if not col:
            continue
        assert ps.index_of(col[0], len(col)) == j
        assert ps.index_of_set(col) == j
    assert ps.index_of_set(()) == ps.EMPTY


def test_index_of_rejects_unknown():
    ps = enumerate_patterns(4)
    with pytest.raises(KeyError):
        ps.index_of(1, 5)
    with pytest.raises(KeyError):
        ps.index_of_set((1, 3))


def test_bounds_guard():
    with pytest.raises(PatternBoundsError):
        enumerate_patterns(0)
    with pytest.raises(PatternBoundsError):
        enumerate_patterns(MAX_SUBCHANNELS + 1)
    with pytest.raises(PatternBoundsError):
        enumerate_patterns(4.0)


def test_sizes_property():
    ps = enumerate_patterns(8)
    assert ps.sizes.tolist() == [len(col) for col in ps.columns]


def test_feasibility_mask_allows_only_large_enough():
    ps = enumerate_patterns(4)
    min_counts = np.array([[3, 2, 1], [2, 1, 1]])
    lowest = lowest_modulation(ps, min_counts)
    assert lowest.shape == (2, ps.n_patterns)
    for k in range(2):
        for j, col in enumerate(ps.columns):
            reached = [m for m in range(3) if len(col) >= min_counts[k, m] and len(col) > 0]
            assert lowest[k, j] == (reached[0] if reached else -1)


def test_feasibility_mask_excludes_empty_everywhere():
    ps = enumerate_patterns(5)
    lowest = lowest_modulation(ps, np.ones((3, 3), dtype=int))
    assert (lowest[:, ps.EMPTY] == -1).all()
    assert (lowest[:, 1:] == 0).all()


def test_feasibility_mask_rejects_bad_counts():
    ps = enumerate_patterns(4)
    with pytest.raises(ValueError):
        lowest_modulation(ps, np.array([[0, 1, 1]]))
    with pytest.raises(ValueError):
        lowest_modulation(ps, np.array([[1, 2, 3]]))
    with pytest.raises(ValueError):
        lowest_modulation(ps, np.array([3, 2, 1]))


def test_users_without_options():
    ps = enumerate_patterns(3)
    lowest = lowest_modulation(ps, np.array([[1, 1, 1], [4, 4, 4]]))
    blank = np.full(lowest.shape, np.nan)
    inst = JamscInstance(
        modulation=lowest, powers=blank, costs=blank, patterns=ps, table=ModulationTable(),
        targets_bps=np.ones(2), p_max=np.ones(2),
    )
    assert inst.infeasible_users == (1,)
