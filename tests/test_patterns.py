import numpy as np
import pytest

from scfdma_alloc.assignment import to_assignment
from scfdma_alloc.baselines import brute_force
from scfdma_alloc.channel import ScenarioConfig, generate_channel
from scfdma_alloc.jamsc import build_jamsc, lowest_modulation
from scfdma_alloc.patterns import (
    MAX_SUBCHANNELS,
    PatternBoundsError,
    OptionTable,
    PatternSet,
    enumerate_patterns,
)
from scfdma_alloc.sumax import ModulationTable, build_sumax


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


def test_starts_and_sizes_match_columns():
    for n in range(1, MAX_SUBCHANNELS + 1):
        ps = enumerate_patterns(n)
        # the geometry every reader takes from the catalogue
        assert ps.starts.tolist() == [col[0] - 1 if col else 0 for col in ps.columns]
        assert ps.sizes.tolist() == [len(col) for col in ps.columns]


def _permuted(n: int, seed: int) -> tuple[PatternSet, np.ndarray]:
    """The catalogue's columns with the non-empty ones shuffled, and each new column's old index."""
    cols = enumerate_patterns(n).columns
    order = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(len(cols) - 1)])
    return PatternSet(n_subchannels=n, columns=tuple(cols[j] for j in order)), order


@pytest.mark.parametrize(
    "columns",
    [
        ((), (1, 3), (2,), (2,)),  # a gap read as the block 1..2, and a repeat
        ((), (2,), (1, 2), (2,)),
        ((), (), (1,)),
        ((1,), (), (2,)),
        (),
        ((), (0,)),
        ((), (4,)),
        ((), (2, 3, 4)),
        ((), (2, 1)),
        ((), (True,)),
        ((), (1.0, 2.0)),
    ],
)
def test_hand_built_set_refuses_columns_that_are_not_blocks(columns):
    with pytest.raises(ValueError, match="pattern"):
        PatternSet(3, columns)


def test_hand_built_set_takes_blocks_in_any_order():
    ps = PatternSet(3, ((), (2, 3), (1,), (3,)))
    assert ps.starts.tolist() == [0, 1, 0, 2]
    assert ps.sizes.tolist() == [0, 2, 1, 1]
    assert _permuted(MAX_SUBCHANNELS, 0)[0].n_patterns == enumerate_patterns(MAX_SUBCHANNELS).n_patterns


@pytest.mark.parametrize(
    "overrides", [{}, {"equalizer": "zf", "rayleigh_fading": False, "p_max_w": (0.3, 1.0, 2.0, 0.6)}],
    ids=["mmse", "zf-flat-per-user"],
)
def test_models_score_a_permuted_catalogue_column_for_column(overrides):
    cfg = ScenarioConfig(**overrides)
    modulations = ModulationTable()
    for seed in range(6):
        permuted, order = _permuted(cfg.n_subchannels, seed)
        ch = generate_channel(cfg, seed)
        tables = (modulations, modulations.restricted("16QAM"))
        jamsc = [build_jamsc(ch, cfg, np.full(4, 140e3), tables, patterns=p) for p in (None, permuted)]
        for plain, shuffled in [(build_sumax(ch, cfg), build_sumax(ch, cfg, patterns=permuted)), *zip(*jamsc)]:
            assert shuffled.patterns is permuted
            for name in ("weights", "allowed", "modulation", "power_w", "snr_eff"):
                assert getattr(shuffled, name).tobytes() == getattr(plain, name)[:, order].tobytes(), name
            (_, want), (_, got) = brute_force(to_assignment(plain)), brute_force(to_assignment(shuffled))
            assert got == want


def test_shared_catalogue_arrays_are_read_only():
    ps = enumerate_patterns(3)
    for array in (ps.sizes, ps.starts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert enumerate_patterns(3).sizes[0] == enumerate_patterns(3).starts[0] == 0


def test_bounds_guard():
    with pytest.raises(PatternBoundsError):
        enumerate_patterns(0)
    with pytest.raises(PatternBoundsError):
        enumerate_patterns(MAX_SUBCHANNELS + 1)
    with pytest.raises(PatternBoundsError):
        enumerate_patterns(4.0)


def test_one_catalogue_per_count():
    assert enumerate_patterns(8) is enumerate_patterns(8)
    assert enumerate_patterns(np.int64(8)) is enumerate_patterns(8)
    ps = enumerate_patterns(8)
    assert hash(ps) == object.__hash__(ps)  # by identity: no column is rehashed
    # a cached count does not let an invalid one through
    for bad in (0, MAX_SUBCHANNELS + 1, True, 8.0):
        with pytest.raises(PatternBoundsError):
            enumerate_patterns(bad)


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
    assert (lowest[:, 0] == -1).all()  # column 0 is the empty pattern
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
    inst = OptionTable(
        patterns=ps, weights=blank, allowed=lowest >= 0, modulation=lowest,
        modulation_names=ModulationTable().names, power_w=blank, snr_eff=blank,
    )
    assert inst.infeasible_users == (1,)
