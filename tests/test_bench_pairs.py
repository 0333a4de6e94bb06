import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def runs(values):
    return [{"metrics": {"m": {"value": v}}} for v in values]


def test_summarise_counts_strict_wins_in_the_better_direction():
    base = runs([1.0, 2.0, 3.0, 4.0])
    change = runs([2.0, 2.0, 1.0, 5.0])  # higher, tie, lower, higher
    for better, wins in (("higher", 2), ("lower", 1)):
        spec = {"end_to_end": [{"name": "m", "unit": "u", "better": better}]}
        out = bench_pairs.summarise(spec, base, change)["m"]
        assert out["change_wins"] == wins  # the tie counts for neither side
        assert out["better"] == better
        assert out["base"]["median"] == 2.5
        assert out["change"]["median"] == 2.0
        assert out["median_change"] == 2.0 / 2.5 - 1.0
