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


def test_summarise_flags_a_median_past_its_bound_and_an_unresolved_spread():
    spec = {"end_to_end": [{"name": "m", "unit": "u", "better": "higher", "bound": 0.1}]}
    tight = runs([10.0, 10.0, 10.0, 10.0])  # no spread
    wide = runs([8.0, 10.0, 10.0, 12.0])  # IQR 1.0 over median 10.0: exactly the bound
    wider = runs([6.0, 10.0, 10.0, 14.0])  # IQR 2.0 over median 10.0: past the bound
    cases = (
        (tight, runs([9.1, 9.1, 9.1, 9.1]), False, False),  # 9% worse: within the bound
        (tight, runs([8.9, 8.9, 8.9, 8.9]), True, False),  # 11% worse: past it
        (wide, runs([1.0, 1.0, 1.0, 1.0]), True, False),  # the spread is not past the bound
        (wider, runs([9.0, 10.0, 10.0, 11.0]), False, True),
        (wider, runs([15.0, 15.0, 15.0, 15.0]), False, False),  # every change run beats every parent run
    )
    for base, change, worse, unresolved in cases:
        out = bench_pairs.summarise(spec, base, change)["m"]
        assert (out["worse_than_bound"], out["unresolved"]) == (worse, unresolved)
        assert out["bound"] == 0.1
    # for a lower-is-better metric the same runs mirror
    spec["end_to_end"][0]["better"] = "lower"
    out = bench_pairs.summarise(spec, tight, runs([11.1, 11.1, 11.1, 11.1]))["m"]
    assert (out["worse_than_bound"], out["unresolved"]) == (True, False)
    out = bench_pairs.summarise(spec, wider, runs([5.0, 5.0, 5.0, 5.0]))["m"]
    assert (out["worse_than_bound"], out["unresolved"]) == (False, False)


def attempts(pairs):
    return [{"attempted": n, "failed": f} for n, f in pairs]


def test_failures_record_each_run_and_flag_a_larger_failed_share():
    base = attempts([(100, 0), (200, 2), (50, 0)])  # shares 0, 0.01, 0
    out = bench_pairs.failures(base, attempts([(120, 0), (80, 0), (90, 0)]))
    assert out["base"] == {
        "attempted": [100, 200, 50],
        "failed": [0, 2, 0],
        "failed_share": {"median": 0.0, "max": 0.01},
    }
    assert out["change"]["failed_share"] == {"median": 0.0, "max": 0.0}
    assert not out["change_fails_more"]
    # a larger largest share flags the change, and so does a larger median
    assert bench_pairs.failures(base, attempts([(100, 0), (100, 2), (100, 0)]))["change_fails_more"]
    assert bench_pairs.failures(base, attempts([(100, 1), (100, 1), (100, 0)]))["change_fails_more"]
    # equal shares do not
    assert not bench_pairs.failures(base, attempts([(10, 0), (100, 1), (10, 0)]))["change_fails_more"]
