import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "drop_ab", Path(__file__).resolve().parent.parent / "tools" / "drop_ab.py"
)
drop_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(drop_ab)


def test_summarise_gives_per_drop_times_and_ratios_of_totals():
    times = {
        "base": {"run_drop": [0.004, 0.006, 0.005], "solve": [0.002, 0.004, 0.003], "oracle": [0.0] * 3},
        "control": {"run_drop": [0.005, 0.005, 0.005], "solve": [0.003, 0.004, 0.002], "oracle": [0.0] * 3},
        "change": {"run_drop": [0.003, 0.006, 0.006], "solve": [0.001, 0.002, 0.003], "oracle": [0.0] * 3},
    }
    out = drop_ab.summarise(times)
    assert list(out) == ["run_drop", "solve", "oracle"]
    assert out["run_drop"]["base_ms"] == pytest.approx(5.0)
    assert out["run_drop"]["control_ms"] == pytest.approx(5.0)
    assert out["run_drop"]["change_ms"] == pytest.approx(5.0)
    assert out["run_drop"]["ratio"] == pytest.approx(1.0)
    assert out["run_drop"]["control_ratio"] == pytest.approx(1.0)
    assert out["run_drop"]["change_faster"] == 1  # the tie counts for neither side
    assert out["run_drop"]["control_faster"] == 1
    assert out["solve"]["ratio"] == pytest.approx(6.0 / 9.0)
    assert out["solve"]["control_ratio"] == pytest.approx(1.0)
    assert out["solve"]["control_ms"] == pytest.approx(3.0)
    assert "change_faster" not in out["solve"] and "control_faster" not in out["solve"]
    # a layer never entered
    assert out["oracle"] == {
        "base_ms": 0.0, "control_ms": 0.0, "change_ms": 0.0, "ratio": None, "control_ratio": None,
    }


def test_landing_costs_separate_landings_per_drop_from_their_cost():
    times = {
        "base": {"solve": [0.003, 0.005], "repair": [0.0, 0.002]},
        "control": {"solve": [0.0, 0.0], "repair": [0.0, 0.0]},
        "change": {"solve": [0.002, 0.002], "repair": [0.0, 0.0]},
    }
    landings = {"base": [20, 10], "control": [0, 0], "change": [10, 10]}
    out = drop_ab.landing_costs(times, landings)
    assert out["base"]["per_drop"] == pytest.approx(15.0)
    assert out["base"]["us"] == pytest.approx(1e6 * 0.006 / 30)  # the repair's 2 ms left out
    assert out["change"] == pytest.approx({"per_drop": 10.0, "us": 200.0})
    assert out["control"] == {"per_drop": 0.0, "us": None}


def test_count_landings_adds_each_reports_outer_iterations():
    class Report:
        outer_iterations = 7

    class Harness:
        @staticmethod
        def solve(a, cfg, start=None):
            return Report()

    class Package:
        harness = Harness

    landings = [0]
    drop_ab.count_landings(Package, landings)
    rep = Package.harness.solve(None, None)
    Package.harness.solve(None, None, start=None)
    assert isinstance(rep, Report)
    assert landings == [14]


def test_three_drops_run_each_side_once_in_each_place():
    assert drop_ab.SIDES == ("base", "control", "change")
    for first in range(0, 9, 3):
        orders = [drop_ab.running_order(i) for i in range(first, first + 3)]
        assert all(sorted(order) == sorted(drop_ab.SIDES) for order in orders)
        for place in range(3):
            assert {order[place] for order in orders} == set(drop_ab.SIDES)


def test_every_layer_wraps_an_attribute_of_the_package():
    import scfdma_alloc

    for attrs in drop_ab.LAYERS.values():
        for module, attr in attrs:
            assert callable(getattr(getattr(scfdma_alloc, module), attr))
