import csv
import json
import math
import re
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

from scfdma_alloc import cli, harness
from scfdma_alloc.assignment import Allocation
from scfdma_alloc.baselines import InfeasibleAllocationError
from scfdma_alloc.canonical import gradient_check
from scfdma_alloc.dual import OUTCOMES, SolverConfig
from scfdma_alloc.jamsc import PowerSolveError
from scfdma_alloc.harness import (
    CampaignConfig,
    certification_sweep,
    complexity_table,
    desk_scenario,
    emit_cdf,
    run_campaign,
    run_drop,
    sumax_assignment_for_seed,
    write_complexity_csv,
)


def test_desk_scenario_defaults_and_overrides():
    sc = desk_scenario(3, 6)
    assert sc.n_users == 3
    assert sc.n_subchannels == 6
    assert sc.cell_radius_m == 500.0
    sc2 = desk_scenario(2, 4, cell_radius_m=800.0)
    assert sc2.cell_radius_m == 800.0


def test_sumax_assignment_for_seed_deterministic():
    a = sumax_assignment_for_seed(2, 4, 77)
    b = sumax_assignment_for_seed(2, 4, 77)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.constraint_matrix, b.constraint_matrix)
    c = sumax_assignment_for_seed(2, 4, 78)
    assert not np.array_equal(a.weights, c.weights)


def test_run_drop_sumax_all_allocators():
    cfg = CampaignConfig(
        scenario=desk_scenario(2, 4),
        n_drops=1,
        allocators_sumax=("dual", "oracle", "greedy", "round_robin"),
    )
    res = run_drop(cfg, seed=5, drop_index=0)
    assert res.problem == "sumax"
    assert set(res.records) == {"dual", "oracle", "greedy", "round_robin"}
    for rec in res.records.values():
        assert rec.feasible
        assert rec.error == ""
        assert not rec.violations
    best = res.records["oracle"].objective
    for name in ("dual", "greedy", "round_robin"):
        assert res.records[name].objective <= best + 1e-9
    for name in res.records:
        rows = [r for r in res.user_rows if r["allocator"] == name]
        assert len(rows) == 2
        assert sum(r["length"] for r in rows) == 4


def test_run_drop_jamsc_all_allocators():
    cfg = CampaignConfig(
        scenario=desk_scenario(2, 4),
        problem="jamsc",
        n_drops=1,
        allocators_jamsc=("dual_am", "dual_fixed", "oracle_am", "round_robin"),
    )
    res = run_drop(cfg, seed=3, drop_index=0)
    assert res.problem == "jamsc"
    assert set(res.records) == {"dual_am", "dual_fixed", "oracle_am", "round_robin"}
    feas = {n: r for n, r in res.records.items() if r.feasible}
    assert "oracle_am" in feas
    floor = feas["oracle_am"].objective
    for name, rec in feas.items():
        assert rec.objective >= floor - 1e-9
    for name in feas:
        rows = [r for r in res.user_rows if r["allocator"] == name]
        assert len(rows) == 2
        assert all(r["modulation"] for r in rows)


def test_a_jamsc_drop_builds_both_option_tables_in_one_call(monkeypatch, tmp_path):
    # perfbench's build_jamsc probe times the whole jamsc model layer only
    # while each drop builds it in one call
    calls = []
    build = harness.build_jamsc

    def counted(*args, **kwargs):
        calls.append(args[3])
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "build_jamsc", counted)
    cfg = CampaignConfig(
        scenario=desk_scenario(4, 8), problem="both", n_drops=3, fixed_modulation="QPSK",
        allocators_jamsc=harness.JAMSC_ALLOCATORS, out_dir=str(tmp_path),
    )
    assert run_campaign(cfg).ok
    assert calls == [(cfg.modulations, cfg.modulations.restricted("QPSK"))] * 3


def test_a_failed_power_solve_fails_its_drop_and_the_campaign_goes_on(monkeypatch, tmp_path, capsys):
    build = harness.build_jamsc

    def fail_on_seed_8(gains, *args, **kwargs):
        if gains.seed == 8:
            raise PowerSolveError("target-SNR power is not finite")
        return build(gains, *args, **kwargs)

    cfg = CampaignConfig(
        scenario=desk_scenario(4, 8), problem="jamsc", n_drops=3, base_seed=7,
        allocators_jamsc=harness.JAMSC_ALLOCATORS, out_dir=str(tmp_path),
    )
    monkeypatch.setattr(harness, "build_jamsc", fail_on_seed_8)
    out = run_campaign(cfg)
    assert out.summary["drop_errors"] == [
        {"problem": "jamsc", "drop": 1, "error": "target-SNR power is not finite"}
    ]
    assert [(r.drop_index, r.error, len(r.records)) for r in out.results] == [
        (0, "", 4), (1, "target-SNR power is not finite", 0), (2, "", 4)
    ]
    assert out.ok and out.summary["per_allocator"]["jamsc"]["dual_am"]["n_drops"] == 2
    with open(tmp_path / "jamsc_drops.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["drop"], r["seed"]) for r in rows] == [("0", "7")] * 4 + [("2", "9")] * 4
    assert all(r["feasible"] == "true" for r in rows)
    # the CLI prints the failed drop and runs the others
    assert cli.main(["jamsc", "--drops", "3", "--seed", "7", "--out", str(tmp_path / "cli")]) == 0
    assert "drop 1: target-SNR power is not finite" in capsys.readouterr().out.splitlines()


def test_run_drop_refuses_both_problems_at_once():
    cfg = CampaignConfig(scenario=desk_scenario(2, 4), problem="both")
    for problem in ("both", None):  # None reads the campaign's problem
        with pytest.raises(ValueError, match="^run_drop needs a concrete problem, got 'both'$"):
            run_drop(cfg, 5, problem=problem)


def test_round_robin_refusal_names_the_user_and_the_block():
    # two sub-channels of 16QAM cannot carry 400 kbps
    cfg = CampaignConfig(
        scenario=desk_scenario(4, 8), problem="jamsc", target_rate_bps=400e3,
        allocators_jamsc=("round_robin",),
    )
    res = run_drop(cfg, seed=3)
    rec = res.records["round_robin"]
    assert not rec.feasible
    assert rec.error == "user 0 has no option on its round-robin block of sub-channels 1..2"
    assert not res.user_rows


def test_emit_cdf_pairs():
    assert emit_cdf([3.0, 1.0, 2.0, 2.0]) == [(1.0, 0.25), (2.0, 0.5), (2.0, 0.75), (3.0, 1.0)]


def test_run_campaign_writes_reproducible_files(tmp_path):
    def make(out):
        return CampaignConfig(
            scenario=desk_scenario(2, 4),
            n_drops=2,
            base_seed=9,
            allocators_sumax=("dual", "greedy", "round_robin"),
            out_dir=str(out),
        )

    first = run_campaign(make(tmp_path / "run1"))
    second = run_campaign(make(tmp_path / "run2"))
    assert first.ok and second.ok
    assert not first.failures

    names = [
        "sumax_drops.csv",
        "sumax_users.csv",
        "sumax_cdf_dual.csv",
        "sumax_cdf_greedy.csv",
        "sumax_cdf_round_robin.csv",
        "summary.json",
    ]
    for name in names:
        assert (tmp_path / "run1" / name).exists()
    for name in names:
        if name.endswith(".csv"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b

    with open(tmp_path / "run1" / "sumax_drops.csv", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        drops = list(reader)
    assert not any("runtime" in name for name in reader.fieldnames)
    assert reader.fieldnames[0] == "problem"
    assert len(drops) == 2 * 3

    with open(tmp_path / "run1" / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["ok"] is True
    assert summary["per_allocator"]["sumax"]["dual"]["n_feasible"] == 2

    def without_runtimes(run):
        summary = json.loads((tmp_path / run / "summary.json").read_text(encoding="utf-8"))
        for entry in summary["per_allocator"]["sumax"].values():
            del entry["mean_runtime_s"]  # wall clock, the one field that may differ
        return summary

    assert without_runtimes("run1") == without_runtimes("run2")


def test_a_rerun_over_longer_or_shorter_files_writes_the_bytes_of_a_fresh_directory(tmp_path, monkeypatch):
    # a stale tail from a bigger campaign must go, and a smaller campaign's
    # files must grow
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))  # runtimes of 0 s

    def run(n_drops, out):
        cfg = CampaignConfig(problem="both", scenario=desk_scenario(2, 4), n_drops=n_drops, out_dir=str(out))
        assert run_campaign(cfg).ok

    def files(out):
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    run(2, tmp_path / "small")
    run(5, tmp_path / "big")
    small, big = files(tmp_path / "small"), files(tmp_path / "big")
    assert "summary.json" in small and len(small) == len(big) == 11
    assert all(len(small[name]) < len(big[name]) for name in small)
    reused = tmp_path / "reused"
    for n_drops, want in ((5, big), (2, small), (5, big)):
        run(n_drops, reused)
        assert files(reused) == want


def test_a_checker_finding_keeps_the_objective_and_fails_the_record_and_the_campaign(
    tmp_path, monkeypatch, capsys
):
    def empty_handed(a):
        return Allocation(tuple(a.layout.option_at[:, 0, 0].tolist()))  # every agent takes its empty option

    monkeypatch.setattr(harness, "round_robin", empty_handed)
    cfg = CampaignConfig(
        scenario=desk_scenario(2, 4), n_drops=2, base_seed=9, allocators_sumax=("greedy", "round_robin"),
        out_dir=str(tmp_path),
    )
    out = run_campaign(cfg)
    rec = out.results[1].records["round_robin"]
    assert rec.objective is not None and not rec.error
    assert not rec.feasible
    assert "sub-channel 1 covered 0 times" in rec.violations
    assert out.results[1].records["greedy"].feasible
    with open(tmp_path / "sumax_drops.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["allocator"], r["feasible"]) for r in rows] == [("greedy", "true"), ("round_robin", "false")] * 2
    assert not out.ok and out.summary["ok"] is False
    assert out.failures == out.summary["failures"]
    assert [f.split(":")[0] for f in out.failures] == [
        "sumax drop 0 allocator round_robin", "sumax drop 1 allocator round_robin"
    ]
    assert out.summary["per_allocator"]["sumax"]["round_robin"]["n_feasible"] == 0
    # the CLI prints each finding and fails
    argv = ["sumax", "--drops", "2", "--seed", "9", "--allocators", "greedy,round_robin"]
    assert cli.main([*argv, "--out", str(tmp_path / "cli")]) == 1
    assert "FAIL sumax drop 0 allocator round_robin: " in capsys.readouterr().out


def test_both_campaign_reports_one_outcome_per_dual_solve(tmp_path):
    # paper scale, seeds 74-77, ten rounds: the sumax solves are repaired,
    # but for drop 1, whose tenth landing rounds to an exact cover and
    # certifies, and the warm-started jamsc dual_fixed solves certify
    cfg = CampaignConfig(
        problem="both", n_drops=4, base_seed=74, solver=SolverConfig(max_outer=10), out_dir=str(tmp_path)
    )
    out = run_campaign(cfg)
    assert out.ok
    seen = set()
    for prob in ("sumax", "jamsc"):
        with open(tmp_path / f"{prob}_drops.csv", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert tuple(reader.fieldnames) == (
            "problem", "drop", "seed", "allocator", "objective", "feasible", "error",
            "outcome", "termination", "outer_iterations",
        )
        records = {(r.drop_index, n): rec for r in out.results if r.problem == prob for n, rec in r.records.items()}
        assert len(rows) == len(records)
        for row in rows:
            rec = records[int(row["drop"]), row["allocator"]]
            assert row["outcome"] == (rec.outcome or "")
            seen.add(rec.outcome)
            assert (rec.outcome is not None) == row["allocator"].startswith("dual")
        for name, entry in out.summary["per_allocator"][prob].items():
            if not name.startswith("dual"):
                assert "outcome_shares" not in entry
                continue
            shares = entry["outcome_shares"]
            assert tuple(shares) == OUTCOMES
            assert sum(shares.values()) == pytest.approx(1.0)
            recs = [r.records[name] for r in out.results if r.problem == prob]
            assert shares["certified"] == sum(bool(r.certified) for r in recs) / len(recs)
    assert {"certified", "repaired"} <= seen


def test_drop_csv_error_cell_holds_the_exception_text(tmp_path, monkeypatch):
    message = 'user 1 refused, sub-channels 1..2 "busy"'

    def refuse(a):
        raise InfeasibleAllocationError(message)

    monkeypatch.setattr(harness, "round_robin", refuse)
    cfg = CampaignConfig(
        scenario=desk_scenario(2, 4), n_drops=2, allocators_sumax=("greedy", "round_robin"), out_dir=str(tmp_path)
    )
    run_campaign(cfg)
    with open(tmp_path / "sumax_drops.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["allocator"], r["error"]) for r in rows] == [("greedy", ""), ("round_robin", message)] * 2
    # rows without a comma or a quote are written unquoted
    lines = (tmp_path / "sumax_drops.csv").read_text().splitlines()
    assert lines[1].startswith("sumax,0,1,greedy,") and '"' not in lines[1]


def test_csv_cells_are_written_as_built_and_read_back_bit_for_bit(tmp_path, monkeypatch):
    message = 'user 1, sub-channels 1..2 "busy"'
    real_round_robin, calls = harness.round_robin, []

    def refuse_second(a):
        calls.append(a)
        if len(calls) == 2:
            raise InfeasibleAllocationError(message)
        return real_round_robin(a)

    monkeypatch.setattr(harness, "round_robin", refuse_second)
    cfg = CampaignConfig(
        problem="both", n_drops=3, base_seed=31, out_dir=str(tmp_path),
        allocators_sumax=harness.SUMAX_ALLOCATORS, allocators_jamsc=harness.JAMSC_ALLOCATORS,
    )
    out = run_campaign(cfg)
    complexity = complexity_table(k_values=(2,), n_values=(4,), seeds=(11,))
    write_complexity_csv(str(tmp_path / "complexity.csv"), complexity)

    def read(name):
        with open(tmp_path / name, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def same(cell, value):
        """The cell reads back as ``value``: an int exactly, a float bit for bit, None as empty."""
        if value is None:
            return cell == ""
        if isinstance(value, int):
            return cell == str(value)
        return np.float64(cell).tobytes() == np.float64(value).tobytes()

    for path in sorted(tmp_path.glob("*.csv")):
        text = path.read_text()
        for token in ("np.", "True", "False", "None"):
            assert token not in text, (path.name, token)
    errors = []
    for prob in ("sumax", "jamsc"):
        results = [r for r in out.results if r.problem == prob]
        records = [rec for r in results for rec in r.records.values()]
        rows = read(f"{prob}_drops.csv")
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert row["allocator"] == rec.name
            assert row["feasible"] == ("true" if rec.feasible else "false")
            assert same(row["objective"], rec.objective)
            errors.append(row["error"])
        users = [u for r in results for u in r.user_rows]
        rows = read(f"{prob}_users.csv")
        assert len(rows) == len(users) > 0
        for row, user in zip(rows, users):
            assert same(row["power_w"], user["power_w"]) and same(row["snr_eff"], user["snr_eff"])
    assert errors.count(message) == 1 and errors.count("") == len(errors) - 1
    for row, want in zip(read("complexity.csv"), complexity, strict=True):
        for col, value in want.items():
            assert same(row[col], value), col


def test_certification_sweep_tiny():
    out = certification_sweep(combos=((2, 4),), per_combo=5, base_seed=2024)
    assert out["n_runs"] == 5
    assert out["all_certified_exact"]
    assert out["all_certified_gap_ok"]
    assert out["n_feasible"] == 5
    assert out["mean_ratio"] >= 0.9
    row = out["rows"][0]
    assert {"seed", "outcome", "ratio", "oracle_value", "achieved_value"} <= set(row)
    assert "certified" not in row
    assert tuple(out["outcome_shares"]) == OUTCOMES
    assert out["outcome_shares"]["certified"] == sum(r["outcome"] == "certified" for r in out["rows"]) / 5


def test_certification_sweep_reports_each_bound_and_the_uncertified_gaps():
    # seed 2042 stops by stagnation and is repaired to the optimum, 0.6% above its bound
    out = certification_sweep(combos=((2, 4),), per_combo=20, base_seed=2024)
    rows = out["rows"]
    for r in rows:
        assert r["bound"] <= r["oracle_value"] + 1e-12 * (1.0 + abs(r["oracle_value"]))
        assert r["gap"] == (r["achieved_value"] - r["bound"]) / (1.0 + abs(r["bound"]))
        if r["outcome"] == "certified":
            assert abs(r["gap"]) <= harness.CERTIFIED_GAP_TOL
    gaps = sorted(r["gap"] for r in rows if r["outcome"] != "certified")
    assert len(gaps) == 1 and gaps[0] > 1e-3
    assert out["uncertified_gap_median"] == out["uncertified_gap_max"] == gaps[0]
    everything_certified = certification_sweep(combos=((2, 4),), per_combo=3, base_seed=2024)
    assert everything_certified["outcome_shares"]["certified"] == 1.0
    assert everything_certified["uncertified_gap_median"] is None
    assert everything_certified["uncertified_gap_max"] is None


def test_gradient_check_small():
    a = sumax_assignment_for_seed(2, 4, 123)
    out = gradient_check([a], points_per_instance=3)
    assert out["n_points"] == 3
    assert out["max_rel_error"] <= 1e-6


def test_complexity_table_rejects_empty_seeds():
    with pytest.raises(ValueError, match="at least one seed, got 0"):
        complexity_table(k_values=(2,), n_values=(4,), seeds=())


def test_complexity_table_and_csv(tmp_path):
    rows = complexity_table(k_values=(2,), n_values=(4,), seeds=(11,))
    assert len(rows) == 1
    row = rows[0]
    assert row["n_agents"] == 2
    assert row["n_subchannels"] == 4
    assert row["n_patterns"] == 11
    assert row["n_options"] == 22
    expect_ops = row["outer"] * (row["n_options"] + row["n_agents"] + row["n_subchannels"])
    assert row["ops"] == pytest.approx(expect_ops)
    assert row["ops_per_outer"] == pytest.approx(row["ops"] / row["outer"])

    path = tmp_path / "complexity.csv"
    write_complexity_csv(str(path), rows)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("n_agents,n_subchannels")
    assert len(lines) == 2


def test_count_iterations_ops_identity():
    rows = complexity_table(k_values=(2,), n_values=(4, 5), seeds=(1, 2))
    assert len(rows) == 2
    for row in rows:
        # each round: one binarity step per option, one joint landing per choice and cover constraint
        expect = row["outer"] * (row["n_options"] + row["n_agents"] + row["n_subchannels"])
        assert row["ops"] == pytest.approx(expect, rel=1e-12)
        assert row["n_patterns"] == row["n_subchannels"] * (row["n_subchannels"] + 1) // 2 + 1


def test_non_positive_target_rate_rejected():
    for rate in (0.0, -140e3):
        with pytest.raises(ValueError, match="target_rate_bps"):
            CampaignConfig(problem="jamsc", target_rate_bps=rate)


def test_non_finite_target_rate_rejected():
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="target_rate_bps must be positive and finite"):
            CampaignConfig(problem="jamsc", target_rate_bps=rate)


@pytest.mark.parametrize(
    "name, value", [("n_drops", 2.5), ("n_drops", True), ("base_seed", 1.5), ("base_seed", False), ("n_drops", "3")]
)
def test_campaign_refuses_a_count_that_is_not_an_integer(name, value):
    # these used to end mid-campaign in a TypeError, or run True as one drop
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        CampaignConfig(**{name: value})
    assert getattr(CampaignConfig(**{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize(
    "name, value, match",
    [
        # "false" is truthy: this ran with the cap
        ("strict_cap", "false", "must be true or false"),
        ("strict_cap", 1, "must be true or false"),
        # True passed the range check as 1 bps
        ("target_rate_bps", True, "must be a number"),
        ("target_rate_bps", "140e3", "must be a number"),
        ("weights", (1.0, True, 1.0, 1.0), "must be numbers"),
        ("weights", ("1", "1", "1", "1"), "must be numbers"),
    ],
)
def test_campaign_refuses_a_string_or_bool_where_a_number_or_bool_goes(name, value, match):
    with pytest.raises(ValueError, match=f"^{name} {match}, got {re.escape(repr(value))}$"):
        CampaignConfig(problem="jamsc", **{name: value})


def test_unknown_fixed_modulation_rejected():
    with pytest.raises(ValueError, match="fixed_modulation"):
        CampaignConfig(problem="both", fixed_modulation="256QAM")


def test_weights_length_must_match_users():
    with pytest.raises(ValueError, match="weights"):
        CampaignConfig(scenario=desk_scenario(3, 6), weights=(1.0, 2.0))
    assert CampaignConfig(scenario=desk_scenario(2, 4), weights=(1.0, 2.0)).weights == (1.0, 2.0)


def test_non_finite_weights_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            CampaignConfig(weights=(bad, 1.0, 1.0, 1.0))


@pytest.mark.parametrize(
    "owner, name, bad",
    [("campaign", "allocators_sumax", ("dual", "bogus")), ("campaign", "n_drops", 0), ("scenario", "p_max_w", -1.0)],
)
def test_configs_are_frozen_and_a_replaced_field_is_checked(owner, name, bad):
    # assigned after the checks, these ended mid-campaign in a KeyError, ran
    # an empty campaign reported ok, or ran jamsc with a negative budget
    cfg = CampaignConfig(problem="both")
    target = cfg if owner == "campaign" else cfg.scenario
    with pytest.raises(FrozenInstanceError):
        setattr(target, name, bad)
    with pytest.raises(ValueError, match=name):
        replace(target, **{name: bad})


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(problem="nope")
    with pytest.raises(ValueError):
        CampaignConfig(allocators_sumax=("magic",))
    with pytest.raises(ValueError):
        CampaignConfig(allocators_jamsc=("magic",))
    with pytest.raises(ValueError, match="at least one allocator"):
        CampaignConfig(problem="both", allocators_jamsc=())
    with pytest.raises(ValueError, match="repeat"):
        CampaignConfig(problem="jamsc", allocators_jamsc=("dual_am", "oracle_am", "dual_am"))
    # an allocator list the campaign never runs may be empty
    assert CampaignConfig(problem="sumax", allocators_jamsc=()).allocators_for("jamsc") == ()
