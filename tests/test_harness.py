import json

import numpy as np
import pytest

from scfdma_alloc.harness import (
    CampaignConfig,
    certification_sweep,
    complexity_table,
    desk_scenario,
    emit_cdf,
    gradient_check,
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
    assert a.footprint_masks == b.footprint_masks
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

    drops = (tmp_path / "run1" / "sumax_drops.csv").read_text().splitlines()
    header = drops[0].split(",")
    assert "runtime" not in drops[0]
    assert header[0] == "problem"
    assert len(drops) == 1 + 2 * 3

    with open(tmp_path / "run1" / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["ok"] is True
    assert summary["per_allocator"]["sumax"]["dual"]["n_feasible"] == 2


def test_certification_sweep_tiny():
    out = certification_sweep(combos=((2, 4),), per_combo=5, base_seed=2024)
    assert out["n_runs"] == 5
    assert out["all_certified_exact"]
    assert out["all_certified_gap_ok"]
    assert out["n_feasible"] == 5
    assert out["mean_ratio"] >= 0.9
    row = out["rows"][0]
    assert {"seed", "certified", "ratio", "oracle_value", "achieved_value"} <= set(row)


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
    expect_ops = (
        row["iters_binary"] * row["n_options"]
        + row["iters_choice"] * row["n_agents"]
        + row["iters_cover"] * row["n_subchannels"]
    )
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
        expect = (
            row["iters_binary"] * row["n_options"]
            + row["iters_choice"] * row["n_agents"]
            + row["iters_cover"] * row["n_subchannels"]
        )
        assert row["ops"] == pytest.approx(expect, rel=1e-12)
        assert row["n_patterns"] == row["n_subchannels"] * (row["n_subchannels"] + 1) // 2 + 1


def test_non_positive_target_rate_rejected():
    for rate in (0.0, -140e3):
        with pytest.raises(ValueError, match="target_rate_bps"):
            CampaignConfig(problem="jamsc", target_rate_bps=rate)


def test_unknown_fixed_modulation_rejected():
    with pytest.raises(ValueError, match="fixed_modulation"):
        CampaignConfig(problem="both", fixed_modulation="256QAM")


def test_weights_length_must_match_users():
    with pytest.raises(ValueError, match="weights"):
        CampaignConfig(scenario=desk_scenario(3, 6), weights=(1.0, 2.0))
    assert CampaignConfig(scenario=desk_scenario(2, 4), weights=(1.0, 2.0)).weights == (1.0, 2.0)


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
