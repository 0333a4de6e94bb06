import csv
import json

import pytest

from scfdma_alloc.cli import load_campaign_config, main


def test_sumax_campaign_exits_clean(tmp_path, capsys):
    rc = main(["sumax", "--drops", "2", "--seed", "5", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all invariant checks passed" in out
    assert (tmp_path / "sumax_drops.csv").exists()
    assert (tmp_path / "summary.json").exists()


def test_jamsc_campaign_exits_clean(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenario": {"n_users": 2, "n_subchannels": 4}}))
    rc = main([
        "jamsc", "--config", str(config), "--drops", "2", "--seed", "3",
        "--out", str(tmp_path / "out"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "out" / "jamsc_drops.csv").exists()
    assert "jamsc dual_am" in out


def test_config_file_sections(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "scenario": {"n_users": 2, "n_subchannels": 4},
                "solver": {"max_outer": 500},
                "frame": {"tti_s": 0.001},
                "n_drops": 3,
                "base_seed": 12,
            }
        )
    )
    cfg = load_campaign_config(str(config))
    assert cfg.scenario.n_users == 2
    assert cfg.solver.max_outer == 500
    assert cfg.frame.tti_s == 0.001
    assert cfg.n_drops == 3
    assert cfg.base_seed == 12


def test_config_rejects_unknown_keys(tmp_path):
    bad_top = tmp_path / "top.json"
    bad_top.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ValueError, match="unknown campaign keys"):
        load_campaign_config(str(bad_top))

    bad_scenario = tmp_path / "scenario.json"
    bad_scenario.write_text(json.dumps({"scenario": {"n_users": 2, "bogus": 1}}))
    with pytest.raises(ValueError):
        load_campaign_config(str(bad_scenario))


def test_bad_allocator_override_rejected():
    with pytest.raises(ValueError, match="unknown sumax allocator"):
        main(["sumax", "--drops", "1", "--allocators", "magic"])


def test_empty_allocator_override_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="at least one allocator"):
        main(["sumax", "--drops", "1", "--allocators", "", "--out", str(tmp_path)])
    assert "all invariant checks passed" not in capsys.readouterr().out
    assert not (tmp_path / "summary.json").exists()


def test_repeated_allocator_override_rejected(tmp_path):
    with pytest.raises(ValueError, match="repeat"):
        main(["sumax", "--drops", "1", "--allocators", "dual,dual", "--out", str(tmp_path)])
    assert not (tmp_path / "sumax_users.csv").exists()


# Configurations whose jamsc drop has no exact cover: too many users for the
# band, a rate no short block carries, and a budget cap that empties a user.
NO_COVER_REPROS = [
    ({"scenario": {"n_users": 5, "n_subchannels": 4}}, 1),
    ({"scenario": {"n_users": 3, "n_subchannels": 8}, "target_rate_bps": 600e3}, 1),
    ({"strict_cap": True, "scenario": {"cell_radius_m": 2000.0}}, 17),
]


@pytest.mark.parametrize("config, seed", NO_COVER_REPROS)
def test_jamsc_drop_without_exact_cover_is_refused(tmp_path, config, seed):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["jamsc", "--drops", "1", "--seed", str(seed), "--config", str(path), "--out", str(out)])
    assert rc == 0
    with open(out / "jamsc_drops.csv", newline="", encoding="utf-8") as fh:
        rows = {r["allocator"]: r for r in csv.DictReader(fh)}
    assert set(rows) == {"dual_am", "dual_fixed", "round_robin"}
    for row in rows.values():
        assert row["feasible"] == "false"
        assert row["objective"] == ""
    for name in ("dual_am", "dual_fixed"):
        error = rows[name]["error"]
        assert error == "no exact-cover assignment exists for this instance" or error.startswith(
            "users without any allowed option"
        )


def test_non_positive_drops_rejected(tmp_path):
    with pytest.raises(ValueError, match="n_drops"):
        main(["sumax", "--drops", "-5", "--out", str(tmp_path)])
    assert not (tmp_path / "summary.json").exists()


def test_zero_certify_instances_rejected():
    with pytest.raises(ValueError, match="per_combo"):
        main(["certify", "--instances", "0"])


def test_certify_small(tmp_path, capsys):
    rc = main(["certify", "--instances", "2", "--seed", "2024", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "certification rate" in out
    assert (tmp_path / "certify.json").exists()
    with open(tmp_path / "certify.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["n_runs"] == 12


def test_gradcheck_small(capsys):
    rc = main(["gradcheck", "--points", "2", "--instances", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gradient check passed" in out


def test_empty_gradcheck_rejected(capsys):
    with pytest.raises(ValueError, match="at least one instance"):
        main(["gradcheck", "--instances", "0"])
    with pytest.raises(ValueError, match="points_per_instance"):
        main(["gradcheck", "--points", "0", "--instances", "1"])
    assert "gradient check passed" not in capsys.readouterr().out


def test_complexity_sweep(tmp_path, capsys):
    rc = main(["complexity", "--repeats", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "K=2 N=4" in out
    lines = (tmp_path / "complexity.csv").read_text().splitlines()
    assert len(lines) == 1 + 8
