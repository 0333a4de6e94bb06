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


def test_config_refuses_the_oracle_ceiling_key(tmp_path):
    # the oracle and the dual share one node ceiling, which no campaign key sets
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"oracle_ceiling": 10**9}))
    with pytest.raises(ValueError, match=r"^unknown campaign keys: \['oracle_ceiling'\]$"):
        load_campaign_config(str(path))


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
    assert rc == 1  # no allocator produced an allocation
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


def test_campaign_without_any_allocation_fails(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(NO_COVER_REPROS[0][0]))
    rc = main(["jamsc", "--drops", "3", "--seed", "1", "--config", str(path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "feasible 0/3" in out
    assert (
        "FAIL no jamsc allocator produced an allocation on any drop; "
        "first error: no exact-cover assignment exists for this instance"
    ) in out
    assert "all invariant checks passed" not in out


def test_non_positive_drops_rejected(tmp_path):
    with pytest.raises(ValueError, match="n_drops"):
        main(["sumax", "--drops", "-5", "--out", str(tmp_path)])
    assert not (tmp_path / "summary.json").exists()


# Settings that used to fail only mid-campaign: a zero initial dual died in
# numpy's SVD (the initial dual is now a module constant, so the key is
# refused as unknown), a zero round budget passed with no ascent, and a
# 40-channel band raised at the first drop.
@pytest.mark.parametrize(
    "config, match",
    [
        ({"solver": {"init_value": 0}}, "init_value"),
        ({"solver": {"max_outer": 0}}, "max_outer"),
        ({"scenario": {"n_subchannels": 40}}, "n_subchannels"),
        # non-integer counts ended mid-campaign in a traceback, and true ran one drop
        ({"n_drops": 2.5}, "n_drops must be an integer"),
        ({"n_drops": True}, "n_drops must be an integer"),
        ({"base_seed": 1.5}, "base_seed must be an integer"),
        ({"scenario": {"n_users": 2.5}}, "n_users must be an integer"),
        ({"scenario": {"n_subchannels": 6.5}}, "n_subchannels must be an integer"),
        ({"solver": {"max_outer": True}}, "max_outer must be an integer"),
        # "false" is truthy, so these ran with fading and with the cap
        ({"scenario": {"rayleigh_fading": "false"}}, "rayleigh_fading must be true or false"),
        ({"strict_cap": "false"}, "strict_cap must be true or false"),
        ({"target_rate_bps": True}, "target_rate_bps must be a number"),
        ({"scenario": {"cell_radius_m": "800"}}, "cell_radius_m must be a number"),
    ],
)
def test_unusable_config_rejected_before_first_drop(tmp_path, config, match):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=match):
        main(["sumax", "--drops", "2", "--config", str(path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_jamsc_campaign_with_overflowing_costs_is_refused(tmp_path):
    # exp(p_max_w - power) overflows at 800 W; the campaign used to warn and
    # then die in the repair with an argmin of an empty sequence
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": {"p_max_w": 800.0}}))
    argv = [
        "jamsc", "--drops", "3", "--seed", "5", "--config", str(path), "--out", str(tmp_path / "out"),
        "--allocators", "dual_am,oracle_am,dual_fixed,round_robin",
    ]
    with pytest.raises(ValueError, match="p_max_w up to 800 W overflows the jamsc costs"):
        main(argv)
    assert not (tmp_path / "out" / "summary.json").exists()


def test_negative_base_seed_rejected(tmp_path):
    with pytest.raises(ValueError, match="base_seed must be >= 0, got -5"):
        main(["sumax", "--drops", "1", "--seed", "-5", "--out", str(tmp_path)])
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command", ["certify", "gradcheck"])
def test_sweep_rejects_negative_seed(command):
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        main([command, "--instances", "1", "--seed", "-3"])


def test_zero_certify_instances_rejected():
    with pytest.raises(ValueError, match="per_combo"):
        main(["certify", "--instances", "0"])


def test_certify_small(tmp_path, capsys):
    rc = main(["certify", "--instances", "2", "--seed", "2024", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "outcome shares: certified " in out
    assert (tmp_path / "certify.json").exists()
    with open(tmp_path / "certify.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["n_runs"] == 12


def test_certify_prints_the_uncertified_runs_gap(capsys):
    # (2, 6) seed 2026 and (2, 5) seed 2027 are left uncertified
    main(["certify", "--instances", "4", "--seed", "2024"])
    out = capsys.readouterr().out
    assert "uncertified runs' proven gap: median " in out
    main(["certify", "--instances", "1", "--seed", "2024"])
    assert "proven gap" not in capsys.readouterr().out


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
