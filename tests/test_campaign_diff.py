import importlib.util
from pathlib import Path

import numpy as np

SPEC = importlib.util.spec_from_file_location(
    "campaign_diff", Path(__file__).resolve().parent.parent / "tools" / "campaign_diff.py"
)
campaign_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(campaign_diff)

HEADER = "problem,drop,seed,allocator,objective,feasible,error,outcome,termination,outer_iterations\n"
OLD = HEADER + (
    "jamsc,9,51,dual_am,-7.2,True,,repaired,stagnation,40\n"
    "jamsc,9,51,oracle_am,-7.3,True,,,,\n"
    "jamsc,10,52,dual_am,-6.0,True,,certified,converged,12\n"
    "sumax,2,44,dual,-3.0,True,,certified,converged,20\n"
)
NEW = HEADER + (
    "jamsc,9,51,dual_am,-7.1,True,,repaired,stagnation,43\n"
    "jamsc,9,51,oracle_am,-7.3,True,,,,\n"
    "jamsc,10,52,dual_am,-6.0,True,,certified,converged,12\n"
    "jamsc,11,53,dual_am,-5.0,True,,certified,converged,9\n"
)


def test_diff_drop_rows_names_each_changed_field_by_row():
    assert campaign_diff.diff_drop_rows(OLD, NEW) == [
        ("jamsc", "9", "dual_am", "objective", "-7.2", "-7.1"),
        ("jamsc", "9", "dual_am", "outer_iterations", "40", "43"),
        ("jamsc", "11", "dual_am", "row", "absent", "present"),  # drops sort as numbers
        ("sumax", "2", "dual", "row", "present", "absent"),
    ]
    assert campaign_diff.diff_drop_rows(OLD, OLD) == []


def test_rounds_sum_outer_iterations_per_allocator():
    assert campaign_diff.rounds(OLD) == {("jamsc", "dual_am"): 52, ("sumax", "dual"): 20}
    assert campaign_diff.rounds(NEW) == {("jamsc", "dual_am"): 64}  # the oracle has no rounds


def test_outcome_counts_count_drops_per_allocator_and_outcome():
    assert campaign_diff.outcome_counts(OLD) == {
        ("jamsc", "dual_am", "repaired"): 1,
        ("jamsc", "dual_am", "certified"): 1,
        ("sumax", "dual", "certified"): 1,
    }
    assert campaign_diff.outcome_counts(NEW) == {
        ("jamsc", "dual_am", "repaired"): 1,
        ("jamsc", "dual_am", "certified"): 2,
    }  # the oracle has no outcome


def test_print_tallies_shows_rounds_and_outcome_counts_of_both_sides(capsys):
    campaign_diff.print_tallies({"jamsc_drops.csv": OLD}, {"jamsc_drops.csv": NEW})
    lines = capsys.readouterr().out.splitlines()
    rounds_at, outcomes_at = lines.index("rounds (outer_iterations summed over drops):"), lines.index(
        "outcomes (drops per dual allocator and outcome):"
    )
    assert lines[rounds_at + 1 : outcomes_at] == ["  jamsc dual_am: 52 -> 64", "  sumax dual: 20 -> 0"]
    assert lines[outcomes_at + 1 :] == [
        "  jamsc dual_am certified 1 -> 2",
        "  jamsc dual_am repaired 1 -> 1",
        "  sumax dual certified 1 -> 0",
    ]


def test_diff_sweep_keys_rows_by_instance():
    old = [
        {"n_users": 2, "n_subchannels": 4, "seed": 7, "outcome": "certified", "ratio": 1.0},
        {"n_users": 3, "n_subchannels": 6, "seed": 7, "outcome": "repaired", "ratio": 0.99},
    ]
    new = [dict(old[1], ratio=1.0, outcome="certified"), dict(old[0])]  # order does not matter
    assert campaign_diff.diff_sweep(old, new) == [
        ((3, 6, 7), "outcome", "repaired", "certified"),
        ((3, 6, 7), "ratio", 0.99, 1.0),
    ]
    assert campaign_diff.diff_sweep(old, old) == []


def test_diff_sweep_leaves_a_field_of_one_side_to_sweep_fields():
    old = [{"n_users": 2, "n_subchannels": 4, "seed": 7, "outcome": "repaired", "gap_ok": None}]
    new = [dict(old[0], bound=-3.5)]
    del new[0]["gap_ok"]
    assert campaign_diff.diff_sweep(old, new) == []
    assert campaign_diff.sweep_fields(old, new) == (["bound"], ["gap_ok"])
    # a row on one side only still differs in every shared field
    extra = dict(new[0], seed=8)
    assert campaign_diff.diff_sweep(old, new + [extra]) == [
        ((2, 4, 8), field, None, extra[field]) for field in ("n_subchannels", "n_users", "outcome", "seed")
    ]


USERS = "problem,drop,seed,allocator,user,start,length,modulation,power_w,snr_eff\n"
USERS_OLD = USERS + (
    "jamsc,9,51,dual_am,0,1,2,QPSK,0.5,4.0\n"
    "jamsc,9,51,dual_am,1,3,1,64QAM,0.25,64.0\n"
    "jamsc,10,52,dual_am,0,1,3,QPSK,0.75,4.0\n"
)
USERS_NEW = USERS + (
    "jamsc,9,51,dual_am,0,1,2,QPSK,0.5000000000000001,4.0\n"
    "jamsc,9,51,dual_am,1,3,1,64QAM,0.25,64.0\n"
    "jamsc,10,52,dual_am,0,2,3,QPSK,0.75,4.0\n"
)


def test_relative_change_reads_numbers_only():
    assert campaign_diff.relative_change("40", "43") == 0.075
    assert campaign_diff.relative_change("-2.0", "-2.0") == 0.0
    assert campaign_diff.relative_change("0", "1e-300") == float("inf")
    assert campaign_diff.relative_change("nan", "1.0") == float("inf")
    assert campaign_diff.relative_change("repaired", "certified") is None


def test_column_changes_count_cells_and_the_largest_relative_change():
    got = campaign_diff.column_changes(OLD, NEW, campaign_diff.DROP_KEY)
    # rows on one side only are left to diff_drop_rows
    assert got == {"objective": (1, abs(-7.1 + 7.2) / 7.2), "outer_iterations": (1, 0.075)}
    assert campaign_diff.column_changes(OLD, OLD) == {}
    old = OLD.replace("repaired,stagnation,40", "certified,converged,40")
    assert campaign_diff.column_changes(old, NEW, campaign_diff.DROP_KEY)["outcome"] == (1, None)


def test_user_csv_diff_lists_moved_blocks_apart_from_last_bit_powers(capsys):
    assert campaign_diff.diff_allocations(USERS_OLD, USERS_NEW) == [
        ("jamsc", "10", "dual_am", "0", "1/3/QPSK", "2/3/QPSK"),
    ]
    assert campaign_diff.diff_allocations(USERS_OLD, USERS_OLD) == []
    campaign_diff.print_csv_diff("jamsc_users.csv", USERS_OLD, USERS_NEW)
    assert capsys.readouterr().out.splitlines() == [
        "jamsc_users.csv: 1 allocations (start/length/modulation) changed",
        "  jamsc 10 dual_am user 0: 1/3/QPSK -> 2/3/QPSK",
        "  column power_w: 1 cells, largest relative change 2.22e-16",
    ]
    campaign_diff.print_csv_diff("jamsc_drops.csv", OLD, NEW)
    assert capsys.readouterr().out.splitlines()[:4] == [
        "jamsc_drops.csv: 3 rows changed",
        "  column objective: 1 cells, largest relative change 0.0139",
        "  column outer_iterations: 1 cells, largest relative change 0.075",
        "  jamsc 9 dual_am objective: -7.2 -> -7.1",
    ]


def test_campaigns_cover_the_default_scenario_and_zf_without_fading_with_per_user_budgets(tmp_path):
    import scfdma_alloc

    configs = campaign_diff.campaign_configs(scfdma_alloc, tmp_path)
    assert list(configs) == ["mmse-fading", "zf-flat-per-user", "strict-cap-low-budget"]
    h = scfdma_alloc.harness
    for name, cfg in configs.items():
        assert (cfg.problem, cfg.base_seed, cfg.out_dir) == ("both", 42, str(tmp_path / name))
        assert (cfg.allocators_sumax, cfg.allocators_jamsc) == (h.SUMAX_ALLOCATORS, h.JAMSC_ALLOCATORS)
    paper, zf = configs["mmse-fading"], configs["zf-flat-per-user"]
    assert paper.n_drops == 200 and paper.scenario == scfdma_alloc.ScenarioConfig()
    assert zf.n_drops == 100 and (zf.scenario.equalizer, zf.scenario.rayleigh_fading) == ("zf", False)
    assert zf.scenario.per_user("p_max_w").tolist() == [0.3, 1.0, 2.0, 0.6]
    assert zf.scenario == scfdma_alloc.ScenarioConfig(
        equalizer="zf", rayleigh_fading=False, p_max_w=(0.3, 1.0, 2.0, 0.6)
    )
    assert not paper.strict_cap and not zf.strict_cap
    capped = configs["strict-cap-low-budget"]
    assert capped.n_drops == 100 and capped.strict_cap
    assert capped.scenario == scfdma_alloc.ScenarioConfig(cell_radius_m=500.0, p_max_w=(0.1, 0.3, 1.0, 3.0))
    # the cap masks options, in both jamsc tables, on the campaign's first drop
    gains = scfdma_alloc.channel.generate_channel(capped.scenario, 42)
    tables = (capped.modulations, capped.modulations.restricted(capped.fixed_modulation))
    targets = np.full(4, capped.target_rate_bps)
    plain = scfdma_alloc.jamsc.build_jamsc(gains, capped.scenario, targets, tables)
    strict = scfdma_alloc.jamsc.build_jamsc(gains, capped.scenario, targets, tables, strict_cap=True)
    assert all(s.allowed.sum() < u.allowed.sum() for s, u in zip(strict, plain))


def test_print_campaign_lists_identical_csvs_then_the_changed_ones_and_the_tallies(capsys):
    base = {"jamsc_drops.csv": OLD, "jamsc_users.csv": USERS_OLD}
    change = {"jamsc_drops.csv": OLD, "jamsc_users.csv": USERS_NEW}
    campaign_diff.print_campaign("zf-flat-per-user", base, change)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("zf-flat-per-user (100 drops, scenario overrides {'equalizer': 'zf'")
    assert lines[1:4] == [
        "byte-identical (1 of 2): jamsc_drops.csv",
        "jamsc_users.csv: 1 allocations (start/length/modulation) changed",
        "  jamsc 10 dual_am user 0: 1/3/QPSK -> 2/3/QPSK",
    ]
    assert "  jamsc dual_am: 52 -> 52" in lines and "  sumax dual certified 1 -> 1" in lines


def test_source_lines_count_the_package_modules_like_wc(tmp_path):
    package = tmp_path / "src" / "scfdma_alloc"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (package / "notes.md").write_text("one\ntwo\n")
    (tmp_path / "src" / "other.py").write_text("w = 4\n")
    assert campaign_diff.source_lines(tmp_path) == 2
    repo = Path(__file__).resolve().parent.parent
    lines = sum(len(p.read_text().splitlines()) for p in (repo / "src" / "scfdma_alloc").glob("*.py"))
    assert campaign_diff.source_lines(repo) == lines


def write_package(root: Path, modules: dict[str, str]) -> Path:
    """A ``scfdma_alloc`` package under root/src with the given module texts; returns ``root``."""
    package = root / "src" / "scfdma_alloc"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    return root


def campaign_diff_loader():
    """``tools/drop_ab.py``'s ``load_package``, which imports a package under a name of one's own."""
    spec = importlib.util.spec_from_file_location("drop_ab", Path(campaign_diff.HERE) / "drop_ab.py")
    drop_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(drop_ab)
    return drop_ab.load_package


SOLVER = "import math\nfrom .ref import Point, check  # noqa: F401\n\nLIMIT = 3\n\n\ndef solve():\n    return math.pi\n"
REFERENCE = "from typing import Sequence\n\n\nclass Point:\n    pass\n\n\ndef check(x):\n    return x\n\n\ndef _helper():\n    pass\n"
OLD_PACKAGE = {
    "__init__.py": "from .solver import Point, check, extra, solve\n",
    "solver.py": "import math\n\nLIMIT = 3\n\n\nclass Point:\n    pass\n\n\ndef check(x):\n    return x\n\n\n"
    "def extra(x):\n    return x\n\n\ndef solve():\n    return math.pi\n",
    "notes.py": "x = 1\n",
}
NEW_PACKAGE = {
    "__init__.py": "from .ref import Point, check\nfrom .solver import solve\n",
    "solver.py": SOLVER,
    "ref.py": REFERENCE,
    "notes.py": "x = 1\n",
}


def test_module_line_changes_list_each_changed_module_on_both_sides(tmp_path, capsys):
    old = campaign_diff.module_texts(write_package(tmp_path / "old", OLD_PACKAGE))
    new = campaign_diff.module_texts(write_package(tmp_path / "new", NEW_PACKAGE))
    assert campaign_diff.module_line_changes(old, new) == [
        ("__init__.py", 1, 2),
        ("ref.py", "absent", 13),
        ("solver.py", 19, 8),
    ]  # notes.py is the same on both sides
    assert campaign_diff.module_line_changes(old, old) == []
    campaign_diff.print_source_changes(old, new, {}, {})
    assert capsys.readouterr().out.splitlines() == [
        "  __init__.py 1 -> 2",
        "  ref.py absent -> 13",
        "  solver.py 19 -> 8",
        "public names that one side lacks: none",
    ]


def test_public_names_show_what_moved_and_what_was_retired(tmp_path, capsys):
    load = campaign_diff_loader()
    old = campaign_diff.public_names(load(write_package(tmp_path / "old", OLD_PACKAGE) / "src", "names_test_old"))
    new = campaign_diff.public_names(load(write_package(tmp_path / "new", NEW_PACKAGE) / "src", "names_test_new"))
    # imported modules, names from outside the package and private names do not count;
    # an upper-case constant and a name imported from a sibling module do
    assert old == {
        "scfdma_alloc": {"Point", "check", "extra", "solve"},
        "notes.py": set(),
        "solver.py": {"LIMIT", "Point", "check", "extra", "solve"},
    }
    assert new["ref.py"] == {"Point", "check"}
    assert new["solver.py"] == {"LIMIT", "Point", "check", "solve"}
    changes = [
        ("scfdma_alloc", [], ["extra"]),
        ("solver.py", [], ["extra"]),
        ("ref.py", ["Point", "check"], []),
    ]
    assert campaign_diff.name_changes(old, new) == changes
    assert campaign_diff.name_changes(old, old) == []
    campaign_diff.print_source_changes({}, {}, old, new)
    assert capsys.readouterr().out.splitlines() == [
        "public names that one side lacks:",
        "  scfdma_alloc removed: extra",
        "  solver.py removed: extra",
        "  ref.py added: Point, check",
    ]

