import importlib.util
from pathlib import Path

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
