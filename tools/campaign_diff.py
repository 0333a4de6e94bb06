"""Diff the outputs of two commits: fixed campaigns' CSVs and summaries, and the certification sweep.

    python3 tools/campaign_diff.py --base <rev> --change HEAD

Exports each commit with ``git archive`` (``tools/bench_pairs.py``'s
``export``) and imports each one's package under its own name into this one
process (``tools/drop_ab.py``'s ``load_package``).  Each side runs the two
``CAMPAIGNS``, each a ``both`` campaign from base seed 42 with all four
allocators of each problem, and writes their CSVs: ``mmse-fading``, 200
drops of the default scenario; ``zf-flat-per-user``, 100 drops with the
zero-forcing equaliser, no fading and per-user budgets ``p_max_w``
(0.3, 1.0, 2.0, 0.6); and ``strict-cap-low-budget``, 100 drops at a 500 m
radius with budgets (0.1, 0.3, 1.0, 3.0) and ``strict_cap``, whose cap masks
4,172 of the 14,400 adaptive-modulation options and 4,855 of the 11,200
fixed-modulation ones, and leaves a user without options, so that the
table's allocators record the refusal, on 38 and 53 of its drops.
Each side also runs ``harness.certification_sweep()`` with its defaults (the
acceptance sweep, 540 runs).  Per campaign it prints the CSVs that are
byte-identical and, for each changed CSV, every changed column's count of
changed cells and largest relative change (``power_w: 44 cells, largest
relative change 1.2e-16``).  A drop CSV also lists every changed row as
(problem, drop, allocator, field: old -> new).  A user CSV lists every user
whose allocation (start, length, modulation) changed, apart from its
``power_w`` and ``snr_eff`` columns, so a last-bit move of a power reads as
one line and a moved block cannot hide among them.  Then come each
allocator's rounds (``outer_iterations`` summed over its drops) and its
drops per outcome (``jamsc dual_am certified 131 -> 148``), and the
campaign's ``summary.json``: "identical (wall-clock fields aside)", or each
changed key path (``per_allocator.jamsc.dual_am.n_feasible: 99 -> 100``),
both sides read without their ``mean_runtime_s`` fields.  Last come each
side's certified sweep runs, every changed sweep row and the sweep-row
fields that one side adds or drops.  The header gives each side's line
count of the package's modules (``src/scfdma_alloc/*.py``, as ``wc -l``
counts them) and of each module whose text changed (``dual.py 584 -> 467``,
``canonical.py absent -> 168``), then, for the package and each module, the
public names that one side has and the other lacks.  A public name has no
leading underscore.  A module's public names are the names it defines: its
functions and classes (whose ``__module__`` is that module) and the upper-
case constants that its top-level statements bind other than by an import,
so a helper imported from a sibling counts only where it is defined.  The
package's are its re-exports: every name bound to an object defined in the
package, and every upper-case name; a bound module does not count.
"""

from __future__ import annotations

import argparse
import ast
import csv
import importlib
import inspect
import io
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("base", "change")
BASE_SEED = 42
# campaign name -> (drops, ScenarioConfig overrides, CampaignConfig fields)
CAMPAIGNS = {
    "mmse-fading": (200, {}, {}),
    "zf-flat-per-user": (100, {"equalizer": "zf", "rayleigh_fading": False, "p_max_w": (0.3, 1.0, 2.0, 0.6)}, {}),
    "strict-cap-low-budget": (100, {"cell_radius_m": 500.0, "p_max_w": (0.1, 0.3, 1.0, 3.0)}, {"strict_cap": True}),
}
DROP_KEY = ("problem", "drop", "allocator")
USER_KEY = ("problem", "drop", "allocator", "user")
ALLOCATION = ("start", "length", "modulation")
SWEEP_KEY = ("n_users", "n_subchannels", "seed")
WALL_CLOCK = "mean_runtime_s"  # the summary's one field that differs from run to run
PACKAGE = Path("src") / "scfdma_alloc"


def module_texts(root: Path) -> dict[str, bytes]:
    """The text of each ``PACKAGE`` module under a checkout's ``root``, by file name."""
    return {p.name: p.read_bytes() for p in sorted((root / PACKAGE).glob("*.py"))}


def source_lines(root: Path) -> int:
    """Lines (newlines, as ``wc -l`` counts them) of the ``PACKAGE`` modules under a checkout's ``root``."""
    return sum(text.count(b"\n") for text in module_texts(root).values())


def module_line_changes(old: dict[str, bytes], new: dict[str, bytes]) -> list[tuple[str, int | str, int | str]]:
    """(file name, old lines, new lines) of every module whose text differs
    between two ``module_texts``; ``absent`` on the side that lacks it."""

    def lines(side: dict[str, bytes], name: str) -> int | str:
        return side[name].count(b"\n") if name in side else "absent"

    return [(n, lines(old, n), lines(new, n)) for n in sorted(old.keys() | new.keys()) if old.get(n) != new.get(n)]


def bound_constants(source: str) -> set[str]:
    """The upper-case names that a module's top-level assignments bind; an import binds none."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            names.update(
                n.id for n in ast.walk(target)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id.isupper()
            )
    return names


def public_names(pkg) -> dict[str, set[str]]:
    """The public names (see the module docstring) of an imported package,
    keyed by the package's short name, and of each of its modules, keyed by
    file name; every module is imported."""
    home = pkg.__name__

    def exported(name: str, obj) -> bool:
        where = getattr(obj, "__module__", None) or ""
        return not inspect.ismodule(obj) and (where == home or where.startswith(home + ".") or name.isupper())

    names = {PACKAGE.name: {n for n, obj in vars(pkg).items() if not n.startswith("_") and exported(n, obj)}}
    for path in sorted(Path(pkg.__path__[0]).glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"{home}.{path.stem}")
        constants = bound_constants(path.read_text(encoding="utf-8"))
        names[path.name] = {
            n
            for n, obj in vars(module).items()
            if not n.startswith("_")
            and (n in constants or (callable(obj) and getattr(obj, "__module__", None) == module.__name__))
        }
    return names


def name_changes(old: dict[str, set[str]], new: dict[str, set[str]]) -> list[tuple[str, list[str], list[str]]]:
    """(namespace, names only the new side has, names only the old side has)
    for every namespace of two ``public_names`` whose names differ, the old
    side's namespaces first."""
    out = []
    for key in dict.fromkeys([*old, *new]):
        a, b = old.get(key, set()), new.get(key, set())
        if a != b:
            out.append((key, sorted(b - a), sorted(a - b)))
    return out


def print_source_changes(old: dict[str, bytes], new: dict[str, bytes], old_names: dict, new_names: dict) -> None:
    """Print, from both sides' ``module_texts`` and ``public_names``, each
    changed module's lines and the public names that one side lacks."""
    for name, was, now in module_line_changes(old, new):
        print(f"  {name} {was} -> {now}")
    changes = name_changes(old_names, new_names)
    print("public names that one side lacks:" + ("" if changes else " none"))
    for space, added, removed in changes:
        for title, names in (("added", added), ("removed", removed)):
            if names:
                print(f"  {space} {title}: {', '.join(names)}")


def _rows(text: str, key: tuple[str, ...] = DROP_KEY) -> dict[tuple, dict[str, str]]:
    """CSV rows by their ``key`` columns; by line number when ``key`` is empty."""
    rows = csv.DictReader(io.StringIO(text))
    return {tuple(r[c] for c in key) if key else (i,): r for i, r in enumerate(rows)}


def relative_change(was: str, now: str) -> float | None:
    """|now - was| / |was| of two cells; None when either is not a number."""
    try:
        a, b = float(was), float(now)
    except ValueError:
        return None
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0:
        return math.inf
    return abs(b - a) / abs(a)


def column_changes(old: str, new: str, key: tuple[str, ...] = ()) -> dict[str, tuple[int, float | None]]:
    """column -> (changed cells, largest relative change) over the rows, matched
    by ``key`` (line number when empty), that both CSV texts hold.  The largest
    change is None when a changed cell of the column is not a number."""
    a, b = _rows(old, key), _rows(new, key)
    out: dict[str, tuple[int, float | None]] = {}
    for k in a.keys() & b.keys():
        for field in a[k].keys() | b[k].keys():
            was, now = a[k].get(field, ""), b[k].get(field, "")
            if was != now:
                cells, largest = out.get(field, (0, 0.0))
                rel = relative_change(was, now)
                largest = None if rel is None or largest is None else max(largest, rel)
                out[field] = (cells + 1, largest)
    return dict(sorted(out.items()))


def diff_allocations(old: str, new: str) -> list[tuple]:
    """(problem, drop, allocator, user, old, new) for every user-CSV row whose
    start, length or modulation differs, each side as ``start/length/modulation``
    (``absent`` for a row on one side only)."""
    a, b = _rows(old, USER_KEY), _rows(new, USER_KEY)

    def block(rows: dict, k: tuple) -> str:
        return "/".join(rows[k][c] for c in ALLOCATION) if k in rows else "absent"

    out = [(*k, block(a, k), block(b, k)) for k in a.keys() | b.keys() if block(a, k) != block(b, k)]
    return sorted(out, key=lambda d: (d[0], int(d[1]), d[2], int(d[3])))


def print_csv_diff(name: str, old: str, new: str) -> None:
    """Print one changed CSV: its changed rows or allocations, then per changed column
    the changed cells and the largest relative change."""
    key: tuple[str, ...] = ()
    if name.endswith("_drops.csv"):
        key, diffs = DROP_KEY, diff_drop_rows(old, new)
        print(f"{name}: {len({d[:3] for d in diffs})} rows changed")
    elif name.endswith("_users.csv"):
        key, moved = USER_KEY, diff_allocations(old, new)
        print(f"{name}: {len(moved)} allocations (start/length/modulation) changed")
        for problem, drop, allocator, user, was, now in moved:
            print(f"  {problem} {drop} {allocator} user {user}: {was} -> {now}")
    else:
        a, b = old.splitlines(), new.splitlines()
        changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        print(f"{name}: {changed} of {max(len(a), len(b))} lines changed")
    for column, (cells, largest) in column_changes(old, new, key).items():
        if key == USER_KEY and column in ALLOCATION:
            continue  # listed above, row by row
        tail = "" if largest is None else f", largest relative change {largest:.3g}"
        print(f"  column {column}: {cells} cells{tail}")
    if key == DROP_KEY:
        for problem, drop, allocator, field, was, now in diffs:
            print(f"  {problem} {drop} {allocator} {field}: {was} -> {now}")


def diff_drop_rows(old: str, new: str) -> list[tuple]:
    """(problem, drop, allocator, field, old, new) for every field that differs
    between two drop-CSV texts; a row on one side only has field ``row``."""
    a, b = _rows(old), _rows(new)
    out = []
    for key in sorted(a.keys() | b.keys(), key=lambda k: (k[0], int(k[1]), k[2])):
        if key not in a or key not in b:
            presence = ["present" if key in side else "absent" for side in (a, b)]
            out.append((*key, "row", *presence))
            continue
        for field in a[key].keys() | b[key].keys():
            if a[key].get(field, "") != b[key].get(field, ""):
                out.append((*key, field, a[key].get(field, ""), b[key].get(field, "")))
    return sorted(out, key=lambda d: (d[0], int(d[1]), d[2], d[3]))


def rounds(text: str) -> dict[tuple[str, str], int]:
    """(problem, allocator) -> ``outer_iterations`` summed over the drops that have one."""
    out: dict[tuple[str, str], int] = {}
    for r in csv.DictReader(io.StringIO(text)):
        if r["outer_iterations"]:
            key = (r["problem"], r["allocator"])
            out[key] = out.get(key, 0) + int(r["outer_iterations"])
    return out


def outcome_counts(text: str) -> dict[tuple[str, str, str], int]:
    """(problem, allocator, outcome) -> drops; allocators without an outcome are left out."""
    out: dict[tuple[str, str, str], int] = {}
    for r in csv.DictReader(io.StringIO(text)):
        if r["outcome"]:
            key = (r["problem"], r["allocator"], r["outcome"])
            out[key] = out.get(key, 0) + 1
    return out


def sweep_fields(old: list[dict], new: list[dict]) -> tuple[list[str], list[str]]:
    """The sweep-row fields that only the new side has, and those only the old side has."""
    a, b = {f for r in old for f in r}, {f for r in new for f in r}
    return sorted(b - a), sorted(a - b)


def diff_sweep(old: list[dict], new: list[dict]) -> list[tuple]:
    """((n_users, n_subchannels, seed), field, old, new) for every field that
    both sides' rows have and that differs; a row on one side only differs
    in every such field, and a field on one side only is left to
    ``sweep_fields``."""
    a = {tuple(r[c] for c in SWEEP_KEY): r for r in old}
    b = {tuple(r[c] for c in SWEEP_KEY): r for r in new}
    shared = {f for r in old for f in r} & {f for r in new for f in r}
    out = []
    for key in sorted(a.keys() | b.keys()):
        ra, rb = a.get(key, {}), b.get(key, {})
        for field in sorted(shared):
            if ra.get(field) != rb.get(field):
                out.append((key, field, ra.get(field), rb.get(field)))
    return out


def print_tallies(base_csvs: dict[str, str], change_csvs: dict[str, str]) -> None:
    """Print each allocator's rounds and its drops per outcome on both sides."""
    for title, tally, sep in (
        ("rounds (outer_iterations summed over drops)", rounds, ": "),
        ("outcomes (drops per dual allocator and outcome)", outcome_counts, " "),
    ):
        print(f"{title}:")
        for problem in ("sumax", "jamsc"):
            name = f"{problem}_drops.csv"
            old, new = tally(base_csvs.get(name, "")), tally(change_csvs.get(name, ""))
            for key in sorted(old.keys() | new.keys()):
                print(f"  {' '.join(key)}{sep}{old.get(key, 0)} -> {new.get(key, 0)}")


def campaign_configs(pkg, out_dir: Path) -> dict:
    """The side's ``CampaignConfig`` per campaign of ``CAMPAIGNS``, each writing to out_dir/<name>."""
    h = pkg.harness
    return {
        name: h.CampaignConfig(
            scenario=pkg.channel.ScenarioConfig(**overrides), problem="both", n_drops=drops,
            base_seed=BASE_SEED, out_dir=str(out_dir / name),
            allocators_sumax=h.SUMAX_ALLOCATORS, allocators_jamsc=h.JAMSC_ALLOCATORS, **fields,
        )
        for name, (drops, overrides, fields) in CAMPAIGNS.items()
    }


def run_side(pkg, out_dir: Path) -> tuple[dict[str, dict[str, str]], dict[str, dict], list[dict]]:
    """The side's CSVs by campaign and file name, its ``summary.json`` by
    campaign, without wall-clock fields, and its sweep rows."""
    csvs, summaries = {}, {}
    for name, cfg in campaign_configs(pkg, out_dir).items():
        pkg.harness.run_campaign(cfg)
        csvs[name] = {p.name: p.read_text() for p in sorted(Path(cfg.out_dir).glob("*.csv"))}
        summaries[name] = without_wall_clock(json.loads((Path(cfg.out_dir) / "summary.json").read_text()))
    return csvs, summaries, pkg.harness.certification_sweep()["rows"]


def without_wall_clock(node):
    """A parsed JSON value without its ``WALL_CLOCK`` keys, at any depth."""
    if isinstance(node, dict):
        return {k: without_wall_clock(v) for k, v in node.items() if k != WALL_CLOCK}
    if isinstance(node, list):
        return [without_wall_clock(v) for v in node]
    return node


def diff_json(old, new, path: str = "") -> list[tuple[str, object, object]]:
    """(dotted key path, old, new) for every value that differs between two
    parsed JSON values, descending into objects only (a list is one value);
    a key on one side only reads ``absent`` on the other."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [(path, old, new)]
    out = []
    for key in dict.fromkeys([*old, *new]):
        out += diff_json(old.get(key, "absent"), new.get(key, "absent"), f"{path}.{key}" if path else key)
    return out


def print_summary_diff(old: dict, new: dict) -> None:
    """Print whether two ``summary.json`` values, read without wall-clock
    fields, are identical, or else each changed key path."""
    diffs = diff_json(old, new)
    if not diffs:
        print("summary.json identical (wall-clock fields aside)")
        return
    print(f"summary.json: {len(diffs)} values changed (wall-clock fields aside)")
    for path, was, now in diffs:
        print(f"  {path}: {was} -> {now}")


def print_campaign(name: str, base_csvs: dict[str, str], change_csvs: dict[str, str]) -> None:
    """Print one campaign: its byte-identical CSVs, each changed CSV's diff, then the tallies."""
    drops, overrides, fields = CAMPAIGNS[name]
    print(f"{name} ({drops} drops, scenario overrides {overrides or 'none'}, campaign fields {fields or 'none'}):")
    names = sorted(base_csvs.keys() | change_csvs.keys())
    same = [n for n in names if base_csvs.get(n) == change_csvs.get(n)]
    print(f"byte-identical ({len(same)} of {len(names)}): {', '.join(same) or 'none'}")
    for csv_name in names:
        old, new = base_csvs.get(csv_name, ""), change_csvs.get(csv_name, "")
        if old != new:
            print_csv_diff(csv_name, old, new)
    print_tallies(base_csvs, change_csvs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="git revision of the change side")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from bench_pairs import export
    from drop_ab import load_package  # also pins BLAS to one thread

    results, lines, texts, names = {}, {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        commits = {}
        for side in SIDES:
            commits[side] = export(getattr(args, side), Path(tmp) / side)
            lines[side] = source_lines(Path(tmp) / side)
            texts[side] = module_texts(Path(tmp) / side)
            pkg = load_package(Path(tmp) / side / "src", f"campaign_diff_{side}")
            names[side] = public_names(pkg)
            out_dir = Path(tmp) / f"{side}_out"
            results[side] = run_side(pkg, out_dir)
    (base_csvs, base_summaries, base_sweep), (change_csvs, change_summaries, change_sweep) = (
        results["base"], results["change"]
    )

    print(f"base {commits['base'][:12]}, change {commits['change'][:12]}: "
          f"{len(CAMPAIGNS)} both-problem campaigns from seed {BASE_SEED}, all allocators; acceptance sweep")
    print(f"{PACKAGE}/*.py: {lines['base']} -> {lines['change']} lines")
    print_source_changes(texts["base"], texts["change"], names["base"], names["change"])
    for name in CAMPAIGNS:
        print_campaign(name, base_csvs.get(name, {}), change_csvs.get(name, {}))
        print_summary_diff(base_summaries.get(name, {}), change_summaries.get(name, {}))

    certified = [sum(r["outcome"] == "certified" for r in sweep) for sweep in (base_sweep, change_sweep)]
    diffs = diff_sweep(base_sweep, change_sweep)
    print(f"sweep certified: {certified[0]} of {len(base_sweep)} -> "
          f"{certified[1]} of {len(change_sweep)}; {len({d[0] for d in diffs})} rows changed")
    for key, field, was, now in diffs:
        print(f"  {key} {field}: {was} -> {now}")
    for title, names in zip(("added", "removed"), sweep_fields(base_sweep, change_sweep)):
        if names:
            print(f"sweep fields {title}: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
