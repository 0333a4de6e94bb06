"""Paired perfbench runs of two commits, summarised into BENCH_<workload>.json.

    python3 tools/bench_pairs.py --workload sumax-paper --base <rev> --change HEAD \
        --pairs 10 --seconds 50 --first-seed 601

Exports each commit with ``git archive`` into a temporary directory and runs
``perfbench/run.py`` there, so both sides run the benchmark exactly as
committed.  Pair i uses seed ``first_seed + i`` on both sides; the side that
runs first alternates from pair to pair, so drift of the host's speed falls
on both.  Every run must pass perfbench's correctness gate.  The file written
at the repository root holds, per end-to-end metric of ``BENCHMARK.json``,
the per-run values of both sides, their quartiles, the relative change of the
medians, the number of pairs the change won and two flags from the metric's
``bound``: ``worse_than_bound`` when the change's median is worse than the
parent's by more than ``bound`` (relative, in the metric's ``better``
direction), and ``unresolved`` when the parent's interquartile range exceeds
``bound`` of its median and not every change run beats every parent run.
Beside them it stores each side's drops attempted and failed per run, the
median and largest share of failed drops over its runs, and the flag
``change_fails_more`` when either of the change's shares exceeds the
parent's.  The commits, the command line and the environment record of the
first change-side run are stored too.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, into: Path) -> str:
    """Extract ``rev`` into ``into``; return its full commit hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    into.mkdir(parents=True)
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, stdout=fh)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(into, filter="data")
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its full record from ``.perfbench_out``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    out = checkout / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json"
    return json.loads(out.read_text())


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": values}


def summarise(spec: dict, base: list[dict], change: list[dict]) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if m["better"] == "higher" else -1.0
        bound = m.get("bound", math.inf)
        base_q, change_q = quartiles(b), quartiles(c)
        spread = base_q["q3"] - base_q["q1"]
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": bound,
            "base": base_q,
            "change": change_q,
            "median_change": change_q["median"] / base_q["median"] - 1.0,
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(b, c)),
            "worse_than_bound": sign * (change_q["median"] - base_q["median"]) < -bound * abs(base_q["median"]),
            "unresolved": spread > bound * abs(base_q["median"])
            and not min(sign * y for y in c) > max(sign * x for x in b),
        }
    return out


def failures(base: list[dict], change: list[dict]) -> dict:
    """Drops attempted and failed per run of each side, and their failed shares."""
    out: dict = {}
    for side, recs in (("base", base), ("change", change)):
        shares = [r["failed"] / r["attempted"] for r in recs]
        out[side] = {
            "attempted": [r["attempted"] for r in recs],
            "failed": [r["failed"] for r in recs],
            "failed_share": {"median": statistics.median(shares), "max": max(shares)},
        }
    b, c = out["base"]["failed_share"], out["change"]["failed_share"]
    out["change_fails_more"] = c["median"] > b["median"] or c["max"] > b["max"]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="git revision of the change side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--first-seed", type=int, default=601)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        commits = {side: export(getattr(args, side), Path(tmp) / side) for side in runs}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                rec = run_once(Path(tmp) / side, args.workload, seed, args.seconds)
                runs[side].append(rec)
                value = rec["metrics"]["drops_per_ref_s"]["value"]
                print(f"pair {i} seed {seed} {side}: drops_per_ref_s {value:.2f}", flush=True)

    bench = {
        "workload": args.workload,
        "command": "python3 tools/bench_pairs.py " + " ".join(
            f"--{k.replace('_', '-')} {v}" for k, v in vars(args).items()
        ),
        "base_commit": commits["base"],
        "change_commit": commits["change"],
        "seeds": [args.first_seed + i for i in range(args.pairs)],
        "seconds": args.seconds,
        "environment": runs["change"][0]["environment"],
        "digests": {side: [r["digest"] for r in recs] for side, recs in runs.items()},
        "metrics": summarise(spec, runs["base"], runs["change"]),
        "failures": failures(runs["base"], runs["change"]),
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n")
    for name, m in bench["metrics"].items():
        print(f"{name}: base median {m['base']['median']:.4g}, change median "
              f"{m['change']['median']:.4g} ({m['median_change']:+.1%}), "
              f"change wins {m['change_wins']}/{args.pairs}, bound {m['bound']:g}, "
              f"worse than bound {m['worse_than_bound']}, unresolved {m['unresolved']}")
    f = bench["failures"]
    print("failed share: " + ", ".join(
        f"{side} median {f[side]['failed_share']['median']:.4g} max {f[side]['failed_share']['max']:.4g}"
        for side in runs
    ) + f", change fails more {f['change_fails_more']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
