"""Correctness gate and determinism digest for one campaign batch.

The gate reads the records ``run_campaign`` returns and the user CSV it
wrote.  A refusal (oracle node ceiling, infeasible instance) marks its drop
as failed and is counted; anything else that is wrong is a gate problem that
names the drop and fails the run.
"""

from __future__ import annotations

import csv
import hashlib
import os
from collections import defaultdict
from dataclasses import dataclass, field

from workloads import Workload

# The oracle must not lose to another allocator on the same instance.  Both
# sides are sums of the same option weights in agent order, so only a
# different summation order in the pruning bound could move the last digits.
ORACLE_SLACK = 1e-12


@dataclass
class Quality:
    """Per-drop quality samples accumulated over every checked batch."""

    drops: int = 0
    failed: int = 0
    solves: int = 0
    certified: int = 0
    oracle_ratios: list[float] = field(default_factory=list)
    greedy_ratios: list[float] = field(default_factory=list)


def csv_digest(out_dir: str) -> str:
    """sha256 over every campaign CSV (name and bytes), in file-name order."""
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(out_dir) if f.endswith(".csv")):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _ratio(num: float | None, den: float | None) -> float | None:
    if num is None or not den:
        return None
    return num / den


def _better(w: Workload, a: float, b: float) -> float:
    """How much better objective ``a`` is than ``b``: sumax records utilities, jamsc costs."""
    return a - b if w.problem == "sumax" else b - a


def _same_instance(w: Workload, name: str) -> bool:
    # jamsc's dual_fixed and round_robin solve the fixed-modulation instance
    return w.problem == "sumax" or name in (w.primary, w.oracle)


def _user_blocks(path: str) -> dict[int, dict[str, list[tuple[int, int, int]]]]:
    """(user, start, length) rows of the user CSV, by drop seed and allocator."""
    blocks: dict[int, dict[str, list[tuple[int, int, int]]]] = defaultdict(lambda: defaultdict(list))
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            blocks[int(row["seed"])][row["allocator"]].append(
                (int(row["user"]), int(row["start"]), int(row["length"]))
            )
    return blocks


def _block_problems(w: Workload, blocks: list[tuple[int, int, int]]) -> list[str]:
    users = sorted(u for u, _, _ in blocks)
    if users != list(range(w.n_users)):
        return [f"user rows {users} are not one per user"]
    covered = []
    for user, start, length in blocks:
        if length == 0 and w.problem == "jamsc":
            return [f"user {user} has no sub-channel"]
        covered.extend(range(start, start + length))
    if sorted(covered) != list(range(1, w.n_subchannels + 1)):
        return [f"blocks cover sub-channels {sorted(covered)}, not 1..{w.n_subchannels} once each"]
    return []


def check_batch(w: Workload, out, out_dir: str, quality: Quality) -> list[str]:
    """Check one ``run_campaign`` result; update ``quality``; return gate problems."""
    problems = [f"campaign check: {f}" for f in out.failures]
    if not out.ok and not problems:
        problems.append("campaign summary is not ok")
    blocks = _user_blocks(os.path.join(out_dir, f"{w.problem}_users.csv"))
    for res in out.results:
        where = f"{w.name} drop {res.drop_index} (seed {res.seed})"
        quality.drops += 1
        recs = res.records
        allocated = {n for n, r in recs.items() if not r.error and r.objective is not None}
        if res.error or allocated != set(w.allocators):
            quality.failed += 1
        rows = blocks.get(res.seed, {})
        for name in sorted(allocated):
            rec = recs[name]
            if not rec.feasible or rec.violations:
                problems.append(f"{where} allocator {name}: infeasible ({'; '.join(rec.violations)})")
            for p in _block_problems(w, rows.get(name, [])):
                problems.append(f"{where} allocator {name}: {p}")
        extra = set(rows) - allocated
        if extra:
            problems.append(f"{where}: user rows for allocators without an allocation {sorted(extra)}")

        primary = recs.get(w.primary)
        if primary is not None and primary.certified is not None:
            quality.solves += 1
            quality.certified += bool(primary.certified)
        oracle = recs.get(w.oracle) if w.oracle in allocated else None
        if oracle is not None:
            if primary is not None and primary.certified and primary.objective != oracle.objective:
                problems.append(
                    f"{where}: certified {w.primary} objective {primary.objective!r} "
                    f"!= oracle {oracle.objective!r}"
                )
            for name in allocated:
                other = recs[name].objective
                slack = ORACLE_SLACK * abs(other)
                if _same_instance(w, name) and _better(w, other, oracle.objective) > slack:
                    problems.append(
                        f"{where}: oracle {oracle.objective!r} loses to {name} {other!r}"
                    )
        if w.primary not in allocated:
            continue
        for samples, ref in (
            (quality.oracle_ratios, w.oracle),
            (quality.greedy_ratios, "greedy"),
        ):
            r = _ratio(primary.objective, recs[ref].objective) if ref in allocated else None
            if r is not None:
                samples.append(r)
    return problems
