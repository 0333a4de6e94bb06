"""Monte Carlo campaign runner, verification sweeps, and data-file emitters.

A campaign runs independent channel drops (seed = base_seed + drop index),
applies the configured allocators to each drop, and writes per-drop CSVs, CDF
files and a JSON summary.  CSV content is byte-reproducible for identical
(config, seed); wall-clock timings therefore live only in the JSON summary.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .assignment import Allocation, AssignmentInstance, InfeasibleInstanceError, to_assignment
from .baselines import InfeasibleAllocationError, OracleCeilingError, brute_force, greedy, round_robin
from .canonical import DualPoint
from .channel import ChannelGains, ScenarioConfig, generate_channel
from .dual import OUTCOMES, TERMINATIONS, SolverConfig, solve
from .jamsc import FrameConfig, PowerSolveError, build_jamsc
from .patterns import OptionTable, PatternSet, enumerate_patterns, require_bool, require_integer, require_number
from .sumax import ModulationTable, build_sumax

SUMAX_ALLOCATORS = ("dual", "oracle", "greedy", "round_robin")
JAMSC_ALLOCATORS = ("dual_am", "dual_fixed", "oracle_am", "round_robin")

@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign needs; see the CLI for the file format.  Frozen,
    so no field skips the checks: ``dataclasses.replace`` checks its copy."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    problem: str = "sumax"
    modulations: ModulationTable = field(default_factory=ModulationTable)
    frame: FrameConfig = field(default_factory=FrameConfig)
    n_drops: int = 100
    base_seed: int = 1
    allocators_sumax: tuple[str, ...] = ("dual", "greedy", "round_robin")
    allocators_jamsc: tuple[str, ...] = ("dual_am", "dual_fixed", "round_robin")
    target_rate_bps: float = 140e3
    fixed_modulation: str = "16QAM"
    weights: tuple[float, ...] | None = None
    strict_cap: bool = False
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.problem not in ("sumax", "jamsc", "both"):
            raise ValueError("problem must be 'sumax', 'jamsc' or 'both'")
        require_integer("n_drops", self.n_drops)
        require_integer("base_seed", self.base_seed)
        if self.n_drops < 1:
            raise ValueError(f"n_drops must be >= 1, got {self.n_drops}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        for prob, known in (("sumax", SUMAX_ALLOCATORS), ("jamsc", JAMSC_ALLOCATORS)):
            names = self.allocators_for(prob)
            for name in names:
                if name not in known:
                    raise ValueError(f"unknown {prob} allocator {name!r} in allocators_{prob}")
            if len(set(names)) != len(names):
                raise ValueError(f"{prob} allocators repeat a name: {names}")
            if not names and self.problem in (prob, "both"):
                raise ValueError(f"a {prob} campaign needs at least one allocator")
        require_bool("strict_cap", self.strict_cap)
        require_number("target_rate_bps", self.target_rate_bps)
        if not 0 < self.target_rate_bps < math.inf:
            raise ValueError(f"target_rate_bps must be positive and finite, got {self.target_rate_bps}")
        if self.fixed_modulation not in self.modulations.names:
            raise ValueError(
                f"fixed_modulation {self.fixed_modulation!r} is not one of {self.modulations.names}"
            )
        if self.weights is not None:
            require_number("weights", self.weights)
            if len(self.weights) != self.scenario.n_users:
                raise ValueError(
                    f"weights has {len(self.weights)} entries for {self.scenario.n_users} users"
                )
            if not np.isfinite(self.weights).all():
                raise ValueError(f"weights must be finite, got {self.weights}")

    def allocators_for(self, problem: str) -> tuple[str, ...]:
        return self.allocators_sumax if problem == "sumax" else self.allocators_jamsc


@dataclass
class AllocatorRecord:
    """Outcome of one allocator on one drop.

    ``run_drop`` fills a record in place: ``error`` when the allocator was
    refused, the dual solve's ``outcome``, ``termination`` and rounds, then
    ``objective`` and the checker's ``violations`` once an allocation exists.
    """

    name: str
    objective: float | None = None
    error: str = ""
    outcome: str | None = None
    termination: str | None = None
    outer_iterations: int | None = None
    runtime_s: float = 0.0
    violations: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """An allocation exists and the checker found nothing wrong with it."""
        return self.objective is not None and not self.violations

    @property
    def certified(self) -> bool | None:
        """Whether a dual solve certified its answer; None for other allocators."""
        return None if self.outcome is None else self.outcome == "certified"


@dataclass
class DropResult:
    """Every configured allocator's record on one drop, in config order.

    ``user_rows`` holds one dict per user of each allocation, keyed as the
    user CSV's columns after ``seed``.  A drop whose option tables could not
    be built has no records and its ``error`` set.
    """

    problem: str
    drop_index: int
    seed: int
    records: dict[str, AllocatorRecord]
    user_rows: list[dict]
    error: str = ""


def _tables(cfg: CampaignConfig, prob: str, gains: ChannelGains, patterns: PatternSet) -> dict[str, OptionTable]:
    """The option table of each of ``prob``'s allocators on one drop."""
    if prob == "sumax":
        table = build_sumax(gains, cfg.scenario, weights=cfg.weights, patterns=patterns, modulations=cfg.modulations)
        return dict.fromkeys(SUMAX_ALLOCATORS, table)
    targets = np.full(cfg.scenario.n_users, float(cfg.target_rate_bps))
    joint, fixed = build_jamsc(
        gains, cfg.scenario, targets, (cfg.modulations, cfg.modulations.restricted(cfg.fixed_modulation)),
        frame=cfg.frame, patterns=patterns, strict_cap=cfg.strict_cap,
    )
    return {"dual_am": joint, "oracle_am": joint, "dual_fixed": fixed, "round_robin": fixed}


def _user_rows(table: OptionTable, a: AssignmentInstance, alloc: Allocation) -> list[dict]:
    """One row per user: the chosen option's entry of ``table``."""
    rows = []
    for k, o in enumerate(alloc.option_index):
        j = a.layout.pattern_of[o]
        size = int(table.patterns.sizes[j])
        m = table.modulation[k, j]
        rows.append(
            {
                "user": k,
                "start": int(table.patterns.starts[j]) + 1 if size else 0,
                "length": size,
                "modulation": table.modulation_names[m] if m >= 0 else "",
                "power_w": float(table.power_w[k, j]),
                "snr_eff": float(table.snr_eff[k, j]),
            }
        )
    return rows


def run_drop(cfg: CampaignConfig, seed: int, drop_index: int = 0, problem: str | None = None) -> DropResult:
    """Run every configured allocator on one independent channel drop.

    A power solve that fails while the option tables are built fails the
    drop: its ``error`` holds the ``PowerSolveError`` and it has no records.
    Each option table is flattened to the assignment form once per drop;
    when that fails, every allocator that uses the table gets the error.
    ``dual_fixed`` starts from ``dual_am``'s dual point when ``dual_am`` ran
    earlier in the drop and did not diverge: both jamsc instances constrain
    the same users and sub-channels, and ``solve`` reads only a start's
    choice and cover duals.  Otherwise it starts cold.
    """
    prob = problem or cfg.problem
    if prob not in ("sumax", "jamsc"):
        raise ValueError(f"run_drop needs a concrete problem, got {prob!r}")
    sign = -1.0 if prob == "sumax" else 1.0  # sumax records utility, the negated assignment value
    patterns = enumerate_patterns(cfg.scenario.n_subchannels)
    gains = generate_channel(cfg.scenario, seed)
    try:
        tables = _tables(cfg, prob, gains, patterns)
    except PowerSolveError as exc:
        return DropResult(prob, drop_index, seed, {}, [], error=str(exc))
    forms: dict[int, AssignmentInstance | InfeasibleInstanceError] = {}
    records: dict[str, AllocatorRecord] = {}
    user_rows: list[dict] = []
    joint_point: DualPoint | None = None  # dual_am's duals, once it has run

    for name in cfg.allocators_for(prob):
        t0 = time.perf_counter()
        rec = records[name] = AllocatorRecord(name=name)
        table = tables[name]
        if id(table) not in forms:
            try:
                forms[id(table)] = to_assignment(table)
            except InfeasibleInstanceError as exc:
                forms[id(table)] = exc
        a = forms[id(table)]
        alloc: Allocation | None = None
        if isinstance(a, InfeasibleInstanceError):
            rec.error = str(a)
        else:
            try:
                if name.startswith("dual"):
                    rep = solve(a, cfg.solver, start=joint_point if name == "dual_fixed" else None)
                    if name == "dual_am" and rep.termination != "diverged":
                        joint_point = rep.dual_point
                    # rep.violations names a divergence; the record keeps only
                    # the checker's findings about the allocation it holds
                    rec.outcome, rec.termination = rep.outcome, rep.termination
                    rec.outer_iterations = rep.outer_iterations
                    alloc, value = rep.allocation, rep.primal_value
                elif name.startswith("oracle"):
                    alloc, value = brute_force(a)
                else:
                    alloc = greedy(a) if name == "greedy" else round_robin(a)
                    value = a.value(alloc)
            except (OracleCeilingError, InfeasibleAllocationError, InfeasibleInstanceError) as exc:
                rec.error = str(exc)
        rec.runtime_s = time.perf_counter() - t0
        if alloc is not None:
            rec.objective = sign * value
            rec.violations = a.allocation_violations(alloc)
            user_rows.extend({"allocator": name, **row} for row in _user_rows(table, a, alloc))
    return DropResult(prob, drop_index, seed, records, user_rows)


def emit_cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF pairs: sorted values with fractions (i+1)/n, duplicates kept."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    return [(v, (i + 1) / n) for i, v in enumerate(vals)]


_DROP_COLUMNS = (
    "problem", "drop", "seed", "allocator", "objective", "feasible", "error",
    "outcome", "termination", "outer_iterations",
)

_USER_COLUMNS = (
    "problem", "drop", "seed", "allocator", "user", "start", "length",
    "modulation", "power_w", "snr_eff",
)


def _drop_csv_rows(results: Sequence[DropResult]) -> list[Sequence]:
    rows: list[Sequence] = [_DROP_COLUMNS]
    for res in results:
        for name, rec in res.records.items():
            rows.append((
                res.problem, res.drop_index, res.seed, name, rec.objective, "true" if rec.feasible else "false",
                rec.error, rec.outcome, rec.termination, rec.outer_iterations,
            ))
    return rows


def _user_csv_rows(results: Sequence[DropResult]) -> list[Sequence]:
    keys = _USER_COLUMNS[3:]  # a user row's keys, after problem, drop and seed
    rows = ((r.problem, r.drop_index, r.seed, *(row[k] for k in keys)) for r in results for row in r.user_rows)
    return [_USER_COLUMNS, *rows]


@dataclass
class CampaignSummary:
    """What ``run_campaign`` returns.

    ``results`` holds every drop, problem by problem; ``summary`` is what
    ``summary.json`` holds.  ``failures`` lists each checker finding as
    "<problem> drop <i> allocator <name>: <findings>", by problem, then
    allocator, then drop; ``ok`` is True when there is none.
    """

    results: list[DropResult]
    summary: dict
    ok: bool
    failures: list[str]


def _summarise_problem(results: list[DropResult], allocators: Sequence[str]) -> dict:
    out: dict = {}
    oracle_name = next((n for n in allocators if n.startswith("oracle")), None)
    for name in allocators:
        recs = [r.records[name] for r in results if name in r.records]
        feas = [r for r in recs if r.feasible]
        entry: dict = {
            "n_drops": len(recs),
            "n_feasible": len(feas),
            "n_errors": sum(1 for r in recs if r.error),
            "mean_objective": float(np.mean([r.objective for r in feas])) if feas else None,
            "mean_runtime_s": float(np.mean([r.runtime_s for r in recs])) if recs else None,
        }
        done = [r for r in recs if r.outcome is not None]
        if done:
            entry["outcome_shares"] = {o: sum(r.outcome == o for r in done) / len(done) for o in OUTCOMES}
            entry["termination_shares"] = {
                t: sum(r.termination == t for r in done) / len(done) for t in TERMINATIONS
            }
        if oracle_name and name != oracle_name:
            pairs = [(r.records[name], r.records[oracle_name]) for r in results]  # (own, oracle's)
            ratios = [x.objective / o.objective for x, o in pairs if x.feasible and o.feasible and o.objective]
            if ratios:
                entry["mean_ratio_vs_oracle"] = float(np.mean(ratios))
        out[name] = entry
    return out


def run_campaign(cfg: CampaignConfig) -> CampaignSummary:
    """Run all drops, write data files when ``out_dir`` is set, and summarise."""
    problems = ("sumax", "jamsc") if cfg.problem == "both" else (cfg.problem,)
    all_results = [
        run_drop(cfg, cfg.base_seed + i, drop_index=i, problem=prob) for prob in problems for i in range(cfg.n_drops)
    ]

    summary: dict = {
        "problems": list(problems),
        "n_drops": cfg.n_drops,
        "base_seed": cfg.base_seed,
        "per_allocator": {},
        "drop_errors": [
            {"problem": r.problem, "drop": r.drop_index, "error": r.error} for r in all_results if r.error
        ],
    }
    for prob in problems:
        sub = [r for r in all_results if r.problem == prob and not r.error]
        summary["per_allocator"][prob] = _summarise_problem(sub, cfg.allocators_for(prob))
    failures = [
        f"{prob} drop {r.drop_index} allocator {name}: " + "; ".join(r.records[name].violations)
        for prob in problems for name in cfg.allocators_for(prob) for r in all_results
        if r.problem == prob and name in r.records and r.records[name].violations
    ]
    ok = not failures
    summary["ok"] = ok
    summary["failures"] = failures

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for prob in problems:
            sub = [r for r in all_results if r.problem == prob]
            _write_csv(os.path.join(cfg.out_dir, f"{prob}_drops.csv"), _drop_csv_rows(sub))
            _write_csv(os.path.join(cfg.out_dir, f"{prob}_users.csv"), _user_csv_rows(sub))
            for name in cfg.allocators_for(prob):
                vals = [r.records[name].objective for r in sub if name in r.records and r.records[name].feasible]
                rows = [("value", "fraction"), *emit_cdf(vals)]
                _write_csv(os.path.join(cfg.out_dir, f"{prob}_cdf_{name}.csv"), rows)
        with open(os.path.join(cfg.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return CampaignSummary(results=all_results, summary=summary, ok=ok, failures=failures)


def _write_csv(path: str, rows: Sequence[Sequence]) -> None:
    """One line per row, cells as ``csv.writer`` writes them: a float by its
    ``repr``, None as an empty cell, and only a cell holding a comma, a quote
    or a line break quoted.  Rows hold Python str, int, float and None only."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# Verification sweeps (shared by the CLI and the acceptance suite).

# A certified run's duality gap, relative to 1 + |dual value|, may not exceed this.
CERTIFIED_GAP_TOL = 1e-6


def desk_scenario(n_users: int, n_subchannels: int, **overrides) -> ScenarioConfig:
    """Small-instance scenario used by the verification sweeps."""
    kw = dict(n_users=n_users, n_subchannels=n_subchannels, cell_radius_m=500.0)
    kw.update(overrides)
    return ScenarioConfig(**kw)


def _desk_weights(seed: int, n_users: int) -> np.ndarray:
    return np.random.default_rng([seed, 7919]).uniform(0.5, 1.5, n_users)


def sumax_assignment_for_seed(n_users: int, n_subchannels: int, seed: int) -> AssignmentInstance:
    """Random desk-scale sumax instance in assignment form, fully seed-determined."""
    sc = desk_scenario(n_users, n_subchannels)
    gains = generate_channel(sc, seed)
    return to_assignment(build_sumax(gains, sc, weights=_desk_weights(seed, n_users)))


def certification_sweep(
    combos: Sequence[tuple[int, int]] = ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)),
    per_combo: int = 90,
    base_seed: int = 2024,
) -> dict:
    """Compare the dual solver against the exact oracle on random instances.

    Each run uses the default ``SolverConfig``.  Certified runs must match
    the oracle optimum exactly and close the duality gap within
    ``CERTIFIED_GAP_TOL``.  Each row records the value ratio (after
    repair), the outcome, the Lagrangian ``bound`` and the proven ``gap``
    (primal - bound) / (1 + |bound|), which needs no oracle.  The summary
    gives each outcome's share and the uncertified runs' median and largest
    gap (None when every run certified).
    """
    if per_combo < 1:
        raise ValueError(f"per_combo must be >= 1, got {per_combo}")
    rows = []
    for n_users, n_sub in combos:
        for i in range(per_combo):
            seed = base_seed + i
            a = sumax_assignment_for_seed(n_users, n_sub, seed)
            rep = solve(a)
            _, opt_value = brute_force(a)
            achieved = rep.primal_value
            ratio = None
            if achieved is not None and opt_value != 0:
                ratio = achieved / opt_value  # minimisation: both negative, ratio of utilities
            exact = (achieved == opt_value) if rep.certified else None
            gap = None if rep.duality_gap is None else rep.duality_gap / (1.0 + abs(rep.dual_value))
            gap_ok = None
            if rep.certified:
                gap_ok = abs(rep.duality_gap) <= CERTIFIED_GAP_TOL * (1.0 + abs(rep.dual_value))
            rows.append(
                {
                    "n_users": n_users,
                    "n_subchannels": n_sub,
                    "seed": seed,
                    "termination": rep.termination,
                    "outcome": rep.outcome,
                    "exact": exact,
                    "ratio": ratio,
                    "gap_ok": gap_ok,
                    "bound": rep.dual_value,
                    "gap": gap,
                    "oracle_value": opt_value,
                    "achieved_value": achieved,
                }
            )
    n = len(rows)
    certified = [r for r in rows if r["outcome"] == "certified"]
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    gaps = [r["gap"] for r in rows if r["outcome"] != "certified" and r["gap"] is not None]
    return {
        "n_runs": n,
        "outcome_shares": {o: sum(r["outcome"] == o for r in rows) / max(n, 1) for o in OUTCOMES},
        "all_certified_exact": all(r["exact"] for r in certified) if certified else True,
        "all_certified_gap_ok": all(r["gap_ok"] for r in certified) if certified else True,
        "n_feasible": len(ratios),
        "mean_ratio": float(np.mean(ratios)) if ratios else None,
        "min_ratio": float(np.min(ratios)) if ratios else None,
        "uncertified_gap_median": float(np.median(gaps)) if gaps else None,
        "uncertified_gap_max": max(gaps) if gaps else None,
        "rows": rows,
    }


def complexity_table(
    k_values: Sequence[int] = (2, 3),
    n_values: Sequence[int] = (4, 6, 8, 10),
    seeds: Sequence[int] = (11, 12, 13),
) -> list[dict]:
    """Iteration-count table over a (K, N) sweep of random sumax instances.

    Operations are counted from the round structure: each round's binarity
    step touches every option, and its joint landing counts once per agent
    (choice) and once per sub-channel (cover).  Wall time is
    informative only.
    """
    if len(seeds) < 1:
        raise ValueError(f"seeds must hold at least one seed, got {len(seeds)}")
    rows = []
    for n_agents in k_values:
        for n_sub in n_values:
            tot = {"outer": 0.0, "ops": 0.0, "wall_s": 0.0}
            for seed in seeds:
                inst = sumax_assignment_for_seed(n_agents, n_sub, seed)
                t0 = time.perf_counter()
                rep = solve(inst)
                dt = time.perf_counter() - t0
                tot["outer"] += rep.outer_iterations
                tot["ops"] += rep.outer_iterations * (inst.n_options + n_agents + n_sub)
                tot["wall_s"] += dt
            m = float(len(seeds))
            rows.append(
                {
                    "n_agents": n_agents,
                    "n_subchannels": n_sub,
                    "n_patterns": enumerate_patterns(n_sub).n_patterns,
                    "n_options": inst.n_options,
                    "outer": tot["outer"] / m,
                    "ops": tot["ops"] / m,
                    "ops_per_outer": tot["ops"] / max(tot["outer"], 1.0),
                    "wall_s": tot["wall_s"] / m,
                }
            )
    return rows


def write_complexity_csv(path: str, rows: Sequence[dict]) -> None:
    cols = (
        "n_agents", "n_subchannels", "n_patterns", "n_options", "outer",
        "ops", "ops_per_outer", "wall_s",
    )
    _write_csv(path, [cols, *([row[c] for c in cols] for row in rows)])
