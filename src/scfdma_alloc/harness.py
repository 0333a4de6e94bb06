"""Monte Carlo campaign runner, verification sweeps, and data-file emitters.

A campaign runs independent channel drops (seed = base_seed + drop index),
applies the configured allocators to each drop, and writes per-drop CSVs, CDF
files and a JSON summary.  CSV content is byte-reproducible for identical
(config, seed); wall-clock timings therefore live only in the JSON summary.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .assignment import Allocation, AssignmentInstance, InfeasibleInstanceError, to_assignment
from .baselines import InfeasibleAllocationError, OracleCeilingError, brute_force, greedy, round_robin
from .channel import ChannelGains, ScenarioConfig, generate_channel
from .dual import SolveReport, SolverConfig, dual_gradient, dual_value, DualPoint, solve
from .jamsc import FrameConfig, JamscInstance, build_jamsc
from .patterns import PatternSet, enumerate_patterns
from .sumax import ModulationTable, SumaxInstance, build_sumax, select_modulation

SUMAX_ALLOCATORS = ("dual", "oracle", "greedy", "round_robin")
JAMSC_ALLOCATORS = ("dual_am", "dual_fixed", "oracle_am", "round_robin")

_PATTERN_CACHE: dict[int, PatternSet] = {}


def _patterns_for(n_subchannels: int) -> PatternSet:
    if n_subchannels not in _PATTERN_CACHE:
        _PATTERN_CACHE[n_subchannels] = enumerate_patterns(n_subchannels)
    return _PATTERN_CACHE[n_subchannels]


@dataclass
class CampaignConfig:
    """Everything one campaign needs; see the CLI for the file format."""

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
    oracle_ceiling: int = 10**8
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.problem not in ("sumax", "jamsc", "both"):
            raise ValueError("problem must be 'sumax', 'jamsc' or 'both'")
        if self.n_drops < 1:
            raise ValueError(f"n_drops must be >= 1, got {self.n_drops}")
        for prob, known in (("sumax", SUMAX_ALLOCATORS), ("jamsc", JAMSC_ALLOCATORS)):
            names = self.allocators_for(prob)
            for name in names:
                if name not in known:
                    raise ValueError(f"unknown {prob} allocator {name!r}")
            if len(set(names)) != len(names):
                raise ValueError(f"{prob} allocators repeat a name: {names}")
            if not names and self.problem in (prob, "both"):
                raise ValueError(f"a {prob} campaign needs at least one allocator")
        if self.target_rate_bps <= 0:
            raise ValueError(f"target_rate_bps must be positive, got {self.target_rate_bps}")
        if self.fixed_modulation not in self.modulations.names:
            raise ValueError(
                f"fixed_modulation {self.fixed_modulation!r} is not one of {self.modulations.names}"
            )
        if self.weights is not None and len(self.weights) != self.scenario.n_users:
            raise ValueError(
                f"weights has {len(self.weights)} entries for {self.scenario.n_users} users"
            )

    def allocators_for(self, problem: str) -> tuple[str, ...]:
        return self.allocators_sumax if problem == "sumax" else self.allocators_jamsc


@dataclass
class AllocatorRecord:
    """Outcome of one allocator on one drop."""

    name: str
    objective: float | None = None
    feasible: bool = False
    error: str = ""
    certified: bool | None = None
    in_positive_cone: bool | None = None
    binary_recovery: bool | None = None
    repaired: bool | None = None
    truncated: bool | None = None
    iterations: tuple[int, int, int] | None = None
    outer_iterations: int | None = None
    max_ratio: float | None = None
    near_optimal: bool | None = None
    runtime_s: float = 0.0
    violations: list[str] = field(default_factory=list)


@dataclass
class DropResult:
    problem: str
    drop_index: int
    seed: int
    records: dict[str, AllocatorRecord]
    user_rows: list[dict]
    error: str = ""


def _record_from_report(name: str, rep: SolveReport, sign: float, runtime_s: float) -> AllocatorRecord:
    objective = None if rep.primal_value is None else sign * rep.primal_value
    # rep.violations explains why certification failed; the record keeps only
    # feasibility findings about the allocation actually recorded.
    return AllocatorRecord(
        name=name,
        objective=objective,
        feasible=rep.feasible,
        certified=rep.certified,
        in_positive_cone=rep.in_positive_cone,
        binary_recovery=rep.binary_recovery,
        repaired=rep.repaired,
        truncated=rep.truncated,
        iterations=rep.iterations,
        outer_iterations=rep.outer_iterations,
        max_ratio=None if rep.gap_report is None else rep.gap_report.max_ratio,
        near_optimal=None if rep.gap_report is None else rep.gap_report.near_optimal,
        runtime_s=runtime_s,
    )


def _sumax_models(cfg: CampaignConfig, gains: ChannelGains, patterns: PatternSet) -> dict:
    inst = build_sumax(gains, cfg.scenario, weights=cfg.weights, patterns=patterns)
    return dict.fromkeys(SUMAX_ALLOCATORS, inst)


def _jamsc_models(cfg: CampaignConfig, gains: ChannelGains, patterns: PatternSet) -> dict:
    targets = np.full(cfg.scenario.n_users, float(cfg.target_rate_bps))
    joint, fixed = (
        build_jamsc(
            gains, cfg.scenario, targets, table,
            frame=cfg.frame, patterns=patterns, strict_cap=cfg.strict_cap,
        )
        for table in (cfg.modulations, cfg.modulations.restricted(cfg.fixed_modulation))
    )
    return {"dual_am": joint, "oracle_am": joint, "dual_fixed": fixed, "round_robin": fixed}


def _sumax_user_rows(inst: SumaxInstance, cfg: CampaignConfig, cols: Sequence[int]) -> list[dict]:
    rows = []
    p_max = cfg.scenario.per_user("p_max_w")
    p_peak = cfg.scenario.per_user("p_peak_w")
    for k, j in enumerate(cols):
        col = inst.patterns.columns[j]
        if col:
            snr = float(inst.pattern_snr[k, j])
            m = select_modulation(snr, cfg.modulations)
            rows.append(
                {
                    "user": k,
                    "start": col[0],
                    "length": len(col),
                    "modulation": "" if m is None else cfg.modulations.names[m],
                    "power_w": min(float(p_peak[k]), float(p_max[k]) / len(col)),
                    "snr_eff": snr,
                }
            )
        else:
            rows.append(
                {"user": k, "start": 0, "length": 0, "modulation": "", "power_w": 0.0, "snr_eff": float("nan")}
            )
    return rows


def _jamsc_user_rows(inst: JamscInstance, cfg: CampaignConfig, cols: Sequence[int]) -> list[dict]:
    rows = []
    for k, j in enumerate(cols):
        col = inst.patterns.columns[j]
        m = int(inst.modulation[k, j])
        rows.append(
            {
                "user": k,
                "start": col[0],
                "length": len(col),
                "modulation": inst.table.names[m],
                "power_w": float(inst.powers[k, j]),
                "snr_eff": float(inst.table.thresholds[m]),
            }
        )
    return rows


@dataclass(frozen=True)
class _Problem:
    """The parts of a drop that differ between the two problems."""

    sign: float  # recorded objective = sign * assignment value; sumax reports utility
    models: Callable[[CampaignConfig, ChannelGains, PatternSet], dict]  # model per allocator
    user_rows: Callable[[object, CampaignConfig, Sequence[int]], list[dict]]


_PROBLEMS = {
    "sumax": _Problem(-1.0, _sumax_models, _sumax_user_rows),
    "jamsc": _Problem(1.0, _jamsc_models, _jamsc_user_rows),
}


def _round_robin_columns(model, patterns: PatternSet) -> list[int]:
    cols = []
    for k, block in enumerate(round_robin(model.n_users, patterns.n_subchannels)):
        j = patterns.index_of_set(block)
        # only jamsc masks options; its round robin runs the one fixed modulation
        if isinstance(model, JamscInstance) and not model.allowed[k, j]:
            raise InfeasibleAllocationError(
                f"user {k}: round-robin block of {len(block)} sub-channels cannot carry "
                f"the target rate under {model.table.names[0]}"
            )
        cols.append(j)
    return cols


def run_drop(cfg: CampaignConfig, seed: int, drop_index: int = 0, problem: str | None = None) -> DropResult:
    """Run every configured allocator on one independent channel drop.

    Each model instance is flattened to the assignment form once per drop;
    when that fails, every allocator that uses the instance gets the error.
    """
    prob = problem or cfg.problem
    if prob not in _PROBLEMS:
        raise ValueError(f"run_drop needs a concrete problem, got {prob!r}")
    spec = _PROBLEMS[prob]
    patterns = _patterns_for(cfg.scenario.n_subchannels)
    gains = generate_channel(cfg.scenario, seed)
    models = spec.models(cfg, gains, patterns)
    forms: dict[int, AssignmentInstance | InfeasibleInstanceError] = {}
    records: dict[str, AllocatorRecord] = {}
    user_rows: list[dict] = []

    for name in cfg.allocators_for(prob):
        t0 = time.perf_counter()
        model = models[name]
        if id(model) not in forms:
            try:
                forms[id(model)] = to_assignment(model)
            except InfeasibleInstanceError as exc:
                forms[id(model)] = exc
        a = forms[id(model)]
        if isinstance(a, InfeasibleInstanceError):
            records[name] = AllocatorRecord(name=name, error=str(a), runtime_s=time.perf_counter() - t0)
            continue
        alloc: Allocation | None = None
        try:
            if name.startswith("dual"):
                rep = solve(a, cfg.solver)
                rec = _record_from_report(name, rep, spec.sign, time.perf_counter() - t0)
                alloc = rep.allocation
            else:
                if name.startswith("oracle"):
                    alloc, value = brute_force(a, cfg.oracle_ceiling)
                else:
                    cols = greedy(model) if name == "greedy" else _round_robin_columns(model, patterns)
                    alloc = a.allocation_from_tags(list(enumerate(cols)))
                    value = a.value(alloc)
                rec = AllocatorRecord(
                    name=name, objective=spec.sign * value, feasible=True,
                    runtime_s=time.perf_counter() - t0,
                )
        except (OracleCeilingError, InfeasibleAllocationError, InfeasibleInstanceError) as exc:
            rec = AllocatorRecord(name=name, error=str(exc), runtime_s=time.perf_counter() - t0)
        if alloc is not None:
            bad = a.allocation_violations(alloc)
            if bad:
                rec.violations.extend(bad)
                rec.feasible = False
            cols = [a.provenance[o][1] for o in alloc.option_index]
            for row in spec.user_rows(model, cfg, cols):
                user_rows.append({"allocator": name, **row})
        records[name] = rec
    return DropResult(prob, drop_index, seed, records, user_rows)


def emit_cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF pairs: sorted values with fractions (i+1)/n, duplicates kept."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    return [(v, (i + 1) / n) for i, v in enumerate(vals)]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


_DROP_COLUMNS = (
    "problem", "drop", "seed", "allocator", "objective", "feasible", "error",
    "certified", "in_positive_cone", "binary_recovery", "repaired", "truncated",
    "iters_binary", "iters_choice", "iters_cover", "outer_iterations",
    "max_ratio", "near_optimal",
)

_USER_COLUMNS = (
    "problem", "drop", "seed", "allocator", "user", "start", "length",
    "modulation", "power_w", "snr_eff",
)


def _drop_csv_rows(results: Sequence[DropResult]) -> list[str]:
    lines = [",".join(_DROP_COLUMNS)]
    for res in results:
        for name, rec in res.records.items():
            it = rec.iterations or (None, None, None)
            row = (
                res.problem, res.drop_index, res.seed, name, rec.objective, rec.feasible,
                rec.error.replace(",", ";"), rec.certified, rec.in_positive_cone,
                rec.binary_recovery, rec.repaired, rec.truncated,
                it[0], it[1], it[2], rec.outer_iterations, rec.max_ratio, rec.near_optimal,
            )
            lines.append(",".join(_fmt(v) for v in row))
    return lines


def _user_csv_rows(results: Sequence[DropResult]) -> list[str]:
    lines = [",".join(_USER_COLUMNS)]
    for res in results:
        for row in res.user_rows:
            out = (
                res.problem, res.drop_index, res.seed, row["allocator"], row["user"],
                row["start"], row["length"], row["modulation"], row["power_w"], row["snr_eff"],
            )
            lines.append(",".join(_fmt(v) for v in out))
    return lines


@dataclass
class CampaignSummary:
    results: list[DropResult]
    summary: dict
    ok: bool
    failures: list[str]


def _summarise_problem(
    results: list[DropResult], allocators: Sequence[str], failures: list[str]
) -> dict:
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
        if any(r.certified is not None for r in recs):
            done = [r for r in recs if r.certified is not None]
            entry["certification_rate"] = float(np.mean([1.0 if r.certified else 0.0 for r in done]))
            entry["truncation_rate"] = float(np.mean([1.0 if r.truncated else 0.0 for r in done]))
        if oracle_name and name != oracle_name:
            ratios = []
            for r in results:
                rec, orc = r.records.get(name), r.records.get(oracle_name)
                if rec and orc and rec.feasible and orc.feasible and rec.objective is not None:
                    if orc.objective:
                        ratios.append(rec.objective / orc.objective)
            if ratios:
                entry["mean_ratio_vs_oracle"] = float(np.mean(ratios))
        out[name] = entry
        for r in results:
            rec = r.records.get(name)
            if rec and rec.violations:
                failures.append(
                    f"{r.problem} drop {r.drop_index} allocator {name}: " + "; ".join(rec.violations)
                )
    return out


def run_campaign(cfg: CampaignConfig) -> CampaignSummary:
    """Run all drops, write data files when ``out_dir`` is set, and summarise."""
    problems = ("sumax", "jamsc") if cfg.problem == "both" else (cfg.problem,)
    all_results: list[DropResult] = []
    failures: list[str] = []
    for prob in problems:
        for i in range(cfg.n_drops):
            seed = cfg.base_seed + i
            try:
                res = run_drop(cfg, seed, drop_index=i, problem=prob)
            except (InfeasibleInstanceError, InfeasibleAllocationError) as exc:
                res = DropResult(prob, i, seed, {}, [], error=str(exc))
            all_results.append(res)

    summary: dict = {
        "problems": list(problems),
        "n_drops": cfg.n_drops,
        "base_seed": cfg.base_seed,
        "per_allocator": {},
        "drop_errors": [
            {"problem": r.problem, "drop": r.drop_index, "error": r.error}
            for r in all_results
            if r.error
        ],
    }
    for prob in problems:
        sub = [r for r in all_results if r.problem == prob and not r.error]
        summary["per_allocator"][prob] = _summarise_problem(sub, cfg.allocators_for(prob), failures)

    ok = not failures
    summary["ok"] = ok
    summary["failures"] = failures

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for prob in problems:
            sub = [r for r in all_results if r.problem == prob]
            _write_lines(os.path.join(cfg.out_dir, f"{prob}_drops.csv"), _drop_csv_rows(sub))
            _write_lines(os.path.join(cfg.out_dir, f"{prob}_users.csv"), _user_csv_rows(sub))
            for name in cfg.allocators_for(prob):
                vals = [
                    r.records[name].objective
                    for r in sub
                    if name in r.records and r.records[name].feasible
                ]
                lines = ["value,fraction"] + [
                    f"{_fmt(v)},{_fmt(f)}" for v, f in emit_cdf(vals)
                ]
                _write_lines(os.path.join(cfg.out_dir, f"{prob}_cdf_{name}.csv"), lines)
        with open(os.path.join(cfg.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return CampaignSummary(results=all_results, summary=summary, ok=ok, failures=failures)


def _write_lines(path: str, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Verification sweeps (shared by the CLI and the acceptance suite).


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
    inst = build_sumax(
        gains, sc, weights=_desk_weights(seed, n_users), patterns=_patterns_for(n_subchannels)
    )
    return to_assignment(inst)


def certification_sweep(
    combos: Sequence[tuple[int, int]] = ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)),
    per_combo: int = 90,
    base_seed: int = 2024,
    solver: SolverConfig = SolverConfig(),
    gap_tol: float = 1e-6,
) -> dict:
    """Compare the dual solver against the exhaustive oracle on random instances.

    Per run: certified runs must match the oracle optimum exactly; the value
    ratio (after repair) and the complementary-duality residual are recorded.
    """
    if per_combo < 1:
        raise ValueError(f"per_combo must be >= 1, got {per_combo}")
    rows = []
    for n_users, n_sub in combos:
        for i in range(per_combo):
            seed = base_seed + i
            a = sumax_assignment_for_seed(n_users, n_sub, seed)
            rep = solve(a, solver)
            _, opt_value = brute_force(a)
            achieved = rep.primal_value
            ratio = None
            if achieved is not None and opt_value != 0:
                ratio = achieved / opt_value  # minimisation: both negative, ratio of utilities
            exact = (achieved == opt_value) if rep.certified else None
            gap_ok = None
            if rep.certified:
                gap_ok = abs(rep.duality_gap) <= gap_tol * (1.0 + abs(rep.dual_value))
            rows.append(
                {
                    "n_users": n_users,
                    "n_subchannels": n_sub,
                    "seed": seed,
                    "certified": rep.certified,
                    "truncated": rep.truncated,
                    "repaired": rep.repaired,
                    "exact": exact,
                    "ratio": ratio,
                    "gap_ok": gap_ok,
                    "max_ratio": None if rep.gap_report is None else rep.gap_report.max_ratio,
                    "oracle_value": opt_value,
                    "achieved_value": achieved,
                }
            )
    n = len(rows)
    certified = [r for r in rows if r["certified"]]
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    return {
        "n_runs": n,
        "certification_rate": len(certified) / n if n else 0.0,
        "all_certified_exact": all(r["exact"] for r in certified) if certified else True,
        "all_certified_gap_ok": all(r["gap_ok"] for r in certified) if certified else True,
        "n_feasible": len(ratios),
        "mean_ratio": float(np.mean(ratios)) if ratios else None,
        "min_ratio": float(np.min(ratios)) if ratios else None,
        "rows": rows,
    }


def _pack(d: DualPoint) -> np.ndarray:
    return np.concatenate([d.cover_dual, d.choice_dual, d.binary_dual])


def _unpack(vec: np.ndarray, n_res: int, n_agents: int) -> DualPoint:
    return DualPoint(
        cover_dual=vec[:n_res],
        choice_dual=vec[n_res : n_res + n_agents],
        binary_dual=vec[n_res + n_agents :],
    )


def gradient_check(
    instances: Sequence[AssignmentInstance],
    points_per_instance: int = 50,
    h: float = 1e-6,
    seed: int = 99,
) -> dict:
    """Central finite differences of the dual value against the analytic gradient.

    Points are sampled inside the positive cone (coordinates in [0.5, 2.0]).
    The per-point error is max|analytic - fd| / (1 + max|analytic|).
    """
    if not instances:
        raise ValueError("gradient_check needs at least one instance")
    if points_per_instance < 1:
        raise ValueError(f"points_per_instance must be >= 1, got {points_per_instance}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    n_points = 0
    for a in instances:
        dim = a.n_resources + a.n_agents + a.n_options
        for _ in range(points_per_instance):
            vec = rng.uniform(0.5, 2.0, dim)
            d = _unpack(vec, a.n_resources, a.n_agents)
            g_cover, g_choice, g_binary = dual_gradient(a, d)
            analytic = np.concatenate([g_cover, g_choice, g_binary])
            fd = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fp = dual_value(a, _unpack(vec + e, a.n_resources, a.n_agents))
                fm = dual_value(a, _unpack(vec - e, a.n_resources, a.n_agents))
                fd[i] = (fp - fm) / (2.0 * h)
            err = float(np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic))))
            worst = max(worst, err)
            n_points += 1
    return {"max_rel_error": worst, "n_points": n_points}


def complexity_table(
    k_values: Sequence[int] = (2, 3),
    n_values: Sequence[int] = (4, 6, 8, 10),
    seeds: Sequence[int] = (11, 12, 13),
    solver: SolverConfig = SolverConfig(),
) -> list[dict]:
    """Iteration-count table over a (K, N) sweep of random sumax instances.

    Operations are counted from the loop structure: each binarity iteration
    touches every option, each choice iteration every agent, each cover
    iteration every sub-channel.  Wall time is informative only.
    """
    if len(seeds) < 1:
        raise ValueError(f"seeds must hold at least one seed, got {len(seeds)}")
    rows = []
    for n_agents in k_values:
        for n_sub in n_values:
            tot = {"outer": 0.0, "binary": 0.0, "choice": 0.0, "cover": 0.0, "ops": 0.0, "wall_s": 0.0}
            for seed in seeds:
                inst = sumax_assignment_for_seed(n_agents, n_sub, seed)
                t0 = time.perf_counter()
                rep = solve(inst, solver)
                dt = time.perf_counter() - t0
                ib, ic, iv = rep.iterations
                tot["outer"] += rep.outer_iterations
                tot["binary"] += ib
                tot["choice"] += ic
                tot["cover"] += iv
                tot["ops"] += ib * inst.n_options + ic * n_agents + iv * n_sub
                tot["wall_s"] += dt
            m = float(len(seeds))
            rows.append(
                {
                    "n_agents": n_agents,
                    "n_subchannels": n_sub,
                    "n_patterns": inst.patterns.n_patterns,
                    "n_options": inst.n_options,
                    "outer": tot["outer"] / m,
                    "iters_binary": tot["binary"] / m,
                    "iters_choice": tot["choice"] / m,
                    "iters_cover": tot["cover"] / m,
                    "ops": tot["ops"] / m,
                    "ops_per_outer": tot["ops"] / max(tot["outer"], 1.0),
                    "wall_s": tot["wall_s"] / m,
                }
            )
    return rows


def write_complexity_csv(path: str, rows: Sequence[dict]) -> None:
    cols = (
        "n_agents", "n_subchannels", "n_patterns", "n_options", "outer",
        "iters_binary", "iters_choice", "iters_cover", "ops", "ops_per_outer", "wall_s",
    )
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    _write_lines(path, lines)
