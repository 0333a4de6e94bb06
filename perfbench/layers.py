"""Which package functions the traced run times, and the per-layer metrics.

Each probe replaces a module attribute that the campaign path looks up at
call time: ``harness`` imports the layer functions into its own namespace, and
``dual.solve`` calls ``repair_selection`` and ``diagnose_gap`` through
``dual``'s.  Per-drop metrics divide by the number of traced drops.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from statistics import fmean

from scfdma_alloc import dual, harness
from scfdma_alloc.dual import SolverConfig

from spans import Probe, Span, self_times
from workloads import Workload

DIVERGED = "dual iterates diverged to non-finite values"
EXITS = ("converged", "stagnation", "budget", "diverged")


def solve_exit(rep, max_outer: int) -> str:
    """How a solve stopped, inferred from its SolveReport."""
    if DIVERGED in rep.violations:
        return "diverged"
    if not rep.truncated:
        return "converged"
    return "budget" if rep.outer_iterations >= max_outer else "stagnation"


def _solve_info(rep, args, kwargs) -> dict:
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", SolverConfig())
    return {
        "outer": rep.outer_iterations,
        "iters": list(rep.iterations),
        "exit": solve_exit(rep, cfg.max_outer),
    }


def probes() -> list[Probe]:
    return [
        Probe(harness, "run_campaign", "harness.run_campaign"),
        Probe(harness, "run_drop", "harness.run_drop", drop_of=lambda a, k: k.get("seed", a[1])),
        Probe(harness, "generate_channel", "channel.generate_channel"),
        Probe(harness, "build_sumax", "sumax.build_sumax"),
        Probe(harness, "build_jamsc", "jamsc.build_jamsc"),
        Probe(harness, "to_assignment", "assignment.to_assignment",
              observe=lambda r, a, k: {"options": r.n_options}),
        Probe(harness, "solve", "dual.solve", observe=_solve_info),
        Probe(dual, "repair_selection", "dual.repair_selection"),
        Probe(dual, "diagnose_gap", "dual.diagnose_gap"),
        Probe(harness, "brute_force", "baselines.brute_force"),
        Probe(harness, "greedy", "baselines.greedy"),
        Probe(harness, "round_robin", "baselines.round_robin"),
    ]


def expected_calls(w: Workload) -> dict[str, int]:
    """Spans each successful drop must open directly under its run_drop span."""
    return {
        "channel.generate_channel": 1,
        "dual.solve": sum(a.startswith("dual") for a in w.allocators),
        "baselines.brute_force": sum(a.startswith("oracle") for a in w.allocators),
        "baselines.greedy": w.allocators.count("greedy"),
        "baselines.round_robin": w.allocators.count("round_robin"),
    }


def count_problems(w: Workload, spans: list[Span]) -> list[str]:
    """Drops whose span counts do not match the workload's allocator list."""
    want = expected_calls(w)
    children: dict[int, Counter] = defaultdict(Counter)
    failed = set()
    for s in spans:
        if s.error:
            failed.add(s.drop)
        if s.parent >= 0 and spans[s.parent].name == "harness.run_drop":
            children[s.parent][s.name] += 1
    out = []
    for i, s in enumerate(spans):
        if s.name != "harness.run_drop" or s.drop in failed:
            continue
        got = {name: children[i][name] for name in want}
        if got != want:
            out.append(f"drop seed {s.drop}: spans {got}, expected {want}")
    return out


def layer_metrics(spans: list[Span], bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, keyed by name, each (value, unit)."""
    selfs = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s, t in zip(spans, selfs):
        busy[s.name] += s.duration
        own[s.name] += t
        calls[s.name] += 1
    drops = calls["harness.run_drop"]
    solves = [s.info for s in spans if s.name == "dual.solve" and s.info]
    outer = sum(i["outer"] for i in solves)
    exits = Counter(i["exit"] for i in solves)
    refusals = sum(1 for s in spans if s.name == "baselines.brute_force" and s.error == "OracleCeilingError")

    def per_drop(x: float) -> float:
        return x / drops

    m = {
        "channel.busy_s": (per_drop(busy["channel.generate_channel"]), "s/drop"),
        "model.busy_s": (per_drop(busy["sumax.build_sumax"] + busy["jamsc.build_jamsc"]), "s/drop"),
        "sumax.busy_s": (per_drop(busy["sumax.build_sumax"]), "s/drop"),
        "jamsc.busy_s": (per_drop(busy["jamsc.build_jamsc"]), "s/drop"),
        "assignment.busy_s": (per_drop(busy["assignment.to_assignment"]), "s/drop"),
        "assignment.options_mean": (
            fmean(s.info["options"] for s in spans if s.name == "assignment.to_assignment" and s.info),
            "count",
        ),
        "dual.solve_self_s": (per_drop(own["dual.solve"]), "s/drop"),
        "dual.repair_s": (per_drop(busy["dual.repair_selection"]), "s/drop"),
        "dual.repair_calls": (per_drop(calls["dual.repair_selection"]), "calls/drop"),
        "dual.gap_s": (per_drop(busy["dual.diagnose_gap"]), "s/drop"),
        "dual.outer_mean": (outer / len(solves), "count"),
        "dual.iters_binary_mean": (fmean(i["iters"][0] for i in solves), "count"),
        "dual.iters_choice_mean": (fmean(i["iters"][1] for i in solves), "count"),
        "dual.iters_cover_mean": (fmean(i["iters"][2] for i in solves), "count"),
        "dual.us_per_outer": (own["dual.solve"] / outer * 1e6, "us"),
    }
    for e in EXITS:
        m[f"dual.exit_{e}_share"] = (exits[e] / len(solves), "fraction")
    m.update({
        "baselines.oracle_s": (per_drop(busy["baselines.brute_force"]), "s/drop"),
        "baselines.oracle_refusals": (per_drop(refusals), "count/drop"),
        "baselines.greedy_s": (per_drop(busy["baselines.greedy"]), "s/drop"),
        "baselines.round_robin_s": (per_drop(busy["baselines.round_robin"]), "s/drop"),
        "harness.drop_self_s": (per_drop(own["harness.run_drop"]), "s/drop"),
        "harness.campaign_self_s": (per_drop(own["harness.run_campaign"]), "s/drop"),
        "harness.bytes_written": (per_drop(bytes_written), "B/drop"),
    })
    return m
