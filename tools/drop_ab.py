"""In-process A/B of two commits' ``harness.run_drop``, in total and per layer.

    python3 tools/drop_ab.py --base <rev> --change HEAD --workload jamsc-paper --drops 300

Exports the base commit twice, as the sides ``base`` and ``control``, and
the change commit once, with ``git archive`` (``tools/bench_pairs.py``'s
``export``), and imports each side's package under its own name into this
one process.  Drop i, seed ``seed * 10**6 + i`` as perfbench numbers them,
runs on all three sides, and their order rotates from drop to drop, so the
host's speed drift falls on every side alike.  Back-to-back processes of
the same code can differ by tens of percent on a small shared host, which
hides a layer's change of a few percent; paired drops in one process do not.
The control runs the base's code as a side of its own, so its ratio to the
base measures what being another side costs, apart from any change: a
change/base ratio means something only where it stands clear of the
control/base ratio beside it.  One untimed drop per side fills the caches
first.

Each layer is timed by wrapping the module attribute the drop path looks up,
as perfbench's trace does: channel (``generate_channel``), model
(``build_sumax`` and ``build_jamsc``), to_assignment, solve (including its
repair), oracle (``brute_force``), repair (``dual.repair_selection``),
greedy (``greedy``) and round robin (``round_robin``, its whole
allocation, as in perfbench).
Prints, for ``run_drop`` and each layer, each side's ms per drop and the
change/base and control/base ratios of their totals, and for ``run_drop``
the drops on which the change, and the control, were faster than the base.
Last, for each side, the ascent's landings per drop (the sum of every
solve report's ``outer_iterations``) and the microseconds per landing of
solve less its repair, which tell fewer landings from cheaper ones.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as perfbench runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_STRIDE = 1_000_000  # perfbench's numbering: --seed n draws seeds n * SEED_STRIDE + i
SIDES = ("base", "control", "change")
# layer -> (module of the package, attribute the drop path looks up); each
# allocator's attribute returns its whole Allocation
LAYERS = {
    "channel": (("harness", "generate_channel"),),
    "model": (("harness", "build_sumax"), ("harness", "build_jamsc")),
    "to_assignment": (("harness", "to_assignment"),),
    "solve": (("harness", "solve"),),
    "oracle": (("harness", "brute_force"),),
    "repair": (("dual", "repair_selection"),),
    "greedy": (("harness", "greedy"),),
    "round_robin": (("harness", "round_robin"),),
}


def load_package(src: Path, name: str):
    """Import the ``scfdma_alloc`` package under ``src`` as module ``name``."""
    pkg_dir = src / "scfdma_alloc"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def time_layers(pkg, totals: dict[str, list[float]]) -> None:
    """Wrap each layer's functions in ``pkg`` so every call adds its seconds to
    the last entry of ``totals[layer]``."""
    for layer, attrs in LAYERS.items():
        for module, attr in attrs:
            mod = getattr(pkg, module)
            inner = getattr(mod, attr)

            def timed(*args, _inner=inner, _layer=layer, **kwargs):
                t0 = time.perf_counter()
                try:
                    return _inner(*args, **kwargs)
                finally:
                    totals[_layer][-1] += time.perf_counter() - t0

            setattr(mod, attr, timed)


def count_landings(pkg, landings: list[int]) -> None:
    """Wrap ``pkg``'s solve so that every report adds its ``outer_iterations``
    to the last entry of ``landings``."""
    inner = pkg.harness.solve

    def counted(*args, **kwargs):
        rep = inner(*args, **kwargs)
        landings[-1] += rep.outer_iterations
        return rep

    pkg.harness.solve = counted


def landing_costs(times: dict[str, dict[str, list[float]]], landings: dict[str, list[int]]) -> dict[str, dict]:
    """Per side: the landings per drop, and the microseconds per landing of the
    solve layer less its repair (None for a side that landed nowhere)."""
    out = {}
    for side, counts in landings.items():
        total = sum(counts)
        busy = sum(times[side]["solve"]) - sum(times[side]["repair"])
        out[side] = {"per_drop": total / len(counts), "us": 1e6 * busy / total if total else None}
    return out


def campaign(pkg, workload):
    """The workload's campaign configuration, built from ``pkg``'s own classes."""
    key = "allocators_sumax" if workload.problem == "sumax" else "allocators_jamsc"
    return pkg.harness.CampaignConfig(
        scenario=pkg.channel.ScenarioConfig(
            n_users=workload.n_users, n_subchannels=workload.n_subchannels
        ),
        problem=workload.problem,
        **{key: workload.allocators},
    )


def running_order(i: int) -> tuple[str, ...]:
    """The order in which drop ``i`` runs the sides: ``SIDES`` rotated by i places,
    so every three drops put each side once in each place."""
    k = i % len(SIDES)
    return SIDES[k:] + SIDES[:k]


def summarise(times: dict[str, dict[str, list[float]]]) -> dict[str, dict]:
    """Per layer: each side's ms per drop, and the change/base and control/base
    ratios of the totals.

    ``times[side][layer]`` holds one entry of seconds per drop, the drops in
    the same order on every side; ``run_drop`` also counts the drops on
    which the change, and the control, were strictly faster than the base.
    A layer that the base never entered has ratios None.
    """
    out = {}
    for layer in times["base"]:
        base = sum(times["base"][layer])
        entry = {f"{side}_ms": 1e3 * sum(times[side][layer]) / len(times[side][layer]) for side in SIDES}
        for side, key in (("change", "ratio"), ("control", "control_ratio")):
            entry[key] = sum(times[side][layer]) / base if base > 0 else None
        if layer == "run_drop":
            for side in ("change", "control"):
                entry[f"{side}_faster"] = sum(s < b for b, s in zip(times["base"][layer], times[side][layer]))
        out[layer] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="git revision of the change side")
    ap.add_argument("--workload", required=True, help="a perfbench workload name")
    ap.add_argument("--drops", type=int, default=300)
    ap.add_argument("--seed", type=int, default=101, help="drop i uses seed seed * 10**6 + i")
    args = ap.parse_args(argv)
    if args.drops < 1:
        ap.error("--drops must be at least 1")

    sys.path[:0] = [str(HERE), str(ROOT / "perfbench"), str(ROOT / "src")]
    from bench_pairs import export
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    times = {side: {layer: [] for layer in ("run_drop", *LAYERS)} for side in SIDES}
    landings = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        revs = {"base": args.base, "control": args.base, "change": args.change}
        commits = {side: export(revs[side], Path(tmp) / side) for side in SIDES}
        sides = {}
        for side in SIDES:
            pkg = load_package(Path(tmp) / side / "src", f"drop_ab_{side}")
            cfg = campaign(pkg, workload)
            # one untimed drop fills the caches
            pkg.harness.run_drop(cfg, args.seed * SEED_STRIDE - 1, -1, workload.problem)
            time_layers(pkg, times[side])
            count_landings(pkg, landings[side])
            sides[side] = pkg.harness.run_drop, cfg
        for i in range(args.drops):
            seed = args.seed * SEED_STRIDE + i
            for side in running_order(i):
                run_drop, cfg = sides[side]
                for entries in times[side].values():
                    entries.append(0.0)
                landings[side].append(0)
                t0 = time.perf_counter()
                run_drop(cfg, seed, i, workload.problem)
                times[side]["run_drop"][-1] = time.perf_counter() - t0

    print(f"{args.workload}: {args.drops} drops from seed {args.seed * SEED_STRIDE}, "
          f"base {commits['base'][:12]}, change {commits['change'][:12]}")
    for layer, m in summarise(times).items():
        ratio, control = ("n/a" if r is None else f"{r:.3f}" for r in (m["ratio"], m["control_ratio"]))
        line = (f"{layer:>14}: base {m['base_ms']:8.3f}, control {m['control_ms']:8.3f}, "
                f"change {m['change_ms']:8.3f} ms/drop; change/base {ratio}, control/base {control}")
        if "change_faster" in m:
            line += (f"; faster than base on {m['change_faster']}/{args.drops} drops (change), "
                     f"{m['control_faster']}/{args.drops} (control)")
        print(line)
    costs = landing_costs(times, landings)
    per_drop = ", ".join(f"{side} {costs[side]['per_drop']:.3f}" for side in SIDES)
    us = ", ".join(f"{side} {'n/a' if c['us'] is None else format(c['us'], '.1f')}" for side, c in costs.items())
    print(f"solve landings per drop: {per_drop}; us per landing of solve less repair: {us}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
