"""Command-line front end: campaign runners and verification sweeps.

Subcommands: ``sumax`` and ``jamsc`` run Monte Carlo campaigns and write data
files; ``certify`` compares the dual solver against the exact subset-DP
oracle on small random instances; ``gradcheck`` validates the analytic dual
gradient with finite differences; ``complexity`` tabulates the solver's
rounds over a (users, sub-channels) grid.  Exit code 0 means every invariant
check passed; a campaign in which no allocator produced an allocation on any
drop fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .canonical import gradient_check
from .channel import ScenarioConfig, config_from_dict
from .dual import SolverConfig
from .harness import (
    CampaignConfig,
    certification_sweep,
    complexity_table,
    run_campaign,
    sumax_assignment_for_seed,
    write_complexity_csv,
)
from .jamsc import FrameConfig
from .sumax import ModulationTable


def load_campaign_config(path: str | None) -> CampaignConfig:
    """Build a CampaignConfig from a JSON file with optional sections.

    Recognised sections: "scenario", "solver", "modulations", "frame", and
    top-level campaign keys (n_drops, base_seed, target_rate_bps, ...).
    """
    if path is None:
        return CampaignConfig()
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    sections = {
        "scenario": ScenarioConfig,
        "solver": SolverConfig,
        "modulations": ModulationTable,
        "frame": FrameConfig,
    }
    for key, cls in sections.items():
        if key in data:
            data[key] = config_from_dict(cls, data[key], key)
    return config_from_dict(CampaignConfig, data, "campaign")


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--drops", type=int, default=None, help="number of channel drops")
    p.add_argument("--seed", type=int, default=None, help="base seed (drop i uses seed+i)")
    p.add_argument("--allocators", default=None, help="comma-separated allocator names")
    p.add_argument("--out", default=None, help="output directory for CSV/JSON files")


def _campaign_from_args(args, problem: str) -> CampaignConfig:
    overrides: dict = {"problem": problem}
    for key, value in (("n_drops", args.drops), ("base_seed", args.seed), ("out_dir", args.out)):
        if value is not None:
            overrides[key] = value
    if args.allocators is not None:
        overrides[f"allocators_{problem}"] = tuple(s.strip() for s in args.allocators.split(",") if s.strip())
    # replace builds a new config, so the overrides are validated like the file
    return replace(load_campaign_config(args.config), **overrides)


def _cmd_campaign(args, problem: str) -> int:
    cfg = _campaign_from_args(args, problem)
    out = run_campaign(cfg)
    per = out.summary["per_allocator"][problem]
    for name, entry in per.items():
        mean = entry["mean_objective"]
        mean_s = "n/a" if mean is None else f"{mean:.6g}"
        extra = ""
        for shares in ("outcome_shares", "termination_shares"):
            if shares in entry:
                extra += "  " + " ".join(f"{k}={v:.1%}" for k, v in entry[shares].items())
        print(f"{problem} {name}: feasible {entry['n_feasible']}/{entry['n_drops']}  "
              f"mean objective {mean_s}{extra}")
    for err in out.summary["drop_errors"]:
        print(f"drop {err['drop']}: {err['error']}")
    if not out.ok:
        for line in out.failures:
            print("FAIL " + line)
        return 1
    if not any(entry["n_feasible"] for entry in per.values()):
        first = next(
            (
                err
                for res in out.results
                for err in (res.error, *(rec.error for rec in res.records.values()))
                if err
            ),
            "none recorded",
        )
        print(f"FAIL no {problem} allocator produced an allocation on any drop; first error: {first}")
        return 1
    print("all invariant checks passed")
    return 0


def _cmd_certify(args) -> int:
    sweep = certification_sweep(per_combo=args.instances, base_seed=args.seed)
    print(f"runs: {sweep['n_runs']}")
    shares = ", ".join(f"{o} {share:.1%}" for o, share in sweep["outcome_shares"].items())
    print(f"outcome shares: {shares}")
    print(f"certified runs exactly optimal: {sweep['all_certified_exact']}")
    print(f"certified runs zero-gap within tolerance: {sweep['all_certified_gap_ok']}")
    if sweep["mean_ratio"] is not None:
        print(f"mean value ratio vs oracle: {sweep['mean_ratio']:.6f}")
        print(f"min value ratio vs oracle: {sweep['min_ratio']:.6f}")
    if sweep["uncertified_gap_max"] is not None:
        print(f"uncertified runs' proven gap: median {sweep['uncertified_gap_median']:.3%}, "
              f"max {sweep['uncertified_gap_max']:.3%}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "certify.json"), "w", encoding="utf-8") as fh:
            json.dump(sweep, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
    ok = sweep["all_certified_exact"] and sweep["all_certified_gap_ok"]
    return 0 if ok else 1


def _cmd_gradcheck(args) -> int:
    instances = [
        sumax_assignment_for_seed(2, 4, args.seed + i) for i in range(args.instances)
    ]
    result = gradient_check(instances, points_per_instance=args.points, seed=args.seed)
    print(f"points checked: {result['n_points']}")
    print(f"max relative gradient error: {result['max_rel_error']:.3e}")
    ok = result["max_rel_error"] <= 1e-6
    print("gradient check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_complexity(args) -> int:
    rows = complexity_table(seeds=tuple(range(args.seed, args.seed + args.repeats)))
    for row in rows:
        print(
            f"K={row['n_agents']} N={row['n_subchannels']} options={row['n_options']} "
            f"outer={row['outer']:.1f} ops={row['ops']:.3g}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_complexity_csv(os.path.join(args.out, "complexity.csv"), rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scfdma-alloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sumax = sub.add_parser("sumax", help="sum-utility maximisation campaign")
    _add_campaign_args(p_sumax)
    p_jamsc = sub.add_parser("jamsc", help="joint AM / sum-cost minimisation campaign")
    _add_campaign_args(p_jamsc)

    p_cert = sub.add_parser("certify", help="small-instance oracle comparison sweep")
    p_cert.add_argument("--instances", type=int, default=30, help="instances per (K, N) combo")
    p_cert.add_argument("--seed", type=int, default=2024)
    p_cert.add_argument("--out", default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p_grad.add_argument("--points", type=int, default=50)
    p_grad.add_argument("--instances", type=int, default=5)
    p_grad.add_argument("--seed", type=int, default=99)

    p_cplx = sub.add_parser("complexity", help="iteration-count sweep over (K, N)")
    p_cplx.add_argument("--seed", type=int, default=11)
    p_cplx.add_argument("--repeats", type=int, default=3)
    p_cplx.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command in ("sumax", "jamsc"):
        return _cmd_campaign(args, args.command)
    if args.command == "certify":
        return _cmd_certify(args)
    if args.command == "gradcheck":
        return _cmd_gradcheck(args)
    return _cmd_complexity(args)


if __name__ == "__main__":
    sys.exit(main())
