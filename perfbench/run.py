"""Campaign benchmark: drops/s, per-drop latency and solver quality.

    python3 perfbench/run.py --workload sumax-paper --seed 1 --seconds 30 --trace 0

Runs one workload of ``workloads.py`` through ``harness.run_campaign`` in a
closed loop for ``--seconds``, checks every batch with the correctness gate,
and prints each metric by name with its unit.  The last line of standard
output is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  A full record (environment, digest, every
metric) goes to ``.perfbench_out/`` at the repository root.  Exit code 0
means the gate passed.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so a single-process figure does not
# depend on what else runs on the machine's other cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SEED_STRIDE = 1_000_000  # --seed n draws drops from seeds n*SEED_STRIDE onwards
SETUP_REPEATS = 3  # per call; a run measures set-up twice

# Import plus the pattern catalogue, timed inside a fresh interpreter, then
# the speed kernel, so that the set-up time can be scaled to reference speed.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scfdma_alloc
from scfdma_alloc.patterns import enumerate_patterns
enumerate_patterns(int(sys.argv[2]))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from speed import kernel
runs = []
for _ in range(10):
    t0 = time.perf_counter()
    kernel()
    runs.append(time.perf_counter() - t0)
print(repr(setup), repr(sorted(runs)[5]))
"""


def measure_setup(n_subchannels: int) -> list[tuple[float, float]]:
    """(set-up seconds, median kernel seconds) from fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        r = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(n_subchannels), str(HERE)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        setup, kernel = (float(x) for x in r.stdout.split()[-2:])
        out.append((setup, kernel))
    return out


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(base_seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "base_seed": base_seed,
    }


@contextlib.contextmanager
def timed_attr(module, attr: str, intervals: list[tuple[float, float]]):
    """Replace ``module.attr`` with a plain timer that appends (start, end)."""
    fn = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        intervals.append((t0, time.perf_counter()))
        return result

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Run:
    """One benchmark invocation: batches of drops until the time budget is spent."""

    def __init__(self, w, base_seed: int, seconds: float, work: Path) -> None:
        from gate import Quality

        self.w, self.base_seed, self.seconds, self.work = w, base_seed, seconds, work
        self.quality = Quality()
        self.problems: list[str] = []
        self.digest: str | None = None
        self.walls: list[float] = []  # untraced batch program times, seconds

    def campaign(self, first_seed: int, out_dir: Path) -> tuple[float, float]:
        """One timed run_campaign call, gated; returns its (start, end)."""
        from gate import check_batch
        from scfdma_alloc import harness

        cfg = self.w.campaign(first_seed, self.w.batch_drops, str(out_dir))
        t0 = time.perf_counter()
        out = harness.run_campaign(cfg)
        t1 = time.perf_counter()
        self.problems += check_batch(self.w, out, str(out_dir), self.quality)
        return t0, t1

    def batches(self):
        """First seed of each batch, until the budget is spent or the gate fails."""
        start = time.perf_counter()
        first = self.base_seed
        while True:
            yield first
            first += self.w.batch_drops
            if self.problems or time.perf_counter() - start >= self.seconds:
                return

    def check_repeat(self, digest: str, what: str) -> None:
        if digest != self.digest:
            self.problems.append(
                f"{self.w.name}: {what} digest {digest} != first {self.digest} "
                f"(seeds {self.base_seed}..{self.base_seed + self.w.batch_drops - 1})"
            )


def run_untraced(run: Run) -> dict:
    """Closed loop of untraced batches under the speed sampler."""
    from gate import csv_digest
    from scfdma_alloc import harness
    from speed import SpeedSampler

    w = run.w
    drops: list[tuple[float, float]] = []
    batches: list[tuple[float, float]] = []
    out_dir = run.work / "campaign"
    with SpeedSampler() as speed, timed_attr(harness, "run_drop", drops):
        for first in run.batches():
            batches.append(run.campaign(first, out_dir))
            if run.digest is None:
                run.digest = csv_digest(str(out_dir))
    # determinism: the first batch again, same (config, seed), fresh directory
    run.campaign(run.base_seed, run.work / "repeat")
    run.check_repeat(csv_digest(str(run.work / "repeat")), "repeat")

    run.walls = [speed.program_time(*b) for b in batches]
    ref = [speed.reference_time(*b) for b in batches]
    drop_ms = [speed.program_time(*d) * 1e3 for d in drops]
    drop_ref_ms = [speed.reference_time(*d) * 1e3 for d in drops]
    n = len(batches) * w.batch_drops
    tail = p90(drop_ref_ms)
    q = run.quality
    return {
        "drops_per_ref_s": (n / sum(ref), "drops/ref_s"),
        "drop_ref_ms_p50": (statistics.median(drop_ref_ms), "ref_ms"),
        "drop_ref_ms_p90": (tail, "ref_ms"),
        "drops_per_s": (n / sum(run.walls), "drops/s"),
        "drop_ms_p50": (statistics.median(drop_ms), "ms"),
        "drop_ms_p90": (p90(drop_ms), "ms"),
        "speed_factor": (sum(run.walls) / sum(ref), "ratio"),
        "uncertified_share": (1.0 - q.certified / q.solves, "fraction"),
        "certified_share": (q.certified / q.solves, "fraction"),
        "oracle_ratio_mean": (statistics.fmean(q.oracle_ratios), "ratio") if q.oracle_ratios else None,
        "greedy_ratio_mean": (statistics.fmean(q.greedy_ratios), "ratio") if q.greedy_ratios else None,
        "failed_share": (q.failed / q.drops, "fraction"),
        "drop_samples": (len(drop_ms), "count"),
        "p90_tail_samples": (sum(1 for t in drop_ref_ms if t > tail), "count"),
    }


def run_traced(run: Run) -> tuple[dict, list]:
    """Untraced and traced campaigns on the same batches, in alternating order."""
    import layers
    from gate import csv_digest
    from spans import Tracer, nesting_problems, self_times

    w = run.w
    tracer = Tracer()
    probes = layers.probes()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    written = 0
    for n, first in enumerate(run.batches()):
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            out_dir = run.work / ("traced" if traced else "plain")
            with tracer.patch(probes) if traced else contextlib.nullcontext():
                t0, t1 = run.campaign(first, out_dir)
            (traced_walls if traced else plain_walls).append(t1 - t0)
        plain, traced_digest = (csv_digest(str(run.work / d)) for d in ("plain", "traced"))
        if run.digest is None:
            run.digest = plain
        if traced_digest != plain:
            run.problems.append(f"{w.name}: traced and untraced outputs differ from seed {first}")
        written += dir_bytes(str(run.work / "traced"))

    spans = tracer.spans
    run.problems += nesting_problems(spans) + layers.count_problems(w, spans)
    m = layers.layer_metrics(spans, written)
    overhead = sum(traced_walls) / sum(plain_walls) - 1.0
    unaccounted = (sum(traced_walls) - sum(self_times(spans))) / sum(traced_walls)
    if abs(unaccounted) > max(overhead, 0.01):
        run.problems.append(
            f"{w.name}: self times miss {unaccounted:.2%} of the traced wall time "
            f"(tracing overhead {overhead:.2%})"
        )
    m["trace.overhead_share"] = (overhead, "fraction")
    m["trace.unaccounted_share"] = (unaccounted, "fraction")
    m["trace.drops"] = (len(traced_walls) * w.batch_drops, "count")
    m["trace.plain_drops_per_s"] = (len(plain_walls) * w.batch_drops / sum(plain_walls), "drops/s")
    m["trace.traced_drops_per_s"] = (len(traced_walls) * w.batch_drops / sum(traced_walls), "drops/s")
    return m, spans


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import scfdma_alloc
    except ImportError as exc:
        print(f"cannot import scfdma_alloc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(scfdma_alloc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"scfdma_alloc comes from {scfdma_alloc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from scfdma_alloc import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    base_seed = args.seed * SEED_STRIDE
    spec = contract()
    why = next((x["why"] for x in spec["workloads"] if x["name"] == w.name), "not in BENCHMARK.json")

    env = environment(base_seed)
    print(f"workload {w.name}: {why}")
    print("environment " + json.dumps(env, sort_keys=True))

    setup = measure_setup(w.n_subchannels)  # half now, half after the timed loop
    harness.run_drop(w.campaign(base_seed, 1, ""), base_seed)  # warm lazy imports, untimed

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(w, base_seed, args.seconds, work)
    spans: list = []
    try:
        if args.trace:
            metrics, spans = run_traced(run)
        else:
            metrics = run_untraced(run)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        setup += measure_setup(w.n_subchannels)
        if not args.trace:
            from speed import REF_KERNEL_S

            metrics["setup_s"] = (statistics.median(t * REF_KERNEL_S / k for t, k in setup), "s")
            metrics["setup_wall_s"] = (statistics.median(t for t, _ in setup), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"digest sha256:{run.digest} over the CSVs of seeds "
          f"{base_seed}..{base_seed + w.batch_drops - 1}")
    q = run.quality
    print(f"drops attempted {q.drops}, failed {q.failed}")
    for name, entry in metrics.items():
        if entry is not None:
            print(f"{name} {entry[0]!r} {entry[1]}")
    for p in run.problems[:20]:
        print("GATE FAIL " + p)
    correct = not run.problems

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "digest": run.digest, "correct": correct, "problems": run.problems,
        "attempted": q.drops, "failed": q.failed, "setup_samples_s": setup, "batch_walls_s": run.walls,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if v is not None},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s.to_dict()) + "\n")

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": correct,
        "attempted": q.drops,
        "failed": q.failed,
        "metrics": {
            n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted if metrics.get(n)
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
