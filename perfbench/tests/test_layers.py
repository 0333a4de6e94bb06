"""Per-layer arithmetic on hand-made spans, and the traced run's probes on a real campaign.

    python3 -m pytest perfbench/tests
"""

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from scfdma_alloc import harness  # noqa: E402

import layers  # noqa: E402
from spans import Span, Tracer, nesting_problems  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def report(truncated, outer, violations=()):
    return SimpleNamespace(truncated=truncated, outer_iterations=outer, violations=list(violations))


def test_solve_exit_reads_the_report():
    assert layers.solve_exit(report(False, 40), 1000) == "converged"
    assert layers.solve_exit(report(True, 90), 1000) == "stagnation"
    assert layers.solve_exit(report(True, 1000), 1000) == "budget"
    assert layers.solve_exit(report(True, 7, [layers.DIVERGED]), 1000) == "diverged"


def test_layer_metrics_split_solve_from_repair_and_gap():
    info = {"outer": 50, "iters": [100, 80, 50], "exit": "stagnation"}
    spans = [
        Span("harness.run_campaign", 0.0, 10.0, -1, None),
        Span("harness.run_drop", 1.0, 9.0, 0, 1),
        Span("assignment.to_assignment", 1.5, 1.75, 1, 1, info={"options": 148}),
        Span("dual.solve", 2.0, 8.0, 1, 1, info=info),
        Span("dual.repair_selection", 3.0, 5.0, 3, 1),
        Span("dual.diagnose_gap", 6.0, 6.5, 3, 1),
    ]
    m = layers.layer_metrics(spans, bytes_written=300)
    assert m["dual.solve_self_s"][0] == pytest.approx(3.5)
    assert m["dual.repair_s"][0] == 2.0 and m["dual.repair_calls"][0] == 1.0
    assert m["dual.us_per_outer"][0] == pytest.approx(3.5 / 50 * 1e6)
    assert m["dual.exit_stagnation_share"][0] == 1.0
    assert m["assignment.options_mean"][0] == 148
    assert m["harness.drop_self_s"][0] == pytest.approx(1.75)
    assert m["harness.campaign_self_s"][0] == pytest.approx(2.0)
    assert m["harness.bytes_written"][0] == 300


def test_traced_campaign_spans_match_the_allocator_list(tmp_path):
    w = replace(WORKLOADS["sumax-paper"], n_users=2, n_subchannels=4)
    tracer = Tracer()
    with tracer.patch(layers.probes()):
        harness.run_campaign(w.campaign(3, 4, str(tmp_path)))
    assert nesting_problems(tracer.spans) == []
    assert layers.count_problems(w, tracer.spans) == []
    m = layers.layer_metrics(tracer.spans, bytes_written=0)
    assert m["assignment.options_mean"][0] == 2 * 11  # per user: 10 blocks of N=4 and the empty one
    assert layers.count_problems(replace(w, allocators=("dual", "greedy")), tracer.spans)
