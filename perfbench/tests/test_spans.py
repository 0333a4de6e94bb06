"""Self-time arithmetic, nesting checks and attribute patching of the span recorder.

    python3 -m pytest perfbench/tests
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import Probe, Span, Tracer, covered_length, nesting_problems, self_times  # noqa: E402


def span(name, start, end, parent=-1, drop=None):
    return Span(name, start, end, parent, drop)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered_length([(4.0, 6.0), (1.0, 2.0), (5.0, 5.5)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("campaign", 0.0, 10.0),
        span("drop", 1.0, 9.0, parent=0),
        span("solve", 2.0, 7.0, parent=1),
        span("repair", 3.0, 4.0, parent=2),
        span("oracle", 7.5, 8.5, parent=1),
    ]
    assert self_times(spans) == [2.0, 2.0, 4.0, 1.0, 1.0]


def test_self_times_sum_to_root_duration():
    spans = [span("campaign", 0.0, 8.0)]
    t = 0.5
    for d in range(3):
        spans.append(span("drop", t, t + 2.0, parent=0, drop=d))
        spans.append(span("solve", t + 0.25, t + 1.5, parent=len(spans) - 1, drop=d))
        t += 2.5
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration, abs=1e-12)


def test_nesting_problems_flags_escapes_and_foreign_drops():
    ok = [span("drop", 0.0, 5.0, drop=1), span("solve", 1.0, 2.0, parent=0, drop=1)]
    assert nesting_problems(ok) == []
    bad = [
        span("drop", 0.0, 5.0, drop=1),
        span("solve", 4.0, 6.0, parent=0, drop=1),
        span("oracle", 1.0, 2.0, parent=0, drop=2),
    ]
    found = nesting_problems(bad)
    assert len(found) == 2
    assert "not inside its parent" in found[0]
    assert "has drop 2" in found[1]


def test_patch_records_nested_spans_and_restores_attributes():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda seed: mod.inner(seed) * 2
    mod.fails = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
    original = (mod.inner, mod.outer, mod.fails)
    tracer = Tracer()
    probes = [
        Probe(mod, "outer", "outer", drop_of=lambda a, k: a[0]),
        Probe(mod, "inner", "inner", observe=lambda r, a, k: {"result": r}),
        Probe(mod, "fails", "fails"),
    ]
    with tracer.patch(probes):
        assert mod.outer(3) == 8
        with pytest.raises(RuntimeError):
            mod.fails()
    assert (mod.inner, mod.outer, mod.fails) == original
    outer, inner, fails = tracer.spans
    assert (outer.parent, inner.parent, fails.parent) == (-1, 0, -1)
    assert (outer.drop, inner.drop, fails.drop) == (3, 3, None)
    assert inner.info == {"result": 4}
    assert fails.error == "RuntimeError"
    assert nesting_problems(tracer.spans) == []
