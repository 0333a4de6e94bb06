"""Correctness gate, determinism digest and reference-speed arithmetic.

    python3 -m pytest perfbench/tests
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from scfdma_alloc.harness import run_campaign  # noqa: E402

from gate import Quality, _block_problems, check_batch, csv_digest  # noqa: E402
from speed import REF_KERNEL_S, SpeedSampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = replace(WORKLOADS["sumax-paper"], name="sumax-small", n_users=2, n_subchannels=4)


def test_block_problems_accept_exact_covers_only():
    assert _block_problems(SMALL, [(0, 1, 3), (1, 4, 1)]) == []
    assert _block_problems(SMALL, [(0, 0, 0), (1, 1, 4)]) == []  # sumax allows an empty user
    assert _block_problems(SMALL, [(0, 1, 3), (1, 3, 2)])  # sub-channel 3 twice
    assert _block_problems(SMALL, [(0, 1, 2), (1, 3, 1)])  # sub-channel 4 uncovered
    assert _block_problems(SMALL, [(0, 1, 4)])  # user 1 missing
    jamsc = replace(SMALL, problem="jamsc")
    assert _block_problems(jamsc, [(0, 0, 0), (1, 1, 4)])  # jamsc users need a block


def test_campaign_passes_the_gate_and_tampering_fails_it(tmp_path):
    out = run_campaign(SMALL.campaign(7, 3, str(tmp_path)))
    q = Quality()
    assert check_batch(SMALL, out, str(tmp_path), q) == []
    assert (q.drops, q.failed, q.solves) == (3, 0, 3)
    assert q.oracle_ratios and all(0 < r <= 1 for r in q.oracle_ratios)

    users = tmp_path / "sumax_users.csv"
    lines = users.read_text().splitlines()
    cols = lines[1].split(",")
    cols[6] = str(int(cols[6]) + 1)  # lengthen the first user's block
    users.write_text("\n".join([lines[0], ",".join(cols)] + lines[2:]) + "\n")
    problems = check_batch(SMALL, out, str(tmp_path), Quality())
    assert problems and f"seed {cols[2]}" in problems[0]


def test_csv_digest_is_stable_and_sees_every_byte(tmp_path):
    cfg = SMALL.campaign(11, 2, str(tmp_path / "a"))
    run_campaign(cfg)
    run_campaign(replace(cfg, out_dir=str(tmp_path / "b")))
    first = csv_digest(str(tmp_path / "a"))
    assert first == csv_digest(str(tmp_path / "b"))
    path = tmp_path / "b" / "sumax_drops.csv"
    path.write_bytes(path.read_bytes() + b" ")
    assert csv_digest(str(tmp_path / "b")) != first


def test_reference_time_removes_kernel_runs_and_rescales():
    s = SpeedSampler()
    s.starts = [0.05, 0.40, 0.95]
    s.durations = [0.01, 0.02, 0.03]
    assert s.program_time(0.0, 1.0) == pytest.approx(1.0 - 0.06)
    assert s.program_time(0.3, 0.5) == pytest.approx(0.2 - 0.02)
    # the kernel ran at twice its nominal time around [0.3, 0.5]: half the time at reference speed
    s.durations = [2 * REF_KERNEL_S] * 3
    assert s.reference_time(0.3, 0.5) == pytest.approx((0.2 - 2 * REF_KERNEL_S) / 2)
    with pytest.raises(RuntimeError):
        s.reference_time(5.0, 6.0)
