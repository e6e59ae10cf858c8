"""The benchmark harness runs on the package and accepts its outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


@pytest.mark.parametrize("workload",
                         ["converge", "roundtrip", "intersect", "repair"])
def test_benchmark_pass_is_correct(workload):
    # A short untraced run checks every item's output in the harness
    # itself: the converge distance (2r - 1)/n; the roundtrip table's
    # matching rows and its verified realization; the intersect census,
    # the SHNC bound and the generators of H cap K lying in H and in K;
    # and the repaired table admissible, within the tolerance and equal
    # to theta / M.  An untraced run writes no file, and no bytecode is
    # written beside the harness.
    before = sorted(BENCH.rglob("*"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] > 0
    assert sorted(BENCH.rglob("*")) == before
