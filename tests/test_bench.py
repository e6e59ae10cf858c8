"""The benchmark harness runs on the package and accepts its outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def test_intersect_benchmark_pass_is_correct():
    # A short untraced run of the intersect workload checks every item's
    # output in the harness itself: the census agrees with the product,
    # N(H, K) is within the SHNC bound, and every generator of H cap K
    # lies in H and in K.  An untraced run writes no file, and no
    # bytecode is written beside the harness.
    before = sorted(BENCH.rglob("*"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "intersect",
         "--seed", "1", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] > 0
    assert sorted(BENCH.rglob("*")) == before
