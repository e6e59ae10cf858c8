"""Run-to-run spread of the end-to-end metrics, and drift between sets.

    python3 perfbench/steady.py --workloads converge,repair --seeds 1-10

Runs `run.py` once per (set, workload, seed), one process at a time, with
the run length of BENCHMARK.json; each set runs every workload on every
seed.  For each end-to-end metric and set it prints the median over the
seeds and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  A spread is `ok`
below its limit and `WIDE` above it.  The limit is a third of the metric's
bound, so that a change worse by the bound stands out from the
seed-to-seed spread; for setup_s it is the whole bound, because set-up
cost differs from seed to seed by design (each seed draws other inputs)
and setup_s is compared by its median only.  With two or more sets it also
prints how much worse each later set's median is than the first's, as a
share of the first, and marks it `DRIFT` above the bound.  The exit code
is 1 when a run fails, an output is wrong, or any mark is WIDE or DRIFT.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import load_spec, run_child


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    status = 0
    # values[workload][metric][set] -> one value per seed
    values: dict = {w: {} for w in workloads}
    for set_no in range(args.sets):
        for workload in workloads:
            for seed in args.seeds:
                res, error = run_child(workload, seed, args.seconds, 0)
                if res is None:
                    print(f"{workload} seed {seed}: {error}")
                    return 1
                if not res["correct"] or res["failed"]:
                    print(f"{workload} seed {seed}: correct={res['correct']} "
                          f"failed={res['failed']}/{res['attempted']}")
                    status = 1
                for name, m in res["metrics"].items():
                    values[workload].setdefault(name, [[] for _ in
                                                       range(args.sets)])
                    values[workload][name][set_no].append(m["value"])
    for workload in workloads:
        print(f"{workload} ({len(args.seeds)} seeds, {args.sets} set(s))")
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            medians = []
            for set_no, vals in enumerate(values[workload][name]):
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                held = spread < (bound if name == "setup_s" else bound / 3)
                status |= not held
                medians.append(med)
                print(f"  {name:16s} set {set_no + 1} median {med:12.6g} "
                      f"{entry['unit']:8s} spread {spread:7.4f} "
                      f"bound {bound:.2f} {'ok' if held else 'WIDE'}  "
                      + " ".join(f"{v:.4g}" for v in vals))
            for set_no, med in enumerate(medians[1:], 2):
                worse = (med - medians[0]) / medians[0]
                if entry["better"] == "higher":
                    worse = -worse
                held = worse <= bound
                status |= not held
                print(f"  {name:16s} set {set_no} vs set 1: worse by "
                      f"{worse:+.4f} of set 1, bound {bound:.2f} "
                      f"{'ok' if held else 'DRIFT'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
