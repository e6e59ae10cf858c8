"""Benchmark runner for the subsetcurrents package.

    python3 perfbench/run.py --workload converge --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  It imports the package from `src/` next
to this directory, builds the workload's item pool from the seed in
parts (set-up, each part timed), then runs items in a closed loop in this
one process until their timed regions add up to --seconds.  Every item's
output is checked after its timing.  A fixed reference task, timed between
items, measures the host's speed during the run, and every time the run
reports is scaled to the nominal host (see HostClock).  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 each pool item runs twice, once plain and once recording
spans (the order alternates), in quarters of the pool until --seconds;
the metrics are the per-layer metrics of BENCHMARK.json, per pass over the
pool, and the spans are written to perfbench/out/.  `--workload all` runs
every workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

SETUP_SAMPLES = 10           # reference-task samples before each pool part
ADDRESS_SPACE_CAP = 2 << 30  # bytes; a blow-up fails one item, not the run
TRACE_WALL_LIMIT = 120.0     # seconds; a traced run stops mid-pass after this
LAYERS = ("words", "stallings", "fiber", "cylinders", "realize", "approx")
REFERENCE_MS = 4.0           # the reference task's time on the nominal host
REFERENCE_EVERY = 0.1        # seconds of timed work between reference samples
HEAP_ITEMS = 12              # pool items whose heap peak is taken


def reference_task() -> None:
    """Fixed stdlib-only work of the kinds the package does: Fraction
    arithmetic on growing integers, dict and list building.  The cyclic
    garbage collector is off while it runs, because its cost grows with
    the objects the package keeps alive, which would tie the reference
    to the code under test."""
    gc.disable()
    try:
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(1, i)
        table = {}
        for i in range(10000):
            table[i * 7 % 10007] = i
        rows = [[j for j in range(i % 50)] for i in range(1000)]
        del total, table, rows
    finally:
        gc.enable()


class HostClock:
    """The host's speed during a run, from the reference task timed between
    items.  A shared machine runs the same code up to half again
    slower in some minutes than in others, and the reference task slows
    with it, so `scale` = REFERENCE_MS / (mean reference time) turns this
    run's seconds into seconds on a host that runs the task in
    REFERENCE_MS.  The task is stdlib-only harness code: no change to the
    package moves it."""

    def __init__(self):
        self.total = 0.0
        self.count = 0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_task()
        self.total += time.perf_counter() - start
        self.count += 1

    def reference_ms(self) -> float:
        return self.total / self.count * 1e3

    def scale(self) -> float:
        return REFERENCE_MS / self.reference_ms()


class Tracer:
    """Spans in memory: (name, start, end, parent index, item id)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.parent = None
        self.item = None

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(),
                               self.parent, self.item))

    def run_item(self, workload, item, item_id):
        """Run one item under a root span named `item`."""
        root = len(self.spans)
        self.spans.append(None)
        self.parent, self.item = root, item_id
        start = time.perf_counter()
        try:
            return workload.run(item, self.call)
        finally:
            self.spans[root] = ("item", start, time.perf_counter(), None,
                                item_id)
            self.parent = self.item = None

    def self_ms(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:], in ms.  Spans inside
        an item run one after another, so a span's self time is its length
        minus its children's.  The root's self time is named `harness`."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for (_n, s, e, parent, _i) in spans:
            if parent is not None:
                child[parent - first] += e - s
        out: dict[str, float] = {}
        for k, (name, s, e, _p, _i) in enumerate(spans):
            name = "harness" if name == "item" else name
            out[name] = out.get(name, 0.0) + (e - s - child[k]) * 1e3
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for (name, s, e, parent, item) in self.spans:
                fh.write(json.dumps({"name": name, "start": s, "end": e,
                                     "parent": parent, "item": item}) + "\n")


def direct(_name, fn, *args):
    return fn(*args)


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(ms) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Outcome:
    """Attempts and failures of one run: an item fails when it raises
    (MemoryError under the address-space cap included) or when its output
    check does not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, workload, item, run):
        """Time run(); check the output untimed.  Returns (seconds, output
        or None, check result or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = run()
        except Exception as exc:    # a failing item is counted, not fatal
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"item failed: {type(exc).__name__}: {exc}"[:300],
                  file=sys.stderr)
            return elapsed, None, None
        elapsed = time.perf_counter() - start
        try:
            checked = workload.check(item, out)
        except Exception as exc:    # a check that cannot run is a wrong output
            print(f"check raised {type(exc).__name__}: {exc}"[:300],
                  file=sys.stderr)
            checked = (False, {}, {})
        if not checked[0]:
            self.failed += 1
            print(f"wrong output for item {item.key!r}"[:300],
                  file=sys.stderr)
        return elapsed, out, checked


def measure(workload, pool, seconds: float, host: HostClock
            ) -> tuple[Outcome, dict]:
    outcome = Outcome()
    latencies: list[float] = []
    busy = sampled = 0.0
    i = 0
    while busy < seconds:
        item = pool[i % len(pool)]
        i += 1
        if busy >= sampled:
            host.sample()
            sampled = busy + REFERENCE_EVERY
        elapsed, out, checked = outcome.attempt(
            workload, item, lambda: workload.run(item, direct))
        busy += elapsed
        ok = checked is not None and checked[0]
        # a failed item counts as missing every latency limit
        latencies.append(elapsed * 1e3 if ok else math.inf)
    done = sum(1 for x in latencies if x != math.inf)
    p50, p90 = percentile(latencies, 0.5), percentile(latencies, 0.9)
    scale = host.scale()
    return outcome, {
        "throughput": done / (busy * scale),
        "latency_p50_ms": (p50 if p50 != math.inf else busy * 1e3) * scale,
        "latency_p90_ms": (p90 if p90 != math.inf else busy * 1e3) * scale,
        "item_heap_mib": item_heap_peak(workload, pool, outcome),
    }


def item_heap_peak(workload, pool, outcome: Outcome) -> float:
    """Geometric mean, over HEAP_ITEMS items spread evenly over the pool's
    size range, of the Python heap (tracemalloc) an item holds at its peak
    above the heap it started from, in MiB.  The geometric mean weighs the
    small items' peaks like the large ones', so a few of the largest items
    do not decide it.  Runs after the timed loop, because tracing slows
    the items."""
    ranked = sorted(pool, key=lambda it: (it.size, it.key))
    step = len(ranked) / HEAP_ITEMS
    sample = [ranked[int((k + 1) * step) - 1] for k in range(HEAP_ITEMS)]
    peaks: list[float] = []

    def run(item):
        gc.collect()      # garbage of earlier items would mask the peak
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = workload.run(item, direct)
        peaks.append((tracemalloc.get_traced_memory()[1] - before) / 2**20)
        return out

    tracemalloc.start()
    try:
        for item in sample:
            outcome.attempt(workload, item, lambda: run(item))
    finally:
        tracemalloc.stop()
    return statistics.geometric_mean(peaks) if peaks else math.inf


def measure_traced(workload, pool, seconds: float, tracer: Tracer,
                   host: HostClock) -> tuple[Outcome, dict]:
    outcome = Outcome()
    spent: dict[str, float] = {}      # span name -> self ms
    counts: dict[str, float] = {}
    points: dict[str, list[tuple[float, float]]] = {}
    plain = traced = 0.0
    wall = time.perf_counter()
    items = 0
    # stop at a quarter of the pool: its prefixes of that length sample
    # every size band, so the per-pass figures below stay unbiased
    while (plain + traced < seconds or items % (len(pool) // 4)) and \
            time.perf_counter() - wall < TRACE_WALL_LIMIT:
        item = pool[items % len(pool)]
        host.sample()
        first = len(tracer.spans)
        # alternate which of the two runs goes first, item by item and
        # pass by pass
        order = (False, True) if (items + items // len(pool)) % 2 == 0 \
            else (True, False)
        for traced_now in order:
            if traced_now:
                elapsed, _out, checked = outcome.attempt(
                    workload, item,
                    lambda: tracer.run_item(workload, item, items))
                traced += elapsed
            else:
                elapsed, _out, _checked = outcome.attempt(
                    workload, item, lambda: workload.run(item, direct))
                plain += elapsed
        items += 1
        if checked is None or not checked[0]:
            continue
        by_name = tracer.self_ms(first)
        for name, ms in by_name.items():
            spent[name] = spent.get(name, 0.0) + ms
        _ok, item_counts, sizes = checked
        for name, value in item_counts.items():
            counts[name] = counts.get(name, 0.0) + value
        for name, size in sizes.items():
            points.setdefault(name, []).append((size, by_name.get(name, 0.0)))
    passes = items / len(pool)
    per_pass = host.scale() / passes
    spent = {name: ms * per_pass for name, ms in spent.items()}
    metrics = {f"{name}.ms": ms for name, ms in spent.items()}
    metrics.update((name, v / passes) for name, v in counts.items())
    for layer in LAYERS:
        metrics[f"{layer}.ms"] = sum(
            ms for name, ms in spent.items()
            if name.split(".")[0] == layer)
    balls = metrics.get("cylinders.table.balls", 0.0)
    metrics["cylinders.table.distinct_ratio"] = \
        metrics.get("cylinders.table.support", 0.0) / balls if balls else 0.0
    for name, pts in points.items():
        metrics[f"{name}.slope"] = loglog_slope(pts)
    metrics["trace.overhead_ratio"] = traced / plain if plain else 0.0
    metrics["trace.passes"] = passes
    return outcome, metrics


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def import_package() -> float:
    """Import the package from this checkout's src/; returns seconds."""
    if not (SRC / "subsetcurrents" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import subsetcurrents
    elapsed = time.perf_counter() - start
    if Path(subsetcurrents.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: subsetcurrents imported from "
                         f"{subsetcurrents.__file__}, not from {SRC}")
    return elapsed


def run_one(args, spec: dict) -> int:
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    import_s = import_package()
    import workloads
    workload = workloads.WORKLOADS[args.workload]

    setup_host, parts, part_s = HostClock(), [], []
    for part in range(workloads.PARTS):
        for _ in range(SETUP_SAMPLES):
            setup_host.sample()
        start = time.perf_counter()
        parts.append(workloads.build_part(workload, args.seed, part))
        part_s.append(time.perf_counter() - start)
    pool = workloads.interleave(parts)
    print(f"workload {workload.name} seed {args.seed} items {len(pool)} "
          f"inputs sha256 {workloads.digest(pool)}")

    host = HostClock()
    if args.trace:
        tracer = Tracer()
        outcome, metrics = measure_traced(workload, pool, args.seconds,
                                          tracer, host)
        tracer.write(OUT / f"trace-{workload.name}-{args.seed}.jsonl")
        declared = spec["per_layer"]
    else:
        outcome, metrics = measure(workload, pool, args.seconds, host)
        # the parts are alike, so the median part stands for each of them
        metrics["setup_s"] = (import_s + len(part_s)
                              * statistics.median(part_s)) \
            * setup_host.scale()
        declared = spec["end_to_end"]
    print(f"host: reference task {host.reference_ms():.4g} ms against "
          f"{REFERENCE_MS} ms nominal; times below are scaled by "
          f"{host.scale():.4g}")

    undeclared = set(metrics) - {entry["name"] for entry in declared}
    if undeclared:
        raise SystemExit(f"error: metrics missing from {SPEC.name}: "
                         f"{sorted(undeclared)}")
    result = {}
    for entry in declared:
        # a layer that this workload bypasses has no spans: it reads 0
        value = metrics.get(entry["name"], 0.0)
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:34s} {value:14.6g} {entry['unit']}")
    print(f"  {'fail_ratio':34s} "
          f"{outcome.failed / outcome.attempted:14.6g} failed/attempted "
          f"({outcome.failed}/{outcome.attempted})")
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": result}))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int
              ) -> tuple[dict | None, str]:
    """Run one workload in its own process.  Returns (the result line,
    "") or (None, the exit code and standard error)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}\n{proc.stderr}"
    return json.loads(lines[-1]), ""


def run_all(args, spec: dict) -> int:
    """Each workload in its own process; one table of every metric."""
    status = 0
    for entry in spec["workloads"]:
        res, error = run_child(entry["name"], args.seed, args.seconds,
                               args.trace)
        if res is None:
            print(f"{entry['name']}: {error}")
            status = 1
            continue
        print(f"{entry['name']}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"fail_ratio={res['failed'] / res['attempted']:.6g}")
        for name, m in res["metrics"].items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
