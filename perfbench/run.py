"""Benchmark runner for ramstruct.

    python3 perfbench/run.py --workload deep_search --seed 1 --seconds 30 --trace 0

Runs one workload in this process as a closed loop: one client, one
operation in flight, single-threaded. The loop runs whole rounds (every
operation of the workload's pool once, in a seeded order): at least two,
then up to the round boundary nearest to `--seconds`.

The host this runs on is shared, and its speed drifts by 20% or more within
a minute. So a fixed pure-Python reference kernel runs between every two
operations, and each operation's latency is scaled by the kernel's median
time around it: latencies read as milliseconds on a host where the kernel
takes REFERENCE_MS. The unscaled figures are printed too.

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
alternates plain rounds with traced rounds, in which spans around
ramstruct's public functions give the per-layer metrics, and reports the
extra time of the traced rounds as `trace.overhead_ratio`.

Every operation's output is compared with the results pinned in pins.json;
a mismatch, an exception or an undecided search counts as a failed
operation. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SETUP_START = perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# operation outputs and the span file; never part of the benchmark itself
WORK_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 15
# a latency is scaled by the median time of the kernel runs just before and
# after its operation, and of this many more on each side
REFERENCE_WINDOW = 4
REFERENCE_MS = 2.0
# Every operation runs in at least this many rounds: on a shared host the
# same operation varies by 20% or more from one second to the next.
MIN_ROUNDS = 2
TAIL_SAMPLES = 10

DETERMINISTIC = ("oracle.nodes", "oracle.t1_candidates", "oracle.partner_searches")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one set-up in a fresh interpreter; prints its duration and exits
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reference_kernel() -> int:
    """Fixed pure-Python work, about REFERENCE_MS long: integer arithmetic
    and dict updates, like ramstruct's own inner loops. It allocates nothing
    the garbage collector tracks, so no collection runs inside it."""
    table: dict = {}
    x = 1
    for i in range(6000):
        x = (x * 1103515245 + 12345) & 0xFFFF
        key = (x & 63) << 6 | x >> 10
        table[key] = table.get(key, 0) + i
    return len(table)


def reference_s() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def import_program():
    """Import ramstruct from this checkout's sources, or exit non-zero."""
    if not (SRC / "ramstruct" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ramstruct sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ramstruct

    if SRC not in Path(ramstruct.__file__).resolve().parents:
        sys.exit(f"perfbench: ramstruct was imported from {ramstruct.__file__}, not {SRC}")


def set_up(args):
    """Imports and inputs: everything a run needs before its first operation."""
    import_program()
    from workloads import Workload

    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    return Workload(args.workload, args.seed, pins, WORK_DIR / f"run-{os.getpid()}")


def setup_probe() -> None:
    """In a fresh interpreter that has just set up: print the set-up time and
    the median reference time that follows it."""
    setup = perf_counter() - SETUP_START
    print(setup, statistics.median(reference_s() for _ in range(5)))


def setup_seconds(args) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, scaled to the reference
    speed of each, and unscaled."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, ref = map(float, probe.stdout.split()[-2:])
        scaled.append(setup * REFERENCE_MS / 1000 / ref)
        raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


class Loop:
    """Closed-loop client: runs rounds, times operations, checks outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.raw: list[float] = []
        self.references: list[float] = []

    def run_round(self, tracer=None) -> list[float]:
        """Run every operation of one round; returns their latencies scaled
        to the reference speed, and keeps the unscaled ones in `raw`."""
        latencies, refs = [], [reference_s()]
        for op in self.workload.round():
            if tracer is not None:
                tracer.begin_op(self.attempted)
            self.attempted += 1
            start = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation; the loop goes on
                result = exc
            latency = perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            self.check(op, result)
            # freeing the result, and the group it holds, is part of the
            # operation; left to the next one, it would be timed there
            start = perf_counter()
            del result
            latencies.append(latency + perf_counter() - start)
            refs.append(reference_s())
        self.raw += latencies
        self.references += refs
        w = REFERENCE_WINDOW
        return [
            latency * REFERENCE_MS / 1000 / statistics.median(refs[max(0, i - w): i + w + 2])
            for i, latency in enumerate(latencies)
        ]

    def check(self, op, result) -> None:
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            try:
                ok = self.workload.agrees(op, result)
                reason = None if ok else "output differs from the pinned result"
            except Exception as exc:
                reason = f"output could not be checked: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {op.key}: {reason}", file=sys.stderr)


def more_rounds(done: int, started: float, seconds: float, minimum: int) -> bool:
    """Whether to run another round: up to `minimum` rounds, then while the
    round boundary nearest to `seconds` is still ahead."""
    elapsed = perf_counter() - started
    return done < minimum or elapsed + elapsed / done / 2 < seconds


def tail_percentile(samples: int) -> int:
    """The highest of these percentiles with ten samples beyond it."""
    return next(p for p in (99, 95, 90, 75, 50) if samples * (100 - p) >= TAIL_SAMPLES * 100)


def end_to_end(args, loop: Loop) -> tuple[dict, dict]:
    """The end-to-end metrics, and how they were taken. The tail percentile
    follows from the fewest samples a run takes, so it is the same in every
    run of a workload."""
    setup_s, raw_setup_s = setup_seconds(args)
    latencies: list[float] = []
    started = perf_counter()
    rounds = 0
    while more_rounds(rounds, started, args.seconds, MIN_ROUNDS):
        latencies += loop.run_round()
        rounds += 1
    pct = tail_percentile(MIN_ROUNDS * len(latencies) // rounds)
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "rounds": rounds,
        "samples": len(latencies),
        "op_tail": f"p{pct}",
        "reference_ms": round(statistics.median(loop.references) * 1000, 4),
        "unscaled_setup_s": round(raw_setup_s, 4),
        "unscaled_ops_per_s": round(len(loop.raw) / sum(loop.raw), 4),
        "unscaled_op_p50_ms": round(statistics.median(loop.raw) * 1000, 4),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(args, loop: Loop) -> tuple[dict, dict]:
    """Alternate plain and traced rounds; per-layer numbers from the traced
    ones. Span and node counts must repeat exactly in every traced round."""
    from spans import LAYERS, Tracer

    workload = loop.workload
    tracer = Tracer()
    plain, traced, totals, cache = [], [], [], []
    started = perf_counter()
    while more_rounds(len(traced), started, args.seconds, 1):
        plain.append(sum(loop.run_round()))
        workload.cache_reads.clear()
        start = tracer.begin_round()
        tracer.install()
        try:
            traced.append(sum(loop.run_round(tracer)))
        finally:
            tracer.uninstall()
        totals.append(tracer.round_totals(start))
        cache.append(dict(workload.cache_reads))
    tracer.write(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json")

    first = totals[0]
    repeatable = all(
        t["calls"] == first["calls"] and all(t["counters"][k] == first["counters"][k] for k in DETERMINISTIC)
        for t in totals
    ) and all(c == cache[0] for c in cache)
    if not repeatable:
        loop.failed += 1
        print("perfbench: span or node counts differ between traced rounds", file=sys.stderr)

    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(t["self_s"][layer] for t in totals), "s")
        metrics[f"{layer}.calls"] = (first["calls"][layer], "count")
    counters = first["counters"]
    for name in (*DETERMINISTIC, "oracle.undecided"):
        metrics[name] = (counters[name], "count")
    metrics["oracle.nodes_per_s"] = (_ratio(counters["oracle.nodes"], metrics["oracle.self_s"][0]), "1/s")
    metrics["structures.reject_ratio"] = (
        _ratio(counters["structures.rejects"], counters["structures.checks"]), "ratio")
    metrics["constructors.ok_ratio"] = (
        _ratio(counters["constructors.ok"], counters["constructors.results"]), "ratio")
    metrics["constructors.search_fallback_ratio"] = (
        _ratio(counters["constructors.search"], counters["constructors.results"]), "ratio")
    metrics["catalog.cache_hit_ratio"] = (
        _ratio(cache[0].get("hits", 0), cache[0].get("records", 0)), "ratio")
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain) - 1, "ratio")
    return metrics, {"traced_rounds": len(traced)}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = set_up(args)
    if args.setup_probe:
        setup_probe()
        return 0

    workload.workdir.mkdir(parents=True, exist_ok=True)
    loop = Loop(workload)
    try:
        metrics, info = (per_layer if args.trace else end_to_end)(args, loop)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    import numpy

    info.update(
        attempted=loop.attempted,
        failed=loop.failed,
        fail_ratio=round(loop.failed / loop.attempted, 6),
        closed_loop_clients=1,
        python=platform.python_version(),
        numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)),
        pinned_at=workload.pins["commit"],
    )
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}",
          *(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
