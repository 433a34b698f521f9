"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        --pairs N --seconds S

Pair i runs `perfbench/run.py --workload W --seed i --seconds S --trace 0`
once in each checkout, seeds 1 to N; odd seeds run the parent first, even
seeds the change.  Each run's last stdout line is printed as it finishes.
A run that exits non-zero, is not `correct` or has failed operations stops
the comparison with an error.

Then prints one markdown row per end-to-end metric of `BENCHMARK.json` (read
from the checkout that holds this script): the median [first-third
quartile] on each side, the change of the medians in %, the pairs the
change wins out of N by the metric's `better` (ties count for neither), and
the parent's interquartile range as a share of its median.  Quartiles are
those of `statistics.quantiles(..., method="inclusive")`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = [
    "| workload | metric | parent | change | median change | wins | parent IQR |",
    "|---|---|---|---|---|---|---|",
]


def parse_run(stdout: str) -> dict[str, float]:
    """The metric values of one run, from its last stdout line; raises
    ValueError when the run was not correct or had failed operations."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run printed nothing")
    summary = json.loads(lines[-1])
    if not summary["correct"] or summary["failed"]:
        raise ValueError(
            f"run not correct: correct={summary['correct']} failed={summary['failed']}"
        )
    return {name: m["value"] for name, m in summary["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def table_rows(
    workload: str, pairs: list[tuple[dict, dict]], better: dict[str, str]
) -> list[str]:
    """One markdown row per metric in `better` (name -> "higher" or
    "lower"), from (parent, change) metric values of each pair."""
    rows = []
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        pm, pq1, pq3 = spread(parent)
        cm, cq1, cq3 = spread(change)
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        rows.append(
            f"| `{workload}` | `{name}` | {pm:.4g} [{pq1:.4g}-{pq3:.4g}] "
            f"| {cm:.4g} [{cq1:.4g}-{cq3:.4g}] | {(cm - pm) / pm:+.1%} "
            f"| {wins}/{len(pairs)} | {(pq3 - pq1) / pm:.1%} |"
        )
    return rows


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise ValueError(f"run exited {out.returncode}: {out.stderr.strip()[-500:]}")
    metrics = parse_run(out.stdout)
    print(f"seed={seed} {checkout}: {out.stdout.strip().splitlines()[-1]}", flush=True)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}

    checkouts = (args.parent, args.change)
    pairs = []
    for seed in range(1, args.pairs + 1):
        got = {}
        try:
            for side in (0, 1) if seed % 2 else (1, 0):
                got[side] = run(checkouts[side], args.workload, seed, args.seconds)
        except ValueError as exc:
            print(f"seed={seed}: {exc}", file=sys.stderr)
            return 1
        pairs.append((got[0], got[1]))
    print("\n".join(HEADER + table_rows(args.workload, pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
