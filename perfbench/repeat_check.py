"""Check that search work repeats exactly from one run to the next.

    python3 perfbench/repeat_check.py

Makes two traced runs of every workload, with different seeds and the
`run_seconds` of BENCHMARK.json, and compares
the counts that do not depend on the hardware: oracle nodes, T1 candidates
and partner searches, and the span count of every layer. Exits non-zero if
any of them differs.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def traced_counts(workload: str, seed: int, seconds: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs differ from the pins\n{out.stderr}")
    metrics = result["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k in run.DETERMINISTIC or k.endswith(".calls")}


def main() -> int:
    seconds = str(json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    run.import_program()
    from workloads import WORKLOADS

    same = True
    for workload in WORKLOADS:
        first, second = (traced_counts(workload, seed, seconds) for seed in (1, 2))
        for name, value in first.items():
            if second[name] != value:
                same = False
                print(f"{workload}: {name} differs: {value} then {second[name]}")
        print(workload, " ".join(f"{k}={first[k]}" for k in run.DETERMINISTIC), "identical" if first == second else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
