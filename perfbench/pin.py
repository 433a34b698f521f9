"""Record the outputs every benchmark operation must reproduce.

    python3 perfbench/pin.py

Runs each operation of the three workloads once and writes its observation
to perfbench/pins.json, with the commit it was pinned at. Run it only on a
commit whose outputs are known to be right: a later change that alters any
pinned decision, witness, node count or response then fails its operations.
"""

from __future__ import annotations

import json
import subprocess
from collections import Counter

import run


def observe_all(ops) -> dict:
    return {op.key: op.observe(op.call()) for op in ops}


def main() -> None:
    run.import_program()
    import workloads
    from ramstruct import catalog

    run.WORK_DIR.mkdir(exist_ok=True)
    entries = len(catalog.builtin_catalog(workloads.CATALOG_MAX_ORDER))
    sweep = workloads.CatalogRound(run.WORK_DIR / "pin-catalog.jsonl", entries, [], Counter())
    raws = [(op, op.call()) for op in sweep.ops]
    records = [raw for op, raw in raws[:-1]]
    # every field the seed's records carry, except timing and path-dependent ones
    sweep.keys[:] = sorted({k for r in records for k in workloads.normalise(r)})
    sweep.path.unlink()

    pins = {
        "commit": subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip(),
        "catalog_keys": sweep.keys,
        "catalog_sweep": {op.key: op.observe(raw) for op, raw in raws},
        "deep_search": observe_all(workloads.Workload("deep_search", 0, {}, run.WORK_DIR).pool),
        "cold_requests": observe_all(workloads.Workload("cold_requests", 0, {}, run.WORK_DIR).pool),
    }
    if not all(r["exhaustive"] for r in records):
        raise SystemExit("pin.py: a catalog entry is undecided")
    for key, obs in pins["deep_search"].items():
        if not obs["exhaustive"]:
            raise SystemExit(f"pin.py: {key} is undecided")
    for key, obs in pins["cold_requests"].items():
        if obs["code"] not in (0, 1):
            raise SystemExit(f"pin.py: {key} exits with {obs['code']}")
    (run.BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
