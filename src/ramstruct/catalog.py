"""Built-in validation catalog and the predictor-vs-oracle comparison runner.

One JSON line is persisted per catalog entry, keyed by a content hash of the
inputs, so re-runs against an existing results file are pure cache hits.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional

from .groups import AbelianGroup, prime_factorization
from .oracle import ORACLE_VERSION, SearchBudget, SearchStats, size_set_up_to
from .parsing import build_group
from .structures import size_pairs
from .theory import nilpotent_prediction

# part of every record's cache key: raise it when a record's fields change,
# or what `theory` computes for one (`predictor`, `grid`, `mismatches`), so
# records written before the change are evaluated afresh
SCHEMA_VERSION = 1

# order-125 search cost: the Heisenberg group over 5 is graded to a small cap
HEIS5_CAP = 4


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions in nonincreasing order, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_orders_of(n: int) -> Iterator[tuple[int, ...]]:
    """Cyclic factor lists of all abelian groups of order n (primary
    decomposition, factors sorted ascending)."""
    per_prime = []
    for p, e in sorted(prime_factorization(n).items()):
        per_prime.append([tuple(p**k for k in part) for part in partitions(e)])
    for combo in itertools.product(*per_prime):
        yield tuple(sorted(itertools.chain.from_iterable(combo)))


def bundled_cayley_path(name: str) -> Path:
    path = resources.files("ramstruct").joinpath(f"data/cayley/{name}.json")
    return Path(str(path))


@dataclass(frozen=True)
class CatalogEntry:
    spec: str
    cap_override: Optional[int] = None

    def effective_cap(self, cap: int) -> int:
        return min(cap, self.cap_override) if self.cap_override else cap


def builtin_catalog(max_order: int) -> list[CatalogEntry]:
    """All abelian groups of order <= max_order, the Heisenberg groups over 3
    and 5, and the bundled table groups."""
    entries = []
    for n in range(2, max_order + 1):
        for orders in abelian_orders_of(n):
            entries.append(CatalogEntry(AbelianGroup(orders).describe()))
    entries.append(CatalogEntry("heis(3)"))
    entries.append(CatalogEntry("heis(5)", cap_override=HEIS5_CAP))
    for name in ("d4", "q8", "s3"):
        entries.append(CatalogEntry(f"cayley:{bundled_cayley_path(name)}"))
    return entries


def _content_hash(spec: str, cap: int, budget: SearchBudget) -> str:
    """Cache key of a catalog entry.  It includes `ORACLE_VERSION`, so a
    record computed by older search code is evaluated afresh; a `cayley:`
    entry is keyed by its file name and the bytes of its table, so an edited
    table is too, while the same table in another directory is not."""
    inputs = [
        SCHEMA_VERSION, ORACLE_VERSION, spec, cap, budget.max_candidates, budget.max_millis
    ]
    if spec.startswith("cayley:"):
        path = Path(spec[len("cayley:") :])
        inputs[2] = f"cayley:{path.name}"
        inputs.append(hashlib.sha256(path.read_bytes()).hexdigest())
    payload = json.dumps(inputs, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def evaluate_entry(entry: CatalogEntry, cap: int, budget: SearchBudget, key: str) -> dict:
    """Predictor-vs-oracle comparison for one group, as a JSON-ready record
    stored under the cache key `key` (see `_content_hash`)."""
    cap_eff = entry.effective_cap(cap)
    G = build_group(entry.spec)
    scs = nilpotent_prediction(G)
    result = size_set_up_to(G, cap_eff, budget)
    record: dict = {
        "schema_version": SCHEMA_VERSION,
        "kind": "catalog",
        "spec": entry.spec,
        "order": G.order,
        "cap": cap_eff,
        "oracle_pairs": sorted(list(p) for p in result.pairs),
        "exhaustive": result.exhaustive,
        **result.stats.counters(),
        "predictor_applies": scs is not None,
        "content_hash": key,
    }
    if scs is not None:
        # grid rows are [r1, r2, observed, predicted]; a mismatch is a row
        # whose two disagree, counted only on an exhaustive search
        grid = [[*size, size in result.pairs, scs.membership(*size)] for size in size_pairs(cap_eff)]
        record["predictor"] = scs.to_json()
        record["grid"] = grid
        record["mismatches"] = [row for row in grid if result.exhaustive and row[2] != row[3]]
    return record


_COUNTERS = SearchStats().counters().keys()


def _load_cache(path: Path) -> dict[str, dict]:
    cache: dict[str, dict] = {}
    if not path.exists():
        return cache
    with path.open() as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            key = record.get("content_hash")
            # a record written before the search counters were emitted lacks
            # them; it is evaluated afresh rather than served in the old shape
            if key and record.get("kind") == "catalog" and _COUNTERS <= record.keys():
                cache[key] = record
    return cache


def run_catalog(
    max_order: int,
    cap: int,
    budget: Optional[SearchBudget] = None,
    out_path: Optional[Path] = None,
    use_cache: bool = True,
) -> Iterator[dict]:
    """Evaluate the built-in catalog in order, yielding one record per group.

    With an output path, records are persisted as JSON lines in catalog order;
    entries whose content hash is already present are served from the file
    without invoking the oracle (the record carries "cached": true).  The
    file is created, or opened without truncating it, before the first entry
    is evaluated, so a path that cannot be written fails before the sweep.
    """
    budget = budget or SearchBudget(cap=cap)
    entries = builtin_catalog(max_order)
    cache = _load_cache(out_path) if (out_path and use_cache) else {}
    if out_path is not None:
        out_path.open("a").close()
    records = []
    for entry in entries:
        key = _content_hash(entry.spec, entry.effective_cap(cap), budget)
        if key in cache:
            record = dict(cache[key])
            record["cached"] = True
        else:
            record = evaluate_entry(entry, cap, budget, key)
            record["cached"] = False
        records.append(record)
        yield record
    if out_path is not None:
        with out_path.open("w") as f:
            for record in records:
                stored = {k: v for k, v in record.items() if k != "cached"}
                f.write(json.dumps(stored) + "\n")

