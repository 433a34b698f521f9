"""The three benchmark workloads and how their outputs are checked.

Each workload is a fixed pool of operations. One round runs every operation
of the pool once; the workload seed only fixes the order of the operations
within each round, so every run does the same work and runs with different
seeds stay comparable. Every operation builds its group fresh from its spec,
because all of ramstruct's caches live on the group object and a user pays
for them on every call.

Operations call ramstruct through attribute lookups on its modules at call
time (`rs.size_set_up_to`, `cli.main`, ...), so the traced run's rebinding
of those names is seen.

An observation is the part of an operation's output that is checked against
the results pinned in pins.json: decided size sets, witnesses, node counts,
catalog records and CLI responses. Timing fields are left out, and `cayley:`
paths are reduced to their file name so that nothing depends on where the
checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import ramstruct as rs
from ramstruct import catalog, cli

WORKLOADS = ("catalog_sweep", "deep_search", "cold_requests")

# the acceptance-criterion-5 catalog: 59 groups
CATALOG_MAX_ORDER = 32
CATALOG_CAP = 8

# (spec, cap): exhaustive size sets. The first four dominate a round: two
# with positive answers, where partner search is heavy, and two pure
# refutations without a single T1 candidate.
DEEP_SIZES = [
    ("C4xC4xC4", 7),
    ("C6xC6xC2", 6),
    ("C2xC4xC8", 7),
    ("C2xC2xC4xC4", 6),
    ("C2xC4xC4", 7),
    ("C4xC4xC2", 7),
    ("C6xC12", 6),
    ("C2xC2xC2xC4", 6),
    ("heis(5)", 6),
    ("C9xC9", 7),
    ("C3xC27", 7),
    ("C11xC11", 6),
    ("C2xC64", 6),
    ("C7xC7", 7),
    ("C3xC3xC3", 7),
    ("heis(3)", 8),
    ("C3xC9", 7),
    ("C4xC8", 7),
    ("C2xC2xC8", 6),
    ("C2xC16", 7),
]
# (spec, r1, r2): single searches, the paper's fixtures first
DEEP_FINDS = [
    ("C2xC4xC4xC4", 7, 5),
    ("C4xC4xC4", 7, 7),
    ("C6xC6xC2", 5, 7),
    ("C2xC4xC4xC4", 6, 6),
    ("C4xC4xC4", 5, 6),
    ("C6xC6xC2", 6, 6),
    ("C5xC5xC5", 4, 4),
    ("C9xC9", 4, 5),
    ("heis(5)", 3, 5),
    ("C11xC11", 3, 3),
    ("C3xC3xC3", 4, 6),
    ("heis(3)", 4, 8),
    ("C9xC9", 5, 5),
]
# (spec, r1, r2, limit): capped enumerations
DEEP_ENUMS = [
    ("C4xC4xC4", 7, 7, 5),
    ("C6xC6xC2", 5, 7, 5),
    ("C3xC3xC3", 4, 4, 20),
    ("heis(3)", 4, 4, 20),
    ("C9xC9", 4, 4, 20),
    ("C11xC11", 3, 3, 30),
    ("heis(5)", 3, 3, 10),
]

_C2_8 = "x".join(["C2"] * 8)
# setup-dominated searches: large groups, few search nodes
COLD_SEARCHES = [
    (_C2_8, "4,4"),
    ("heis(7)", "3,3"),
    ("C16xC16", "3,3"),
    ("C5xC5xC5", "4,4"),
    ("heis(5)", "3,4"),
    ("C9xC9", "4,4"),
    ("C7xC7", "3,3"),
    ("C6xC6xC2", "5,7"),
    ("C2xC4xC4xC4", "7,5"),
    ("C4xC4xC4", "7,7"),
    ("C3xC3xC3", "4,4"),
]
# theorem routes (exponent-p, omega-lift, odd-odd, Sylow product), their
# refusals, and one search fallback
COLD_CONSTRUCTS = [
    ("heis(7)", "3,3"),
    ("heis(7)", "4,5"),
    ("heis(5)", "3,4"),
    ("heis(3)", "4,4"),
    ("C3xC3xC3", "4,5"),
    ("C5xC5", "3,3"),
    ("C2xC4xC4xC4", "5,7"),
    ("C2xC4xC4xC4", "6,6"),
    ("C9xC9", "4,4"),
    ("C3xC9", "4,4"),
    ("C4xC8xC16", "5,6"),
    ("C4xC4xC4", "6,6"),
    ("C7xC7", "3,4"),
    ("C2xC2xC2xC2", "4,4"),
    ("C6xC6xC2", "5,7"),
    ("C6xC6xC2", "6,6"),
    ("C4xC4xC4", "7,7"),
    ("C2xC2xC2", "5,7"),
    ("C8xC8", "5,5"),
    ("C15xC15", "3,3"),
    ("C12xC12", "4,4"),
    ("C4xC4", "3,3"),
    ("prod(heis(3),C2)", "4,4"),
]
# p-groups for `invariants`, `semiabelian` and `predict --grid`
COLD_PGROUPS = [
    "C2xC4xC4xC4",
    "C4xC4xC4",
    "C2xC2xC2",
    "C8xC8",
    "C9xC27",
    "C3xC3xC3",
    "heis(3)",
    "heis(5)",
    "heis(7)",
    "C5xC5xC5",
    "C2xC2xC2xC2xC2",
    _C2_8,
    "C2xC2xC4xC4",
]
# nilpotent groups with several Sylow factors, for `predict --size`
COLD_PREDICT_SIZES = [
    ("C6xC6xC2", "5,7"),
    ("C6xC6xC2", "5,5"),
    ("C12xC12", "4,4"),
    ("C15xC15", "4,4"),
    ("C10xC10", "3,3"),
    ("C10xC10", "4,4"),
    ("C6xC6", "4,5"),
    ("C12xC12", "5,6"),
    ("C6xC6xC2", "6,6"),
    ("prod(heis(3),C2)", "6,6"),
]
COLD_CHECKS = [
    (
        "C2xC4xC4xC4",
        "[x2; x3; x4; x2^-1; x3^-1; x4^-1*x1; x1]",
        "[x2*x3*x1; x2*x4; x3*x4; x2*x3*x4; x2*x3*x4*x1]",
    ),
    (
        "C6xC6xC2",
        "[x1; x2; x3; x2^-1; (x1*x3)^-1]",
        "[x1*x2; x1*x2; (x1*x2)^-2; x1*x2*x3; (x1*x2*x3)^-1; x1^2*x2*x3; (x1^2*x2*x3)^-1]",
    ),
    ("C4xC4", "[x1; x2; (x1*x2)^-1]", "[x1; x2; (x1*x2)^-1]"),
    (
        "heis(3)",
        "[(0,1,0); (0,2,0); (1,0,0); (2,0,0)]",
        "[(1,1,0); (2,2,0); (2,1,0); (1,2,0)]",
    ),
    ("heis(3)", "[(0,1,0); (0,2,0); (1,0,0); (2,0,0)]", "[(0,1,0); (1,0,0); (2,2,0)]"),
    (
        "C3xC3xC3",
        "[x1*x3; x3^2; x1^2*x2; x2^2]",
        "[x1*x2^2*x3^2; x1^2*x2^2*x3^2; x2^2*x3; x2*x3^2; x2^2*x3^2]",
    ),
    ("C5xC5", "[x2; x1; x1^4*x2^4]", "[x1^2*x2; x1^4*x2; x1^4*x2^3]"),
    ("C5xC5", "[x2; x1; x1^4*x2^4]", "[x1^2*x2; x1^4*x2; x1^4*x2^2]"),
    ("C9xC9", "[x2; x2^2; x1; x1^8*x2^6]", "[x1*x2; x1*x2^2; x1^2*x2; x1^5*x2^5]"),
    ("heis(5)", "[(0,1,0); (1,0,0); (4,4,1)]", "[(4,2,0); (4,1,0); (4,3,0); (3,4,4)]"),
]


def cold_argvs() -> list[list[str]]:
    """The fixed pool of `ram` requests; 100 of them."""
    argvs = [["search", "--group", g, "--size", s] for g, s in COLD_SEARCHES]
    argvs += [["construct", "--group", g, "--size", s] for g, s in COLD_CONSTRUCTS]
    for g in COLD_PGROUPS:
        argvs.append(["invariants", "--group", g])
        argvs.append(["semiabelian", "--group", g])
        argvs.append(["predict", "--group", g, "--grid", "8"])
    argvs += [["predict", "--group", g, "--size", s] for g, s in COLD_PREDICT_SIZES]
    argvs += [["semiabelian", "--group", g, "--level", "1"] for g in COLD_PGROUPS[:5]]
    argvs += [["check", "--group", g, "--t1", t1, "--t2", t2] for g, t1, t2 in COLD_CHECKS]
    argvs.append(["catalog", "--max-order", "4", "--cap", "5"])
    # malformed input: a cyclic factor of order 1 is refused with exit code 1
    argvs.append(["invariants", "--group", "C1xC4"])
    return argvs


# -- normalisation -----------------------------------------------------------

_CAYLEY_PATH = re.compile(r"cayley:[^,)\"]*?([^/,)\"]+\.json)")


def _strip_paths(text: str) -> str:
    return _CAYLEY_PATH.sub(r"cayley:\1", text)


def normalise(value: Any) -> Any:
    """Drop timing fields and the path-dependent cache key; reduce cayley
    paths to their file name."""
    if isinstance(value, dict):
        return {
            k: normalise(v)
            for k, v in value.items()
            if k not in ("elapsed_ms", "content_hash", "cached")
        }
    if isinstance(value, list):
        return [normalise(v) for v in value]
    if isinstance(value, str):
        return _strip_paths(value)
    return value


def matches(pinned: Any, observed: Any) -> bool:
    """Whether an observation agrees with its pin. Fields added to an output
    after pinning are ignored; every pinned field must be present and equal."""
    if isinstance(pinned, dict):
        return isinstance(observed, dict) and all(
            k in observed and matches(v, observed[k]) for k, v in pinned.items()
        )
    if isinstance(pinned, list):
        return (
            isinstance(observed, list)
            and len(pinned) == len(observed)
            and all(matches(p, o) for p, o in zip(pinned, observed))
        )
    return pinned == observed


def record_digest(record: dict, keys: list[str]) -> str:
    """Digest of a catalog record restricted to the fields pinned at the seed."""
    record = normalise(record)
    payload = json.dumps({k: record.get(k) for k in keys}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# -- operations --------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop operation: `call` is timed, `observe` turns its result
    into the observation compared with the pin of `key`."""

    key: str
    call: Callable[[], Any]
    observe: Callable[[Any], Any]


def _stats(stats) -> dict:
    return {"nodes": stats.candidates, "exhaustive": stats.exhausted}


def _pair(S) -> list[str]:
    return [rs.render_tuple(S.t1), rs.render_tuple(S.t2)]


def _observe_sizes(result) -> dict:
    return {
        "pairs": sorted(list(p) for p in result.pairs),
        "witnesses": {f"{a},{b}": _pair(S) for (a, b), S in sorted(result.witnesses.items())},
        **_stats(result.stats),
    }


def _observe_find(outcome) -> dict:
    witness = _pair(outcome.structure) if outcome.structure is not None else None
    return {"status": outcome.status, "witness": witness, **_stats(outcome.stats)}


def _observe_enum(result) -> dict:
    structures, stats = result
    return {"witnesses": [_pair(S) for S in structures], **_stats(stats)}


def _deep_ops() -> list[Op]:
    ops = [
        Op(
            f"sizes {spec} cap={cap}",
            lambda spec=spec, cap=cap: rs.size_set_up_to(rs.build_group(spec), cap),
            _observe_sizes,
        )
        for spec, cap in DEEP_SIZES
    ]
    ops += [
        Op(
            f"find {spec} {r1},{r2}",
            lambda spec=spec, r1=r1, r2=r2: rs.find_structure(
                rs.build_group(spec), r1, r2, rs.SearchBudget(cap=max(r1, r2))
            ),
            _observe_find,
        )
        for spec, r1, r2 in DEEP_FINDS
    ]
    ops += [
        Op(
            f"enumerate {spec} {r1},{r2} limit={limit}",
            lambda spec=spec, r1=r1, r2=r2, limit=limit: rs.enumerate_structures(
                rs.build_group(spec), r1, r2, limit, rs.SearchBudget(cap=max(r1, r2))
            ),
            _observe_enum,
        )
        for spec, r1, r2, limit in DEEP_ENUMS
    ]
    return ops


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _observe_cli(result) -> dict:
    code, stdout = result
    return {"code": code, "lines": [normalise(json.loads(line)) for line in stdout.splitlines()]}


def _cold_ops() -> list[Op]:
    return [
        Op(" ".join(argv), lambda argv=argv: _run_cli(argv), _observe_cli)
        for argv in cold_argvs()
    ]


class CatalogRound:
    """One sweep of the catalog into a fresh JSONL file, one operation per
    entry, then one operation that finishes the file and re-reads it, which
    serves every entry from the catalog layer's cache."""

    def __init__(self, path: Path, entries: int, keys: list[str], reads: Counter):
        self.path = path
        self.keys = keys
        self.reads = reads
        self.sweep = None
        path.unlink(missing_ok=True)
        self.ops = [
            Op(f"catalog entry {i}", self._next_entry, self._observe_entry)
            for i in range(entries)
        ]
        self.ops.append(Op("catalog re-read", self._reread, self._observe_reread))

    def _next_entry(self) -> dict:
        if self.sweep is None:
            self.sweep = catalog.run_catalog(CATALOG_MAX_ORDER, CATALOG_CAP, out_path=self.path)
        return next(self.sweep)

    def _reread(self) -> list[dict]:
        for _ in self.sweep:  # the sweep writes its JSONL once it is exhausted
            raise RuntimeError("catalog yielded more entries than pinned")
        return list(catalog.run_catalog(CATALOG_MAX_ORDER, CATALOG_CAP, out_path=self.path))

    def _observe_entry(self, record: dict) -> list:
        return [normalise(record["spec"]), record_digest(record, self.keys)]

    def _observe_reread(self, records: list[dict]) -> list:
        self.reads["records"] += len(records)
        self.reads["hits"] += sum(bool(r.get("cached")) for r in records)
        return [self._observe_entry(r) + [r.get("cached", False)] for r in records]


class Workload:
    """The operation pool of one workload and the pins its outputs must match."""

    def __init__(self, name: str, seed: int, pins: dict, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.rng = random.Random(seed)
        self.pins = pins
        self.workdir = workdir
        # records served by the catalog re-read, and how many came from its cache
        self.cache_reads: Counter = Counter()
        if name == "deep_search":
            self.pool = _deep_ops()
        elif name == "cold_requests":
            self.pool = _cold_ops()

    def round(self) -> list[Op]:
        """The operations of one round, in this round's seeded order."""
        if self.name == "catalog_sweep":
            # the catalog order is part of the workload: no shuffle
            entries = len(self.pins["catalog_sweep"]["catalog re-read"])
            path = self.workdir / "catalog.jsonl"
            return CatalogRound(path, entries, self.pins["catalog_keys"], self.cache_reads).ops
        ops = list(self.pool)
        self.rng.shuffle(ops)
        return ops

    def agrees(self, op: Op, result: Any) -> bool:
        """Whether an operation's result matches its pin."""
        return matches(self.pins[self.name][op.key], op.observe(result))
