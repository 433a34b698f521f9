"""Command-line front end.

Every command emits a single JSON object on stdout. Exit codes: 0 for a
definitive answer (including negative ones), 2 when no answer was reached
(a spent search budget, or a theorem-only `construct` that no implemented
theorem covers), 1 for input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .catalog import run_catalog
from .constructors import construct_any
from .errors import ParseError, RamError
from .groups import FiniteGroup
from .invariants import exponent_exponent, is_semi_abelian, pgroup_profile
from .oracle import (
    SearchBudget,
    enumerate_structures,
    find_structure,
    size_set_up_to,
)
from .parsing import build_group, parse_tuple, render_element, render_tuple
from .structures import RamFailure, RamStructure, check_ramification, sigma
from .theory import predict_nilpotent

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_BUDGET = 2


def _budget(args, cap: int) -> SearchBudget:
    return SearchBudget(max_millis=args.budget_ms, cap=cap)


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("size must be 'R1,R2'")
    r1, r2 = int(parts[0]), int(parts[1])
    if r1 < 3 or r2 < 3:
        raise ValueError("size components must be >= 3")
    return r1, r2


def _structure_json(S: RamStructure) -> dict:
    return {
        "t1": render_tuple(S.t1),
        "t2": render_tuple(S.t2),
        "size": list(S.size),
        "sigma_sizes": [S.sigma1.cardinality, S.sigma2.cardinality],
    }


def cmd_check(args, G: FiniteGroup) -> tuple[dict, int]:
    t1 = parse_tuple(G, args.t1)
    t2 = parse_tuple(G, args.t2)
    result = check_ramification(G, t1, t2)
    payload: dict = {"size": [len(t1), len(t2)]}
    payload["sigma_sizes"] = [sigma(G, t1).cardinality, sigma(G, t2).cardinality]
    if isinstance(result, RamFailure):
        payload["verdict"] = False
        payload["reason"] = result.reason
        if result.witness is not None:
            payload["witness"] = render_element(G, result.witness)
    else:
        payload["verdict"] = True
    return payload, EXIT_OK


def cmd_search(args, G: FiniteGroup) -> tuple[dict, int]:
    r1, r2 = _parse_size(args.size)
    budget = _budget(args, max(r1, r2))
    if args.all is not None and args.all != 1:  # enumerate_structures refuses N < 1
        structures, stats = enumerate_structures(G, r1, r2, args.all, budget)
        payload = {
            "status": "found" if structures else ("none" if stats.exhausted else "budget"),
            "witnesses": [_structure_json(S) for S in structures],
            **stats.counters(),
            "exhaustive": stats.exhausted,
        }
        code = EXIT_BUDGET if payload["status"] == "budget" else EXIT_OK
        return payload, code
    out = find_structure(G, r1, r2, budget)
    payload = {
        "status": out.status,
        **out.stats.counters(),
        "exhaustive": out.stats.exhausted,
    }
    if out.structure is not None:
        payload["witnesses"] = [_structure_json(out.structure)]
    return payload, EXIT_BUDGET if out.status == "budget" else EXIT_OK


def cmd_sizes(args, G: FiniteGroup) -> tuple[dict, int]:
    result = size_set_up_to(G, args.cap, _budget(args, args.cap))
    payload = {
        "pairs": sorted(list(p) for p in result.pairs),
        "cap": args.cap,
        "exhaustive": result.exhaustive,
        **result.stats.counters(),
    }
    return payload, EXIT_OK if result.exhaustive else EXIT_BUDGET


def cmd_predict(args, G: FiniteGroup) -> tuple[dict, int]:
    scs = predict_nilpotent(G)
    payload: dict = {"constraints": scs.to_json()}
    if args.size:
        r1, r2 = _parse_size(args.size)
        payload["size"] = [r1, r2]
        payload["member"] = scs.membership(r1, r2)
    elif args.grid is not None:
        payload["grid"] = [
            [r1, r2, scs.membership(r1, r2)]
            for r1 in range(3, args.grid + 1)
            for r2 in range(r1, args.grid + 1)
        ]
    return payload, EXIT_OK


def cmd_construct(args, G: FiniteGroup) -> tuple[dict, int]:
    r1, r2 = _parse_size(args.size)
    budget = _budget(args, max(r1, r2))
    result = construct_any(G, r1, r2, budget=budget, method=args.method)
    payload: dict = {"status": result.status, "method": result.method}
    if result.structure is not None:
        payload["witness"] = _structure_json(result.structure)
        payload["verdict"] = True
    if result.reason:
        payload["reason"] = result.reason
    if result.stats is not None:
        payload.update(result.stats.counters())
    return payload, EXIT_BUDGET if result.status == "unknown" else EXIT_OK


def cmd_invariants(args, G: FiniteGroup) -> tuple[dict, int]:
    return pgroup_profile(G).to_json(), EXIT_OK


def cmd_semiabelian(args, G: FiniteGroup) -> tuple[dict, int]:
    p, e = exponent_exponent(G)
    levels = [args.level] if args.level is not None else list(range(e + 1))
    out = []
    for i in levels:
        holds, witness = is_semi_abelian(G, i)
        item: dict = {"i": i, "holds": holds, "trivial": i == 0}
        if witness is not None:
            item["witness"] = [render_element(G, witness[0]), render_element(G, witness[1])]
        out.append(item)
    return {"p": p, "e": e, "levels": out}, EXIT_OK


def cmd_catalog(args, _G: None) -> tuple[Optional[dict], int]:
    budget = SearchBudget(max_millis=args.budget_ms, cap=args.cap)
    out_path = Path(args.out) if args.out else None
    mismatch_total = 0
    all_exhaustive = True
    for record in run_catalog(
        args.max_order, args.cap, budget, out_path, use_cache=not args.no_cache
    ):
        mismatch_total += len(record.get("mismatches", []))
        all_exhaustive = all_exhaustive and record.get("exhaustive", False)
        print(json.dumps(record))
    summary = {
        "kind": "summary",
        "mismatches": mismatch_total,
        "exhaustive": all_exhaustive,
    }
    print(json.dumps(summary))
    return None, EXIT_OK if all_exhaustive else EXIT_BUDGET


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting with argparse's code 2, which
    would read as EXIT_BUDGET; `main` reports them as input errors."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ram` parser, built once per process on first use: building it
    costs about 30 parses, and parsing leaves it unchanged."""
    parser = _Parser(
        prog="ram",
        description="Ramification structures on finite groups: check, search, predict, construct.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, group=True):
        p = sub.add_parser(name, help=help)
        if group:
            p.add_argument("--group", required=True, help="group spec, e.g. C2xC4xC4xC4")
        p.add_argument("--budget-ms", type=int, default=None, help="search time budget")
        p.add_argument("--seed", type=int, default=None, help="accepted, unused (deterministic)")
        p.set_defaults(fn=fn)
        return p

    p = command("check", cmd_check, "validate a tuple pair as a ramification structure")
    p.add_argument("--t1", required=True, help="tuple literal, e.g. [x1; x2; (x1*x2)^-1]")
    p.add_argument("--t2", required=True)

    p = command("search", cmd_search, "exhaustive search for a structure of one size")
    p.add_argument("--size", required=True, help="R1,R2")
    p.add_argument("--all", type=int, default=None, help="collect up to N witnesses")

    p = command("sizes", cmd_sizes, "all admissible size pairs up to a cap, by search")
    p.add_argument("--cap", type=int, required=True)

    p = command("predict", cmd_predict, "closed-form admissible-size constraints")
    p.add_argument("--size", default=None, help="R1,R2 membership query")
    p.add_argument("--grid", type=int, default=None, help="emit the full grid up to a cap")

    p = command("construct", cmd_construct, "build a structure of a requested size")
    p.add_argument("--size", required=True, help="R1,R2")
    p.add_argument("--method", choices=("auto", "theorem", "search"), default="auto")

    command("invariants", cmd_invariants, "p-group invariant profile as JSON")

    p = command("semiabelian", cmd_semiabelian, "semi-abelian test per power level")
    p.add_argument("--level", type=int, default=None)

    p = command(
        "catalog", cmd_catalog, "predictor-vs-oracle sweep over the built-in catalog", group=False
    )
    p.add_argument("--max-order", type=int, default=32)
    p.add_argument("--cap", type=int, default=8)
    p.add_argument("--out", default=None, help="JSONL results file (also the cache)")
    p.add_argument("--no-cache", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        G = build_group(args.group) if hasattr(args, "group") else None
        payload, code = args.fn(args, G)
    except (argparse.ArgumentError, ParseError, RamError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_INPUT_ERROR
    if payload is not None:
        payload = {"command": args.command, "tool_version": __version__, **payload}
        if G is not None:
            payload["group"] = G.describe()
        payload["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
        print(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
