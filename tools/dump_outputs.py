"""Write the outputs of one checkout as canonical JSON.

    python3 tools/dump_outputs.py --out outputs.json [--root CHECKOUT] [--limit N]

Runs the ramstruct source of CHECKOUT (by default the checkout that holds
this script) on:

- the 40 `deep_search` operations of `perfbench/workloads.py`: decided
  pairs, witnesses, the four search counters and exhaustiveness;
- node-limit stops: fixed searches under a fixed grid of `max_candidates`;
- the 59 records of `run_catalog(32, 8, use_cache=False)`;
- the 100 `cold_requests` CLI requests: exit codes and stdout;
- input errors: exit codes and stdout of malformed CLI requests;
- repeated searches: fixed sequences of searches on one group object, each
  observed as the same search on a fresh group is;
- spherical systems: the count and the tuples of `enumerate_spherical` on
  fixed small groups of sizes 2, 3 and 4;
- help: the `format_help()` text of `ram` and of each subcommand at
  HELP_COLUMNS columns, with each subcommand's option defaults and the name
  of the function it runs;
- parse errors: the exception class and message of fixed malformed specs,
  element literals and tuple literals, many of them separated lists;
- constructors: the group, size and rendered tuples of each constructor on
  the inputs its tests and demos use (or the error it raises), and
  `construct_any` under each method with its status, method, reason and
  search counters (or the error it raises).

Timing fields (`elapsed_ms`) are dropped and `cayley:` paths reduced to
their file name, so two checkouts that compute the same outputs write the
same bytes, and one `cmp` of their dumps compares every decision, witness,
counter and budget stop.  `--limit N` keeps the first N items of each
section, for a quick run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import re
import sys
from pathlib import Path
from unittest import mock

# (kind, spec, arguments) searched under each node limit of LIMITS: finds
# (r1, r2), size sets (cap) and capped enumerations (r1, r2, limit)
LIMIT_SEARCHES = [
    ("find", "C3xC3", (3, 3)),
    ("find", "C3xC3", (4, 4)),
    ("find", "C6xC6xC2", (6, 6)),
    ("find", "C2xC4xC4xC4", (7, 5)),
    ("find", "heis(3)", (4, 8)),
    ("sizes", "C2xC2xC4xC4", (6,)),
    ("sizes", "prod(heis(3),C2)", (5,)),
    ("sizes", "C4xC4xC4", (7,)),
    ("find", "C2xC4xC4xC4", (5, 5)),
    ("enumerate", "C6xC6xC2", (5, 7, 5)),
]
LIMITS = [1, 2, 3, 17, 100, 1000, 4095, 4096, 4097, 10_000, 65_536, 200_001, 10**6]

# (spec, [(kind, arguments, node limit or None)]): searches run in turn on
# one group object
REPEATED_SEARCHES = [
    ("C2xC2xC2", [("find", (5, 5), 500), ("find", (5, 5), None), ("find", (5, 5), 500)]),
    ("C4xC4xC4", [("sizes", (6,), None), ("find", (6, 6), None)]),
    ("heis(3)", [("sizes", (6,), None), ("enumerate", (4, 4, 5), None)]),
]

# (spec, size) enumerated by `enumerate_spherical`; `s3` and `q8` name the
# bundled Cayley tables
SPHERICAL = [
    ("C6", 2),
    ("C8", 2),
    ("C2xC2", 3),
    ("C3xC3", 3),
    ("heis(3)", 3),
    ("s3", 3),
    ("C2xC2xC2", 4),
    ("C4xC4", 4),
    ("q8", 4),
]

# malformed `ram` requests, each an input error (exit code 1 and a reason)
INPUT_ERRORS = [
    ["search", "--group", "C3xC3", "--size", "2,5"],
    ["sizes", "--group", "C3xC3", "--cap", "2"],
    ["search", "--group", "C3xC3", "--size", "3,3", "--all", "0"],
    ["search", "--group", "C3xC3", "--size", "3,3", "--budget-ms", "0"],
    ["semiabelian", "--group", "C3xC3", "--level", "-1"],
    ["search", "--group", "C1024", "--size", "3,3"],
    ["check", "--group", "C3xC3", "--t1", "[]", "--t2", "[x1; x1^-1]"],
    ["construct", "--group", "C2xC512", "--size", "3,3", "--method", "search"],
    ["construct", "--group", "C3xC3", "--size", "4,1000", "--method", "search"],
]

# the terminal width, in columns, that the help texts are formatted at
HELP_COLUMNS = "100"

# (group spec, text): malformed input, read as a group spec when the group is
# None, else as a tuple literal when it starts with "[", else as an element
PARSE_ERRORS = [
    (None, "abelian(2,)"),
    (None, "abelian(2 4)"),
    (None, "abelian()"),
    (None, "C2x"),
    (None, "C2 x C3 x"),
    (None, "C2xC3 C4"),
    ("C2xC4xC4xC4", "[x1;]"),
    ("C2xC4xC4xC4", "[x1; ; x2]"),
    ("C2xC4xC4xC4", "[x1; x2"),
    ("C2xC4xC4xC4", "[x1, x2]"),
    ("C2xC4xC4xC4", "x1*"),
    ("C2xC4xC4xC4", "x1**x2"),
    ("C2xC4xC4xC4", "x1*x5"),
    ("C2xC4xC4xC4", "(x1*x2"),
    ("C2xC4xC4xC4", "(0,1,,0)"),
    ("C2xC4xC4xC4", "(0,4,0,0)"),
    ("C3xC3", "(1,)"),
    ("heis(3)", "(1,)"),
    ("heis(3)", "(1,,2)"),
    ("heis(3)", "(0,1"),
    ("heis(3)", "[(1,2)]"),
]

# arguments (p, d, r1, r2) of `elementary_abelian_structure`
ELEMENTARY_ABELIAN = [
    (5, 2, 3, 3),
    (2, 3, 5, 6),
    (2, 3, 6, 6),
    (2, 4, 5, 5),
    (2, 4, 7, 9),
    (3, 2, 5, 7),
    (3, 3, 5, 7),
    (5, 2, 5, 6),
    (3, 2, 3, 3),
    (2, 3, 5, 5),
    (2, 3, 7, 9),
]

# (constructor, group spec, r1, r2) of the constructors that take a group
ON_GROUP = [
    ("exponent_p_structure", "heis(5)", 3, 3),
    ("exponent_p_structure", "heis(3)", 4, 4),
    ("exponent_p_structure", "heis(3)", 3, 3),
    ("exponent_p_structure", "C4", 3, 3),
    ("semi_abelian_2group_odd_odd", "C2xC4xC4xC4", 7, 7),
    ("semi_abelian_2group_odd_odd", "C2xC4xC4xC4", 7, 5),
    ("semi_abelian_2group_odd_odd", "C2xC4xC4xC4", 6, 7),
    ("semi_abelian_2group_odd_odd", "C2xC2xC4xC4xC4", 9, 7),
    ("semi_abelian_2group_odd_odd", "C2xC2xC2xC4xC4xC4", 7, 7),
    ("semi_abelian_2group_odd_odd", "C4xC4xC4", 7, 7),
]

# target sizes of `pad_from_beauville` on C5xC5's (3,3) structure
PADDINGS = [(3, 3), (3, 4), (7, 8), (4, 6)]

# (side, target size) of `product_project` on the (5,7) structure combined
# from C3xC3 at (5,7) and C2^3 at (5,6)
PROJECTIONS = [
    ("left", None),
    ("left", (5, 7)),
    ("left", (6, 8)),
    ("left", (7, 9)),
    ("right", None),
]

# (group spec, r1, r2, node limit or None) built by `construct_any` under
# each method; `{s3}`, `{q8}` and `{d4}` stand for the bundled Cayley tables.
# C4xC4xC4xC3xC3, of order past the search's limit, builds through a search
# of its Sylow 2-factor
CONSTRUCTS = [
    ("C6xC6xC2", 5, 7, None),
    ("C6xC6xC2", 5, 6, None),
    ("C6xC6xC2", 5, 5, 10**5),
    ("C7", 3, 3, None),
    ("{q8}", 5, 5, None),
    ("{s3}", 4, 4, None),
    ("prod({d4},C3)", 4, 4, None),
    ("heis(3)", 4, 6, None),
    ("heis(5)", 4, 5, None),
    ("C4xC4xC4", 7, 7, None),
    ("C2xC4xC4xC4", 6, 6, None),
    ("C2xC4xC4xC4", 5, 5, 1000),
    ("C4xC4xC4xC3xC3", 7, 7, None),
    ("C4xC4xC4xC3xC3", 7, 7, 1000),
]

_CAYLEY_PATH = re.compile(r"cayley:[^,)\"]*?([^/,)\"]+\.json)")


def canonical(value):
    """`value` without `elapsed_ms` fields and with `cayley:` paths reduced
    to their file name."""
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items() if k != "elapsed_ms"}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, str):
        return _CAYLEY_PATH.sub(r"cayley:\1", value)
    return value


def _stats(stats) -> dict:
    return {**stats.counters(), "exhaustive": stats.exhausted}


def _pair(rs, S) -> list[str]:
    return [rs.render_tuple(S.t1), rs.render_tuple(S.t2)]


def _search(rs, kind: str, G, args: tuple, budget) -> dict:
    """The observation of one search on the group G."""
    if kind == "sizes":
        result = rs.size_set_up_to(G, *args, budget)
        witnesses = {f"{a},{b}": _pair(rs, S) for (a, b), S in sorted(result.witnesses.items())}
        return {"pairs": sorted(result.pairs), "witnesses": witnesses, **_stats(result.stats)}
    if kind == "find":
        found = rs.find_structure(G, *args, budget)
        witness = found.structure and _pair(rs, found.structure)
        return {"status": found.status, "witness": witness, **_stats(found.stats)}
    structures, stats = rs.enumerate_structures(G, *args, budget)
    return {"witnesses": [_pair(rs, S) for S in structures], **_stats(stats)}


def _request(cli, argv: list[str]) -> dict:
    """The exit code and the JSON lines on stdout of one `ram` request."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
    return {"argv": argv, "code": code, "stdout": lines}


def _help(cli) -> dict:
    """The help text of `ram` and of each subcommand at HELP_COLUMNS columns,
    with the subcommand's option defaults and the name of the function it
    runs."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    with mock.patch.dict("os.environ", {"COLUMNS": HELP_COLUMNS}):
        out = {"ram": {"help": parser.format_help()}}
        for name, sub in subparsers.choices.items():
            out[name] = {
                "help": sub.format_help(),
                "defaults": {a.dest: a.default for a in sub._actions},
                "fn": sub.get_default("fn").__name__,
            }
    return out


def _parse_error(rs, spec: str | None, text: str) -> dict:
    """The error that reading `text` raises, by class name and message."""
    out = {"group": spec, "text": text, "error": None}
    try:
        if spec is None:
            rs.build_group(text)
        elif text.startswith("["):
            rs.parse_tuple(rs.build_group(spec), text)
        else:
            rs.parse_element(rs.build_group(spec), text)
    except rs.errors.RamError as exc:
        out.update(error=type(exc).__name__, message=str(exc))
    return out


def _shown(rs, S) -> dict:
    """The group, size and rendered tuples of the structure S."""
    return {"group": S.group.describe(), "size": list(S.size), "tuples": _pair(rs, S)}


def _raised(rs, answer, *args) -> dict:
    """`answer(*args)`, or the class name and message of the error it raises."""
    try:
        return answer(*args)
    except rs.errors.RamError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _built(rs, build, *args) -> dict:
    """The structure `build(*args)` returns, shown, or the error it raises."""
    return _raised(rs, lambda: _shown(rs, build(*args)))


def _constructors(rs, catalog) -> dict:
    """The structures of each constructor on fixed inputs, and the answers
    of `construct_any` under each method."""
    from ramstruct import constructors as cons

    tables = {name: f"cayley:{catalog.bundled_cayley_path(name)}" for name in ("s3", "q8", "d4")}

    def group(spec):
        return rs.build_group(spec.format(**tables))

    ea = cons.elementary_abelian_structure
    out = {f"elementary_abelian_structure {a}": _built(rs, ea, *a) for a in ELEMENTARY_ABELIAN}
    for name, spec, r1, r2 in ON_GROUP:
        out[f"{name} {spec} {(r1, r2)}"] = _built(rs, getattr(cons, name), group(spec), r1, r2)
    # the odd-odd structure on C2xC4xC4xC4 at (7,7), projected and lifted back
    G = group("C2xC4xC4xC4")
    S = cons.semi_abelian_2group_odd_odd(G, 7, 7)
    out["project_mod_omega"] = _built(rs, cons.project_mod_omega, G, S)
    projected = cons.project_mod_omega(G, S)
    out["lift_structure_mod_omega"] = _built(rs, cons.lift_structure_mod_omega, G, projected)
    base = ea(5, 2, 3, 3)
    for target in PADDINGS:
        out[f"pad_from_beauville {target}"] = _built(rs, cons.pad_from_beauville, base, *target)
    out["product_combine"] = _built(rs, cons.product_combine, ea(3, 2, 5, 7), ea(2, 3, 5, 6))
    combined = cons.product_combine(ea(3, 2, 5, 7), ea(2, 3, 5, 6))
    for side, target in PROJECTIONS:
        out[f"product_project {side} {target}"] = _built(
            rs, cons.product_project, combined, side, target
        )

    def construct(G, r1, r2, budget, method) -> dict:
        res = rs.construct_any(G, r1, r2, budget=budget, method=method)
        return {
            "status": res.status,
            "method": res.method,
            "reason": res.reason,
            "structure": res.structure and _shown(rs, res.structure),
            "stats": res.stats and _stats(res.stats),
        }

    for (spec, r1, r2, n), method in itertools.product(CONSTRUCTS, ("auto", "theorem", "search")):
        budget = rs.SearchBudget(max_candidates=n or 10**12, cap=max(r1, r2))
        out[f"construct_any {spec} {(r1, r2)} {n} {method}"] = _raised(
            rs, construct, group(spec), r1, r2, budget, method
        )
    return out


def dump(root: Path, limit: int | None = None) -> dict:
    """Every section's outputs for the checkout at `root`."""
    sys.path[:0] = [str(root / "src"), str(root)]
    import ramstruct as rs
    from perfbench import workloads
    from ramstruct import catalog, cli

    def first(items):
        return list(itertools.islice(items, limit))

    deep = [("sizes", spec, (cap,)) for spec, cap in workloads.DEEP_SIZES]
    deep += [("find", spec, (r1, r2)) for spec, r1, r2 in workloads.DEEP_FINDS]
    deep += [("enumerate", spec, (r1, r2, n)) for spec, r1, r2, n in workloads.DEEP_ENUMS]
    out: dict = {"deep_search": {}, "node_limits": {}}
    for kind, spec, args in first(deep):
        budget = rs.SearchBudget(cap=max(args[:2]))
        G = rs.build_group(spec)
        out["deep_search"][f"{kind} {spec} {args}"] = _search(rs, kind, G, args, budget)
    for (kind, spec, args), n in first(itertools.product(LIMIT_SEARCHES, LIMITS)):
        budget = rs.SearchBudget(max_candidates=n)
        G = rs.build_group(spec)
        out["node_limits"][f"{kind} {spec} {args} {n}"] = _search(rs, kind, G, args, budget)
    out["catalog"] = first(catalog.run_catalog(32, 8, use_cache=False))
    out["cold_requests"] = [_request(cli, argv) for argv in first(workloads.cold_argvs())]
    out["input_errors"] = [_request(cli, argv) for argv in first(INPUT_ERRORS)]
    out["repeated"] = {}
    for spec, searches in first(REPEATED_SEARCHES):
        G = rs.build_group(spec)
        out["repeated"][spec] = [
            {
                "search": f"{kind} {args} {n}",
                **_search(rs, kind, G, args, rs.SearchBudget(max_candidates=n or 10**12)),
            }
            for kind, args, n in searches
        ]
    out["spherical"] = {}
    for name, r in first(SPHERICAL):
        spec = f"cayley:{catalog.bundled_cayley_path(name)}" if name in ("s3", "q8") else name
        tuples = [rs.render_tuple(T) for T in rs.enumerate_spherical(rs.build_group(spec), r)]
        out["spherical"][f"{name} {r}"] = {"count": len(tuples), "tuples": tuples}
    out["help"] = dict(first(_help(cli).items()))
    out["parse_errors"] = [_parse_error(rs, spec, text) for spec, text in first(PARSE_ERRORS)]
    out["constructors"] = dict(first(_constructors(rs, catalog).items()))
    return canonical(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    parser.add_argument("--limit", type=int, default=None, help="first N items per section")
    args = parser.parse_args(argv)
    data = dump(Path(args.root).resolve(), args.limit)
    Path(args.out).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
