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
  element literals and tuple literals, many of them separated lists.

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
