"""Count the code lines of the ramstruct package in one or more checkouts.

    python3 tools/code_lines.py [--root CHECKOUT ...]

For each CHECKOUT (by default the checkout that holds this script) prints the
code lines of every `src/ramstruct/*.py` and their total.  A line counts when
it holds a token other than a comment, a newline or indentation, and is not
part of a module, class or function docstring; so comments, docstrings and
blank lines never count.  With two roots it also prints the change per
module, second minus first.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The lines of every module, class and function docstring."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """How many lines of the source hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def module_counts(root: Path) -> dict[str, int]:
    """Code lines of each module of the checkout's package, by file name."""
    paths = sorted((root / "src" / "ramstruct").glob("*.py"))
    return {path.name: code_lines(path.read_text()) for path in paths}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root",
        action="append",
        help="a checkout to count; repeat to compare (default: this checkout)",
    )
    args = parser.parse_args(argv)
    roots = [Path(r) for r in args.root or [Path(__file__).resolve().parent.parent]]
    counts = [module_counts(root) for root in roots]
    names = sorted(set().union(*counts))
    rows = [[name] + [c.get(name, 0) for c in counts] for name in names]
    rows.append(["total"] + [sum(c.values()) for c in counts])
    header = ["module"] + [str(root) for root in roots]
    if len(roots) == 2:
        header.append("change")
        for row in rows:
            row.append(f"{row[2] - row[1]:+d}")
    widths = [max(len(str(row[k])) for row in rows + [header]) for k in range(len(header))]
    for row in [header] + rows:
        cells = [str(row[0]).ljust(widths[0])]
        cells += [str(v).rjust(w) for v, w in zip(row[1:], widths[1:])]
        print("  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
