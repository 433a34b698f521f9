"""Parsers for group specs, and parsers and renderers for element literals and
tuple literals.  A spec parses straight into its group; `FiniteGroup.describe()`
renders it back in canonical form.

Group spec grammar (case-insensitive keywords, whitespace-insensitive):

    spec    := chain | 'abelian' '(' int (',' int)* ')' | 'heis' '(' int ')'
             | 'cayley' ':' path | 'prod' '(' spec ',' spec ')'
    chain   := 'C' int ('x' 'C' int)*

Element literals depend on the realization: abelian groups accept exponent
vectors "(e1,...,ek)" and generator words like "x1*x2^-1" or "(x1*x2)^-1";
Heisenberg groups accept triples "(a,b,c)"; table groups accept "#<index>" or
a declared name; direct products accept "(<left>|<right>)".  Tuples are
semicolon-separated element literals in brackets: "[x1; x2; (x1*x2)^-1]".
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from .errors import InvalidOrder, InvalidPrime, OutOfRange, ParseError, RamError
from .groups import (
    AbelianGroup,
    CayleyTableGroup,
    DirectProductGroup,
    FiniteGroup,
    HeisenbergGroup,
    direct_product,
    prime_factorization,
)
from .structures import GenTuple

# the largest group order a spec may name: every command lists or walks the
# elements, which past this order takes minutes or more memory than a host has
_MAX_ORDER = 1 << 18


# -- group specs -----------------------------------------------------------------


def load_cayley_file(path: str) -> CayleyTableGroup:
    """The table group stored in a JSON file, labelled with its spec
    "cayley:<path>".  The table must be a square list of integer rows, and
    the optional names distinct non-empty strings, one per element, that read
    back as themselves in element, tuple and product literals: none starts
    with '#' or holds whitespace, ';', '[', ']' or '|', and none is another
    name followed by one or more ')', which would read as that name where
    product literals close after it."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "order" not in data or "table" not in data:
        raise RamError(f"cayley file {path} lacks 'order'/'table' fields")
    table, names = data["table"], data.get("names")
    if not (
        isinstance(table, list)
        and all(isinstance(row, list) and len(row) == len(table) for row in table)
        and all(type(x) is int for row in table for x in row)
    ):
        raise RamError(f"cayley file {path}: table is not a square list of integer rows")
    if len(table) != data["order"]:
        raise RamError(f"cayley file {path}: table size does not match declared order")
    if names is not None and not (
        isinstance(names, list)
        and all(isinstance(name, str) and name for name in names)
        and len(set(names)) == len(names)
    ):
        raise RamError(f"cayley file {path}: names are not distinct non-empty strings")
    taken = set(names or ())
    for name in names or ():
        if (
            name.startswith("#")
            or any(ch.isspace() or ch in ";[]|" for ch in name)
            or any(name[:k] in taken for k in range(len(name.rstrip(")")), len(name)))
        ):
            raise RamError(f"cayley file {path}: element name {name!r} cannot be parsed back")
    return CayleyTableGroup(table, names, label=f"cayley:{path}")


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def integer(self, signed: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] in "+-":
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def items(self, item, sep: str = ",") -> list:
        """One or more `item()` results, separated by any character of `sep`."""
        out = [item()]
        while (ch := self.peek()) and ch in sep:  # "" is in every string
            self.pos += 1
            out.append(item())
        return out


def build_group(text: str) -> FiniteGroup:
    """The group a spec names; `G.describe()` is its canonical spelling, so
    `build_group(G.describe())` rebuilds G."""
    cur = _Cursor(text)
    G = _parse_spec(cur)
    if not cur.at_end():
        raise cur.error("unexpected trailing input")
    _refuse_order(G.order)
    return G


def _refuse_order(order: int) -> None:
    """Refuse a group of order past `_MAX_ORDER` before anything walks it or
    builds a list of its elements."""
    if order > _MAX_ORDER:
        raise RamError(f"group order {order} exceeds the largest supported order {_MAX_ORDER}")


def _parse_spec(cur: _Cursor) -> FiniteGroup:
    cur.skip_ws()
    rest = cur.text[cur.pos :].lower()
    if rest.startswith("abelian"):
        cur.pos += len("abelian")
        cur.expect("(")
        orders = cur.items(lambda: _order(cur))
        cur.expect(")")
        return AbelianGroup(orders)
    if rest.startswith("heis"):
        cur.pos += len("heis")
        cur.expect("(")
        at = cur.pos
        p = cur.integer()
        _refuse_order(p**3)  # before the primality test, whose cost grows with p
        if p < 3 or prime_factorization(p) != {p: 1}:
            raise InvalidPrime(f"heis needs an odd prime, got {p}", cur.text, at)
        cur.expect(")")
        return HeisenbergGroup(p)
    if rest.startswith("cayley"):
        cur.pos += len("cayley")
        cur.expect(":")
        start = cur.pos
        depth = 0
        while cur.pos < len(cur.text):
            ch = cur.text[cur.pos]
            if ch == "(":
                depth += 1
            elif ch == ")" and depth == 0:
                break
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                break
            cur.pos += 1
        path = cur.text[start : cur.pos].strip()
        if not path:
            raise cur.error("empty cayley path")
        return load_cayley_file(path)
    if rest.startswith("prod"):
        cur.pos += len("prod")
        cur.expect("(")
        left = _parse_spec(cur)
        cur.expect(",")
        right = _parse_spec(cur)
        cur.expect(")")
        return direct_product(left, right)
    if cur.peek() in ("C", "c"):
        return AbelianGroup(cur.items(lambda: _cyclic_atom(cur), "xX"))
    raise cur.error("expected a group spec")


def _cyclic_atom(cur: _Cursor) -> int:
    if cur.peek() not in ("C", "c"):
        raise cur.error("expected 'C'")
    cur.pos += 1
    return _order(cur)


def _order(cur: _Cursor) -> int:
    at = cur.pos
    n = cur.integer()
    if n < 2:
        raise InvalidOrder(f"cyclic order must be >= 2, got {n}", cur.text, at)
    return n


# -- element literals ---------------------------------------------------------------


def parse_element(G: FiniteGroup, text: str) -> int:
    cur = _Cursor(text)
    e = _element(cur, G)
    if not cur.at_end():
        raise cur.error("unexpected trailing input")
    return e


def _element(cur: _Cursor, G: FiniteGroup) -> int:
    if isinstance(G, AbelianGroup):
        return _abelian_word(cur, G)
    if isinstance(G, HeisenbergGroup):
        return _heisenberg_triple(cur, G)
    if isinstance(G, DirectProductGroup):
        cur.expect("(")
        left = _element(cur, G.left)
        cur.expect("|")
        right = _element(cur, G.right)
        cur.expect(")")
        return G.index_of(left, right)
    if isinstance(G, CayleyTableGroup):
        return _table_element(cur, G)
    raise cur.error(f"no element grammar for {type(G).__name__}")


def _abelian_word(cur: _Cursor, G: AbelianGroup) -> int:
    return functools.reduce(G.mul, cur.items(lambda: _abelian_factor(cur, G), "*"))


def _abelian_factor(cur: _Cursor, G: AbelianGroup) -> int:
    base = _abelian_atom(cur, G)
    if cur.peek() == "^":
        cur.expect("^")
        return G.power(base, cur.integer(signed=True))
    return base


def _abelian_atom(cur: _Cursor, G: AbelianGroup) -> int:
    ch = cur.peek()
    if ch == "1":
        cur.pos += 1
        return 0
    if ch in ("x", "X"):
        cur.pos += 1
        i = cur.integer()
        if not 1 <= i <= len(G.orders):
            raise OutOfRange(f"generator x{i} out of range (1..{len(G.orders)})")
        return G.generator(i - 1)
    if ch == "(":
        if _looks_like_vector(cur):
            return _abelian_vector(cur, G)
        cur.expect("(")
        inner = _abelian_word(cur, G)
        cur.expect(")")
        return inner
    raise cur.error("expected '1', a generator 'x<i>', a vector, or '('")


def _looks_like_vector(cur: _Cursor) -> bool:
    for ch in cur.text[cur.pos :]:
        if ch == ")":
            return True
        if not (ch.isdigit() or ch in "(,-+ \t"):
            return False
    return False


def _coordinates(cur: _Cursor) -> list[int]:
    """A signed coordinate list: "(" int ("," int)* ")"."""
    cur.expect("(")
    coords = cur.items(lambda: cur.integer(signed=True))
    cur.expect(")")
    return coords


def _abelian_vector(cur: _Cursor, G: AbelianGroup) -> int:
    coords = _coordinates(cur)
    if len(coords) != len(G.orders):
        raise cur.error(f"vector needs {len(G.orders)} coordinates")
    for e, m in zip(coords, G.orders):
        if not 0 <= e < m:
            raise OutOfRange(f"coordinate {e} out of range for C{m}")
    return G.index_of(coords)


def _heisenberg_triple(cur: _Cursor, G: HeisenbergGroup) -> int:
    coords = _coordinates(cur)
    if len(coords) != 3:
        raise cur.error("Heisenberg elements are triples")
    return G.index_of(coords)


def _table_element(cur: _Cursor, G: CayleyTableGroup) -> int:
    if cur.peek() == "#":
        cur.expect("#")
        i = cur.integer()
        if not 0 <= i < G.order:
            raise OutOfRange(f"element #{i} out of range (order {G.order})")
        return i
    if G.names:
        cur.skip_ws()
        rest = cur.text[cur.pos :]
        for name in sorted(set(G.names), key=len, reverse=True):
            if rest.startswith(name):
                cur.pos += len(name)
                return G.names.index(name)
    raise cur.error("expected '#<index>' or a declared element name")


def render_element(G: FiniteGroup, a: int) -> str:
    """Canonical literal for an element; abelian groups render as generator
    words to match the tuple notation used everywhere else."""
    G.check_index(a)
    if isinstance(G, AbelianGroup):
        vec = G.vector(a)
        parts = []
        for i, e in enumerate(vec):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"
    if isinstance(G, HeisenbergGroup):
        return "({},{},{})".format(*G.triple(a))
    if isinstance(G, DirectProductGroup):
        left, right = G.pair(a)
        return f"({render_element(G.left, left)}|{render_element(G.right, right)})"
    if isinstance(G, CayleyTableGroup):
        name = G.name_of(a)
        return name if name is not None else f"#{a}"
    raise RamError(f"no renderer for {type(G).__name__}")


# -- tuples -----------------------------------------------------------------------


def parse_tuple(G: FiniteGroup, text: str) -> GenTuple:
    cur = _Cursor(text)
    cur.expect("[")
    if cur.peek() == "]":
        raise cur.error("empty tuple")
    entries = cur.items(lambda: _element(cur, G), ";")
    cur.expect("]")
    if not cur.at_end():
        raise cur.error("unexpected trailing input")
    return GenTuple(G, tuple(entries))


def render_tuple(T: GenTuple) -> str:
    return "[" + "; ".join(render_element(T.group, g) for g in T.entries) + "]"
