import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ramstruct"


def _unused_imports(path: Path) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_module_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [item for path in modules for item in _unused_imports(path)]
    assert unused == []


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _unused_locals(path: Path) -> list[str]:
    """Names a function stores that neither it nor a function nested in it
    reads; `_`-prefixed names and `nonlocal`/`global` names are skipped."""
    tree = ast.parse(path.read_text())
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # the function's own statements, without nested scopes
        own, stack = [], list(fn.body)
        while stack:
            node = stack.pop()
            own.append(node)
            if not isinstance(node, SCOPES):
                stack.extend(ast.iter_child_nodes(node))
        shared = {
            name
            for node in own
            if isinstance(node, (ast.Nonlocal, ast.Global))
            for name in node.names
        }
        stored = {}
        for node in own:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
        read = {
            node.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        out += [
            f"{path.name}:{line} {name}"
            for name, line in stored.items()
            if name not in read and name not in shared and not name.startswith("_")
        ]
    return out


def test_no_unused_locals():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = [item for path in modules for item in _unused_locals(path)]
    assert unused == []


DEMOS = SRC.parent.parent / "demos"


def _references(tree: ast.AST) -> Counter:
    """How often a piece of code reads each name, as a name, an attribute or
    an import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_module_level_definition_is_used():
    # a function or class of the package must be read by the package (its
    # exports in __init__ count) or a demo, outside its own definition;
    # helpers only tests call belong in the tests
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.parent == SRC:
                    defined.append((path.name, node.name))
                used |= _references(node).keys() - {node.name}
            else:
                used |= _references(node).keys()
    assert defined
    assert [f"{module} {name}" for module, name in defined if name not in used] == []


def _attribute_reads(tree: ast.AST) -> Counter:
    """How often a piece of code reads each name as an attribute, `x.name`."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_public_method_is_used():
    # a public method of a package class must be read as an attribute by the
    # package or a demo outside its own body, so a local of the same name
    # does not count; `_` and dunder methods are skipped
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    trees.update((path, ast.parse(path.read_text())) for path in sorted(DEMOS.glob("*.py")))
    reads = Counter()
    for tree in trees.values():
        reads += _attribute_reads(tree)
    unused = [
        f"{path.name} {cls.name}.{fn.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        and reads[fn.name] == _attribute_reads(fn)[fn.name]
    ]
    assert unused == []


def test_walk_reads_rows_not_memos():
    # the walk reads its per-closure and per-alphabet rows; the memos behind
    # them are read only by the methods that fill a row's slots
    tree = ast.parse((SRC / "oracle.py").read_text())
    (ctx,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_SearchContext"]
    (walk,) = [n for n in ctx.body if isinstance(n, ast.FunctionDef) and n.name == "walk"]
    reads = _references(walk)
    assert {"ext_memo", "closed_memo", "alpha_gen_memo"} & reads.keys() == set()
    assert {"step_rows", "alpha_rows"} <= reads.keys()


def _clears(node: ast.AST) -> int:
    return sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "clear"
        for n in ast.walk(node)
    )


def test_caches_are_cleared_only_by_the_one_bound():
    # the speed caches that grow with a walk's reach share the bound in
    # `_Bounded.put`; only `partner` keeps its own, since its misses are
    # counted, so no cache brings back a literal bound of its own.  The
    # partner memo's clear also empties the refuted alphabets read off it
    tree = ast.parse((SRC / "oracle.py").read_text())
    owners = {
        f"{cls.name}.{fn.name}": _clears(fn)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and _clears(fn)
    }
    assert owners == {"_Bounded.put": 1, "_SearchContext.partner": 2}
    assert _clears(tree) == 3


# the calls after which a walk loop may read `tracker.count` back, and before
# which it stores it: the three walk levels and `emit` (`reach` stores the
# count itself)
WALK_CALLS = {"rec", "parents", "down", "leaves", "emit"}


def _touches_tracker(node: ast.AST, ctx: type, attrs=("count",)) -> bool:
    return any(
        isinstance(n, ast.Attribute)
        and n.attr in attrs
        and isinstance(n.value, ast.Name)
        and n.value.id == "tracker"
        and isinstance(n.ctx, ctx)
        for n in ast.walk(node)
    )


def _is_call_out(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, (ast.Expr, ast.Assign))
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id in WALK_CALLS
    )


def _blocks(stmts: list):
    """A statement list and every statement list nested in it."""
    yield stmts
    for stmt in stmts:
        for name in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, name, None)
            if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
                yield from _blocks(inner)
        for handler in getattr(stmt, "handlers", []):
            yield from _blocks(handler.body)


def test_walk_loops_keep_the_node_count_in_a_local():
    # per child, the walk's loops count in a local: `tracker.count` is stored
    # only in the statement just before a call out (a walk level or `emit`)
    # and read only after a call out in the same block, so a child
    # that is counted, cut or skipped touches no attribute; `tracker.stop`
    # too is read only after a call out, as `reach` returns the next one
    tree = ast.parse((SRC / "oracle.py").read_text())
    (ctx,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_SearchContext"]
    (walk,) = [n for n in ctx.body if isinstance(n, ast.FunctionDef) and n.name == "walk"]
    loops = [n for n in ast.walk(walk) if isinstance(n, (ast.For, ast.While))]
    assert loops
    bad = []
    for loop in loops:
        for block in _blocks(loop.body):
            for k, stmt in enumerate(block):
                if isinstance(stmt, (ast.If, ast.While)):
                    header = stmt.test
                elif isinstance(stmt, ast.For):
                    header = stmt.iter
                else:
                    header = stmt
                if _touches_tracker(header, ast.Store) and not (
                    k + 1 < len(block) and _is_call_out(block[k + 1])
                ):
                    bad.append(f"store at line {stmt.lineno}")
                if _touches_tracker(header, ast.Load, ("count", "stop")) and not any(
                    map(_is_call_out, block[:k])
                ):
                    bad.append(f"read at line {stmt.lineno}")
    assert bad == []


def _name(node: ast.AST) -> str:
    """The name a Name or Attribute node reads, or ""."""
    return getattr(node, "attr", getattr(node, "id", ""))


def test_groups_cache_derived_data_one_way():
    # a group caches its own attributes as `groups.cached_attribute`s and
    # everything else through `groups.per_group`.  No module reads an
    # object's __dict__ or decorates with functools.cached_property, which
    # stores through __dict__: on CPython 3.11 that doubles the cost of every
    # later attribute read on the object
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _name(node) in ("_cache", "_cache_dict", "__dict__"):
                bad.append(f"{path.name}:{node.lineno} {_name(node)}")
            if isinstance(node, ast.FunctionDef) and (
                node.name == "_compute_abelian"
                or "cached_property" in map(_name, node.decorator_list)
            ):
                bad.append(f"{path.name}:{node.lineno} {node.name}")
    assert bad == []
