import ast
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


def _walk_calls(path: Path) -> list[tuple[str, ast.Call]]:
    """Every call `<x>.walk(...)` in the module, with the name of the
    innermost function that makes it."""
    calls = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "walk"
        ):
            calls.append((fn, node))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(path.read_text()), "<module>")
    return calls


def test_only_decision_searches_replay_repeated_states():
    # a replayed subtree emits nothing, so only the searches that stop at
    # their first success may ask for replays; enumerations need every
    # completion.  `repeats` is passed by keyword, as the literal True.
    replaying, odd = set(), []
    for path in sorted(SRC.glob("*.py")):
        for fn, call in _walk_calls(path):
            where = f"{path.name}:{call.lineno} {fn}"
            if len(call.args) > 6 or any(k.arg is None for k in call.keywords):
                odd.append(where)  # `repeats` could hide in these
            for k in call.keywords:
                if k.arg == "repeats":
                    if isinstance(k.value, ast.Constant) and k.value.value is True:
                        replaying.add(fn)
                    else:
                        odd.append(where)
    assert odd == []
    assert replaying == {"partner", "_dfs_t1_row"}
