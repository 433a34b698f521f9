import json

import pytest

from ramstruct.catalog import bundled_cayley_path
from ramstruct.groups import AbelianGroup, HeisenbergGroup
from ramstruct.parsing import load_cayley_file


@pytest.fixture(scope="session")
def c2c4cubed():
    return AbelianGroup([2, 4, 4, 4])


@pytest.fixture(scope="session")
def c6c6c2():
    return AbelianGroup([6, 6, 2])


@pytest.fixture(scope="session")
def heis3():
    return HeisenbergGroup(3)


@pytest.fixture(scope="session")
def heis5():
    return HeisenbergGroup(5)


@pytest.fixture(scope="session")
def q8():
    return load_cayley_file(str(bundled_cayley_path("q8")))


@pytest.fixture(scope="session")
def d4():
    return load_cayley_file(str(bundled_cayley_path("d4")))


@pytest.fixture(scope="session")
def s3():
    return load_cayley_file(str(bundled_cayley_path("s3")))


# Cayley files that once loaded with a traceback, loaded a group that failed
# later, or loaded a different table than they hold
MALFORMED_CAYLEY = {
    "table-not-a-list": {"order": 2, "table": 5},
    "names-not-a-list": {"order": 2, "table": [[0, 1], [1, 0]], "names": 5},
    "integer-names": {"order": 2, "table": [[0, 1], [1, 0]], "names": [0, 1]},
    "float-entry": {"order": 2, "table": [[0, 1], [1.9, 0]]},
    "duplicate-names": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["a", "a"]},
    # names that render but parse back as another element or not at all
    "hash-name": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["#1", "e"]},
    "leading-space-name": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", " a"]},
    "inner-tab-name": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", "a\tb"]},
    "semicolon-name": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", "a;b"]},
    "open-bracket-name": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", "[a"]},
    "close-bracket-name": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", "a]"]},
    "bar-name": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", "a|b"]},
    # "(1|r)" in a product would read as the name "r)", then lack its ')',
    # and "(1|(1|r))" likewise as "r))"
    "name-plus-paren": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["r", "r)"]},
    "name-plus-parens": {"order": 2, "table": [[0, 1], [1, 0]], "names": ["r", "r))"]},
}


@pytest.fixture(params=list(MALFORMED_CAYLEY))
def malformed_cayley(request, tmp_path):
    """The path of one malformed Cayley file."""
    path = tmp_path / f"{request.param}.json"
    path.write_text(json.dumps(MALFORMED_CAYLEY[request.param]))
    return str(path)


@pytest.fixture(scope="session")
def differential_groups():
    """The order <= 32 catalog (with heis(3), heis(5), d4, q8 and s3) and
    prod(heis(3),C2), for checks against brute-force |G|^2 definitions."""
    from ramstruct.catalog import builtin_catalog
    from ramstruct.parsing import build_group

    groups = [build_group(entry.spec) for entry in builtin_catalog(32)]
    groups.append(build_group("prod(heis(3),C2)"))
    return groups


@pytest.fixture(scope="session")
def table_groups():
    """The order <= 32 catalog (its table groups loaded from their files),
    groups of order 72 to 512 in every realization, and a product with a
    loaded Cayley factor, for checks of `mul_table` and the oracle context
    against their |G|^2 definitions."""
    from ramstruct.catalog import builtin_catalog
    from ramstruct.parsing import build_group

    specs = [entry.spec for entry in builtin_catalog(32)]
    specs += [
        "x".join(["C2"] * 9),
        "C8xC8xC8",
        "heis(7)",
        "C6xC6xC2",
        "C2xC4xC4xC4",
        "prod(heis(3),C4)",
        "prod(heis(5),C3)",
        f"prod(cayley:{bundled_cayley_path('q8')},C3)",
    ]
    return [build_group(spec) for spec in specs]


@pytest.fixture(scope="session")
def closure_groups():
    """The order <= 32 catalog (with heis(3), heis(5), d4, q8 and s3) and
    heis(7), C2^9, C8xC8xC8 and prod(heis(3),C4), for checks of the coset
    closures against a breadth-first one."""
    from ramstruct.catalog import builtin_catalog
    from ramstruct.parsing import build_group

    specs = [entry.spec for entry in builtin_catalog(32)]
    specs += ["heis(7)", "x".join(["C2"] * 9), "C8xC8xC8", "prod(heis(3),C4)"]
    return [build_group(spec) for spec in specs]


def _bfs_closure(mul, gens) -> int:
    mask, queue = 1, [0]
    while queue:
        x = queue.pop()
        for g in gens:
            t = mul(x, g)
            if not (mask >> t) & 1:
                mask |= 1 << t
                queue.append(t)
    return mask


@pytest.fixture(scope="session")
def bfs_closure():
    """bfs_closure(mul, gens): the mask of <gens> by breadth-first closure
    from the identity under right multiplication by gens, with `mul` a
    product function; a reference that shares no code with the closures it
    checks."""
    return _bfs_closure


def _brute_powers(mul, g) -> list[int]:
    walk, x = [0], g
    while x:
        walk.append(x)
        x = mul(x, g)
    return walk


@pytest.fixture(scope="session")
def brute_powers():
    """brute_powers(mul, g): [1, g, g^2, ..., g^(o-1)] by repeated right
    multiplication from the identity, with `mul` a product function; a
    reference that shares no code with the group's table of cyclic walks."""
    return _brute_powers


def _walk_nodes(ctx, r, amask, multiset, narrow) -> int:
    # the root, then one node per prefix visited below a prefix that passed
    # its cuts; leaves (length r-1) are never cut, as their last entry is forced
    alist = [y for y in range(ctx.n) if (amask >> y) & 1]
    count = 1
    if narrow and not ctx.alphabet_generates(amask) or ctx.need(1) > r:
        return count

    def visit(depth, hmask, pmask, start):
        nonlocal count
        for i in range(start, len(alist)):
            y = alist[i]
            count += 1
            if depth + 1 == r - 1:
                continue
            p = pmask & ctx.compat[y] if narrow else pmask
            if narrow and not ctx.alphabet_generates(p):
                continue
            h = ctx.extend_closure(hmask, y)
            if ctx.need(h) > r - depth - 1:
                continue
            visit(depth + 1, h, p, i if multiset else 0)

    visit(0, 1, amask, 0)
    return count


@pytest.fixture(scope="session")
def walk_nodes():
    """walk_nodes(ctx, r, amask, multiset, narrow): the nodes a walk of
    `ctx` counts, by a plain recursion over prefixes from H = {1} that
    counts each visited prefix one at a time and cuts a prefix whose partner
    alphabet (when narrowing) stops generating G or whose closure needs more
    generators than slots remain; no leaf masks, no arithmetic counting and
    no replay."""
    return _walk_nodes
