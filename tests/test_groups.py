import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramstruct.bitset import ElementSet
from ramstruct.errors import NotASubgroup, NotNormal, RamError
from ramstruct.groups import (
    QUOTIENT_ORDER_CAP,
    AbelianGroup,
    CayleyTableGroup,
    DirectProductGroup,
    HeisenbergGroup,
    direct_product,
    greedy_generators,
    quotient,
)
from ramstruct.invariants import derived_subgroup, omega
from ramstruct.parsing import build_group


def brute_heis_mul(p, x, y):
    a1, b1, c1 = x
    a2, b2, c2 = y
    return ((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)


def test_abelian_componentwise_addition():
    G = AbelianGroup([2, 4])
    assert G.vector(G.mul(G.index_of((1, 2)), G.index_of((1, 3)))) == (0, 1)


def test_identity_law_everywhere(heis3):
    for G in (AbelianGroup([2, 4]), heis3):
        for g in G.elements():
            assert G.mul(0, g) == g == G.mul(g, 0)


def test_heisenberg_product_matches_formula(heis3):
    got = heis3.mul(heis3.index_of((1, 0, 0)), heis3.index_of((0, 1, 0)))
    assert heis3.triple(got) == brute_heis_mul(3, (1, 0, 0), (0, 1, 0)) == (1, 1, 1)


def test_heisenberg_all_products_match_brute_force(heis3):
    for x in heis3.elements():
        for y in heis3.elements():
            expected = brute_heis_mul(3, heis3.triple(x), heis3.triple(y))
            assert heis3.triple(heis3.mul(x, y)) == expected


def test_orders_powers_and_inverses_cost_under_two_products_per_element(monkeypatch):
    # one shared walk per cyclic subgroup; a walk per element would take
    # about |G|^2 / 2 products on C4096
    from ramstruct.invariants import power_map

    for G in (
        HeisenbergGroup(7),
        AbelianGroup([2] * 8),
        AbelianGroup([8, 8, 8]),
        AbelianGroup([9, 27]),
        AbelianGroup([4096]),
    ):
        mul = type(G).mul
        calls = [0]

        def counted(self, a, b):
            calls[0] += 1
            return mul(self, a, b)

        monkeypatch.setattr(type(G), "mul", counted)
        for g in G.elements():
            G.order_of(g)
            for k in (-1, 2, 5):
                G.power(g, k)
            G.inv(g)
        power_map(G, 2)
        power_map(G, 3)
        monkeypatch.undo()
        assert calls[0] < 2 * G.order, (G.describe(), calls[0])


def test_powers_match_repeated_multiplication(table_groups, brute_powers):
    P = direct_product(HeisenbergGroup(3), AbelianGroup([9]))
    N = P.generated_subgroup([P.index_of(0, 3)])
    for G in table_groups + [quotient(P, N).group]:
        for g in G.elements():
            walk = brute_powers(G.mul, g)
            o = len(walk)
            assert G.order_of(g) == o, (G.describe(), g)
            for k in range(-o, 2 * o + 1):
                assert G.power(g, k) == walk[k % o], (G.describe(), g, k)
            assert G.inv(g) == walk[-1 % o] and G.mul(g, G.inv(g)) == 0, (G.describe(), g)
            assert G.powers_mask(g) == sum(1 << x for x in walk), (G.describe(), g)


def test_element_orders(c2c4cubed, heis5):
    a = c2c4cubed.index_of((1, 0, 0, 0))
    assert c2c4cubed.order_of(a) == 2
    assert c2c4cubed.order_of(0) == 1
    # order of (1,0,0) over p=5 by brute-force powering
    g = heis5.index_of((1, 0, 0))
    x, k = g, 1
    while x != 0:
        x = heis5.mul(x, g)
        k += 1
    assert k == 5
    assert heis5.order_of(g) == 5


def test_generated_subgroup_examples(heis3):
    C = AbelianGroup([2, 2, 2])
    gens = [
        C.index_of(v)
        for v in [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    ]
    assert C.generated_subgroup(gens).cardinality == 8
    assert C.generated_subgroup([]).indices() == [0]
    pair = [heis3.index_of((1, 0, 0)), heis3.index_of((0, 1, 0))]
    assert heis3.generated_subgroup(pair).cardinality == 27


def test_closure_is_closed(heis3):
    sub = heis3.generated_subgroup([heis3.index_of((1, 1, 0))])
    for a in sub:
        for b in sub:
            assert heis3.mul(a, b) in sub
        assert heis3.inv(a) in sub


def test_conjugation(heis3):
    G = AbelianGroup([3, 9])
    for a in (1, 5, 7):
        for g in (2, 3, 11):
            assert G.conjugate(a, g) == a
    # direct computation with explicit triples: g^-1 * a * g
    a, g = (1, 0, 0), (0, 1, 0)
    ginv = (0, 2, 0)
    expected = brute_heis_mul(3, brute_heis_mul(3, ginv, a), g)
    got = heis3.conjugate(heis3.index_of(a), heis3.index_of(g))
    assert heis3.triple(got) == expected == (1, 0, 1)
    assert heis3.conjugate(0, heis3.index_of(g)) == 0


def test_is_normal(heis3):
    G = AbelianGroup([4, 2])
    assert G.is_normal(G.generated_subgroup([G.index_of((2, 0))]))
    center = derived_subgroup(heis3)  # center == derived subgroup here
    assert heis3.is_normal(center)
    assert not heis3.is_normal(heis3.generated_subgroup([heis3.index_of((1, 0, 0))]))
    with pytest.raises(NotASubgroup):
        heis3.is_normal(ElementSet.from_indices([0, 1, 5], heis3.order))


def test_quotient_examples(c2c4cubed, heis3):
    om = omega(c2c4cubed, 1)
    assert om.cardinality == 16
    view = quotient(c2c4cubed, om)
    assert view.group.order == 8
    assert all(view.group.order_of(g) <= 2 for g in view.group.elements())

    full = ElementSet((1 << heis3.order) - 1, heis3.order)
    assert quotient(heis3, full).group.order == 1

    center = derived_subgroup(heis3)
    view = quotient(heis3, center)
    assert view.group.order == 9
    assert view.group.is_abelian
    assert max(view.group.order_of(g) for g in view.group.elements()) == 3


def test_quotient_projection_is_homomorphism(heis3):
    view = quotient(heis3, derived_subgroup(heis3))
    for a in heis3.elements():
        for b in heis3.elements():
            assert view.project(heis3.mul(a, b)) == view.group.mul(
                view.project(a), view.project(b)
            )
    assert heis3.order == view.kernel.cardinality * view.group.order
    for q in view.group.elements():
        assert view.project(view.section(q)) == q


def test_quotient_requires_normal(heis3):
    H = heis3.generated_subgroup([heis3.index_of((1, 0, 0))])
    with pytest.raises(NotNormal):
        quotient(heis3, H)


def test_quotient_refuses_orders_past_the_cap(monkeypatch):
    # C2^13 / {1} has 8192 cosets, past the cap of 4096: refused before any
    # table is built
    G = AbelianGroup([2] * 13)
    assert G.order > QUOTIENT_ORDER_CAP

    def no_table(*args, **kwargs):
        raise AssertionError("quotient built a table past the cap")

    monkeypatch.setattr(G, "mul_table", no_table)
    with pytest.raises(RamError, match=f"quotient order 8192 exceeds cap {QUOTIENT_ORDER_CAP}"):
        quotient(G, ElementSet.from_indices([0], G.order))


def test_direct_product():
    P = direct_product(AbelianGroup([2]), AbelianGroup([3]))
    assert P.order == 6
    assert P.order_of(P.index_of(1, 1)) == 6
    K = direct_product(AbelianGroup([6, 6]), AbelianGroup([2]))
    assert K.order == 72
    import math

    for x in range(0, K.order, 7):
        a, b = K.pair(x)
        assert K.order_of(x) == math.lcm(K.left.order_of(a), K.right.order_of(b))


def test_upper_central_series(heis3):
    G = AbelianGroup([4, 3])
    series = G.upper_central_series()
    assert [z.cardinality for z in series] == [1, 12]
    series = heis3.upper_central_series()
    assert [z.cardinality for z in series] == [1, 3, 27]
    for prev, nxt in zip(series, series[1:]):
        assert prev.issubset(nxt) and prev.cardinality < nxt.cardinality


def test_enumeration_determinism():
    for make in (lambda: AbelianGroup([2, 4, 4, 4]), lambda: HeisenbergGroup(3)):
        G1, G2 = make(), make()
        for a in range(0, G1.order, 5):
            for b in range(0, G1.order, 7):
                assert G1.mul(a, b) == G2.mul(a, b)


def test_quotient_determinism():
    import numpy as np

    def build():
        G = AbelianGroup([2, 4, 4, 4])
        return quotient(G, omega(G, 1))

    v1, v2 = build(), build()
    assert np.array_equal(v1.group.table, v2.group.table)
    assert v1._reps == v2._reps
    assert v1._coset_of == v2._coset_of


def test_cayley_table_validation_rejects_bad_tables():
    with pytest.raises(RamError):
        CayleyTableGroup([[1, 0], [0, 1]])  # index 0 is not the identity
    with pytest.raises(RamError):
        CayleyTableGroup([[0, 1], [1, 1]])  # not a Latin square
    # identity + Latin but not associative: no such 2x2 exists, use 5x5 loop
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(RamError):
        CayleyTableGroup(loop)


def test_trivial_group_table():
    G = CayleyTableGroup([[0]])
    assert G.order == 1 and G.order_of(0) == 1


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 4, 5, 8, 9]), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_group_axioms_hold(orders, rng):
    G = AbelianGroup(orders)
    n = G.order
    triples = (
        itertools.product(range(n), repeat=3)
        if n <= 12
        else ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(300))
    )
    for a, b, c in triples:
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
    for a in range(n):
        assert G.mul(a, G.inv(a)) == 0 == G.mul(G.inv(a), a)


def test_heisenberg_axioms_exhaustive(heis3):
    n = heis3.order
    for a in range(n):
        assert heis3.mul(a, heis3.inv(a)) == 0
        for b in range(n):
            for c in range(0, n, 5):
                assert heis3.mul(heis3.mul(a, b), c) == heis3.mul(a, heis3.mul(b, c))


def test_heisenberg_requires_odd_prime():
    with pytest.raises(RamError):
        HeisenbergGroup(2)
    with pytest.raises(RamError):
        HeisenbergGroup(9)


def test_product_order_is_lcm_of_components(q8, s3):
    import math

    P = direct_product(q8, AbelianGroup([3]))
    for x in P.elements():
        a, b = P.pair(x)
        assert P.order_of(x) == math.lcm(P.left.order_of(a), P.right.order_of(b))


def _brute_upper_central_series(G):
    series = [1]
    while True:
        prev = series[-1]
        nxt = 0
        for g in G.elements():
            if all((prev >> G.commutator(g, x)) & 1 for x in G.elements()):
                nxt |= 1 << g
        if nxt == prev:
            return series
        series.append(nxt)


def _brute_is_normal(G, mask):
    """None for a subset that is not a subgroup, else whether it is normal."""
    elems = [g for g in G.elements() if (mask >> g) & 1]
    if not mask & 1 or any(not (mask >> G.mul(a, b)) & 1 for a in elems for b in elems):
        return None
    return all((mask >> G.conjugate(h, g)) & 1 for h in elems for g in G.elements())


def test_generating_set_scans_match_brute_force(differential_groups, s3):
    assert len(differential_groups) == 60
    for G in differential_groups:
        name = G.describe()
        commute = all(G.mul(a, b) == G.mul(b, a) for a in G.elements() for b in G.elements())
        assert G.is_abelian == commute, name
        assert G.closure_mask(G.generators()) == (1 << G.order) - 1, name
        series = [z.mask for z in G.upper_central_series()]
        assert series == _brute_upper_central_series(G), name
        # cyclic and two-generated subgroups, and non-subgroups: a subgroup
        # with one more element, and a subgroup without the identity
        subsets = set()
        for y in G.elements():
            cyc = G.closure_mask([y])
            z = (5 * y + 2) % G.order
            subsets |= {cyc, G.closure_mask([y, z]), cyc | 1 << z, cyc & ~1}
        for mask in subsets:
            expected = _brute_is_normal(G, mask)
            if expected is None:
                with pytest.raises(NotASubgroup):
                    G.is_normal(ElementSet(mask, G.order))
            else:
                assert G.is_normal(ElementSet(mask, G.order)) == expected, name
    assert [z.mask for z in s3.upper_central_series()] == [1]
    assert [z.mask for z in CayleyTableGroup([[0]]).upper_central_series()] == [1]


def test_closures_match_breadth_first(closure_groups, bfs_closure):
    # generator lists with the identity, repeats and entries already in the
    # closure of those before them
    assert len(closure_groups) == 63
    for i, G in enumerate(closure_groups):
        name = G.describe()
        rng = random.Random(i)
        for k in (1, 2, 3, 5, 8):
            cands = [rng.randrange(G.order) for _ in range(k)]
            cands += [0, cands[0], G.mul(cands[0], cands[-1]), G.inv(cands[-1])]
            rng.shuffle(cands)
            kept: list[int] = []
            for x in cands:
                if not (bfs_closure(G.mul, kept) >> x) & 1:
                    kept.append(x)
            expected = bfs_closure(G.mul, cands)
            assert G.closure_mask(cands) == expected, name
            assert greedy_generators(G, cands) == (kept, expected), name


@pytest.mark.parametrize("spec", ["x".join(["C2"] * 8), "C8xC8xC8", "heis(7)"])
def test_closure_costs_about_one_product_per_element(spec, monkeypatch):
    # the coset step makes about |G| + |G : H| |gens| products per kept
    # generator; a breadth-first closure makes |G| |gens|
    G = build_group(spec)
    gens = G.generators()
    calls = 0
    mul = type(G).mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(type(G), "mul", counted)
    assert G.closure_mask(gens) == (1 << G.order) - 1
    assert calls < 2 * G.order


def test_mul_table_matches_mul(table_groups):
    assert len(table_groups) == 67
    for G in table_groups:
        name = G.describe()
        n = G.order
        mul = G.mul
        table = G.mul_table()
        assert table.shape == (n, n) and table.dtype.kind == "i", name
        assert table.tolist() == [[mul(a, b) for b in range(n)] for a in range(n)], name
        # a block: repeated, unsorted rows and columns
        rows = [n - 1, 0, n // 2, n - 1]
        cols = [n // 3, 1 % n, n - 1]
        assert G.mul_table(rows, cols).tolist() == [[mul(a, b) for b in cols] for a in rows]
        assert np.array_equal(G.mul_table(rows), table[rows]), name
        assert np.array_equal(G.mul_table(cols=cols), table[:, cols]), name


def test_quotient_tables_of_constructor_kernels(monkeypatch):
    # the quotients the constructors take on these groups, and those by every
    # Omega_i and by Phi of each Sylow factor, have the table
    # Q[i, j] = coset of section(i) * section(j)
    from ramstruct import constructors
    from ramstruct.invariants import exponent_exponent, frattini, sylow_decomposition

    views = []

    def recorded(G, N):
        view = quotient(G, N)
        views.append(view)
        return view

    monkeypatch.setattr(constructors, "quotient", recorded)
    for spec, r1, r2 in [
        ("heis(7)", 4, 5),
        ("heis(5)", 3, 4),
        ("heis(3)", 4, 4),
        ("C3xC3xC3", 4, 5),
        ("C2xC4xC4xC4", 5, 7),
        ("C2xC4xC4xC4", 6, 6),
        ("C9xC9", 4, 4),
        ("C3xC9", 4, 4),
        ("C4xC8xC16", 5, 6),
        ("C4xC4xC4", 6, 6),
        ("C2xC2xC2xC2", 4, 4),
        ("C6xC6xC2", 5, 7),
        ("C8xC8", 5, 5),
        ("C12xC12", 4, 4),
        ("prod(heis(3),C2)", 4, 4),
    ]:
        G = build_group(spec)
        constructors.construct_any(G, r1, r2)
        for factor in sylow_decomposition(G).values():
            P = factor.group
            _, e = exponent_exponent(P)
            views += [quotient(P, omega(P, i)) for i in range(e + 1)]
            views.append(quotient(P, frattini(P)))
    assert len(views) == 72
    for view in views:
        G, reps = view.parent, view._reps
        expected = [[view.project(G.mul(a, b)) for b in reps] for a in reps]
        assert view.group.table.tolist() == expected, view.group.describe()
