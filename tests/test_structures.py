import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramstruct.errors import InternalContradiction
from ramstruct.groups import AbelianGroup, HeisenbergGroup
from ramstruct.structures import (
    GenTuple,
    RamFailure,
    RamStructure,
    are_disjoint,
    check_ramification,
    is_spherical_system,
    sigma,
    validated,
)


def fixture_c2c4cubed_pair(G):
    v = G.index_of
    a, x, y, z = v((1, 0, 0, 0)), v((0, 1, 0, 0)), v((0, 0, 1, 0)), v((0, 0, 0, 1))
    t1 = (x, y, z, G.inv(x), G.inv(y), G.mul(G.inv(z), a), a)
    t2 = (
        G.mul(G.mul(x, y), a),
        G.mul(x, z),
        G.mul(y, z),
        G.mul(G.mul(x, y), z),
        G.mul(G.mul(G.mul(x, y), z), a),
    )
    return t1, t2


def test_spherical_examples(c2c4cubed):
    t1, _ = fixture_c2c4cubed_pair(c2c4cubed)
    assert is_spherical_system(c2c4cubed, GenTuple(c2c4cubed, t1))

    C = AbelianGroup([2, 2])
    x, y = C.index_of((1, 0)), C.index_of((0, 1))
    assert is_spherical_system(C, GenTuple(C, (x, y, C.mul(x, y))))

    verdict = is_spherical_system(C, GenTuple(C, (x, 0, x)))
    assert not verdict and verdict.reason == "trivial_entry" and verdict.detail == 1


def test_spherical_failure_order(heis3):
    g = heis3.index_of((1, 0, 0))
    # non-generating comes before bad product in the report order
    verdict = is_spherical_system(heis3, GenTuple(heis3, (g, g, g)))
    assert verdict.reason == "not_generating"
    h = heis3.index_of((0, 1, 0))
    verdict = is_spherical_system(heis3, GenTuple(heis3, (g, h, g)))
    assert verdict.reason == "product_not_identity"


def test_sigma_examples():
    C = AbelianGroup([3, 3])
    x1, x2 = C.index_of((1, 0)), C.index_of((0, 1))
    T = GenTuple(C, (x1, x2, C.inv(C.mul(x1, x2))))
    assert sigma(C, T).cardinality == 7

    D = AbelianGroup([2, 2, 2, 2])
    xs = [D.index_of(tuple(1 if i == j else 0 for j in range(4))) for i in range(4)]
    last = D.inv(D.mul(D.mul(xs[0], xs[1]), D.mul(xs[2], xs[3])))
    T = GenTuple(D, (*xs, last))
    expected = {0, *xs, last}  # direct union of the involutions' subgroups
    assert set(sigma(D, T).indices()) == expected
    assert sigma(D, T).cardinality == 6


def test_sigma_abelian_equals_plain_union(heis3):
    G = AbelianGroup([4, 2])
    T = GenTuple(G, (1, 3, 5))
    union = {0}
    for g in T.entries:
        x = g
        while x != 0:
            union.add(x)
            x = G.mul(x, g)
    assert set(sigma(G, T).indices()) == union
    # nonabelian: sigma is conjugation-closed and inversion-closed, contains entries
    T = GenTuple(heis3, (heis3.index_of((1, 0, 0)), heis3.index_of((0, 1, 1))))
    S = sigma(heis3, T)
    for s in S:
        assert heis3.inv(s) in S
        for g in heis3.elements():
            assert heis3.conjugate(s, g) in S
    for g in T.entries:
        assert g in S
    assert 0 in S


def test_are_disjoint(c2c4cubed):
    t1, t2 = fixture_c2c4cubed_pair(c2c4cubed)
    ok, witness = are_disjoint(c2c4cubed, GenTuple(c2c4cubed, t1), GenTuple(c2c4cubed, t2))
    assert ok and witness is None

    C = AbelianGroup([5, 5])
    x1, x2 = C.index_of((1, 0)), C.index_of((0, 1))
    T1 = GenTuple(C, (x1, x2, C.inv(C.mul(x1, x2))))
    T2 = GenTuple(
        C, (C.index_of((1, 2)), C.index_of((1, 4)), C.inv(C.index_of((2, 6 % 5))))
    )
    assert are_disjoint(C, T1, T2)[0]

    ok, witness = are_disjoint(C, T1, T1)
    assert not ok and witness in sigma(C, T1).indices()


def test_check_ramification(c2c4cubed, c6c6c2):
    t1, t2 = fixture_c2c4cubed_pair(c2c4cubed)
    S = check_ramification(
        c2c4cubed, GenTuple(c2c4cubed, t1), GenTuple(c2c4cubed, t2)
    )
    assert isinstance(S, RamStructure) and S.size == (7, 5)

    K = c6c6c2
    a, b, c = K.index_of((1, 0, 0)), K.index_of((0, 1, 0)), K.index_of((0, 0, 1))
    t1 = (a, b, c, K.inv(b), K.inv(K.mul(a, c)))
    ab = K.mul(a, b)
    abc = K.mul(ab, c)
    a2bc = K.mul(a, abc)
    t2 = (ab, ab, K.inv(K.mul(ab, ab)), abc, K.inv(abc), a2bc, K.inv(a2bc))
    S = validated(K, t1, t2)
    assert S.size == (5, 7)

    C = AbelianGroup([5, 5])
    T = GenTuple(C, (C.index_of((1, 0)), C.index_of((0, 1)), C.inv(C.index_of((1, 1)))))
    failure = check_ramification(C, T, T)
    assert isinstance(failure, RamFailure) and failure.reason == "not_disjoint"


def test_validated_names_the_failed_step():
    G = AbelianGroup([5, 5])
    x, y = G.index_of((1, 0)), G.index_of((0, 1))
    t = (x, y, G.inv(G.mul(x, y)))
    with pytest.raises(InternalContradiction, match="^tuple pair failed validation: not_disjoint$"):
        validated(G, t, t)
    with pytest.raises(InternalContradiction, match="^padding failed validation: t1:"):
        validated(G, (x, x, x), t, "padding")


def test_small_tuples_rejected_for_structures():
    C = AbelianGroup([5, 5])
    x1, x2 = C.index_of((1, 0)), C.index_of((0, 1))
    T = GenTuple(C, (x1, C.inv(x1)))
    short = check_ramification(C, T, T)
    assert isinstance(short, RamFailure) and short.reason == "size_below_minimum"
    # but the spherical test itself accepts short tuples
    assert is_spherical_system(AbelianGroup([5]), GenTuple(AbelianGroup([5]), (1, 4)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_permutation_and_rotation_invariance(data):
    G = HeisenbergGroup(3)
    r = data.draw(st.integers(3, 5))
    entries = tuple(
        data.draw(st.integers(1, G.order - 1), label=f"g{i}") for i in range(r - 1)
    )
    prod = 0
    for g in entries:
        prod = G.mul(prod, g)
    last = G.inv(prod)
    if last == 0:
        return
    T = GenTuple(G, entries + (last,))
    base = is_spherical_system(G, T)
    base_sigma = sigma(G, T)
    # sigma is invariant under arbitrary permutation
    perm = data.draw(st.permutations(list(T.entries)))
    assert sigma(G, GenTuple(G, tuple(perm))) == base_sigma
    # the spherical verdict is invariant under rotation
    k = data.draw(st.integers(0, r - 1))
    rotated = GenTuple(G, T.entries[k:] + T.entries[:k])
    assert is_spherical_system(G, rotated).ok == base.ok


def test_cyc_masks_match_brute_force(differential_groups, brute_powers):
    # the union of the cyclic subgroups of all |G| conjugates of each element
    from ramstruct.structures import _cyc_masks

    for G in differential_groups:
        expected = []
        for y in G.elements():
            m = 0
            for g in G.elements():
                for x in brute_powers(G.mul, G.conjugate(y, g)):
                    m |= 1 << x
            expected.append(m)
        assert _cyc_masks(G) == expected, G.describe()
