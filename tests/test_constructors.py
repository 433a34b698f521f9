import pytest

from ramstruct.constructors import (
    construct_any,
    elementary_abelian_structure,
    extend_rank,
    extend_size,
    exponent_p_structure,
    lift_structure_mod_omega,
    lift_tuple,
    omega_context,
    pad_from_beauville,
    product_combine,
    product_project,
    project_mod_omega,
    semi_abelian_2group_odd_odd,
)
from ramstruct import constructors, oracle
from ramstruct.catalog import bundled_cayley_path
from ramstruct.errors import (
    DegenerateRank,
    HypothesisViolated,
    InadmissibleSize,
    InternalContradiction,
    NoLiftExists,
    NotCoprime,
    NotNilpotent,
    PaddingImpossible,
    PreconditionViolated,
)
from ramstruct.groups import AbelianGroup, quotient
from ramstruct.invariants import omega, sylow_decomposition
from ramstruct.parsing import build_group
from ramstruct.structures import (
    GenTuple,
    RamStructure,
    check_ramification,
    is_spherical_system,
    sigma,
    validated,
)
from ramstruct.theory import (
    predict_elementary_abelian,
    predict_nilpotent,
    predict_semi_abelian_pgroup,
)


def test_lift_tuple_spherical(c2c4cubed):
    view = quotient(c2c4cubed, omega(c2c4cubed, 1))
    Q = view.group
    # a length-5 spherical generating tuple of the quotient (a rank-3 group)
    basis = []
    h = 1
    for q in range(1, Q.order):
        if not (h >> q) & 1:
            basis.append(q)
            h = Q.closure_mask(basis)
    x, y, z = basis
    u = (x, y, z, x, Q.inv(Q.mul(Q.mul(Q.mul(x, y), z), x)))
    if u[-1] == 0:
        u = (x, y, z, y, Q.inv(Q.mul(Q.mul(Q.mul(x, y), z), y)))
    U = GenTuple(Q, u)
    assert U.product() == 0
    T = lift_tuple(view, U)
    assert is_spherical_system(c2c4cubed, T)
    for lifted, orig in zip(T.entries, U.entries):
        assert view.project(lifted) == orig


def test_lift_tuple_trivial_kernel():
    from ramstruct.bitset import ElementSet

    G = AbelianGroup([2, 2])
    view = quotient(G, ElementSet.from_indices([0], G.order))
    Q = view.group
    u = (1, 2, Q.inv(Q.mul(1, 2)))
    T = lift_tuple(view, GenTuple(Q, u))
    assert T.entries == tuple(view.section(q) for q in u)
    # an identity entry has no lift when its coset is the identity alone
    with pytest.raises(NoLiftExists):
        lift_tuple(view, GenTuple(Q, (1, 0, 2, Q.inv(Q.mul(1, 2)))))


def test_lift_tuple_rejects_foreign_group(c2c4cubed):
    view = quotient(c2c4cubed, omega(c2c4cubed, 1))
    other = AbelianGroup([8])  # same order as the quotient, different group
    with pytest.raises(PreconditionViolated):
        lift_tuple(view, GenTuple(other, (1, 2, 5)))


def test_lift_tuple_accepts_equal_rebuilt_quotient(c2c4cubed):
    view1 = omega_context(c2c4cubed)
    view2 = omega_context(c2c4cubed)
    Q = view2.group
    u = (1, 2, 4, 1, Q.inv(Q.mul(Q.mul(Q.mul(1, 2), 4), 1)))
    if u[-1] == 0:
        u = (1, 2, 4, 2, Q.inv(Q.mul(Q.mul(Q.mul(1, 2), 4), 2)))
    U = GenTuple(Q, u)
    T = lift_tuple(view1, U)  # built against a separately materialized quotient
    assert is_spherical_system(c2c4cubed, T)


def test_lift_tuple_too_short(c2c4cubed):
    view = quotient(c2c4cubed, omega(c2c4cubed, 1))
    Q = view.group
    # three free entries cannot generate a 4-generator group
    u = (1, 2, 4, Q.inv(Q.mul(Q.mul(1, 2), 4)))
    U = GenTuple(Q, u)
    assert U.product() == 0 and Q.closure_mask(u) == (1 << Q.order) - 1
    with pytest.raises(NoLiftExists):
        lift_tuple(view, U)


def test_extend_size_odd():
    G = AbelianGroup([5, 5])
    x1, x2 = G.index_of((1, 0)), G.index_of((0, 1))
    T = GenTuple(G, (x1, x2, G.inv(G.mul(x1, x2))))
    T2 = extend_size(T, 5)
    assert T2.entries == (G.mul(x1, x1), x2, G.inv(G.mul(x1, x2)), G.inv(x1))
    assert is_spherical_system(G, T2)
    assert sigma(G, T2) == sigma(G, T)


def test_extend_size_two():
    G = AbelianGroup([2, 2, 2])
    v = G.index_of
    T = GenTuple(G, (v((1, 1, 0)), v((1, 0, 1)), v((0, 1, 1)), v((1, 1, 1)), v((1, 1, 1))))
    T2 = extend_size(T, 2)
    assert T2.entries == T.entries + (T.entries[0], T.entries[0])
    assert is_spherical_system(G, T2)
    assert sigma(G, T2) == sigma(G, T)


def test_extend_size_rejects_non_elementary():
    G = AbelianGroup([4, 4])
    T = GenTuple(G, (G.index_of((1, 0)), G.index_of((0, 1)), G.inv(G.index_of((1, 1)))))
    with pytest.raises(PreconditionViolated):
        extend_size(T, 2)


def test_extend_rank():
    S = elementary_abelian_structure(2, 3, 6, 6)
    bigger = extend_rank(S)
    assert bigger.size == (6, 6)
    assert bigger.group.order == 16

    S = elementary_abelian_structure(2, 4, 5, 5)
    with pytest.raises(PreconditionViolated):
        extend_rank(S)  # needs sizes >= d+2 = 6


def test_elementary_abelian_base_tuples_match_expected():
    S = elementary_abelian_structure(5, 2, 3, 3)
    G = S.group
    assert [G.vector(g) for g in S.t1.entries] == [(1, 0), (0, 1), (4, 4)]
    assert [G.vector(g) for g in S.t2.entries] == [(1, 2), (1, 4), (3, 4)]

    S = elementary_abelian_structure(2, 3, 5, 6)
    G = S.group
    assert [G.vector(g) for g in S.t1.entries] == [
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
        (1, 1, 1),
    ]
    assert [G.vector(g) for g in S.t2.entries] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ] * 2


def test_elementary_abelian_proof_bases_validate():
    for args in ((5, 2, 3, 3), (3, 2, 4, 4), (2, 3, 5, 6), (2, 3, 6, 6), (2, 4, 5, 5)):
        S = elementary_abelian_structure(*args)
        assert S.size == args[2:]


def test_elementary_abelian_inadmissible():
    with pytest.raises(InadmissibleSize):
        elementary_abelian_structure(3, 2, 3, 3)
    with pytest.raises(InadmissibleSize):
        elementary_abelian_structure(2, 3, 5, 5)
    with pytest.raises(InadmissibleSize):
        elementary_abelian_structure(2, 3, 7, 9)  # both odd at rank 3
    with pytest.raises(InadmissibleSize):
        elementary_abelian_structure(2, 2, 5, 6)  # rank too small
    # p must be prime: 1 once built a structure on C2xC2xC2, and 4 failed
    # inside the construction
    with pytest.raises(ValueError):
        elementary_abelian_structure(1, 3, 4, 4)
    with pytest.raises(ValueError):
        elementary_abelian_structure(4, 2, 3, 3)


def test_elementary_abelian_totality_small():
    for p, d in ((2, 3), (2, 4), (3, 2), (5, 2)):
        scs = predict_elementary_abelian(p, d)
        for r1 in range(3, 9):
            for r2 in range(r1, 9):
                if scs.membership(r1, r2):
                    S = elementary_abelian_structure(p, d, r1, r2)
                    assert S.size == (r1, r2)
                else:
                    with pytest.raises(InadmissibleSize):
                        elementary_abelian_structure(p, d, r1, r2)


def test_exponent_p_structure(heis3, heis5):
    S = exponent_p_structure(heis5, 3, 3)
    assert S.size == (3, 3) and S.group is heis5
    with pytest.raises(InadmissibleSize):
        exponent_p_structure(heis3, 3, 3)
    S = exponent_p_structure(heis3, 4, 4)
    assert S.size == (4, 4)
    from ramstruct.errors import NotExponentP

    with pytest.raises(NotExponentP):
        exponent_p_structure(AbelianGroup([4]), 3, 3)


def test_exponent_p_transport_failure_is_internal_contradiction(monkeypatch):
    G = AbelianGroup([5, 5])  # trivial Frattini subgroup: no lift, transport only
    x, y = G.index_of((1, 0)), G.index_of((0, 1))
    t = (x, y, G.inv(G.mul(x, y)))
    monkeypatch.setattr(constructors, "_transport_elementary", lambda S, target, basis: (t, t))
    with pytest.raises(InternalContradiction, match="exponent-p lift failed validation: not_disjoint"):
        exponent_p_structure(G, 3, 3)


def test_project_mod_omega(c2c4cubed, q8):
    S = semi_abelian_2group_odd_odd(c2c4cubed, 7, 7)
    proj = project_mod_omega(c2c4cubed, S)
    assert proj.group.order == 8
    r1, r2 = proj.size
    assert r1 <= 7 and r2 <= 7

    # an elementary abelian group projects to itself
    S = elementary_abelian_structure(2, 3, 5, 6)
    assert project_mod_omega(S.group, S) is S

    with pytest.raises(HypothesisViolated):
        project_mod_omega(q8, S)


def test_lift_structure_mod_omega(c2c4cubed):
    view = omega_context(c2c4cubed)
    Q = view.group
    canonical = elementary_abelian_structure(2, 3, 6, 6)
    # move the canonical structure onto the materialized quotient
    from ramstruct.constructors import _transport_elementary

    t1, t2 = _transport_elementary(canonical, Q, Q.generators())
    U = validated(Q, t1, t2)
    S = lift_structure_mod_omega(c2c4cubed, U, view)
    assert S.size == (6, 6)
    assert S.group is c2c4cubed
    images = [view.project(g) for g in S.t1.entries]
    assert tuple(images) == U.t1.entries

    # identity operation at exponent level one
    E = AbelianGroup([2, 2, 2])
    base = elementary_abelian_structure(2, 3, 5, 6)
    moved = validated(E, base.t1.entries, base.t2.entries)
    assert lift_structure_mod_omega(E, moved) is moved


def test_lift_structure_size_guard():
    G = AbelianGroup([2, 2, 4, 4, 4])  # d = 5, top-power image of size 8
    view = omega_context(G)
    Q = view.group
    canonical = elementary_abelian_structure(2, 3, 5, 6)
    from ramstruct.constructors import _transport_elementary

    t1, t2 = _transport_elementary(canonical, Q, Q.generators())
    U = validated(Q, t1, t2)
    with pytest.raises(PreconditionViolated):
        lift_structure_mod_omega(G, U, view)  # r1 = 5 < d+1 = 6


def test_pad_from_beauville():
    S = elementary_abelian_structure(5, 2, 3, 3)
    G = S.group

    padded = pad_from_beauville(S, 3, 4)
    x2, y2 = S.t2.entries[0], S.t2.entries[1]
    assert padded.t1.entries == S.t1.entries
    assert padded.t2.entries == (x2, y2, G.inv(y2), G.inv(x2))

    same = pad_from_beauville(S, 3, 3)
    assert same.t1.entries == S.t1.entries and same.t2.entries == S.t2.entries

    big = pad_from_beauville(S, 7, 8)
    assert big.size == (7, 8)
    assert sigma(G, big.t1) == sigma(G, S.t1)

    with pytest.raises(PreconditionViolated):
        pad_from_beauville(big, 9, 9)


def test_product_combine_and_project():
    S3 = elementary_abelian_structure(3, 2, 5, 7)
    S2 = elementary_abelian_structure(2, 3, 5, 6)
    comb = product_combine(S3, S2)
    assert comb.size == (5, 7)
    assert comb.group.order == 72

    back = product_project(comb, "left", target_size=(5, 7))
    assert back.size == (5, 7)
    assert back.group is comb.group.left

    small = product_project(comb, "right")
    r1, r2 = small.size
    assert r1 <= 5 and r2 <= 7
    assert small.group is comb.group.right

    with pytest.raises(PaddingImpossible):
        product_project(comb, "right", target_size=(5, 7))

    with pytest.raises(NotCoprime):
        product_combine(S2, S2)


def test_product_project_repads_odd_and_even_gaps():
    S3 = elementary_abelian_structure(3, 2, 5, 7)
    comb = product_combine(S3, elementary_abelian_structure(2, 3, 5, 6))
    plain = product_project(comb, "left")
    assert plain.size == (5, 7)
    assert plain.t1.entries == (6, 6, 1, 2, 6)
    assert plain.t2.entries == (8, 8, 5, 7, 8, 4, 8)
    pinned = {
        # odd gap: the first entry z splits as z^2, ..., z^-1, then (z^2, z^-2)
        (6, 8): ((3, 6, 1, 2, 6, 3), (4, 8, 5, 7, 8, 4, 8, 4)),
        # even gap: cancelling pairs of the first entry only
        (7, 9): ((6, 6, 1, 2, 6, 6, 3), (8, 8, 5, 7, 8, 4, 8, 8, 4)),
    }
    for target, (t1, t2) in pinned.items():
        S = product_project(comb, "left", target_size=target)
        assert S.size == target
        assert isinstance(check_ramification(S.group, S.t1, S.t2), RamStructure)
        assert (S.sigma1, S.sigma2) == (plain.sigma1, plain.sigma2)
        assert (S.t1.entries, S.t2.entries) == (t1, t2)


def test_product_combine_equal_sizes_plain_zip():
    S2 = elementary_abelian_structure(2, 3, 5, 6)
    S5 = elementary_abelian_structure(5, 2, 5, 6)
    comb = product_combine(S5, S2)
    assert comb.size == (5, 6)
    P = comb.group
    for g, a, b in zip(comb.t1.entries, S5.t1.entries, S2.t1.entries):
        assert P.pair(g) == (a, b)


def test_product_project_round_trip_cyclic_subgroups():
    S3 = elementary_abelian_structure(3, 2, 5, 7)
    S2 = elementary_abelian_structure(2, 3, 5, 6)
    comb = product_combine(S3, S2)
    back = product_project(comb, "left", target_size=(5, 7))
    G = S3.group
    for got, orig in zip(back.t1.entries + back.t2.entries, S3.t1.entries + S3.t2.entries):
        assert G.generated_subgroup([got]) == G.generated_subgroup([orig])


def test_odd_odd_construction(c2c4cubed):
    S = semi_abelian_2group_odd_odd(c2c4cubed, 7, 7)
    assert S.size == (7, 7)
    S = semi_abelian_2group_odd_odd(c2c4cubed, 7, 5)
    assert S.size == (7, 5)
    # every odd pair the predictor excludes is refused with its clause
    for G in (c2c4cubed, AbelianGroup([2, 2, 4, 4, 4])):
        scs = predict_semi_abelian_pgroup(G)
        for r1 in range(3, 10, 2):
            for r2 in range(3, 10, 2):
                if not scs.membership(r1, r2):
                    with pytest.raises(InadmissibleSize) as info:
                        semi_abelian_2group_odd_odd(G, r1, r2)
                    assert str(info.value) == scs.violated_clause(r1, r2)
    with pytest.raises(PreconditionViolated):
        semi_abelian_2group_odd_odd(c2c4cubed, 6, 7)
    with pytest.raises(DegenerateRank):
        semi_abelian_2group_odd_odd(AbelianGroup([4, 4, 4]), 7, 7)


def test_odd_odd_larger_group():
    G = AbelianGroup([2, 2, 4, 4, 4])  # d = 5, |X| = 8, exponent 4
    S = semi_abelian_2group_odd_odd(G, 7, 7)
    assert S.size == (7, 7)
    S = semi_abelian_2group_odd_odd(G, 9, 7)
    assert S.size == (9, 7)
    # order 512, d = 6: each of the six free entries of the lifted side must
    # add one dimension of G/Phi
    S = semi_abelian_2group_odd_odd(AbelianGroup([2, 2, 2, 4, 4, 4]), 7, 7)
    assert S.size == (7, 7)


def test_construct_any_dispatch(c6c6c2, q8, heis5):
    res = construct_any(c6c6c2, 5, 7)
    assert res.status == "ok" and res.structure.size == (5, 7)
    assert res.method.startswith("sylow-product")

    res = construct_any(AbelianGroup([7]), 3, 3)
    assert res.status == "inadmissible"

    res = construct_any(q8, 5, 5)
    assert res.status == "inadmissible" and res.method == "search"

    res = construct_any(heis5, 4, 5)
    assert res.status == "ok" and res.method == "exponent-p-lift"

    res = construct_any(AbelianGroup([4, 4, 4]), 7, 7)
    assert res.status == "ok" and res.method == "search"

    res = construct_any(c6c6c2, 5, 5)
    assert res.status == "inadmissible" and "excluded" in res.reason


def test_construct_any_methods(c2c4cubed):
    theorem = construct_any(c2c4cubed, 6, 6, method="theorem")
    assert theorem.status == "ok" and theorem.method == "omega-lift"
    assert theorem.stats is None
    searched = construct_any(c2c4cubed, 6, 6, method="search")
    assert searched.status == "ok" and searched.method == "search"
    assert searched.stats.candidates > 0

    res = construct_any(AbelianGroup([4, 4, 4]), 7, 7, method="theorem")
    assert res.status == "unknown"


def test_theorem_gate_exits(s3):
    # s3 is not nilpotent; the Sylow 2-factor of d4 x C3 is not
    # semi-2-abelian: no theorem covers either, and auto answers by search
    d4c3 = build_group(f"prod(cayley:{bundled_cayley_path('d4')},C3)")
    with pytest.raises(NotNilpotent):
        sylow_decomposition(s3)
    with pytest.raises(HypothesisViolated):
        predict_nilpotent(d4c3)
    for G in (s3, d4c3):
        theorem = construct_any(G, 4, 4, method="theorem")
        assert theorem.status == "unknown", G.describe()
        assert theorem.reason == "no implemented characterization covers this group"
        searched = construct_any(G, 4, 4)
        assert searched.method == "search" and searched.status == "inadmissible"


def test_nilpotent_fallback_reports_every_search(c6c6c2, monkeypatch):
    # the Sylow 3-factor of C2^3 x C3^2 refuses (5,6), so the route falls back
    # to searching G; the Sylow 2-factor, which would search, must not run
    # first, or its counters would be lost from the result
    real_predict, real_find = constructors.predict_semi_abelian_pgroup, oracle.find_structure

    class Refuses:
        def membership(self, r1, r2):
            return False

    monkeypatch.setattr(
        constructors,
        "predict_semi_abelian_pgroup",
        lambda P: Refuses() if P.order % 3 == 0 else real_predict(P),
    )
    monkeypatch.setattr(constructors, "_construct_pgroup", lambda P, r1, r2: None)
    searches = []

    def find_structure(G, *args):
        out = real_find(G, *args)
        searches.append((G.order, out.stats))
        return out

    monkeypatch.setattr(oracle, "find_structure", find_structure)
    res = construct_any(c6c6c2, 5, 6)
    assert res.status == "ok" and res.method == "search"
    assert [order for order, _ in searches] == [72]
    assert res.stats == searches[0][1]


def test_constructors_always_validate(c2c4cubed, c6c6c2, heis3):
    cases = [
        construct_any(c6c6c2, 5, 7).structure,
        construct_any(c2c4cubed, 7, 7).structure,
        construct_any(heis3, 4, 6).structure,
        elementary_abelian_structure(3, 3, 5, 7),
    ]
    for S in cases:
        assert isinstance(
            check_ramification(S.group, S.t1, S.t2), RamStructure
        )
