import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ramstruct.bitset import iter_bits
from ramstruct.errors import NotAPGroup, NotNilpotent
from ramstruct.groups import AbelianGroup, CayleyTableGroup, prime_factorization
from ramstruct.invariants import (
    agemo,
    classify_pgroup,
    derived_subgroup,
    exponent,
    frattini,
    is_semi_abelian,
    min_generators,
    omega,
    pgroup_profile,
    power_image,
    power_map,
    sylow_decomposition,
    torsion_set,
)


def test_exponent(c2c4cubed, heis5):
    assert exponent(c2c4cubed) == 4
    assert exponent(CayleyTableGroup([[0]])) == 1
    assert exponent(heis5) == max(heis5.order_of(g) for g in heis5.elements()) == 5


def test_exponent_is_the_largest_element_order(differential_groups):
    for G in differential_groups:
        assert exponent(G) == max(G.order_of(g) for g in G.elements()), G.describe()


def test_exponent_makes_no_order_lookups():
    # it reads the longest cyclic walk; it took one `order_of` per element
    from ramstruct.parsing import build_group

    for spec in ("C4096xC16", "heis(7)", "C9xC27", "prod(heis(3),C2)"):
        G = build_group(spec)
        calls = [0]
        order_of = G.order_of

        def counted(a):
            calls[0] += 1
            return order_of(a)

        G.order_of = counted
        exponent(G)
        assert calls[0] == 0, (spec, calls[0])


def test_omega(c2c4cubed):
    G = c2c4cubed
    om1 = omega(G, 1)
    assert om1.cardinality == 16
    expected = G.generated_subgroup(
        [G.index_of(v) for v in [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]]
    )
    assert om1 == expected
    assert omega(G, 2).cardinality == G.order  # level e
    assert omega(G, 0).indices() == [0]
    with pytest.raises(NotAPGroup):
        omega(AbelianGroup([6]), 1)


def test_agemo(c2c4cubed, heis3):
    assert agemo(c2c4cubed, 1).cardinality == 8
    assert agemo(c2c4cubed, 2).indices() == [0]
    assert agemo(heis3, 1).indices() == [0]


def test_derived_subgroup(heis3, heis5, q8, d4, s3):
    assert derived_subgroup(AbelianGroup([4, 6])).indices() == [0]
    from ramstruct.parsing import build_group

    # against the closure of all |G|^2 commutators
    for G in (heis3, heis5, q8, d4, s3, build_group("prod(heis(3),C2)")):
        comm = {G.commutator(a, b) for a in G.elements() for b in G.elements()}
        assert derived_subgroup(G).mask == G.closure_mask(sorted(comm)), G.describe()
    drv = derived_subgroup(heis3)
    assert drv.cardinality == 3
    assert set(drv.indices()) == {heis3.index_of((0, 0, c)) for c in range(3)}
    # derived subgroup is inside the kernel of any map onto an abelian quotient
    from ramstruct.groups import quotient

    view = quotient(q8, derived_subgroup(q8))
    assert view.group.is_abelian


def test_frattini(c2c4cubed, heis5):
    assert frattini(AbelianGroup([2, 2, 2])).cardinality == 1
    phi = frattini(c2c4cubed)
    assert phi == agemo(c2c4cubed, 1)
    assert phi.cardinality == 8
    assert frattini(heis5) == derived_subgroup(heis5)
    assert frattini(heis5).cardinality == 5


def test_frattini_quotient_elementary_abelian(c2c4cubed, q8, d4):
    from ramstruct.groups import quotient
    from ramstruct.invariants import pgroup_prime

    for G in (c2c4cubed, q8, d4):
        phi = frattini(G)
        assert G.is_normal(phi)
        view = quotient(G, phi)
        p = pgroup_prime(G)
        assert view.group.is_abelian
        assert all(view.group.order_of(g) in (1, p) for g in view.group.elements())


def test_frattini_matches_sylow_factors(s3):
    # Phi(G) = G' G^r with r the product of the primes, against the product
    # of the Sylow factors' own Frattini subgroups
    from ramstruct.catalog import builtin_catalog
    from ramstruct.parsing import build_group

    catalog = (build_group(entry.spec) for entry in builtin_catalog(32))
    groups = [G for G in catalog if G.order <= 32 and G.describe() != s3.describe()]
    groups.append(build_group("prod(heis(3),C2)"))
    assert len(groups) == 58
    for G in groups:
        factors = sylow_decomposition(G).values()
        gens = [f.embed(a) for f in factors for a in frattini(f.group)]
        assert frattini(G).mask == G.closure_mask(gens), G.describe()
    with pytest.raises(NotNilpotent):
        frattini(s3)


def test_min_generators(c2c4cubed, c6c6c2):
    assert min_generators(CayleyTableGroup([[0]])) == 0
    assert min_generators(c2c4cubed) == 4
    assert min_generators(AbelianGroup([7])) == 1
    assert min_generators(c6c6c2) == 3


def test_power_image(c2c4cubed, q8):
    sq = power_image(c2c4cubed, 1)
    assert sq.cardinality == 8
    assert sq == agemo(c2c4cubed, 1)  # squares already form a subgroup here
    assert power_image(c2c4cubed, 0).cardinality == c2c4cubed.order
    assert power_image(c2c4cubed, 2).indices() == [0]
    squares = {q8.mul(g, g) for g in q8.elements()}
    assert squares == set(power_image(q8, 1).indices())
    assert power_image(q8, 1).cardinality == 2


def test_semi_abelian_abelian_groups_pass():
    for orders in ([4, 4], [2, 8], [3, 9, 27]):
        G = AbelianGroup(orders)
        e = 0
        n = exponent(G)
        p = min(m for m in orders)
        for i in range(4):
            assert is_semi_abelian(G, i)[0]


def test_semi_abelian_witnesses(q8, d4):
    ok, witness = is_semi_abelian(q8, 1)
    assert not ok
    x, y = witness
    assert q8.power(x, 2) == q8.power(y, 2)
    assert q8.power(q8.mul(x, q8.inv(y)), 2) != 0
    ok, witness = is_semi_abelian(d4, 1)
    assert not ok


def test_semi_abelian_level_zero_is_trivial(q8):
    assert is_semi_abelian(q8, 0) == (True, None)


def test_sa1_sa2_when_semi_abelian(c2c4cubed, heis5):
    # whenever the test passes, the torsion set is the whole omega subgroup and
    # the power image has index-of-omega many elements
    for G, levels in ((c2c4cubed, (1, 2)), (heis5, (1,)), (AbelianGroup([9, 3]), (1, 2))):
        for i in levels:
            ok, _ = is_semi_abelian(G, i)
            assert ok
            assert omega(G, i) == torsion_set(G, i)
            assert G.order // omega(G, i).cardinality == power_image(G, i).cardinality


def test_sa_equalities_fail_without_hypothesis(q8):
    # the raw torsion set of the quaternion group at level 1 is not a subgroup
    assert torsion_set(q8, 1).cardinality == 2
    assert omega(q8, 1) == torsion_set(q8, 1)  # {1,-1} happens to be closed
    # but SA2 fails: |G : Omega_1| = 4 while the power image has 2 elements
    assert q8.order // omega(q8, 1).cardinality != power_image(q8, 1).cardinality


def sylow_product_check(G) -> bool:
    """Every element factors uniquely as a product of commuting p-parts."""
    factors = sylow_decomposition(G)
    masks = {p: 0 for p in factors}
    for p, f in factors.items():
        for a in f.embedding:
            masks[p] |= 1 << a
    seen = set()
    parts = [list(iter_bits(masks[p])) for p in sorted(factors)]
    count = 0

    def rec(i: int, acc: int):
        nonlocal count
        if i == len(parts):
            seen.add(acc)
            count += 1
            return
        for a in parts[i]:
            rec(i + 1, G.mul(acc, a))

    rec(0, 0)
    return count == G.order and len(seen) == G.order


def test_sylow_decomposition(c6c6c2, heis3, s3):
    factors = sylow_decomposition(c6c6c2)
    assert sorted(factors) == [2, 3]
    assert factors[2].group.order == 8
    assert all(factors[2].group.order_of(g) <= 2 for g in factors[2].group.elements())
    assert factors[3].group.order == 9
    assert sylow_product_check(c6c6c2)

    only = sylow_decomposition(heis3)
    assert list(only) == [3] and only[3].group.order == 27

    with pytest.raises(NotNilpotent):
        sylow_decomposition(s3)


def test_sylow_embedding_is_homomorphism(c6c6c2):
    for p, factor in sylow_decomposition(c6c6c2).items():
        F = factor.group
        for a in F.elements():
            for b in F.elements():
                assert factor.embed(F.mul(a, b)) == c6c6c2.mul(
                    factor.embed(a), factor.embed(b)
                )


def test_classify_pgroup(c2c4cubed, heis5, q8):
    flags = classify_pgroup(c2c4cubed)
    assert flags.abelian and flags.powerful and flags.p_central
    assert flags.semi_abelian_at_e_minus_1

    flags = classify_pgroup(heis5)
    assert not flags.abelian
    assert not flags.powerful  # derived is the center, fifth powers are trivial
    assert flags.p_central  # the whole group sits inside Z_3
    assert flags.semi_abelian_at_e_minus_1

    assert not classify_pgroup(q8).semi_abelian_at_e_minus_1


def test_pgroup_profile_json(c2c4cubed):
    profile = pgroup_profile(c2c4cubed)
    assert (profile.p, profile.e, profile.d) == (2, 2, 4)
    data = profile.to_json()
    assert data["power_image_sizes"] == [128, 8, 1]
    assert data["semi_abelian"][0] == {"i": 0, "holds": True, "trivial": True}
    assert data["classification"]["abelian"]


def test_pgroup_profile_json_text(c2c4cubed, heis3):
    # the exact text `ram invariants` prints: keys in order, lists as lists
    expected = [
        (c2c4cubed, '{"p": 2, "e": 2, "d": 4, "order": 128, '
        '"power_image_sizes": [128, 8, 1], "omega_indices": [128, 8, 1], '
        '"semi_abelian": [{"i": 0, "holds": true, "trivial": true}, '
        '{"i": 1, "holds": true, "trivial": false}, '
        '{"i": 2, "holds": true, "trivial": false}], '
        '"classification": {"abelian": true, "powerful": true, '
        '"p_central": true, "semi_abelian_at_e_minus_1": true}}'),
        (heis3, '{"p": 3, "e": 1, "d": 2, "order": 27, '
        '"power_image_sizes": [27, 1], "omega_indices": [27, 1], '
        '"semi_abelian": [{"i": 0, "holds": true, "trivial": true}, '
        '{"i": 1, "holds": true, "trivial": false}], '
        '"classification": {"abelian": false, "powerful": false, '
        '"p_central": false, "semi_abelian_at_e_minus_1": true}}'),
    ]
    for G, text in expected:
        data = pgroup_profile(G).to_json()
        assert json.dumps(data) == text, G.describe()
        for key in ("power_image_sizes", "omega_indices", "semi_abelian"):
            assert type(data[key]) is list, key


def test_omega_and_semi_abelian_match_brute_force(differential_groups):
    from ramstruct.invariants import exponent_exponent

    pgroups = [G for G in differential_groups if len(prime_factorization(G.order)) == 1]
    assert len(pgroups) == 39
    for G in pgroups:
        p, e = exponent_exponent(G)
        for i in range(e + 2):
            q = p**i
            torsion = [g for g in G.elements() if G.power(g, q) == 0]
            assert omega(G, i).mask == G.closure_mask(torsion), (G.describe(), i)
            # the first failing pair of the full scan, or None
            pw = [G.power(g, q) for g in G.elements()]
            witness = next(
                (
                    (x, y)
                    for x in G.elements()
                    for y in G.elements()
                    if (pw[x] == pw[y]) != (pw[G.mul(x, G.inv(y))] == 0)
                ),
                None,
            )
            assert is_semi_abelian(G, i) == (witness is None, witness), (G.describe(), i)


def test_pgroup_is_its_own_sylow_factor(differential_groups):
    # no Cayley-table copy, so construct_any never recurses into the same group
    for G in differential_groups:
        primes = prime_factorization(G.order)
        if len(primes) == 1:
            (factor,) = sylow_decomposition(G).values()
            assert factor.prime in primes
            assert factor.group is G
            assert factor.embedding == tuple(G.elements())


def test_pgroup_sylow_factor_keeps_no_reference_cycle():
    # G's cache must not refer back to G, or G waits for the cyclic collector
    import gc
    import weakref

    from ramstruct.groups import HeisenbergGroup
    from ramstruct.theory import predict_nilpotent

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for make in (lambda: AbelianGroup([4, 2]), lambda: HeisenbergGroup(3)):
            G = make()
            ref = weakref.ref(G)
            predict_nilpotent(G)
            del G
            assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_cached_invariants_keep_no_reference_cycle():
    # every value `per_group` keeps on a group (Sylow factors, Omega at each
    # level, the profile's invariants) must leave the group to its refcount
    import gc
    import weakref

    from ramstruct.catalog import bundled_cayley_path
    from ramstruct.groups import per_group
    from ramstruct.parsing import build_group
    from ramstruct.structures import GenTuple, sigma
    from ramstruct.theory import predict_nilpotent

    @per_group
    def keeps_its_group(G):
        return [G]

    def freed(spec, *calls) -> bool:
        G = build_group(spec)
        ref = weakref.ref(G)
        for call in calls:
            call(G)
        del G
        return ref() is None

    factors = []  # the Sylow factor groups, which must be freed with their group

    def sylow(G):
        factors.extend(weakref.ref(f.group) for f in sylow_decomposition(G).values())

    nilpotent = (
        predict_nilpotent,
        sylow,
        frattini,
        lambda G: sigma(G, GenTuple(G, tuple(G.generators()))),
    )
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for spec in ("heis(3)", "C2xC4xC4", f"cayley:{bundled_cayley_path('d4')}"):
            assert freed(spec, pgroup_profile, sylow), spec
        for spec in ("C6xC6", "prod(heis(3),C2)"):
            assert freed(spec, *nilpotent), spec
        assert len(factors) == 7 and all(ref() is None for ref in factors)
        # the control: a cached value that refers to its group keeps it alive
        assert not freed("C6xC6", keeps_its_group)
    finally:
        gc.collect()
        if was_enabled:
            gc.enable()


def _count_mul(G):
    calls = [0]
    mul = G.mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    G.mul = counted
    return calls


def test_invariants_cost_guard():
    # multiplications are a cost that does not depend on the hardware; each
    # bound is a tenth of what the |G|^2 scans took on the same group
    from ramstruct.parsing import build_group
    from ramstruct.structures import _cyc_masks

    for spec, quadratic in (("C2xC2xC2xC2xC2xC2xC2xC2", 529_668), ("heis(7)", 1_099_500)):
        G = build_group(spec)
        calls = _count_mul(G)
        pgroup_profile(G)
        assert calls[0] < quadratic // 10, (spec, calls[0])
        # every Omega level is closed once: classify_pgroup's Omega_1 or
        # Omega_2, and any level above e, come from the cache
        calls[0] = 0
        for i in range(4):
            omega(G, i)
        assert calls[0] == 0, (spec, calls[0])
    # C2^8 took 8,455 before Omega was cached and power stopped squaring early
    G = build_group("C2xC2xC2xC2xC2xC2xC2xC2")
    calls = _count_mul(G)
    pgroup_profile(G)
    assert calls[0] <= 4_400, calls[0]
    G = build_group("heis(7)")
    calls = _count_mul(G)
    _cyc_masks(G)
    assert calls[0] < 237_350 // 10, calls[0]


def test_power_map_matches_power(differential_groups, brute_powers):
    for G in differential_groups[::7]:
        walks = [brute_powers(G.mul, g) for g in G.elements()]
        for k in range(13):
            expected = [walk[k % len(walk)] for walk in walks]
            assert power_map(G, k) == expected, (G.describe(), k)
    with pytest.raises(ValueError):
        power_map(AbelianGroup([4]), -1)


def test_negative_power_level_is_an_input_error(heis3):
    for G in (heis3, AbelianGroup([4, 4])):
        for fn in (torsion_set, omega, agemo, power_image, is_semi_abelian):
            with pytest.raises(ValueError):
                fn(G, -1)


def test_power_levels_past_the_exponent_read_as_the_exponent():
    # for i >= e the p^i-th power map is the p^e-th one, so level 10^8 answers
    # as level e, at once; a new process, so that a hang fails on the timeout
    script = """
from ramstruct.groups import AbelianGroup, HeisenbergGroup
from ramstruct.invariants import exponent_exponent, power_image, torsion_set
for G in (AbelianGroup([3, 3]), AbelianGroup([2, 8]), HeisenbergGroup(3)):
    e = exponent_exponent(G)[1]
    for f in (torsion_set, power_image):
        assert f(G, 10**8).mask == f(G, e).mask, (G.describe(), f.__name__)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=30)


class _CountingMaps(dict):
    """A group's `per_group` table that counts the power maps stored in it."""

    built = 0

    def __setitem__(self, k, v):
        if k[0] is power_map.__wrapped__:
            self.built += 1
        super().__setitem__(k, v)


def test_power_map_computed_once_per_group():
    from ramstruct.parsing import build_group

    for spec in ("C2xC2xC2xC2xC2xC2xC2xC2", "heis(7)"):
        G = build_group(spec)
        maps = G._per_group = _CountingMaps()
        torsion_set(G, 1)
        power_image(G, 1)
        agemo(G, 1)
        assert maps.built == 1, (spec, maps.built)  # the one map for p
        pgroup_profile(G)
        built = maps.built
        pgroup_profile(G)
        assert maps.built == built, (spec, maps.built)


def test_power_map_reads_the_cyclic_table_once_per_map():
    # each entry used to be a `G.power` call that looked the table up again:
    # 1.18M lookups in `pgroup_profile` on C65536
    from ramstruct.parsing import build_group

    for spec in ("C65536", "heis(7)", "C9xC27"):
        G = build_group(spec)
        calls = [0]

        class Counted(list):
            def __iter__(self):
                calls[0] += 1
                return super().__iter__()

        G._cyclic = Counted(G._cyclic)
        for n, k in enumerate((0, 1, 2, 3, 5, 2**16), 1):
            power_map(G, k)
            assert calls[0] == n, (spec, k, calls[0])
