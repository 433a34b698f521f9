import pytest

from ramstruct.errors import HypothesisViolated, NotExponentP
from ramstruct.groups import AbelianGroup
from ramstruct.invariants import min_generators
from ramstruct.theory import (
    predict_elementary_abelian,
    predict_exponent_p,
    predict_nilpotent,
    predict_semi_abelian_pgroup,
)


def test_elementary_abelian_predictions():
    scs = predict_elementary_abelian(5, 2)
    assert scs.admits and scs.min_size == 3 and not scs.forbid_both_odd

    assert not predict_elementary_abelian(2, 2).admits
    assert not predict_elementary_abelian(3, 1).admits
    for p in (1, 4, 9):
        with pytest.raises(ValueError):
            predict_elementary_abelian(p, 3)

    scs = predict_elementary_abelian(2, 3)
    assert scs.admits and scs.min_size == 5 and scs.forbid_both_odd
    assert not scs.membership(5, 5)
    assert not scs.membership(7, 9)
    assert scs.membership(5, 6)

    scs = predict_elementary_abelian(3, 2)
    assert scs.min_size == 4

    # the rank floor overtakes the prime floor for large d
    assert predict_elementary_abelian(5, 5).min_size == 6
    assert predict_elementary_abelian(2, 5).min_size == 6


def test_exponent_p_predictions(heis3, heis5):
    scs = predict_exponent_p(heis5)
    assert scs.admits and scs.min_size == 3
    scs = predict_exponent_p(heis3)
    assert scs.admits and scs.min_size == 4
    scs = predict_exponent_p(AbelianGroup([2, 2, 2]))
    assert scs.admits and scs.min_size == 5 and scs.forbid_both_odd
    with pytest.raises(NotExponentP):
        predict_exponent_p(AbelianGroup([4]))


def test_exponent_p_record_states_the_groups_own_x(heis3):
    # X is the set of 3^0-th powers of heis(3) itself, not of its Frattini
    # quotient C3xC3, whose X has 9 elements
    scs = predict_exponent_p(heis3)
    assert scs.provenance[0] == "|X| = 27 with X the set of 3^0-th powers"
    assert scs == predict_semi_abelian_pgroup(heis3)


def test_semi_abelian_pgroup_predictions(c2c4cubed, q8):
    scs = predict_semi_abelian_pgroup(c2c4cubed)
    assert scs.admits and scs.min_size == 5
    assert scs.excluded_pairs == frozenset({(5, 5)})
    assert not scs.forbid_both_odd  # exponent 4, so both-odd is allowed
    assert not scs.membership(5, 5)
    assert scs.membership(7, 5)

    assert not predict_semi_abelian_pgroup(AbelianGroup([4, 4])).admits

    scs = predict_semi_abelian_pgroup(AbelianGroup([9, 9]))
    assert scs.admits and scs.min_size == 4

    with pytest.raises(HypothesisViolated):
        predict_semi_abelian_pgroup(q8)


def test_nilpotent_predictions(c6c6c2, s3):
    scs = predict_nilpotent(c6c6c2)
    assert scs.admits and scs.min_size == 5
    assert scs.excluded_pairs == frozenset({(5, 5)})
    assert not scs.forbid_both_odd
    assert scs.membership(5, 7) and not scs.membership(5, 5)

    scs = predict_nilpotent(AbelianGroup([2, 2, 2]))
    assert scs.admits and scs.min_size == 5 and scs.forbid_both_odd
    assert not scs.membership(7, 9)

    assert not predict_nilpotent(AbelianGroup([15])).admits

    from ramstruct.errors import NotNilpotent

    with pytest.raises(NotNilpotent):
        predict_nilpotent(s3)


def test_membership_examples(c6c6c2):
    scs = predict_nilpotent(c6c6c2)
    assert scs.membership(5, 5) is False
    assert scs.membership(5, 7) is True
    assert scs.violated_clause(5, 5) == "size pair (5,5) is excluded"
    assert scs.violated_clause(5, 7) is None
    assert scs.violated_clause(4, 7) == "sizes must both be >= 5"
    scs = predict_nilpotent(AbelianGroup([2, 2, 2]))
    assert scs.membership(7, 9) is False
    assert scs.violated_clause(7, 9) == "sizes must not both be odd"
    assert predict_nilpotent(AbelianGroup([4])).violated_clause(5, 5) == (
        "Sylow 2-factor admits no structure; |X| = 2 with X the set of 2^1-th powers; "
        "needs |X| >= 8"
    )
    with pytest.raises(ValueError):
        scs.membership(2, 5)


def test_membership_symmetry(c6c6c2, c2c4cubed):
    for scs in (predict_nilpotent(c6c6c2), predict_semi_abelian_pgroup(c2c4cubed)):
        for r1 in range(3, 10):
            for r2 in range(3, 10):
                assert scs.membership(r1, r2) == scs.membership(r2, r1)


def test_upward_closure(c2c4cubed, c6c6c2, heis5):
    # even steps preserve membership for groups of even order; odd-order
    # groups additionally absorb single steps
    for G in (c2c4cubed, c6c6c2):
        scs = predict_nilpotent(G)
        for r1 in range(3, 9):
            for r2 in range(3, 9):
                if scs.membership(r1, r2):
                    assert scs.membership(r1 + 2, r2)
                    assert scs.membership(r1, r2 + 2)
    for G in (heis5, AbelianGroup([3, 3, 9])):
        scs = predict_nilpotent(G)
        for r1 in range(3, 9):
            for r2 in range(3, 9):
                if scs.membership(r1, r2):
                    assert scs.membership(r1 + 1, r2)


def test_generation_bound(c6c6c2, c2c4cubed):
    for G in (c6c6c2, c2c4cubed, AbelianGroup([3, 3, 3])):
        scs = predict_nilpotent(G)
        d = min_generators(G)
        for r1 in range(3, 10):
            for r2 in range(3, 10):
                if scs.membership(r1, r2):
                    assert r1 >= d + 1 and r2 >= d + 1


def test_nilpotent_matches_pgroup_prediction(c2c4cubed, heis3):
    for G in (c2c4cubed, heis3, AbelianGroup([2, 2, 2]), AbelianGroup([9, 3])):
        a = predict_nilpotent(G)
        b = predict_semi_abelian_pgroup(G)
        assert a.admits == b.admits
        for r1 in range(3, 10):
            for r2 in range(3, 10):
                if a.admits:
                    assert a.membership(r1, r2) == b.membership(r1, r2)


def test_semi_abelian_prediction_specializes_to_elementary_abelian():
    # on actual direct powers of C_p the two predictors give one record
    for p, dmax in ((2, 5), (3, 4), (5, 3)):
        for d in range(1, dmax + 1):
            general = predict_semi_abelian_pgroup(AbelianGroup([p] * d))
            special = predict_elementary_abelian(p, d)
            assert general.to_json() == special.to_json()
