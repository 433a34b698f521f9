"""Closed-form characterizations of the admissible size pairs, as finite
constraint records: a minimum size, a finite exclusion set, and a parity flag.

The theorem's size clauses live in one function, `semi_abelian_clauses`, of
four invariants: p, e with exp(G) = p^e, |X| for X the set of p^(e-1)-th
powers, and d(G).  Elementary abelian groups are its e = 1 case.  Its
hypothesis, that G is semi-p^(e-1)-abelian, is checked in one place,
`semi_abelian_exponent`; the predictors for groups and the constructors go
through both, and a nilpotent group combines its Sylow factors' records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import HypothesisViolated, NotExponentP, NotNilpotent
from .groups import FiniteGroup, prime_factorization
from .invariants import (
    exponent_exponent,
    is_semi_abelian,
    min_generators,
    power_image,
    sylow_decomposition,
)


@dataclass(frozen=True)
class SizeConstraintSet:
    """Finite description of the set of admissible size pairs of one group.

    A pair (r1, r2) with r1, r2 >= 3 belongs to the set iff the group admits
    structures at all, both sides are >= min_size, the unordered pair is not
    excluded, and the both-odd bar (when set) is respected. Membership is
    symmetric in (r1, r2).
    """

    admits: bool
    min_size: int = 0
    excluded_pairs: frozenset[tuple[int, int]] = frozenset()
    forbid_both_odd: bool = False
    provenance: tuple[str, ...] = field(default=())

    def membership(self, r1: int, r2: int) -> bool:
        if r1 < 3 or r2 < 3:
            raise ValueError("size components must be >= 3")
        return self.violated_clause(r1, r2) is None

    def violated_clause(self, r1: int, r2: int) -> Optional[str]:
        """The first clause that (r1, r2) fails, as a reason, or None for a
        member."""
        if not self.admits:
            return "; ".join(self.provenance) or "group admits no ramification structure"
        if r1 < self.min_size or r2 < self.min_size:
            return f"sizes must both be >= {self.min_size}"
        if (min(r1, r2), max(r1, r2)) in self.excluded_pairs:
            return f"size pair ({r1},{r2}) is excluded"
        if self.forbid_both_odd and r1 % 2 == 1 and r2 % 2 == 1:
            return "sizes must not both be odd"
        return None

    def to_json(self) -> dict:
        return {
            "admits": self.admits,
            "min_size": self.min_size if self.admits else None,
            "excluded_pairs": sorted(list(p) for p in self.excluded_pairs) if self.admits else [],
            "forbid_both_odd": self.forbid_both_odd if self.admits else False,
            "provenance": list(self.provenance),
        }


def semi_abelian_clauses(p: int, e: int, x_size: int, d: int) -> SizeConstraintSet:
    """Admissible sizes of a semi-p^(e-1)-abelian p-group of exponent p^e with
    d(G) = d, whose set X of p^(e-1)-th powers has x_size elements."""
    prov = [f"|X| = {x_size} with X the set of {p}^{e - 1}-th powers"]
    if p >= 3:
        if x_size < p * p:
            return SizeConstraintSet(
                False, provenance=tuple(prov + [f"needs |X| >= {p * p}"])
            )
        m = max(d + 1, 4 if p == 3 else 3)
        if p == 3:
            prov.append("p=3 requires r1,r2 >= 4")
        prov.append(f"generation requires r1,r2 >= d+1 = {d + 1}")
        return SizeConstraintSet(True, m, frozenset(), False, tuple(prov))
    if x_size < 8:
        return SizeConstraintSet(False, provenance=tuple(prov + ["needs |X| >= 8"]))
    m = max(d + 1, 5)
    prov.append("p=2 requires r1,r2 >= 5")
    prov.append(f"generation requires r1,r2 >= d+1 = {d + 1}")
    excluded: frozenset[tuple[int, int]] = frozenset()
    forbid = False
    if x_size == 8:
        excluded = frozenset({(5, 5)})
        prov.append("|X| = 8 excludes (5,5)")
        if e == 1:
            forbid = True
            prov.append("elementary abelian of rank 3 bars both sizes odd")
    return SizeConstraintSet(True, m, excluded, forbid, tuple(prov))


def semi_abelian_exponent(G: FiniteGroup) -> tuple[int, int]:
    """(p, e) with exp(G) = p^e, for a p-group that is semi-p^(e-1)-abelian;
    raises HypothesisViolated with a witness pair otherwise."""
    p, e = exponent_exponent(G)
    ok, witness = is_semi_abelian(G, e - 1)
    if not ok:
        raise HypothesisViolated(
            f"group is not semi-{p}^{e - 1}-abelian; witness pair {witness}"
        )
    return p, e


def predict_elementary_abelian(p: int, d: int) -> SizeConstraintSet:
    """Admissible sizes for the elementary abelian group of rank d over p: the
    e = 1 case of `semi_abelian_clauses`, whose X is the whole group."""
    if prime_factorization(p) != {p: 1}:
        raise ValueError(f"{p} is not a prime")
    if d < 1:
        raise ValueError("rank must be >= 1")
    return semi_abelian_clauses(p, 1, p**d, d)


def predict_exponent_p(G: FiniteGroup) -> SizeConstraintSet:
    """Admissible sizes for a group of prime exponent p: every such group is
    semi-p^0-abelian, so this is its semi-abelian record, whose X is G."""
    p, e = exponent_exponent(G)
    if e != 1:
        raise NotExponentP(f"exponent is {p}^{e}, not {p}")
    return predict_semi_abelian_pgroup(G)


def predict_semi_abelian_pgroup(G: FiniteGroup) -> SizeConstraintSet:
    """Admissible sizes for a semi-abelian p-group, driven by the cardinality of
    the set X of p^(e-1)-th powers."""
    p, e = semi_abelian_exponent(G)
    return semi_abelian_clauses(p, e, power_image(G, e - 1).cardinality, min_generators(G))


def predict_nilpotent(G: FiniteGroup) -> SizeConstraintSet:
    """Admissible sizes for a nilpotent group whose Sylow factors are all
    semi-abelian at their top power level.

    The per-prime constraints combine as: every factor must admit, the minimum
    grows to d(G)+1, exclusions accumulate, and the both-odd bar survives only
    when the whole group is elementary abelian of order 8.
    """
    factors = sylow_decomposition(G)
    if not factors:
        return SizeConstraintSet(False, provenance=("trivial group",))
    d = min_generators(G)
    prov = [f"generation requires r1,r2 >= d+1 = {d + 1}"]
    m = d + 1
    excluded: set[tuple[int, int]] = set()
    for p, factor in sorted(factors.items()):
        scs = predict_semi_abelian_pgroup(factor.group)
        if not scs.admits:
            return SizeConstraintSet(
                False,
                provenance=(f"Sylow {p}-factor admits no structure",) + scs.provenance,
            )
        m = max(m, scs.min_size)
        excluded |= scs.excluded_pairs
        prov.append(f"Sylow {p}-factor: min {scs.min_size}")
    is_c2_cubed = len(factors) == 1 and scs.forbid_both_odd
    if excluded:
        prov.append("a Sylow 2-factor with |X| = 8 excludes (5,5)")
    if is_c2_cubed:
        prov.append("elementary abelian of order 8 bars both sizes odd")
    return SizeConstraintSet(True, m, frozenset(excluded), is_c2_cubed, tuple(prov))


def nilpotent_prediction(G: FiniteGroup) -> Optional[SizeConstraintSet]:
    """`predict_nilpotent(G)`, or None when G is not nilpotent or a Sylow
    factor is not semi-abelian at its top power level."""
    try:
        return predict_nilpotent(G)
    except (NotNilpotent, HypothesisViolated):
        return None
