"""Constructive procedures for ramification structures: quotient lifting,
size and rank extension for elementary abelian groups, the odd-odd 2-group
construction, coprime direct-product assembly, and an orchestrating dispatcher.

Every constructor returns through `structures.validated`, the single validation
gate: it runs the ramification checker, and a failure in a theory-guaranteed
step raises InternalContradiction rather than returning an unchecked structure.

All internal searches (coset choices, redundant-entry scans, basis picks)
follow the deterministic element enumeration, so witnesses are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bitset import iter_bits
from .errors import (
    DegenerateRank,
    HypothesisViolated,
    InadmissibleSize,
    InternalContradiction,
    NoLiftExists,
    NotAPGroup,
    NotCoprime,
    NotExponentP,
    PaddingImpossible,
    PreconditionViolated,
)
from .groups import (
    AbelianGroup,
    DirectProductGroup,
    FiniteGroup,
    QuotientView,
    direct_product,
    greedy_generators,
    prime_factorization,
    quotient,
)
from .invariants import (
    exponent,
    exponent_exponent,
    frattini,
    generators_missing,
    min_generators,
    omega,
    pgroup_prime,
    power_image,
    power_map,
    sylow_decomposition,
)
from .structures import GenTuple, RamStructure, is_spherical_system, validated
from .theory import (
    nilpotent_prediction,
    predict_elementary_abelian,
    predict_semi_abelian_pgroup,
    semi_abelian_clauses,
    semi_abelian_exponent,
)
from . import oracle


# -- shared steps: padding, product assembly --------------------------------------


def _pad(G: FiniteGroup, entries: Sequence[int], target: int) -> tuple[int, ...]:
    """Lengthen a spherical tuple to `target` entries, keeping its product and
    its conjugate cyclic sets: an odd gap splits the first entry x as
    x^2, ..., x^-1 (so x must have odd order), then cancelling pairs
    (t0, t0^-1) of the current first entry fill the rest."""
    out = list(entries)
    if (target - len(out)) % 2 == 1:
        x = out[0]
        out = [G.mul(x, x)] + out[1:] + [G.inv(x)]
    while len(out) < target:
        out.extend((out[0], G.inv(out[0])))
    return tuple(out)


def _assemble(
    G: FiniteGroup, parts: Sequence[tuple[Callable[[int], int], RamStructure]], step: str
) -> RamStructure:
    """The structure on G zipped from structures on commuting factors, each
    given as (embed into G, structure): each tuple is the entrywise product
    of the factors' tuples, a shorter one contributing the identity past its
    end. Validated as `step`."""

    def zipped(tuples: list[tuple[Callable[[int], int], GenTuple]]) -> list[int]:
        out = []
        for i in range(max(len(T) for _, T in tuples)):
            acc = 0
            for embed, T in tuples:
                if i < len(T):
                    acc = G.mul(acc, embed(T.entries[i]))
            out.append(acc)
        return out

    t1 = zipped([(embed, S.t1) for embed, S in parts])
    t2 = zipped([(embed, S.t2) for embed, S in parts])
    return validated(G, t1, t2, step)


# -- lifting through a normal subgroup ----------------------------------------


def omega_context(G: FiniteGroup) -> QuotientView:
    """G modulo the subgroup of elements of order below the exponent level
    (the kernel used by the projection/lift pair)."""
    _, e = exponent_exponent(G)
    return quotient(G, omega(G, e - 1))


def _same_table_group(A: FiniteGroup, B: FiniteGroup) -> bool:
    """Same element indexing and multiplication, entry for entry (quotients are
    deterministic, so independently materialized copies compare equal)."""
    return A.order == B.order and np.array_equal(A.mul_table(), B.mul_table())


def lift_tuple(view: QuotientView, U: GenTuple) -> GenTuple:
    """Lift a spherical generating tuple of the quotient to one of the
    nilpotent parent, entrywise congruent modulo the kernel.

    The first r-1 entries are lifted by depth-first search over the
    nonidentity elements of their kernel cosets in enumeration order, and the
    last entry is forced as the inverse of the running product, which lands
    in the remaining coset.  A prefix is cut as soon as its closure needs
    more generators (`generators_missing`) than there are free entries left;
    the count is exact, so the cut never loses a lift.  An entry whose coset
    holds only the identity has no admissible lift.
    """
    G = view.parent
    Q = view.group
    if U.group is not Q and not _same_table_group(U.group, Q):
        raise PreconditionViolated("tuple does not live on this quotient")
    r = len(U)
    if r == 0:
        raise PreconditionViolated("cannot lift an empty tuple")
    if Q.closure_mask(U.entries) != (1 << Q.order) - 1:
        raise PreconditionViolated("tuple does not generate the quotient")
    if U.product() != 0:
        raise PreconditionViolated("spherical lift needs a trivial quotient product")

    free = r - 1
    candidate_lists = []
    for i, u in enumerate(U.entries[:free]):
        m = view.coset_mask(u) & ~1
        if not m:
            raise NoLiftExists(f"no admissible lift for entry {i}")
        candidate_lists.append(list(iter_bits(m)))
    phi = frattini(G).mask
    chosen: list[int] = []

    def rec(k: int, hmask: int, pi: int) -> Optional[tuple[int, ...]]:
        if generators_missing(G.order, phi, hmask) > free - k:
            return None
        if k == free:
            last = G.inv(pi)
            if last == 0:
                return None
            if view.project(last) != U.entries[free]:
                raise InternalContradiction("forced last entry left its coset")
            return tuple(chosen) + (last,)
        for z in candidate_lists[k]:
            chosen.append(z)
            res = rec(k + 1, G.closure_mask(chosen), G.mul(pi, z))
            chosen.pop()
            if res is not None:
                return res
        return None

    try:
        result = rec(0, 1, 0)
    finally:
        del rec  # rec refers to itself; free it without the cyclic collector
    if result is None:
        raise NoLiftExists("exhausted kernel coset choices without generating the parent")
    return GenTuple(G, result)


# -- elementary abelian machinery ----------------------------------------------


def _is_elementary_abelian(G: FiniteGroup) -> Optional[int]:
    """The prime p if G is a nontrivial direct power of C_p, else None."""
    primes = prime_factorization(G.order)
    if len(primes) == 1 and G.is_abelian and exponent(G) in primes:
        return exponent(G)
    return None


def _word(G: FiniteGroup, basis: Sequence[int], exps: Sequence[int]) -> int:
    acc = 0
    for b, e in zip(basis, exps):
        acc = G.mul(acc, G.power(b, e))
    return acc


def _transport_elementary(
    S: RamStructure, target: FiniteGroup, basis: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Map a structure on the canonical C_p^d onto `target` through the given
    basis (an isomorphism, so both tuple properties carry over)."""
    C = S.group
    assert isinstance(C, AbelianGroup)

    def img(idx: int) -> int:
        return _word(target, basis, C.vector(idx))

    return tuple(img(g) for g in S.t1.entries), tuple(img(g) for g in S.t2.entries)


def extend_size(T1: GenTuple, p: int) -> GenTuple:
    """Lengthen a spherical system of an elementary abelian p-group by one
    entry (p odd: split the first entry as its square plus inverse) or two
    (p = 2: append the first entry twice). The union of conjugate cyclic sets
    is unchanged, so any disjoint partner stays disjoint."""
    G = T1.group
    if _is_elementary_abelian(G) != p:
        raise PreconditionViolated(f"group is not elementary abelian over {p}")
    if not is_spherical_system(G, T1):
        raise PreconditionViolated("input tuple is not a spherical system")
    return GenTuple(G, _pad(G, T1.entries, len(T1) + (2 if p == 2 else 1)))


def extend_rank(S: RamStructure) -> RamStructure:
    """Push a structure on C_p^d up to C_p^(d+1) at the same size, by
    multiplying one redundant entry of each tuple by the new generator and a
    second one by its inverse. Needs r1, r2 >= d+2 so that redundant entries
    exist."""
    G = S.group
    p = _is_elementary_abelian(G)
    if p is None or not isinstance(G, AbelianGroup):
        raise PreconditionViolated("rank extension needs a canonical elementary abelian group")
    d = len(G.orders)
    r1, r2 = S.size
    if r1 < d + 2 or r2 < d + 2:
        raise PreconditionViolated(f"rank extension needs sizes >= d+2 = {d + 2}")
    bigger = AbelianGroup(G.orders + (p,))
    full = (1 << G.order) - 1

    def redundant_pair(entries: tuple[int, ...]) -> tuple[int, int]:
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                rest = entries[:i] + entries[i + 1 : j] + entries[j + 1 :]
                if G.closure_mask(rest) == full:
                    return i, j
        raise PreconditionViolated("no redundant entry pair found")

    def push(entries: tuple[int, ...]) -> tuple[int, ...]:
        i, j = redundant_pair(entries)
        out = [g * p for g in entries]  # append a zero coordinate
        out[i] = bigger.mul(out[i], 1)  # new generator has index 1
        out[j] = bigger.mul(out[j], bigger.inv(1))
        return tuple(out)

    return validated(bigger, push(S.t1.entries), push(S.t2.entries), "rank extension")


def elementary_abelian_structure(p: int, d: int, r1: int, r2: int) -> RamStructure:
    """A validated structure of size (r1, r2) on C_p^d for every admissible
    size pair, grown from small base structures by size and rank extension."""
    scs = predict_elementary_abelian(p, d)
    if not scs.membership(r1, r2):
        raise InadmissibleSize(scs.violated_clause(r1, r2))

    if p == 2 and r1 % 2 == 0 and r2 % 2 == 1:
        return elementary_abelian_structure(p, d, r2, r1).swapped()

    if p >= 3:
        base_rank, base_size = 2, (4 if p == 3 else 3)
        C = AbelianGroup([p] * base_rank)
        v = C.index_of
        if p >= 5:
            t1 = (v((1, 0)), v((0, 1)), C.inv(v((1, 1))))
            t2 = (v((1, 2)), v((1, 4)), C.inv(v((2, 6))))
        else:
            t1 = (v((1, 0)), v((2, 0)), v((0, 1)), v((0, 2)))
            t2 = (v((1, 1)), v((2, 2)), v((1, 2)), v((2, 1)))
        grow1, grow2 = r1 - base_size, r2 - base_size
    else:
        both_odd = r1 % 2 == 1 and r2 % 2 == 1
        if both_odd:
            base_rank = 4
            C = AbelianGroup([2] * 4)
            v = C.index_of
            t1 = (
                v((1, 0, 0, 0)),
                v((0, 1, 0, 0)),
                v((0, 0, 1, 0)),
                v((0, 0, 0, 1)),
                v((1, 1, 1, 1)),
            )
            t2 = (
                v((1, 1, 0, 0)),
                v((0, 1, 1, 0)),
                v((0, 0, 1, 1)),
                v((1, 1, 1, 0)),
                v((0, 1, 1, 1)),
            )
            grow1, grow2 = (r1 - 5) // 2, (r2 - 5) // 2
        else:
            base_rank = 3
            C = AbelianGroup([2] * 3)
            v = C.index_of
            t2 = (v((1, 0, 0)), v((0, 1, 0)), v((0, 0, 1))) * 2
            if r1 % 2 == 1:
                t1 = (v((1, 1, 0)), v((1, 0, 1)), v((0, 1, 1)), v((1, 1, 1)), v((1, 1, 1)))
                grow1 = (r1 - 5) // 2
            else:
                t1 = (v((1, 1, 0)), v((1, 0, 1)), v((1, 1, 1))) * 2
                grow1 = (r1 - 6) // 2
            grow2 = (r2 - 6) // 2

    T1, T2 = GenTuple(C, t1), GenTuple(C, t2)
    for _ in range(grow1):
        T1 = extend_size(T1, p)
    for _ in range(grow2):
        T2 = extend_size(T2, p)
    result = validated(C, T1, T2, "base structure")
    for _ in range(d - base_rank):
        result = extend_rank(result)
    return result


def exponent_p_structure(G: FiniteGroup, r1: int, r2: int) -> RamStructure:
    """A structure on a group of prime exponent p, built on its maximal
    elementary abelian quotient and lifted back spherically."""
    p, e = exponent_exponent(G)
    if e != 1:
        raise NotExponentP(f"exponent is {p}^{e}, not prime")
    canonical = elementary_abelian_structure(p, min_generators(G), r1, r2)

    phi = frattini(G)
    if phi.cardinality == 1:
        t1, t2 = _transport_elementary(canonical, G, G.generators())
    else:
        view = quotient(G, phi)
        Q = view.group
        u1, u2 = _transport_elementary(canonical, Q, Q.generators())
        t1 = lift_tuple(view, GenTuple(Q, u1))
        t2 = lift_tuple(view, GenTuple(Q, u2))
    return validated(G, t1, t2, "exponent-p lift")


# -- quotient projection and lifting at the top power level --------------------


def project_mod_omega(G: FiniteGroup, S: RamStructure) -> RamStructure:
    """Project a structure onto the quotient by the order-below-exponent
    subgroup, deleting entries with trivial image; needs the semi-abelian
    hypothesis, which is what keeps the projected tuples disjoint."""
    _, e = semi_abelian_exponent(G)
    if S.group is not G:
        raise PreconditionViolated("structure does not live on the given group")
    if e == 1:
        return S
    view = omega_context(G)
    t1 = tuple(q for q in (view.project(g) for g in S.t1.entries) if q != 0)
    t2 = tuple(q for q in (view.project(g) for g in S.t2.entries) if q != 0)
    return validated(view.group, t1, t2, "projection")


def lift_structure_mod_omega(
    G: FiniteGroup, U: RamStructure, view: Optional[QuotientView] = None
) -> RamStructure:
    """Lift a structure on G modulo the order-below-exponent subgroup back to
    G; disjointness is guaranteed by the semi-abelian hypothesis but is
    re-verified, and a failure there reports an internal contradiction."""
    _, e = semi_abelian_exponent(G)
    if e == 1:
        if U.group is not G:
            raise PreconditionViolated("structure does not live on the given group")
        return U
    d = min_generators(G)
    r1, r2 = U.size
    if r1 < d + 1 or r2 < d + 1:
        raise PreconditionViolated(f"lift needs sizes >= d+1 = {d + 1}")
    view = view or omega_context(G)
    T1 = lift_tuple(view, U.t1)
    T2 = lift_tuple(view, U.t2)
    return validated(G, T1, T2, "lift")


# -- padding and direct products -------------------------------------------------


def pad_from_beauville(S: RamStructure, r1: int, r2: int) -> RamStructure:
    """Grow a size-(3,3) structure to any size (r1, r2) >= (3, 3) by appending
    cancelling pairs (and a commutator-free 4-entry variant when the parity
    differs); the conjugate cyclic sets are unchanged."""
    if S.size != (3, 3):
        raise PreconditionViolated("padding starts from a size-(3,3) structure")
    if r1 < 3 or r2 < 3:
        raise PreconditionViolated("target sizes must be >= 3")
    G = S.group

    def pad(entries: tuple[int, ...], target: int) -> tuple[int, ...]:
        if target % 2 == 0:
            x, y = entries[0], entries[1]
            entries = (x, y, G.inv(y), G.inv(x))
        return _pad(G, entries, target)

    return validated(G, pad(S.t1.entries, r1), pad(S.t2.entries, r2), "padding")


def product_combine(SG: RamStructure, SH: RamStructure) -> RamStructure:
    """Combine structures on groups of coprime order into one on their direct
    product, padding the shorter tuples with identities at the end and zipping
    componentwise; the result has the componentwise maximum size."""
    G, H = SG.group, SH.group
    if math.gcd(G.order, H.order) != 1:
        raise NotCoprime(f"orders {G.order} and {H.order} share a factor")
    P = direct_product(G, H)

    left, right = (lambda a: P.index_of(a, 0)), (lambda b: P.index_of(0, b))
    return _assemble(P, [(left, SG), (right, SH)], "product combination")


def product_project(
    S: RamStructure,
    side: str,
    target_size: Optional[tuple[int, int]] = None,
) -> RamStructure:
    """Project a structure on a coprime direct product onto one factor,
    deleting identity components; an odd-order factor can be re-padded to a
    requested larger size by cancelling pairs, splitting the first entry as
    square-plus-inverse when the parity requires it."""
    P = S.group
    if not isinstance(P, DirectProductGroup):
        raise PreconditionViolated("structure does not live on a direct product")
    if math.gcd(P.left.order, P.right.order) != 1:
        raise NotCoprime("factors are not of coprime order")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    F, k = (P.left, 0) if side == "left" else (P.right, 1)
    t1 = [z for z in (P.pair(g)[k] for g in S.t1) if z != 0]
    t2 = [z for z in (P.pair(g)[k] for g in S.t2) if z != 0]

    if target_size is not None:
        r, s = target_size
        if F.order % 2 == 0:
            raise PaddingImpossible("only odd-order factors support full-size re-padding")
        if r < len(t1) or s < len(t2):
            raise PreconditionViolated("target size below the projected size")
        t1, t2 = _pad(F, t1, r), _pad(F, t2, s)

    return validated(F, t1, t2, "projection")


# -- the odd-odd construction for 2-groups ----------------------------------------


def _balanced_template(d: int, length: int) -> Optional[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Attachment and fill counts (per letter x, y, z) so that each letter
    occurs an even number of times in a template of the given length holding
    d-3 marked entries; lexicographically first solution."""
    marked = d - 3
    fill_total = length - 3 - marked
    if fill_total < 0:
        return None
    for ax in range(marked + 1):
        for ay in range(marked - ax + 1):
            az = marked - ax - ay
            for fx in range(fill_total + 1):
                for fy in range(fill_total - fx + 1):
                    fz = fill_total - fx - fy
                    if all((1 + a + f) % 2 == 0 for a, f in ((ax, fx), (ay, fy), (az, fz))):
                        return (ax, ay, az), (fx, fy, fz)
    return None


def semi_abelian_2group_odd_odd(G: FiniteGroup, r1: int, r2: int) -> RamStructure:
    """Both-sizes-odd construction for semi-abelian 2-groups whose set of
    top-level powers has exactly 8 elements.

    Picks generators n_1..n_{d-3} of the order-below-exponent subgroup modulo
    the squares, sets n to their product, and branches on whether the
    order-2 power of n is itself a top-level power to choose the first basis
    vector of the rank-3 quotient. One side is lifted from a standard
    rank-3 pattern; the other is assembled from the basis letters with the
    n_i attached, corrected by a square so the product telescopes to n, and
    closed with n^-1.
    """
    if pgroup_prime(G) != 2:
        raise NotAPGroup("the odd-odd construction applies to 2-groups")
    _, e = semi_abelian_exponent(G)
    X = power_image(G, e - 1)
    if e < 2 or X.cardinality != 8:
        raise HypothesisViolated("needs exponent >= 4 and exactly 8 top-level powers")
    if r1 % 2 == 0 or r2 % 2 == 0:
        raise PreconditionViolated("both sizes must be odd")
    d = min_generators(G)
    clause = semi_abelian_clauses(2, e, 8, d).violated_clause(r1, r2)
    if clause is not None:
        raise InadmissibleSize(clause)
    if d == 3:
        raise DegenerateRank("rank 3 leaves no generators for n; fall back to search")

    swap = r2 < 7  # put the >= 7 side on the assembled tuple
    a, b = (r2, r1) if swap else (r1, r2)

    phi = frattini(G)
    Om = omega(G, e - 1)

    # x is independent of the earlier ns modulo the squares iff x lies
    # outside <Phi, ns>
    gens, _ = greedy_generators(G, [*phi, *Om])
    ns = [x for x in gens if x not in phi][: d - 3]
    if len(ns) != d - 3:
        raise InternalContradiction("order-below-exponent subgroup has unexpected rank")

    n = GenTuple(G, tuple(ns)).product()
    k = G.order_of(n).bit_length() - 1
    t = G.power(n, 1 << (k - 1))

    view = omega_context(G)
    OQ = view.group
    if t in X:
        x = power_map(G, 1 << (e - 1)).index(t)
        xq = view.project(x)
        if xq == 0:
            raise InternalContradiction("chosen basis element lies in the kernel")
        basis_q = greedy_generators(OQ, [xq, *OQ.elements()])[0]
        y, z = view.section(basis_q[1]), view.section(basis_q[2])
    else:
        basis_q = OQ.generators()
        xq = basis_q[0]
        x, y, z = (view.section(v) for v in basis_q)
    yq, zq = basis_q[1], basis_q[2]

    xy = OQ.mul(xq, yq)
    yz = OQ.mul(yq, zq)
    xz = OQ.mul(xq, zq)
    xyz = OQ.mul(xy, zq)
    u1 = _pad(OQ, (xy, yz, xz, xyz, xyz), a)
    T1 = lift_tuple(view, GenTuple(OQ, u1))

    counts = _balanced_template(d, b - 1)
    if counts is None:
        raise InternalContradiction("no parity-balanced template of the required length")
    (ax, ay, az), (fx, fy, fz) = counts
    entries = [x, y, z]
    pos = 0
    for letter, count in ((x, ax), (y, ay), (z, az)):
        for _ in range(count):
            entries.append(G.mul(letter, ns[pos]))
            pos += 1
    entries.extend([x] * fx + [y] * fy + [z] * fz)

    pi = GenTuple(G, tuple(entries)).product()
    w = G.mul(pi, G.inv(n))
    if w not in phi:
        raise InternalContradiction("template product is not n modulo the squares")
    entries[0] = G.mul(G.inv(w), x)
    entries.append(G.inv(n))

    result = validated(G, T1, entries, "odd-odd construction")
    return result.swapped() if swap else result


# -- orchestration ------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructResult:
    """Tri-state outcome: a validated structure, a proof of inadmissibility,
    or unknown (theory silent and search budget exhausted). `stats` holds the
    counters of the oracle searches the route ran (summed over Sylow
    factors), or None when it ran none."""

    status: str  # "ok" | "inadmissible" | "unknown"
    structure: Optional[RamStructure] = None
    method: str = ""
    reason: str = ""
    stats: Optional["oracle.SearchStats"] = None


def _construct_pgroup(G: FiniteGroup, r1: int, r2: int) -> Optional[ConstructResult]:
    """Theory-backed construction for a p-group, or None when the implemented
    theory does not cover it (not semi-abelian, or the degenerate rank case)."""
    p, e = exponent_exponent(G)
    try:
        scs = predict_semi_abelian_pgroup(G)
    except HypothesisViolated:
        return None
    if not scs.membership(r1, r2):
        return ConstructResult("inadmissible", reason=scs.violated_clause(r1, r2))
    if e == 1:
        return ConstructResult(
            "ok", exponent_p_structure(G, r1, r2), method="exponent-p-lift"
        )
    if p == 2 and r1 % 2 == 1 and r2 % 2 == 1 and power_image(G, e - 1).cardinality == 8:
        try:
            return ConstructResult(
                "ok", semi_abelian_2group_odd_odd(G, r1, r2), method="odd-odd-2group"
            )
        except DegenerateRank:
            return None
    view = omega_context(G)
    U = exponent_p_structure(view.group, r1, r2)
    return ConstructResult(
        "ok", lift_structure_mod_omega(G, U, view), method="omega-lift"
    )


def _construct_nilpotent(
    G: FiniteGroup, r1: int, r2: int, budget, method: str
) -> Optional[ConstructResult]:
    scs = nilpotent_prediction(G)
    if scs is None:
        return None
    if not scs.membership(r1, r2):
        return ConstructResult("inadmissible", reason=scs.violated_clause(r1, r2))

    parts = []
    methods = []
    stats = None  # the factors' search counters, summed
    for p, factor in sorted(sylow_decomposition(G).items()):
        target = (r1, r2)
        if not predict_semi_abelian_pgroup(factor.group).membership(r1, r2):
            # only a C2^3 factor refuses a pair G admits, by its both-odd bar;
            # both sides are then odd and at least 5, not (5,5), so it admits
            # the pair with the larger side one shorter (r1 on a tie), and
            # the other factors carry the full side
            target = (r1 - 1, r2) if r1 >= r2 else (r1, r2 - 1)
        sub = construct_any(factor.group, *target, budget=budget, method=method)
        if sub.stats is not None:
            stats = stats or oracle.SearchStats()
            stats.add(sub.stats)
        if sub.status != "ok":
            return ConstructResult(
                "unknown", reason=f"Sylow {p}-factor: {sub.reason}", stats=stats
            )
        parts.append((factor.embed, sub.structure))
        methods.append(f"{p}:{sub.method}")

    result = _assemble(G, parts, "product assembly")
    return ConstructResult(
        "ok", result, method="sylow-product(" + ",".join(methods) + ")", stats=stats
    )


# a search outcome's `ConstructResult` status and reason, by `FindOutcome.status`
_SEARCH_ANSWERS = {
    "found": ("ok", ""),
    "none": ("inadmissible", "exhaustive search found no structure"),
    "budget": ("unknown", "search budget exhausted"),
}


def construct_any(
    G: FiniteGroup,
    r1: int,
    r2: int,
    budget: Optional["oracle.SearchBudget"] = None,
    method: str = "auto",
) -> ConstructResult:
    """Dispatch: theory-backed constructions where the characterizations apply
    (elementary abelian, prime exponent, semi-abelian p-groups, nilpotent
    assemblies), exhaustive search otherwise or on the degenerate rank case.
    An input the search refuses (a group past its order limit, sizes past
    its guard) raises, as `find_structure` does; it is not an unknown."""
    if method not in ("auto", "theorem", "search"):
        raise ValueError("method must be auto, theorem, or search")
    if r1 < 3 or r2 < 3:
        return ConstructResult("inadmissible", reason="structure sizes are at least 3")
    if G.order == 1:
        return ConstructResult("inadmissible", reason="trivial group")

    if method != "search":
        outcome: Optional[ConstructResult] = None
        if len(prime_factorization(G.order)) == 1:
            outcome = _construct_pgroup(G, r1, r2)
        else:
            outcome = _construct_nilpotent(G, r1, r2, budget, method)
        if outcome is not None:
            return outcome
        if method == "theorem":
            return ConstructResult(
                "unknown", reason="no implemented characterization covers this group"
            )

    out = oracle.find_structure(G, r1, r2, budget)
    status, reason = _SEARCH_ANSWERS[out.status]
    return ConstructResult(status, out.structure, method="search", reason=reason, stats=out.stats)
