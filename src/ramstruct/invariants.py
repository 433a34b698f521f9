"""p-group and nilpotent-group invariants: exponent, omega/agemo subgroups,
the derived subgroup, the Frattini subgroup and the generation bound read off
it (the one home of both), power images, the semi-abelian test, Sylow
decomposition, and a p-group classifier.  Every power-structure invariant is
read off `power_map(G, k)`, the k-th powers of G, computed once per G and k."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .bitset import ElementSet
from .errors import NotAPGroup, NotNilpotent
from .groups import (
    CayleyTableGroup,
    FiniteGroup,
    greedy_generators,
    per_group,
    prime_factorization,
)


@per_group
def exponent(G: FiniteGroup) -> int:
    """Maximum element order (equals the group exponent for p-groups): the
    longest row of the group's table of cyclic walks (`FiniteGroup._cyclic`),
    since each row is the walk of an element and lists only its powers."""
    return max(len(row) for row, _ in G._cyclic)


def pgroup_prime(G: FiniteGroup) -> int:
    """The prime p with |G| = p^k, or NotAPGroup."""
    if G.order == 1:
        raise NotAPGroup("the trivial group has no defining prime")
    fact = prime_factorization(G.order)
    if len(fact) != 1:
        raise NotAPGroup(f"order {G.order} is not a prime power")
    return next(iter(fact))


def exponent_exponent(G: FiniteGroup) -> tuple[int, int]:
    """(p, e) with exp(G) = p^e."""
    p = pgroup_prime(G)
    e = exponent(G)
    k = 0
    while e > 1:
        e //= p
        k += 1
    return p, k


@per_group
def power_map(G: FiniteGroup, k: int) -> list[int]:
    """[g^k for g in G], cached on G per k.  Each entry is read off the
    group's table of cyclic walks, g^k = row[j k mod m] for g = row[j] (see
    `FiniteGroup._cyclic`), so a map costs one table lookup and no
    multiplications once that table is built."""
    if k < 0:
        raise ValueError(f"power exponent must be >= 0, got {k}")
    return [row[j * k % len(row)] for row, j in G._cyclic]


def _level(G: FiniteGroup, i: int) -> int:
    """p^min(i, e) for the p-group G of exponent p^e: for i >= e every
    element order divides p^i, so the p^i-th power map is the p^e-th one.
    A level below 0 is a ValueError."""
    if i < 0:
        raise ValueError(f"power level must be >= 0, got {i}")
    p, e = exponent_exponent(G)
    return p ** min(i, e)


def torsion_set(G: FiniteGroup, i: int) -> ElementSet:
    """The raw set {g : g^(p^i) = 1}; not a subgroup in general."""
    pm = power_map(G, _level(G, i))
    return ElementSet.from_indices([g for g in G.elements() if pm[g] == 0], G.order)


def omega(G: FiniteGroup, i: int) -> ElementSet:
    """Subgroup generated by all elements of order dividing p^i; closed over
    only those not yet in the closure of the ones before them.  Cached on G
    per level; every level i >= e shares Omega_e = G."""
    return _omega(G, min(i, exponent_exponent(G)[1]))


@per_group
def _omega(G: FiniteGroup, i: int) -> ElementSet:
    return ElementSet(greedy_generators(G, torsion_set(G, i))[1], G.order)


def agemo(G: FiniteGroup, i: int) -> ElementSet:
    """Subgroup generated by all p^i-th powers."""
    return G.generated_subgroup(power_image(G, i).indices())


def power_image(G: FiniteGroup, i: int) -> ElementSet:
    """The literal set {g^(p^i) : g in G} (a set, not a subgroup)."""
    return ElementSet.from_indices(power_map(G, _level(G, i)), G.order)


@per_group
def derived_subgroup(G: FiniteGroup) -> ElementSet:
    """Subgroup generated by all commutators.

    For any generating set S it equals K = <[a, s] : a in G, s in S>: K is
    normal, as [a, s]^g = [ag, s] [g, s]^-1, and every s is central modulo K,
    so G/K is abelian.  With S = G.generators() this takes |G| |S|
    commutators instead of |G|^2."""
    if G.is_abelian:
        return ElementSet(1, G.order)
    gens = G.generators()
    comm = sorted({G.commutator(a, s) for a in G.elements() for s in gens})
    return ElementSet(G.closure_mask(comm), G.order)


@per_group
def frattini(G: FiniteGroup) -> ElementSet:
    """Phi(G) = G' * G^r for a nilpotent G, r the product of the primes of |G|.

    The r-th powers of G's p-part are exactly the p-th powers of G_p, so this
    is prod Phi(G_p) = prod G_p' G_p^p.  A p-group is nilpotent; for several
    primes `sylow_decomposition` certifies nilpotency, raising NotNilpotent
    otherwise."""
    primes = prime_factorization(G.order)
    if len(primes) > 1:
        sylow_decomposition(G)
    powers = set(power_map(G, math.prod(primes)))
    return ElementSet(G.closure_mask(derived_subgroup(G).indices() + sorted(powers)), G.order)


def generators_missing(order: int, phi: int, hmask: int) -> int:
    """How many more elements the subgroup H (a mask) needs to generate a
    nilpotent group of the given order whose Frattini subgroup is the mask
    `phi`.

    By the Burnside basis theorem on each Sylow factor, elements generate G
    exactly when their images generate G/Phi = prod G_p/Phi(G_p), an F_p-space
    for each p.  The image of H is H Phi/Phi, and the p-part of |G : H Phi| is
    p^k, where k is the number of F_p-dimensions that image misses; so H needs
    the largest such k, with |G : H Phi| = |G| |H & Phi| / (|Phi| |H|)."""
    index = order * (hmask & phi).bit_count() // (phi.bit_count() * hmask.bit_count())
    return max(prime_factorization(index).values(), default=0)


def min_generators(G: FiniteGroup) -> int:
    """d(G) for a nilpotent group: the largest F_p-rank of G_p/Phi(G_p)."""
    return generators_missing(G.order, frattini(G).mask, 1)


def is_semi_abelian(G: FiniteGroup, i: int) -> tuple[bool, Optional[tuple[int, int]]]:
    """Whether x^(p^i) = y^(p^i) iff (x y^-1)^(p^i) = 1 for all pairs; on failure
    returns a witness pair (x, y).

    Full O(|G|^2) pair scan over `power_map`.  It is skipped where
    the condition holds identically: for abelian groups, and when p^i >= exp(G),
    so that every p^i-th power is 1.
    """
    q = _level(G, i)
    if i == 0 or G.is_abelian or q >= exponent(G):
        return True, None
    pw = np.asarray(power_map(G, q))
    inv = np.array([G.inv(g) for g in G.elements()])
    trivial = pw == 0
    for x in G.elements():
        # row x of the pair scan: y with x^q = y^q against (x y^-1)^q = 1
        bad = (pw == pw[x]) != trivial[G.mul_table([x], inv)[0]]
        if bad.any():
            return False, (x, int(bad.argmax()))
    return True, None


@dataclass(frozen=True)
class SylowFactor:
    """A Sylow p-subgroup as a standalone group: a p-group is its own factor,
    otherwise it is rebuilt as a Cayley table.

    `embedding[i]` is the parent index of factor element i; the factor preserves
    the parent's element order, so index 0 is the identity.
    """

    prime: int
    group: FiniteGroup
    embedding: tuple[int, ...]

    def embed(self, a: int) -> int:
        return self.embedding[a]


def sylow_decomposition(G: FiniteGroup) -> dict[int, SylowFactor]:
    """For each prime p | |G|, the elements of p-power order as a subgroup.

    Succeeds exactly when every such set is a subgroup of order p^a, which
    certifies nilpotency; raises NotNilpotent otherwise.  A p-group is its
    own factor, with the identity embedding and no table copy; that factor
    refers to G, so it is built on each call, and only the factors of a group
    with several primes are cached.
    """
    fact = prime_factorization(G.order) if G.order > 1 else {}
    if len(fact) == 1:
        (p,) = fact
        return {p: SylowFactor(p, G, tuple(G.elements()))}
    return _sylow_factors(G)


@per_group
def _sylow_factors(G: FiniteGroup) -> dict[int, SylowFactor]:
    out: dict[int, SylowFactor] = {}
    for p, a in sorted(prime_factorization(G.order).items()):
        members = [g for g in G.elements() if _is_p_power(G.order_of(g), p)]
        if len(members) != p**a:
            raise NotNilpotent(
                f"elements of {p}-power order number {len(members)}, expected {p**a}"
            )
        pos = np.full(G.order, -1)
        pos[members] = np.arange(len(members))
        table = pos[G.mul_table(members, members)]
        if (table < 0).any():
            raise NotNilpotent(f"{p}-power-order elements are not closed under product")
        factor = CayleyTableGroup(table, label=f"sylow{p}({G.describe()})", trusted=True)
        out[p] = SylowFactor(p, factor, tuple(members))
    return out


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


@dataclass(frozen=True)
class PGroupClassification:
    abelian: bool
    powerful: bool
    p_central: bool
    semi_abelian_at_e_minus_1: bool


def classify_pgroup(G: FiniteGroup) -> PGroupClassification:
    """Structural flags: abelian; powerful (G' <= G^p, or G' <= G^4 for p = 2);
    generalized p-central (Omega_1 <= Z_{p-2} for odd p, Omega_2 <= Z(G) for p = 2);
    and the semi-abelian condition at level e-1."""
    p, e = exponent_exponent(G)
    abelian = G.is_abelian
    derived = derived_subgroup(G)
    powerful = derived.issubset(agemo(G, 1) if p > 2 else agemo(G, 2))
    series = G.upper_central_series()
    if p > 2:
        level = min(p - 2, len(series) - 1)
        p_central = omega(G, 1).issubset(series[level])
    else:
        p_central = omega(G, 2).issubset(series[min(1, len(series) - 1)])
    semi = abelian or is_semi_abelian(G, e - 1)[0]
    return PGroupClassification(abelian, powerful, p_central, semi)


@dataclass(frozen=True)
class PGroupProfile:
    """JSON-friendly summary of the invariants driving the size predictions."""

    p: int
    e: int
    d: int
    order: int
    power_image_sizes: tuple[int, ...]  # index i -> |{g^(p^i)}|
    omega_indices: tuple[int, ...]  # index i -> |G : Omega_i|
    semi_abelian: tuple[bool, ...]  # index i -> semi-p^i-abelian
    classification: PGroupClassification

    def to_json(self) -> dict:
        out = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        out["semi_abelian"] = [
            {"i": i, "holds": bool(v), "trivial": i == 0} for i, v in enumerate(self.semi_abelian)
        ]
        return out


def pgroup_profile(G: FiniteGroup) -> PGroupProfile:
    p, e = exponent_exponent(G)
    sizes = tuple(power_image(G, i).cardinality for i in range(e + 1))
    omegas = tuple(G.order // omega(G, i).cardinality for i in range(e + 1))
    semi = tuple(is_semi_abelian(G, i)[0] for i in range(e + 1))
    return PGroupProfile(
        p=p,
        e=e,
        d=min_generators(G),
        order=G.order,
        power_image_sizes=sizes,
        omega_indices=omegas,
        semi_abelian=semi,
        classification=classify_pgroup(G),
    )
