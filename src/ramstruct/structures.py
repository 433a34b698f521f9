"""Spherical generating systems, their conjugate-closed element sets, and
validated ramification structures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .bitset import ElementSet
from .errors import InternalContradiction, RamError
from .groups import FiniteGroup, per_group

MIN_STRUCTURE_SIZE = 3


def size_pairs(cap: int) -> list[tuple[int, int]]:
    """The size pairs 3 <= r1 <= r2 <= cap, ordered by r1 and then r2."""
    return [(r1, r2) for r1 in range(MIN_STRUCTURE_SIZE, cap + 1) for r2 in range(r1, cap + 1)]


@dataclass(frozen=True)
class GenTuple:
    """Ordered tuple of elements of one group; repetition allowed."""

    group: FiniteGroup
    entries: tuple[int, ...]

    def __post_init__(self):
        for g in self.entries:
            self.group.check_index(g)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def product(self) -> int:
        acc = 0
        for g in self.entries:
            acc = self.group.mul(acc, g)
        return acc


@per_group
def _cyc_masks(G: FiniteGroup) -> list[int]:
    """cyc[y] = bitmask of the union over g of the conjugate subgroups <y>^g.

    For abelian groups this is just <y>; otherwise <y>^g = <y^g>, so it is the
    union of the powers masks over the conjugacy class of y, taken as the
    orbit of y under conjugation by the generators of G, and shared by every
    member of the class.
    """
    n = G.order
    pw = [G.powers_mask(y) for y in range(n)]
    if G.is_abelian:
        return pw
    gens = G.generators()
    masks = [0] * n
    for y in range(n):
        if masks[y]:
            continue
        cls, stack = {y}, [y]
        while stack:
            x = stack.pop()
            for s in gens:
                c = G.conjugate(x, s)
                if c not in cls:
                    cls.add(c)
                    stack.append(c)
        m = 0
        for x in cls:
            m |= pw[x]
        for x in cls:
            masks[x] = m
    return masks


def sigma(G: FiniteGroup, T: GenTuple) -> ElementSet:
    """Union of all conjugates of the cyclic subgroups generated by the entries."""
    cyc = _cyc_masks(G)
    m = 1
    for g in T.entries:
        m |= cyc[g]
    return ElementSet(m, G.order)


@dataclass(frozen=True)
class SphericalVerdict:
    ok: bool
    reason: Optional[str] = None  # "trivial_entry" | "not_generating" | "product_not_identity"
    detail: Optional[int] = None  # offending entry position for trivial_entry

    def __bool__(self) -> bool:
        return self.ok


def is_spherical_system(G: FiniteGroup, T: GenTuple) -> SphericalVerdict:
    """True iff no entry is the identity, the entries generate G, and the
    ordered product of the entries is the identity.

    Failures are reported in that fixed order for reproducible diagnostics.
    Tuples of any size >= 1 are accepted here; the size >= 3 floor applies only
    to full ramification structures.
    """
    if len(T) == 0:
        raise RamError("spherical test requires a nonempty tuple")
    for pos, g in enumerate(T.entries):
        if g == 0:
            return SphericalVerdict(False, "trivial_entry", pos)
    if G.closure_mask(T.entries) != (1 << G.order) - 1:
        return SphericalVerdict(False, "not_generating")
    if T.product() != 0:
        return SphericalVerdict(False, "product_not_identity")
    return SphericalVerdict(True)


def are_disjoint(
    G: FiniteGroup, T1: GenTuple, T2: GenTuple
) -> tuple[bool, Optional[int]]:
    """Whether the conjugate-closed sets of the two tuples meet only in the
    identity; on failure returns one shared nontrivial element."""
    common = sigma(G, T1).mask & sigma(G, T2).mask & ~1
    if common:
        return False, (common & -common).bit_length() - 1
    return True, None


@dataclass(frozen=True)
class RamStructure:
    """A validated pair of disjoint spherical systems with its size pair."""

    t1: GenTuple
    t2: GenTuple
    size: tuple[int, int]
    sigma1: ElementSet
    sigma2: ElementSet

    @property
    def group(self) -> FiniteGroup:
        return self.t1.group

    def swapped(self) -> "RamStructure":
        return RamStructure(
            self.t2, self.t1, (self.size[1], self.size[0]), self.sigma2, self.sigma1
        )


@dataclass(frozen=True)
class RamFailure:
    reason: str  # "size_below_minimum" | "t1:<reason>" | "t2:<reason>" | "not_disjoint"
    witness: Optional[int] = None

    def __bool__(self) -> bool:
        return False


def check_ramification(G: FiniteGroup, T1: GenTuple, T2: GenTuple):
    """Validate (T1, T2) as a ramification structure, or report the first
    failing condition in a fixed order: size floor, then per-tuple trivial
    entry / generation / product, then disjointness."""
    if len(T1) < MIN_STRUCTURE_SIZE or len(T2) < MIN_STRUCTURE_SIZE:
        return RamFailure("size_below_minimum")
    for name, T in (("t1", T1), ("t2", T2)):
        v = is_spherical_system(G, T)
        if not v:
            return RamFailure(f"{name}:{v.reason}", v.detail)
    ok, witness = are_disjoint(G, T1, T2)
    if not ok:
        return RamFailure("not_disjoint", witness)
    return RamStructure(
        T1, T2, (len(T1), len(T2)), sigma(G, T1), sigma(G, T2)
    )


def validated(
    G: FiniteGroup, t1: Sequence[int], t2: Sequence[int], step: str = "tuple pair"
) -> RamStructure:
    """check_ramification that raises instead of returning a failure record.
    The callers build (t1, t2) by a step that theory or the search guarantees,
    so a failure is an InternalContradiction naming that step."""
    result = check_ramification(G, GenTuple(G, tuple(t1)), GenTuple(G, tuple(t2)))
    if isinstance(result, RamFailure):
        raise InternalContradiction(f"{step} failed validation: {result.reason}")
    return result
