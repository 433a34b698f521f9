"""Finite-group engine with dense element indices; index 0 is always the identity.

Every realization fixes a deterministic enumeration of its elements, so the
same construction parameters always produce the same index <-> element maps.
Groups are immutable after construction; derived data is cached lazily and
idempotently, so instances are safe to share across threads.

Normality, commutativity and the upper central series are computed from a
greedy generating set (`FiniteGroup.generators`), in about |G| d work for d
generators rather than |G|^2; so are Omega_i (`invariants.omega`) and the
conjugacy classes behind `structures.sigma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .bitset import ElementSet, iter_bits
from .errors import NotASubgroup, NotNormal, RamError

QUOTIENT_ORDER_CAP = 4096

_EXHAUSTIVE_AXIOM_CHECK_LIMIT = 200
_SAMPLED_AXIOM_TRIPLES = 200_000


class FiniteGroup:
    """Base class: a finite group on indices 0..order-1 with total multiplication."""

    order: int

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        """Canonical spec string for this group: `parsing.build_group` of it
        rebuilds a group made from a spec, Cayley files included."""
        raise NotImplementedError

    def mul_table(self, rows=None, cols=None) -> np.ndarray:
        """The multiplication table as an integer array, T[i, j] =
        mul(rows[i], cols[j]); rows and cols default to all of G, giving the
        full table.  Realizations compute it from their own arithmetic; this
        fallback calls `mul` once per entry.  Not cached: each caller asks
        for the block it needs, and must not modify it (a table group
        returns its own full table)."""
        r, c = _axes(self.order, rows, cols)
        cl = c.tolist()
        out = np.empty((len(r), len(c)), dtype=np.int32)
        for i, a in enumerate(r.tolist()):
            out[i] = [self.mul(a, b) for b in cl]
        return out

    # -- generic machinery ---------------------------------------------------

    def __len__(self) -> int:
        return self.order

    def elements(self) -> range:
        return range(self.order)

    def check_index(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise IndexError(f"element index {a} out of range for group of order {self.order}")
        return a

    def _cache(self) -> dict:
        c = getattr(self, "_cache_dict", None)
        if c is None:
            c = {}
            self._cache_dict = c
        return c

    def order_of(self, a: int) -> int:
        """Least k >= 1 with a^k = identity."""
        self.check_index(a)
        orders = self._cache().get("orders")
        if orders is None:
            orders = [0] * self.order
            self._cache()["orders"] = orders
        if orders[a]:
            return orders[a]
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        orders[a] = k
        return k

    def power(self, a: int, k: int) -> int:
        """a^k for any integer k (square-and-multiply)."""
        if k < 0:
            return self.power(self.inv(a), -k)
        result, base = 0, a
        while True:
            if k & 1:
                result = self.mul(result, base)
            k >>= 1
            if not k:
                return result
            base = self.mul(base, base)

    def powers_mask(self, a: int) -> int:
        """Bitmask of the cyclic subgroup <a>."""
        mask, x = 1, a
        while x != 0:
            mask |= 1 << x
            x = self.mul(x, a)
        return mask

    def conjugate(self, a: int, g: int) -> int:
        """g^-1 * a * g."""
        return self.mul(self.mul(self.inv(g), a), g)

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def closure_mask(self, gens: Iterable[int]) -> int:
        """Bitmask of <gens>; see greedy_generators."""
        return greedy_generators(self, gens)[1]

    def generated_subgroup(self, gens: Sequence[int]) -> ElementSet:
        """Subgroup generated by gens; contains the identity, empty gens give {1}."""
        for g in gens:
            self.check_index(g)
        return ElementSet(self.closure_mask(gens), self.order)

    def generators(self) -> list[int]:
        """Greedy generating set of G, ascending, cached; see greedy_generators."""
        gens = self._cache().get("generators")
        if gens is None:
            gens = self._cache()["generators"] = greedy_generators(self, self.elements())[0]
        return gens

    def is_normal(self, subset: ElementSet) -> bool:
        """True iff the subgroup is invariant under conjugation by all of G.

        A subset is a subgroup iff its greedy generators close to exactly it.
        It is normal iff conjugating those generators by G's stays inside: then
        N^s is contained in N, hence equal to it, for every generator s of G."""
        mask = subset.mask
        hgens, closure = greedy_generators(self, iter_bits(mask))
        if closure != mask:
            raise NotASubgroup("the given element set is not closed under multiplication")
        return all((mask >> self.conjugate(h, s)) & 1 for h in hgens for s in self.generators())

    @property
    def is_abelian(self) -> bool:
        flag = self._cache().get("abelian")
        if flag is None:
            flag = self._compute_abelian()
            self._cache()["abelian"] = flag
        return flag

    def _compute_abelian(self) -> bool:
        gens = self.generators()
        mul = self.mul
        return all(mul(a, b) == mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :])

    def upper_central_series(self) -> list[ElementSet]:
        """[Z_0, Z_1, ...] with Z_0 = {1}, Z_1 the center, until the series stabilizes.

        g lies in Z_{i+1} iff [g, s] lies in Z_i for every generator s, since
        Z_{i+1}/Z_i is the centre of G/Z_i and the images of the generators
        generate G/Z_i; so each level takes |G| |S| commutators, not |G|^2."""
        if self.is_abelian:
            series = [1] if self.order == 1 else [1, (1 << self.order) - 1]
        else:
            gens = self.generators()
            series = [1]
            while True:
                prev = series[-1]
                nxt = 0
                for g in self.elements():
                    if all((prev >> self.commutator(g, s)) & 1 for s in gens):
                        nxt |= 1 << g
                if nxt == prev:
                    break
                series.append(nxt)
        return [ElementSet(m, self.order) for m in series]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()}, order={self.order})"


class AbelianGroup(FiniteGroup):
    """Direct product of cyclic groups C_{m_1} x ... x C_{m_k}, written additively.

    Elements are exponent vectors in mixed radix; index = sum e_i * stride_i with
    the first coordinate most significant, so the zero vector has index 0.
    """

    def __init__(self, orders: Sequence[int]):
        orders = tuple(int(m) for m in orders)
        if not orders or any(m < 2 for m in orders):
            raise RamError(f"cyclic factor orders must all be >= 2, got {orders}")
        self.orders = orders
        self.order = math.prod(orders)
        strides = []
        s = self.order
        for m in orders:
            s //= m
            strides.append(s)
        self._strides = tuple(strides)
        self._cache_dict = {"abelian": True}

    def vector(self, a: int) -> tuple[int, ...]:
        self.check_index(a)
        out = []
        for m, s in zip(self.orders, self._strides):
            out.append((a // s) % m)
        return tuple(out)

    def index_of(self, vec: Sequence[int]) -> int:
        if len(vec) != len(self.orders):
            raise RamError(f"vector length {len(vec)} != number of factors {len(self.orders)}")
        a = 0
        for e, m, s in zip(vec, self.orders, self._strides):
            a += (int(e) % m) * s
        return a

    def generator(self, i: int) -> int:
        """Index of the i-th cyclic generator (0-based)."""
        return self._strides[i]

    def mul(self, a: int, b: int) -> int:
        out = 0
        for m, s in zip(self.orders, self._strides):
            out += (((a // s) + (b // s)) % m) * s
        return out

    def inv(self, a: int) -> int:
        out = 0
        for m, s in zip(self.orders, self._strides):
            out += (-(a // s) % m) * s
        return out

    def mul_table(self, rows=None, cols=None) -> np.ndarray:
        # one broadcast add per cyclic factor, reduced and shifted to its
        # stride, accumulated in place in int32
        r, c = _axes(self.order, rows, cols)
        out = np.zeros((len(r), len(c)), dtype=np.int32)
        tmp = np.empty_like(out)
        for m, s in zip(self.orders, self._strides):
            np.add.outer(r // s % m, c // s % m, out=tmp)
            tmp %= m
            tmp *= s
            out += tmp
        return out

    def order_of(self, a: int) -> int:
        self.check_index(a)
        k = 1
        for m, s in zip(self.orders, self._strides):
            e = (a // s) % m
            k = math.lcm(k, m // math.gcd(e, m))
        return k

    def describe(self) -> str:
        return "x".join(f"C{m}" for m in self.orders)


class HeisenbergGroup(FiniteGroup):
    """Triples (a,b,c) over Z/p with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b').

    Order p^3; exponent p for odd p, which is why p is restricted to odd primes.
    """

    def __init__(self, p: int):
        p = int(p)
        if p < 3 or not _is_prime(p):
            raise RamError(f"Heisenberg realization requires an odd prime, got {p}")
        self.p = p
        self.order = p**3
        self._cache_dict = {"abelian": False}

    def triple(self, a: int) -> tuple[int, int, int]:
        self.check_index(a)
        p = self.p
        return (a // (p * p), (a // p) % p, a % p)

    def index_of(self, triple: Sequence[int]) -> int:
        a, b, c = (int(v) % self.p for v in triple)
        return (a * self.p + b) * self.p + c

    def mul(self, x: int, y: int) -> int:
        p = self.p
        a1, b1, c1 = x // (p * p), (x // p) % p, x % p
        a2, b2, c2 = y // (p * p), (y // p) % p, y % p
        return (((a1 + a2) % p) * p + (b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p

    def inv(self, x: int) -> int:
        p = self.p
        a, b, c = x // (p * p), (x // p) % p, x % p
        return ((-a % p) * p + (-b % p)) * p + (a * b - c) % p

    def mul_table(self, rows=None, cols=None) -> np.ndarray:
        # the product formula of `mul` on the index arrays, in place in int32
        p = self.p
        r, c = _axes(self.order, rows, cols)
        a1, b1, c1 = r // (p * p), r // p % p, r % p
        a2, b2, c2 = c // (p * p), c // p % p, c % p
        out = np.add.outer(a1, a2)
        out %= p
        out *= p
        tmp = np.add.outer(b1, b2)
        tmp %= p
        out += tmp
        out *= p
        np.multiply.outer(a1, b2, out=tmp)
        tmp += c1[:, None]
        tmp += c2
        tmp %= p
        out += tmp
        return out

    def describe(self) -> str:
        return f"heis({self.p})"


class CayleyTableGroup(FiniteGroup):
    """Group given by an explicit multiplication table; index 0 must be the identity.

    Tables from untrusted sources are validated: identity row/column, Latin
    square, and associativity (exhaustively up to order 200, by deterministic
    sampling above).
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        names: Optional[Sequence[str]] = None,
        label: str = "",
        trusted: bool = False,
    ):
        n = len(table)
        arr = np.asarray(table, dtype=np.int64)
        if arr.shape != (n, n):
            raise RamError(f"multiplication table must be square, got shape {arr.shape}")
        if n == 0:
            raise RamError("empty multiplication table")
        if arr.min() < 0 or arr.max() >= n:
            raise RamError("table entries must be element indices in range")
        self.order = n
        self.table = arr
        self.names = list(names) if names is not None else None
        if self.names is not None and len(self.names) != n:
            raise RamError("names length does not match group order")
        self.label = label or f"cayley{n}"
        if not trusted:
            self._validate()
        self._inv = self._build_inverses()

    def _validate(self) -> None:
        n = self.order
        t = self.table
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise RamError("index 0 is not a two-sided identity")
        ident = np.arange(n)
        for i in range(n):
            if not np.array_equal(np.sort(t[i]), ident) or not np.array_equal(
                np.sort(t[:, i]), ident
            ):
                raise RamError(f"table is not a Latin square at row/column {i}")
        if n <= _EXHAUSTIVE_AXIOM_CHECK_LIMIT:
            # (ab)c == a(bc) for all triples, vectorized over c
            for a in range(n):
                if not np.array_equal(t[t[a]], t[a][t]):
                    raise RamError(f"associativity fails for some triple with a={a}")
        else:
            rng = np.random.default_rng(0)
            a = rng.integers(0, n, _SAMPLED_AXIOM_TRIPLES)
            b = rng.integers(0, n, _SAMPLED_AXIOM_TRIPLES)
            c = rng.integers(0, n, _SAMPLED_AXIOM_TRIPLES)
            if not np.array_equal(t[t[a, b], c], t[a, t[b, c]]):
                raise RamError("associativity fails on sampled triples")

    def _build_inverses(self) -> np.ndarray:
        inv = np.empty(self.order, dtype=np.int64)
        rows, cols = np.nonzero(self.table == 0)
        inv[rows] = cols
        return inv

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def mul_table(self, rows=None, cols=None) -> np.ndarray:
        if rows is None and cols is None:
            return self.table
        return self.table[np.ix_(*_axes(self.order, rows, cols))]

    def name_of(self, a: int) -> Optional[str]:
        return self.names[a] if self.names else None

    def describe(self) -> str:
        return self.label


class DirectProductGroup(FiniteGroup):
    """Componentwise product; index = a * |right| + b, so (0,0) has index 0."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup):
        self.left = left
        self.right = right
        self.order = left.order * right.order

    def pair(self, x: int) -> tuple[int, int]:
        self.check_index(x)
        return divmod(x, self.right.order)

    def index_of(self, a: int, b: int) -> int:
        return a * self.right.order + b

    def mul(self, x: int, y: int) -> int:
        n2 = self.right.order
        a1, b1 = divmod(x, n2)
        a2, b2 = divmod(y, n2)
        return self.left.mul(a1, a2) * n2 + self.right.mul(b1, b2)

    def inv(self, x: int) -> int:
        n2 = self.right.order
        a, b = divmod(x, n2)
        return self.left.inv(a) * n2 + self.right.inv(b)

    def mul_table(self, rows=None, cols=None) -> np.ndarray:
        # (a1, b1)(a2, b2) = (a1 a2, b1 b2): the factors' tables on the
        # component indices, combined as in `mul`, in place in int32
        n2 = self.right.order
        r, c = _axes(self.order, rows, cols)
        out = np.multiply(self.left.mul_table(r // n2, c // n2), n2, dtype=np.int32)
        out += self.right.mul_table(r % n2, c % n2)
        return out

    def order_of(self, x: int) -> int:
        a, b = self.pair(x)
        return math.lcm(self.left.order_of(a), self.right.order_of(b))

    def _compute_abelian(self) -> bool:
        return self.left.is_abelian and self.right.is_abelian

    def describe(self) -> str:
        return f"prod({self.left.describe()},{self.right.describe()})"


def _axes(order: int, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """The row and column indices of a table block, all of G by default."""
    every = np.arange(order, dtype=np.int32)
    r = every if rows is None else np.asarray(rows, dtype=np.int32)
    c = every if cols is None else np.asarray(cols, dtype=np.int32)
    return r, c


def greedy_generators(G: FiniteGroup, candidates: Iterable[int]) -> tuple[list[int], int]:
    """The candidates, in the given order, that are not yet in the closure of
    those kept before them, and the mask of the subgroup they generate.

    Each kept candidate y extends the closed H = <gens> to <H, y> by left
    cosets (Dimino's algorithm): for each representative g, the identity
    first, and each generator s with s g not yet in the closure, it adds the
    coset (s g)H and queues s g as a representative.  A union of left
    cosets of H closed under left multiplication by the generators is the
    subgroup, and it costs about |<H, y>| + |<H, y> : H| |gens| products,
    not |<H, y>| |gens|.  `oracle._SearchContext.extend_closure` runs the
    same step on table rows."""
    mul = G.mul
    gens: list[int] = []
    h = 1
    elems = [0]
    for y in candidates:
        if (h >> y) & 1:
            continue
        gens.append(y)
        hs = tuple(elems)
        reps = [0]
        for g in reps:
            for s in gens:
                t = mul(s, g)
                if not (h >> t) & 1:
                    for x in hs:
                        u = mul(t, x)
                        h |= 1 << u
                        elems.append(u)
                    reps.append(t)
    return gens, h


def direct_product(left: FiniteGroup, right: FiniteGroup) -> DirectProductGroup:
    return DirectProductGroup(left, right)


@dataclass(frozen=True)
class QuotientView:
    """Quotient G/N materialized as a table group, with projection and section maps.

    The section picks the minimal-index representative of each coset, so
    project(section(q)) == q and lifts are deterministic.
    """

    parent: FiniteGroup
    kernel: ElementSet
    group: CayleyTableGroup
    _coset_of: tuple[int, ...]
    _reps: tuple[int, ...]

    def project(self, a: int) -> int:
        return self._coset_of[a]

    def section(self, q: int) -> int:
        return self._reps[q]

    def coset_mask(self, q: int) -> int:
        rep = self._reps[q]
        m = 0
        for n in self.kernel:
            m |= 1 << self.parent.mul(rep, n)
        return m


def quotient(G: FiniteGroup, N: ElementSet) -> QuotientView:
    """G/N as a table group over cosets, ordered by minimal representative index."""
    if not G.is_normal(N):
        raise NotNormal("kernel is not a normal subgroup")
    n = G.order
    kmask = N.mask
    rep_of = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if rep_of[x] >= 0:
            continue
        # x is the least element of a fresh coset xN
        reps.append(x)
        for k in iter_bits(kmask):
            rep_of[G.mul(x, k)] = x
    q_order = len(reps)
    if q_order > QUOTIENT_ORDER_CAP:
        raise RamError(f"quotient order {q_order} exceeds cap {QUOTIENT_ORDER_CAP}")
    index_of_rep = {r: i for i, r in enumerate(reps)}
    coset_of = tuple(index_of_rep[rep_of[x]] for x in range(n))
    table = np.asarray(coset_of)[G.mul_table(reps, reps)]
    qgroup = CayleyTableGroup(
        table,
        label=f"{G.describe()}/N{N.cardinality}",
        trusted=True,
    )
    return QuotientView(G, N, qgroup, coset_of, tuple(reps))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out

