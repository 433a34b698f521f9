"""Brute-force ground truth: exhaustive search for spherical systems and
ramification structures on small groups.

The search is deterministic: candidates are visited in element-index order and
the first witness in that order is returned. Negative answers are produced
only after the candidate space is exhausted; running out of budget is reported
as its own outcome, never as a negative.

Every search is one prefix walk, `_SearchContext.walk`: a depth-first search
over tuple prefixes of length < r drawn from a sorted alphabet, carrying the
running product and the closure of the prefix. The last entry is forced as the
inverse of the prefix product. `enumerate_spherical` walks all nontrivial
elements; a pair search walks T1 over all nontrivial elements and, for each
completed T1, walks T2 over T1's partner alphabet. The walk applies these
exactness-preserving rules, and no other code prunes:

* generation feasibility: a prefix whose closure needs more new generators
  than there are remaining slots cannot complete to a generating tuple.  For
  nilpotent G the count `need(H)` is exact: it is
  `invariants.generators_missing` on the mask of the Frattini subgroup.
  Other groups get the trivial bound, 1 for a proper H.
* forced last entry: it must lie in the alphabet (so it is nontrivial) and
  close the prefix to the whole group.
* abelian groups: products are invariant under entry permutation, so spherical
  systems are multisets; tuples are enumerated with nondecreasing indices and
  the forced last entry is required to be >= the previous one.
* partner alphabet (T1 walks only): every entry y of a partner tuple
  contributes its whole conjugate-closed cyclic set to the partner's sigma, so
  y is usable only if that set meets sigma(T1) trivially.  Since every such
  set contains the identity, usability against a prefix is the conjunction of
  pairwise compatibilities with the prefix entries, so the alphabet is
  maintained as a running AND of precomputed per-element compatibility masks.
  If the usable alphabet fails to generate G, no partner exists for any
  extension of the current prefix, because sigma only grows along a prefix.
  The test is repeated once the forced last entry has narrowed the alphabet,
  and skipped where an entry leaves the alphabet unchanged, since the same
  alphabet already passed higher up the path.  It closes the alphabet one
  element at a time through the memoized `extend_closure`, skipping elements
  already in the closure and stopping once it is all of G, and its answer is
  memoized per alphabet.

Most visited prefixes are leaves (length r-1, whose only extension is the
forced last entry), so the leaf level is decided by masks in its parent's
loop rather than one leaf at a time. A prefix of length r-2 with product pi
and closure H visits only the set bits of

    closers(H) & alphabet & lo(pi) & (bits >= its first allowed entry)

(`lo` only under the multiset rule), and checks each for its forced last
entry in the alphabet and, when narrowing, its partner alphabet:

* pi lies in H, so the forced last entry (pi*y)^-1 lies in <H, y>, and the
  leaf closes to G exactly when <H, y> = G; `closers(H)` is the mask of those
  y. Since <H, y> = <H, yh> for every h in H, it is a union of cosets yH and
  takes one closure per coset; when `need(H)` > 1 it is empty.
* `lo(pi)` is the mask of y with (pi*y)^-1 >= y, memoized per pi.
* A leaf's own partner alphabet generates G whenever the smaller alphabet
  left after the forced last entry does, since generation is monotone in the
  alphabet, and `need(H')` > 1 would mean no single entry closes H' to G; so
  neither is tested at a leaf.

Every leaf still counts as one node in `SearchStats.candidates` and against
the budget: the leaf at alphabet position i is node c + (i - first) + 1,
where c is the count at its parent and `first` the parent's first allowed
position, so the skipped leaves are added arithmetically. A node limit between two visited
leaves stops the walk at the limit, and the deadline is polled whenever the
count crosses a multiple of 4096, exactly where a per-leaf count would stop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .bitset import iter_bits
from .errors import NotNilpotent, RamError
from .groups import FiniteGroup
from .invariants import frattini, generators_missing
from .structures import GenTuple, RamStructure, _cyc_masks, validated

ORACLE_ORDER_LIMIT = 512

# Part of every catalog cache key: raise it with any change that can alter a
# decision, a witness or a counter, so that records of older code are not served.
ORACLE_VERSION = 1


@dataclass(frozen=True)
class SearchBudget:
    """Bounds on a search; exceeding any bound yields a 'budget' outcome.
    `max_candidates` bounds visited prefixes, counted as `SearchStats.candidates`."""

    max_candidates: int = 10**12
    max_millis: Optional[int] = None
    cap: int = 16

    def __post_init__(self):
        if self.max_candidates <= 0 or self.cap <= 0:
            raise ValueError("budget fields must be positive")
        if self.max_millis is not None and self.max_millis <= 0:
            raise ValueError("budget fields must be positive")


@dataclass
class SearchStats:
    """Search counters. `candidates` counts visited prefixes of T1 and partner
    walks (search nodes, the unit of `SearchBudget.max_candidates`), not
    candidate tuples; `t1_candidates` counts completed T1 tuples whose partner
    alphabet still generates G; `partner_searches` counts partner walks run
    (memo misses)."""

    candidates: int = 0
    t1_candidates: int = 0
    partner_searches: int = 0
    exhausted: bool = True

    def counters(self) -> dict:
        """The counters under their JSON names, as CLI output and catalog
        records carry them."""
        return {
            "candidates_examined": self.candidates,
            "t1_candidates": self.t1_candidates,
            "partner_searches": self.partner_searches,
        }

    def add(self, other: "SearchStats") -> None:
        """Count another search in: counters add up, and the total is
        exhaustive only if both searches were."""
        self.candidates += other.candidates
        self.t1_candidates += other.t1_candidates
        self.partner_searches += other.partner_searches
        self.exhausted = self.exhausted and other.exhausted


class _BudgetStop(Exception):
    pass


class _Tracker:
    __slots__ = ("count", "limit", "deadline", "stats")

    def __init__(self, budget: SearchBudget, stats: SearchStats):
        self.count = 0
        self.limit = budget.max_candidates
        self.deadline = (
            time.monotonic() + budget.max_millis / 1000.0
            if budget.max_millis is not None
            else None
        )
        self.stats = stats

    def tick(self):
        self.count += 1
        if self.count >= self.limit:
            raise _BudgetStop
        if self.deadline is not None and not self.count & 0xFFF:
            if time.monotonic() > self.deadline:
                raise _BudgetStop

    def overrun(self, c: int, cy: int):
        """Account the nodes c+1..cy at once, stopping where `tick` would
        have: at the first deadline poll (a multiple of 4096) found past the
        deadline, or at the limit.  Returns if neither falls in the range."""
        first_poll = (c | 0xFFF) + 1
        if (
            self.deadline is not None
            and first_poll <= cy
            and first_poll < self.limit
            and time.monotonic() > self.deadline
        ):
            self.count = first_poll
            raise _BudgetStop
        if cy >= self.limit:
            self.count = self.limit
            raise _BudgetStop

    def poll(self):
        """Stop if the deadline has passed, e.g. during the context build."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetStop


class _SearchContext:
    """Per-group tables and memoized machinery shared by all searches."""

    def __init__(self, G: FiniteGroup):
        n = G.order
        if n > ORACLE_ORDER_LIMIT:
            raise RamError(
                f"oracle search supports orders up to {ORACLE_ORDER_LIMIT}, got {n}"
            )
        self.n = n
        self.full = (1 << n) - 1
        self.mul = [[G.mul(a, b) for b in range(n)] for a in range(n)]
        self.inv = [G.inv(a) for a in range(n)]
        self.cyc = _cyc_masks(G)
        self.abelian = G.is_abelian
        self.gens_for: dict[int, tuple[int, ...]] = {1: ()}
        self.ext_memo: dict[tuple[int, int], int] = {}
        self.alpha_gen_memo: dict[int, bool] = {}
        self.partner_memo: dict[tuple[int, int], Optional[tuple[int, ...]]] = {}
        self.need_memo: dict[int, int] = {}
        self.closers_memo: dict[int, int] = {}
        self.lo_memo: list[Optional[int]] = [None] * n
        # compat[x]: usable partner entries once x is in the tuple, i.e. all y
        # whose conjugate cyclic set meets that of x only in the identity
        cyc = self.cyc
        self.compat = [0] * n
        for x in range(1, n):
            m = 0
            for y in range(1, n):
                if cyc[x] & cyc[y] == 1:
                    m |= 1 << y
            self.compat[x] = m
        self.all_nontrivial = self.full & ~1
        self._setup_generation_bound(G)

    # -- closures -------------------------------------------------------------

    def closure_from_gens(self, gens) -> int:
        mask = 1
        queue = [0]
        mul = self.mul
        while queue:
            row = mul[queue.pop()]
            for g in gens:
                t = row[g]
                if not (mask >> t) & 1:
                    mask |= 1 << t
                    queue.append(t)
        return mask

    def extend_closure(self, hmask: int, y: int) -> int:
        """Closure of <H, y> given the closed set H; memoized on (H, y)."""
        if (hmask >> y) & 1:
            return hmask
        key = (hmask, y)
        c = self.ext_memo.get(key)
        if c is None:
            gens = self.gens_for[hmask] + (y,)
            c = self.closure_from_gens(gens)
            self.ext_memo[key] = c
            self.gens_for.setdefault(c, gens)
        return c

    # -- partner alphabet ------------------------------------------------------

    def alphabet_generates(self, amask: int) -> bool:
        """Whether the usable partner entries still generate the whole group.
        Walks ask about few distinct alphabets many times over, so answers
        are memoized."""
        r = self.alpha_gen_memo.get(amask)
        if r is None:
            if len(self.alpha_gen_memo) > 1_000_000:
                self.alpha_gen_memo.clear()  # speed cache only; bound the memory
            hmask = 1
            for y in iter_bits(amask):
                hmask = self.extend_closure(hmask, y)
                if hmask == self.full:
                    break
            r = amask != 0 and hmask == self.full
            self.alpha_gen_memo[amask] = r
        return r

    # -- generation-feasibility bound -------------------------------------------

    def _setup_generation_bound(self, G: FiniteGroup):
        """The mask of Phi(G) for a nilpotent group, else None, when only the
        trivial bound (1 if proper) is available.  The context keeps no
        reference to G, so a group and its cached context are freed by
        reference counting."""
        try:
            self.phi = frattini(G).mask
        except NotNilpotent:
            self.phi = None

    def need(self, hmask: int) -> int:
        """Lower bound on how many further elements must be adjoined to the
        subgroup H before the whole group can be generated: exact for
        nilpotent G (`generators_missing`), and 1 for any proper H otherwise."""
        r = self.need_memo.get(hmask)
        if r is None:
            if hmask == self.full:
                r = 0
            elif self.phi is None:
                r = 1
            else:
                r = generators_missing(self.n, self.phi, hmask)
            self.need_memo[hmask] = r
        return r

    # -- leaf masks -------------------------------------------------------------

    def closers(self, hmask: int) -> int:
        """Mask of all y with <H, y> = G, for the closed set H.  Since
        <H, y> = <H, yh> for every h in H, the mask is a union of cosets yH,
        and one closure decides a whole coset."""
        r = self.closers_memo.get(hmask)
        if r is None:
            if len(self.closers_memo) > 100_000:
                self.closers_memo.clear()  # speed cache only; bound the memory
            full = self.full
            r = full if hmask == full else 0
            # need 0 means H = G; need > 1 means no single y closes H to G
            rest = full & ~hmask if self.need(hmask) == 1 else 0
            hs = tuple(iter_bits(hmask))
            while rest:
                y = (rest & -rest).bit_length() - 1
                row = self.mul[y]
                coset = 0
                for h in hs:
                    coset |= 1 << row[h]
                rest &= ~coset
                if self.extend_closure(hmask, y) == full:
                    r |= coset
            self.closers_memo[hmask] = r
        return r

    def lo(self, pi: int) -> int:
        """Mask of all y with inv(pi*y) >= y: the entries after a prefix with
        product pi whose forced last entry keeps a multiset nondecreasing.
        Memoized per pi, so at most |G| entries."""
        r = self.lo_memo[pi]
        if r is None:
            row, inv = self.mul[pi], self.inv
            r = 0
            for y in range(self.n):
                if inv[row[y]] >= y:
                    r |= 1 << y
            self.lo_memo[pi] = r
        return r

    # -- the prefix walk --------------------------------------------------------

    def walk(
        self, r: int, amask: int, multiset: bool, tracker: _Tracker, emit, narrow: bool = False
    ):
        """Depth-first walk over the spherical systems of size r >= 2 whose
        entries lie in the alphabet `amask`, in lexicographic order of
        alphabet indices (nondecreasing under `multiset`).

        `tracker` counts one node per visited prefix, before any pruning, and
        raises `_BudgetStop` at its node limit or deadline.  The leaf level
        visits only the leaves that may complete (see the module docstring)
        and counts the others arithmetically, in a local: it polls the
        deadline where the count crosses a multiple of 4096, stops at the
        limit where it falls between two visited leaves, and stores the
        count back before each `emit`, which may run walks on the same
        tracker, and reads it again after.  Each completion calls
        `emit(entries, pmask)`; a truthy return stops the walk and becomes
        its result, otherwise the walk returns None.  With `narrow`, `pmask`
        is the partner alphabet of the completed tuple and prefixes whose
        partner alphabet no longer generates G are cut; otherwise `pmask` is
        `amask`."""
        mul, inv, compat = self.mul, self.inv, self.compat
        extend, need, agen = self.extend_closure, self.need, self.alphabet_generates
        closers, lo = self.closers, self.lo
        tick, limit, deadline = tracker.tick, tracker.limit, tracker.deadline
        alist = tuple(iter_bits(amask))
        entries: list[int] = []

        def rec(depth: int, pi: int, hmask: int, pmask: int, start: int, narrowed: bool):
            # narrowed: pmask is the root's or a proper subset of its parent's;
            # otherwise it is an alphabet that already passed higher up
            tick()
            if narrowed and not agen(pmask):
                return None
            if need(hmask) > r - depth:
                return None
            row = mul[pi]
            first = start if multiset else 0
            if depth < r - 2:
                for i in range(first, len(alist)):
                    y = alist[i]
                    p = pmask & compat[y] if narrow else pmask
                    entries.append(y)
                    res = rec(depth + 1, row[y], extend(hmask, y), p, i, p != pmask)
                    entries.pop()
                    if res:
                        return res
                return None
            # the children are leaves, one node each; only those in `m` can
            # complete, and the others are counted arithmetically: the leaf at
            # position i of alist is node base + i + 1
            c = tracker.count
            base = c - first
            m = closers(hmask) & amask
            if multiset:
                m &= lo(pi)
            if first:
                m &= -(1 << alist[first])
            while m:
                low = m & -m
                m ^= low
                y = low.bit_length() - 1
                i = (amask & (low - 1)).bit_count()
                cy = base + i + 1
                if cy >= limit or (deadline is not None and cy >> 12 != c >> 12):
                    tracker.overrun(c, cy)
                c = cy
                last = inv[row[y]]
                if not (amask >> last) & 1:
                    continue
                p = pmask
                if narrow:
                    p = pmask & compat[y] & compat[last]
                    if p != pmask and not agen(p):
                        continue
                tracker.count = c
                res = emit(tuple(entries) + (y, last), p)
                if res:
                    return res
                c = tracker.count
                base = c - i - 1
            cy = base + len(alist)
            if cy >= limit or (deadline is not None and cy >> 12 != c >> 12):
                tracker.overrun(c, cy)
            tracker.count = cy
            return None

        try:
            return rec(0, 0, 1, amask, 0, narrow)
        finally:
            del rec  # rec refers to itself; free it without the cyclic collector

    def partner(self, amask: int, r2: int, tracker: _Tracker) -> Optional[tuple[int, ...]]:
        """First spherical system of size r2 over the partner alphabet amask."""
        key = (amask, r2)
        if key in self.partner_memo:
            return self.partner_memo[key]
        tracker.stats.partner_searches += 1
        res = self.walk(r2, amask, self.abelian, tracker, lambda t2, _: t2)
        if len(self.partner_memo) > 500_000:
            self.partner_memo.clear()  # speed cache only; bound the memory
        self.partner_memo[key] = res
        return res


def _context(G: FiniteGroup) -> _SearchContext:
    ctx = G._cache().get("oracle_ctx")
    if ctx is None:
        ctx = _SearchContext(G)
        G._cache()["oracle_ctx"] = ctx
    return ctx


def enumerate_spherical(G: FiniteGroup, r: int) -> Iterator[GenTuple]:
    """All spherical systems of size r, in lexicographic order of the first r-1
    entries over nontrivial elements; the last entry is forced as the inverse
    of the prefix product."""
    if r < 2:
        raise ValueError("spherical systems need size >= 2")
    ctx = _context(G)
    out: list[GenTuple] = []
    unbounded = _Tracker(SearchBudget(), SearchStats())
    ctx.walk(r, ctx.all_nontrivial, False, unbounded, lambda t, _: out.append(GenTuple(G, t)))
    yield from out


def _search_rows(
    G: FiniteGroup,
    pairs: list[tuple[int, int]],
    budget: SearchBudget,
    stats: SearchStats,
) -> dict[tuple[int, int], Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Decide each (r1, r2) pair (r1 <= r2): a witness tuple pair, or None for
    proven nonexistence. Pairs left undecided on budget exhaustion are absent
    from the result and stats.exhausted is cleared.  The budget's clock
    starts before the search context is built, so the build is charged."""
    tracker = _Tracker(budget, stats)
    ctx = _context(G)
    results: dict[tuple[int, int], Optional[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    rows: dict[int, set[int]] = {}
    for r1, r2 in pairs:
        if r1 > r2:
            raise ValueError("rows expect r1 <= r2")
        rows.setdefault(r1, set()).add(r2)

    try:
        tracker.poll()
        for r1 in sorted(rows):
            undecided = rows[r1]
            _dfs_t1_row(ctx, r1, undecided, results, tracker)
            for r2 in sorted(undecided):
                results[(r1, r2)] = None
            undecided.clear()
    except _BudgetStop:
        stats.exhausted = False
    stats.candidates = tracker.count
    return results


def _dfs_t1_row(ctx: _SearchContext, r1, undecided, results, tracker):
    def emit(t1, pmask):
        tracker.stats.t1_candidates += 1
        for r2 in sorted(undecided):
            t2 = ctx.partner(pmask, r2, tracker)
            if t2 is not None:
                results[(r1, r2)] = (t1, t2)
                undecided.discard(r2)
        return not undecided

    if undecided:
        ctx.walk(r1, ctx.all_nontrivial, ctx.abelian, tracker, emit, narrow=True)


@dataclass
class FindOutcome:
    """Tri-state search result: found / none exists / budget exhausted."""

    status: str  # "found" | "none" | "budget"
    structure: Optional[RamStructure] = None
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return self.status == "found"


def find_structure(
    G: FiniteGroup, r1: int, r2: int, budget: Optional[SearchBudget] = None
) -> FindOutcome:
    """First ramification structure of size (r1, r2) in deterministic order, or
    proof of nonexistence, or budget exhaustion."""
    if r1 < 3 or r2 < 3:
        raise ValueError("structure sizes must be >= 3")
    budget = budget or SearchBudget()
    if max(r1, r2) > budget.cap:
        raise ValueError(f"requested size exceeds budget cap {budget.cap}")
    stats = SearchStats()
    a, b = min(r1, r2), max(r1, r2)
    res = _search_rows(G, [(a, b)], budget, stats)
    if (a, b) not in res:
        return FindOutcome("budget", None, stats)
    witness = res[(a, b)]
    if witness is None:
        return FindOutcome("none", None, stats)
    t1, t2 = witness
    structure = validated(G, t1, t2)
    if (r1, r2) != (a, b):
        structure = structure.swapped()
    return FindOutcome("found", structure, stats)


@dataclass
class SizeSetResult:
    pairs: set[tuple[int, int]]  # canonical r1 <= r2
    exhaustive: bool
    stats: SearchStats
    witnesses: dict[tuple[int, int], RamStructure] = field(default_factory=dict)

    def membership(self, r1: int, r2: int) -> bool:
        return (min(r1, r2), max(r1, r2)) in self.pairs


def size_set_up_to(
    G: FiniteGroup, cap: int, budget: Optional[SearchBudget] = None
) -> SizeSetResult:
    """All admissible size pairs with 3 <= r1 <= r2 <= cap; symmetric closure is
    implied since swapping the two systems swaps the size components."""
    if cap < 3:
        raise ValueError("cap must be >= 3")
    budget = budget or SearchBudget(cap=cap)
    stats = SearchStats()
    pairs = [(r1, r2) for r1 in range(3, cap + 1) for r2 in range(r1, cap + 1)]
    res = _search_rows(G, pairs, budget, stats)
    found = set()
    witnesses = {}
    for pair, witness in res.items():
        if witness is not None:
            found.add(pair)
            witnesses[pair] = validated(G, *witness)
    return SizeSetResult(found, stats.exhausted and len(res) == len(pairs), stats, witnesses)


def enumerate_structures(
    G: FiniteGroup,
    r1: int,
    r2: int,
    limit: int,
    budget: Optional[SearchBudget] = None,
) -> tuple[list[RamStructure], SearchStats]:
    """Up to `limit` distinct ramification structures of size (r1, r2), in
    deterministic search order (capped enumeration; no partner memoization)."""
    if r1 < 3 or r2 < 3:
        raise ValueError("structure sizes must be >= 3")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    budget = budget or SearchBudget()
    stats = SearchStats()
    tracker = _Tracker(budget, stats)
    a, b = min(r1, r2), max(r1, r2)
    ctx = _context(G)
    out: list[RamStructure] = []

    def emit(t1, pmask):
        stats.t1_candidates += 1

        def emit_partner(t2, _):
            structure = validated(G, t1, t2)
            out.append(structure if (r1, r2) == (a, b) else structure.swapped())
            return len(out) >= limit

        return ctx.walk(b, pmask, ctx.abelian, tracker, emit_partner)

    try:
        tracker.poll()
        ctx.walk(a, ctx.all_nontrivial, ctx.abelian, tracker, emit, narrow=True)
    except _BudgetStop:
        stats.exhausted = False
    stats.candidates = tracker.count
    return out, stats


def spherical_count(G: FiniteGroup, r: int) -> int:
    """Number of spherical systems of size r (independent-check helper)."""
    return sum(1 for _ in enumerate_spherical(G, r))

