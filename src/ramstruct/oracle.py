"""Brute-force ground truth: exhaustive search for spherical systems and
ramification structures on small groups.

The search is deterministic: candidates are visited in element-index order and
the first witness in that order is returned. Negative answers are produced
only after the candidate space is exhausted; running out of budget is reported
as its own outcome, never as a negative.

Every search is one prefix walk, `_SearchContext.walk`: a depth-first search
over tuple prefixes of length < r drawn from a sorted alphabet, carrying the
running product and the closure HPhi of the prefix with the Frattini
subgroup (see below).  The last entry is forced as the inverse of the prefix
product.  `enumerate_spherical` walks all nontrivial elements; a pair search
walks T1 over all nontrivial elements and, for each completed T1, walks T2
over T1's partner alphabet.  The walk applies these exactness-preserving
rules, and no other code prunes:

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
  y is usable only if that set meets sigma(T1) trivially.  Every such set
  contains the identity, so the alphabet of a prefix is a running AND of
  per-element compatibility masks `compat`.  If it fails to generate G, no
  extension of the prefix has a partner, because sigma only grows along a
  prefix; the test is repeated once the forced last entry has narrowed the
  alphabet.  It closes the alphabet from Phi(G) one element at a time,
  skipping elements already in the closure, and is memoized per alphabet.

A subgroup grows only by one coset step, `extend_closure(H, y)` (Dimino's
algorithm): starting from the closed set H, for each representative g of a
new left coset (first the identity) and each s among H's generators and y,
if s*g is not yet in the set, the whole coset (s*g)H, read off the table
row of s*g, joins it and s*g is queued.  A union of left cosets of H that is
closed under left multiplication by the generators is <H, y>, so the step
takes about |<H, y>| products plus |gens| per coset, not |<H, y>| |gens|.

The walk carries HPhi rather than H: its root is `base`, the mask of Phi(G)
(for nilpotent G; {1} otherwise), and each entry is adjoined to it.  Phi(G)
is the set of non-generators, so <H, y> = G exactly when <HPhi, y> = G,
and `need`, `closers` and the alphabet test read only that; the prefix
product still lies in H, a subset of HPhi.  Every cut, node count and
witness is therefore the same as with H, while fewer distinct closures are
built and memoized.

The context is built from the group's arithmetic, not from |G|^2 calls of
`G.mul`: `mul` is `G.mul_table()`, and `compat` is read off buckets.  Two
conjugate-closed cyclic sets cyc(x) and cyc(y) meet in more than the
identity exactly when some conjugates of <x> and <y> share a subgroup of
prime order p.  A cyclic group has one subgroup of each prime order p
dividing its order, generated in <x> by z = x^(o(x)/p), and two such
subgroups are conjugate exactly when their sets cyc[z] are equal (if
cyc[z] = cyc[w], then w lies in a conjugate of <z>, which has order p and so
is <w>).  So cyc[z] keys a bucket of all elements having that subgroup, and
x is incompatible with precisely the members of its own buckets.

Most visited prefixes are leaves (length r-1, whose only extension is the
forced last entry), so the leaf level is decided by masks rather than one
leaf at a time.  A leaf parent (a prefix of length r-2) with product pi and
closure H visits only the set bits of

    closers(H) & last(pi) & lo(pi) & (bits >= its first allowed entry)

(`lo` only under the multiset rule), so every leaf it visits completes a
tuple; when narrowing, it checks each leaf for its partner alphabet:

* pi lies in H, so the forced last entry (pi*y)^-1 lies in <H, y>, and the
  leaf closes to G exactly when <H, y> = G; closers(H) is the mask of those
  y. Since <H, y> = <H, yh> for every h in H, it is a union of cosets yH and
  takes one closure per coset; when `need(H)` > 1 it is empty.
* `last(pi)` is the mask of the y in the walk's alphabet A whose forced last
  entry (pi*y)^-1 lies in A as well, A & pi^-1 A^-1.  It is filled from the
  inverses of A's elements or, when fewer, of the others' (left
  multiplication by pi^-1 maps those onto the complement), so on the full
  T1 alphabet it costs one product.  A partner walk therefore visits a leaf
  parent only if a leaf below it completes, and then its first visited leaf
  ends the walk.
* `lo(pi)` is the mask of y with (pi*y)^-1 >= y, memoized per pi.
* A leaf's own partner alphabet generates G whenever the smaller alphabet
  left after the forced last entry does, since generation is monotone in the
  alphabet, and `need(H')` > 1 would mean no single entry closes H' to G; so
  neither is tested at a leaf.
* Skipped leaves are still nodes: the leaf at alphabet position i is node
  c + (i - first) + 1, where c is the count at its parent and `first` the
  parent's first allowed position.

The walk has one loop per level: `rec` takes the prefixes shorter than r-3,
`parents` those of length r-3, whose children are leaf parents, and `leaves`
a leaf parent with leaves to visit.  The root, counted and tested on entry
to `walk`, goes to the loop of its length; when r = 2 it computes its own
leaf mask from closers(base) and last at the identity.  Each loop counts
and cuts its children itself, in the order a child would: the count, then
the partner-alphabet test where the alphabet shrank, then generation
feasibility.  `parents` computes the leaf mask of a leaf parent that passes
both.  When the mask is empty (78-88% of leaf parents on the larger abelian
groups), it counts the leaf parent with all its leaves at once,
1 + len(alphabet) - first nodes; otherwise it calls `leaves` with the mask,
so closers(H) and `lo` are read once per leaf parent.

A loop keeps the node count and `stop` in locals: `stop` is the node limit
or, with a deadline, the next multiple of 4096, where the clock is polled.
A count that reaches `stop` goes to `_Tracker.reach`, which stores it before
it reads the clock and returns the next `stop`, the loop's new local;
otherwise the loop stores the count in `tracker.count` only just before it
calls out, to a loop or to `emit`, and when it returns, and reads the count
and `stop` back only after such a call.  Every count is checked before it
is stored or handed on, and all counts since the last `reach` lie in one
block of 4096, so `stop` is the first poll a jump crosses; `reach` stops
there if the deadline has passed, else at the limit if the count reached
it, as counting one node at a time would, and otherwise moves `stop` on.
`leaves` finds a leaf's position only to store it or hand it to `reach`: it
compares the entry with the first entry whose count reaches `stop`.

The loops read row tables, not the memos.  The step row of a closed set H
holds in slot y the record (K, need(K), closers(K)) of K = <H, y>, shared
by every slot that reaches K; the alphabet row of a partner alphabet P holds
in slot y the alphabet P & compat[y], or 0 when that no longer generates G;
and the walk's forced-last row holds last(pi) in slot pi.  A call reads its
parent's rows once and one slot of each per child, so a child costs list
reads rather than dict reads hashed on |G|-bit keys; walks reach few
closures and alphabets (15 and 92 on C4xC4xC4 at cap 7).  A leaf's partner
alphabet is its parent's row at y, then that alphabet's row at the forced
last entry.  An empty slot is filled by `step`, `alpha` or the walk's
`last`, through the memoized `extend_closure`, `closed` and
`alphabet_generates`.  `need` is a few bit counts and is not memoized.

Every search builds its own context and its own counters in `_run`, which
returns the counters to the entry point, and nothing keeps either on a
group, so a search is a function of its request alone: its counts, budget
stops and witnesses do not depend on what ran on the group object before
it, and the context build is always charged to its budget.  The caches have
two lifetimes.  A search owns the context: its rows, its memos and the
partner memo, every T1 row of a size set included.  A walk owns its
forced-last row and its replay table.  Each is freed when its owner returns.

Within a search, one bound holds the caches that grow with the closures and
alphabets a walk reaches: the step and alphabet rows, the records of
`closed` and the answers of `alphabet_generates` are stored through
`_Bounded.put`, which counts |G| slots per entry and clears its table before
it would hold more than ROW_SLOTS slots.  They are speed caches, so a clear
changes no answer or count, and a row a clear detaches serves on, unshared,
the call that holds it.  `partner_memo` is cleared at its own bound of
PARTNER_ENTRIES entries, together with the refuted alphabets below, and the
replay table has no bound, because their misses are counted: a cleared
partner entry is walked again, adding nodes and `partner_searches`, and a
lost replay state changes `states_replayed`.  `gens_for` is never cleared,
since a closed set a live row holds is still extended through it;
`ext_memo` holds one closure per closed set and element it was asked about,
few since walks carry HPhi; and `lo_memo` holds at most |G| masks.

Every walk replays repeated interior states.  Until it emits, the walk of
the subtree below a prefix depends only on the prefix's state: depth,
product pi, closure HPhi, partner alphabet and, under the multiset rule, its
first allowed position; the memos it reads cache pure functions.  Partner
searches run only inside `emit`, so a subtree that emitted nothing ran none
and counts the same nodes on every visit.  So when the subtree of an
interior child (one whose children are not leaves) returns having emitted
nothing, the walk's table stores the nodes it counted under that state, and
a later child in the same state adds that count instead of being walked.
Every count, budget stop and completion is therefore the same as without the
table.  Leaf-parent states are not tabled: there the table grew by far more
memory than it saved time.

A pair search skips the T1 completions whose partner alphabet is already
refuted.  Many completions share few partner alphabets (64,514 completions
and 30 alphabets in `size_set_up_to(C4xC4xC4, 7)`).  Once `emit` has found
no partner on an alphabet P for any size still undecided in its row, P joins
the row's set `refuted`, the T1 walk's `dead`.  An `emit` on P would have
read the memo's Nones and run no walk, so every count and budget stop is the
same without it; the completion still keeps the subtree out of the replay
table.  A row's undecided sizes only shrink, so P stays refuted for the row.
Each row starts a new set, the partner memo's clear empties it, and P joins
it only while the memo holds all its refutations, so a lost refutation is
walked again.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Optional

from .bitset import iter_bits
from .errors import NotNilpotent, RamError
from .groups import FiniteGroup, prime_factorization
from .invariants import frattini, generators_missing
from .structures import GenTuple, RamStructure, _cyc_masks, size_pairs, validated

ORACLE_ORDER_LIMIT = 512

# A bounded cache counts |G| slots per entry and holds at most this many; one
# that would pass it is cleared, since it is a speed cache only.
ROW_SLOTS = 1 << 20

# The partner memo is cleared before it would hold more entries than this.
# Its misses are counted, so a clear walks the lost partners again.
PARTNER_ENTRIES = 500_000

# Frames of the recursion limit that a search leaves to its caller and to its
# own fixed frames; the sizes of one search may sum to the rest.
STACK_RESERVE = 200

# Part of every catalog cache key: raise it with any change that can alter a
# decision, a witness or the counters of a size set, which catalog records
# hold, so that records of older code are not served.
ORACLE_VERSION = 2


@dataclass(frozen=True)
class SearchBudget:
    """Bounds on a search.  Running past `max_candidates` (visited prefixes,
    counted as `SearchStats.candidates`) or `max_millis` yields a 'budget'
    outcome; a size above `cap` is refused with ValueError before any
    search.  Without a budget, `find_structure` and `enumerate_structures`
    use `SearchBudget()` and so refuse sizes above 16, while `size_set_up_to`
    uses `SearchBudget(cap=cap)` and refuses none."""

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
    alphabet still generates G, whether emitted or, in a pair search, counted
    by the walk itself because that alphabet is already refuted for the
    row; `partner_searches` counts partner walks run: a pair search's
    partner memo misses, and every partner walk of an enumeration;
    `states_replayed` counts repeated walk states whose subtrees were
    counted from their first visit instead of walked.  Every counter
    depends only on the request, not on earlier searches of the group."""

    candidates: int = 0
    t1_candidates: int = 0
    partner_searches: int = 0
    states_replayed: int = 0
    exhausted: bool = True

    def counters(self) -> dict:
        """The counters under their JSON names, as CLI output and catalog
        records carry them."""
        return {
            "candidates_examined": self.candidates,
            "t1_candidates": self.t1_candidates,
            "partner_searches": self.partner_searches,
            "states_replayed": self.states_replayed,
        }

    def add(self, other: "SearchStats") -> None:
        """Count another search in: counters add up, and the total is
        exhaustive only if both searches were."""
        self.candidates += other.candidates
        self.t1_candidates += other.t1_candidates
        self.partner_searches += other.partner_searches
        self.states_replayed += other.states_replayed
        self.exhausted = self.exhausted and other.exhausted


class _BudgetStop(Exception):
    pass


class _Tracker:
    """Counts search nodes against one threshold, `stop`: the next count at
    which the budget is consulted.  That is the node limit or, with a
    deadline, the next multiple of 4096, where the clock is polled."""

    __slots__ = ("count", "stop", "limit", "deadline", "stats")

    def __init__(self, budget: SearchBudget, stats: SearchStats):
        self.count = 0
        self.limit = budget.max_candidates
        self.deadline = (
            time.monotonic() + budget.max_millis / 1000.0
            if budget.max_millis is not None
            else None
        )
        self.stop = self.limit if self.deadline is None else min(self.limit, 4096)
        self.stats = stats

    def reach(self, cy: int) -> int:
        """Count up to cy >= stop, stopping where counting one node at a time
        would (see the module docstring), else moving `stop` on and returning
        it.  The count is stored before the clock is read."""
        self.count = cy
        if self.stop < self.limit and time.monotonic() > self.deadline:
            self.count = self.stop
            raise _BudgetStop
        if cy >= self.limit:
            self.count = self.limit
            raise _BudgetStop
        self.stop = self.limit if self.deadline is None else min(self.limit, (cy | 0xFFF) + 1)
        return self.stop

    def poll(self):
        """Stop if the deadline has passed, e.g. during the context build."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetStop


class _Bounded(dict):
    """A speed cache keyed by a mask, counting |G| slots per entry: `put`
    stores an entry, first clearing the table if it would hold more than
    ROW_SLOTS slots."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def put(self, key: int, value):
        if (len(self) + 1) * self.n > ROW_SLOTS:
            self.clear()  # speed cache only; bound the memory
        self[key] = value
        return value


class _Rows(_Bounded):
    """Rows of one slot per element, each slot None until filled; a missing
    row is made on first use."""

    def __missing__(self, key: int) -> list:
        return self.put(key, [None] * self.n)


class _SearchContext:
    """The tables and memoized machinery of one search on one group."""

    def __init__(self, G: FiniteGroup):
        n = G.order
        if n > ORACLE_ORDER_LIMIT:
            raise RamError(
                f"oracle search supports orders up to {ORACLE_ORDER_LIMIT}, got {n}"
            )
        self.n = n
        self.full = (1 << n) - 1
        self.mul = G.mul_table().tolist()
        self.inv = [G.inv(a) for a in range(n)]
        self.cyc = _cyc_masks(G)
        self.abelian = G.is_abelian
        self.gens_for: dict[int, tuple[int, ...]] = {1: ()}
        self.ext_memo: dict[tuple[int, int], int] = {}
        self.alpha_gen_memo = _Bounded(n)  # alphabet -> whether it generates G
        self.partner_memo: dict[tuple[int, int], Optional[tuple]] = {}  # (amask, r2) -> T2
        self.closed_memo = _Bounded(n)  # closed set H -> (H, need(H), closers(H))
        self.lo_memo: list[Optional[int]] = [None] * n
        self.at_least = [-(1 << y) for y in range(n)]  # y -> mask of the indices >= y
        self.step_rows = _Rows(n)  # H -> [(<H, y>, need, closers) per y]
        self.alpha_rows = _Rows(n)  # partner alphabet P -> [P & compat[y] or 0 per y]
        self.all_nontrivial = self.full & ~1
        self.compat = self._compat_masks(G)
        self._setup_generation_bound(G)

    def _compat_masks(self, G: FiniteGroup) -> list[int]:
        """compat[x]: the nontrivial y whose conjugate cyclic set meets that
        of x only in the identity, read off the buckets of prime-order
        subgroups (see the module docstring)."""
        cyc = self.cyc
        keys: list[tuple[int, ...]] = [()] * self.n
        buckets: dict[int, int] = {}
        for x in range(1, self.n):
            o = G.order_of(x)
            keys[x] = tuple(cyc[G.power(x, o // p)] for p in prime_factorization(o))
            for k in keys[x]:
                buckets[k] = buckets.get(k, 0) | 1 << x
        compat = [0] * self.n
        for x in range(1, self.n):
            hit = 0
            for k in keys[x]:
                hit |= buckets[k]
            compat[x] = self.all_nontrivial & ~hit
        return compat

    # -- closures -------------------------------------------------------------

    def extend_closure(self, hmask: int, y: int) -> int:
        """Closure of <H, y> given the closed set H, by one coset step (see
        the module docstring); memoized on (H, y)."""
        if (hmask >> y) & 1:
            return hmask
        key = (hmask, y)
        c = self.ext_memo.get(key)
        if c is None:
            mul = self.mul
            gens = self.gens_for[hmask] + (y,)
            grows = [mul[s] for s in gens]
            hs = tuple(iter_bits(hmask))
            c = hmask
            reps = [0]
            for g in reps:
                for srow in grows:
                    t = srow[g]
                    if not (c >> t) & 1:
                        row = mul[t]
                        for h in hs:
                            c |= 1 << row[h]
                        reps.append(t)
            self.ext_memo[key] = c
            self.gens_for.setdefault(c, gens)
        return c

    # -- partner alphabet ------------------------------------------------------

    def alphabet_generates(self, amask: int) -> bool:
        """Whether the usable partner entries still generate the whole group,
        closing them over `base`.  Walks ask about few distinct alphabets
        many times over, so answers are memoized."""
        r = self.alpha_gen_memo.get(amask)
        if r is None:
            hmask = self.base
            rest = amask & ~hmask
            while rest:
                hmask = self.extend_closure(hmask, (rest & -rest).bit_length() - 1)
                if hmask == self.full:
                    break
                rest &= ~hmask
            r = self.alpha_gen_memo.put(amask, amask != 0 and hmask == self.full)
        return r

    def alpha(self, row: list, pmask: int, y: int) -> int:
        """Fill slot y of the alphabet row of pmask: the partner alphabet
        pmask & compat[y] once y joins the tuple, or 0 when it no longer
        generates G."""
        q = pmask & self.compat[y]
        q = row[y] = q if self.alphabet_generates(q) else 0
        return q

    # -- generation-feasibility bound -------------------------------------------

    def _setup_generation_bound(self, G: FiniteGroup):
        """The mask of Phi(G) for a nilpotent group, else None, when only the
        trivial bound (1 if proper) is available; and `base`, the closed set
        every walk and alphabet test starts from: Phi(G), or {1} without it.
        The context keeps no reference to G, so a group is freed by
        reference counting, and so is the context once its search returns."""
        try:
            self.phi = frattini(G).mask
        except NotNilpotent:
            self.phi = None
        self.base = 1
        for x in iter_bits(self.phi or 0):
            self.base = self.extend_closure(self.base, x)

    def need(self, hmask: int) -> int:
        """Lower bound on how many further elements must be adjoined to the
        subgroup H before the whole group can be generated: exact for
        nilpotent G (`generators_missing`), and 1 for any proper H otherwise.
        It costs a few bit counts, so it is not memoized."""
        if hmask == self.full:
            return 0
        if self.phi is None:
            return 1
        return generators_missing(self.n, self.phi, hmask)

    # -- leaf masks -------------------------------------------------------------

    def closed(self, hmask: int) -> tuple[int, int, int]:
        """The record (H, need(H), closers(H)) of the closed set H, memoized,
        where closers(H) is the mask of all y with <H, y> = G, decided one
        coset yH at a time (see the module docstring)."""
        s = self.closed_memo.get(hmask)
        if s is None:
            full = self.full
            nd = self.need(hmask)
            m = full if hmask == full else 0
            # need 0 means H = G; need > 1 means no single y closes H to G
            rest = full & ~hmask if nd == 1 else 0
            hs = tuple(iter_bits(hmask))
            while rest:
                y = (rest & -rest).bit_length() - 1
                row = self.mul[y]
                coset = 0
                for h in hs:
                    coset |= 1 << row[h]
                rest &= ~coset
                if self.extend_closure(hmask, y) == full:
                    m |= coset
            s = self.closed_memo.put(hmask, (hmask, nd, m))
        return s

    def step(self, row: list, hmask: int, y: int) -> tuple[int, int, int]:
        """Fill slot y of the step row of the closed set H with the record
        of its closure <H, y>, shared by every slot that reaches it."""
        s = row[y] = self.closed(self.extend_closure(hmask, y))
        return s

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
        self,
        r: int,
        amask: int,
        multiset: bool,
        tracker: _Tracker,
        emit,
        narrow: bool = False,
        repeats: bool = True,
        dead=(),
    ):
        """Walk the spherical systems of size r >= 2 whose entries lie in the
        alphabet `amask`, in lexicographic order of alphabet indices, as
        multisets under `multiset`; the module docstring says how.

        `tracker` counts one node per visited prefix, before any pruning, and
        raises `_BudgetStop` at its node limit or deadline; `emit` may run
        walks on the same tracker.  Each completion calls
        `emit(entries, pmask)`; a truthy return stops the walk and becomes
        its result, otherwise the walk returns None.  With `narrow`, the walk
        applies the partner-alphabet rule and `pmask` is the partner alphabet
        of the completed tuple; otherwise `pmask` is `amask`.  A completion
        whose `pmask` lies in `dead` is counted as an emission and in
        `stats.t1_candidates` instead of emitted.  `repeats=False` walks
        every subtree rather than replaying repeated interior states."""
        mul, inv, lo, lo_memo, at_least = self.mul, self.inv, self.lo, self.lo_memo, self.at_least
        # an empty slot is filled by its table's method
        step_rows, step, alpha_rows, alpha = self.step_rows, self.step, self.alpha_rows, self.alpha
        reach, stats = tracker.reach, tracker.stats
        alist = tuple(iter_bits(amask))
        nalpha = len(alist)
        n = self.n
        # the forced-last row of amask and the elements its slots are filled from
        flip = 2 * nalpha > n
        src = [inv[a] for a in iter_bits(self.full & ~amask if flip else amask)]
        frow: list[Optional[int]] = [None] * n
        entries: list[int] = []
        emits = 0
        # an interior child's state (its parent's depth, pi, hmask, pmask,
        # start) -> the nodes below it, for subtrees that emitted nothing
        seen: Optional[dict[tuple, int]] = {} if repeats else None

        def last(pi: int) -> int:
            # fill slot pi of the forced-last row: amask & pi^-1 amask^-1
            prow = mul[inv[pi]]
            m = 0
            for b in src:
                m |= 1 << prow[b]
            m = frow[pi] = amask & (~m if flip else m)
            return m

        def rec(depth: int, pi: int, hmask: int, pmask: int, start: int):
            # prefixes shorter than r-3: every child is interior
            row, srow = mul[pi], step_rows[hmask]
            arow = alpha_rows[pmask] if narrow else None
            slack = r - depth - 1
            down = parents if depth + 1 == r - 3 else rec
            c, stop = tracker.count, tracker.stop
            for i in range(start if multiset else 0, nalpha):
                y = alist[i]
                c += 1
                if c >= stop:
                    stop = reach(c)
                p = pmask
                if narrow:
                    p = arow[y]
                    if p is None:
                        p = alpha(arow, pmask, y)
                    if not p:
                        continue
                s = srow[y]
                if s is None:
                    s = step(srow, hmask, y)
                h, nd, _ = s
                if nd > slack:
                    continue
                piy = row[y]
                if seen is not None:
                    key = (depth, piy, h, p, i if multiset else 0)
                    nodes = seen.get(key)
                    if nodes is not None:
                        c += nodes
                        if c >= stop:
                            stop = reach(c)
                        stats.states_replayed += 1
                        continue
                    e0 = emits
                entries.append(y)
                tracker.count = c
                res = down(depth + 1, piy, h, p, i)
                entries.pop()
                if res:
                    return res
                cy, stop = tracker.count, tracker.stop
                if seen is not None and emits == e0:
                    seen[key] = cy - c
                c = cy
            tracker.count = c
            return None

        def parents(depth: int, pi: int, hmask: int, pmask: int, start: int):
            # prefixes of length `depth` = r-3 (unused; the signature is rec's):
            # every child is a leaf parent, cut once `need` of its closure
            # exceeds the two slots left, and counted with all its leaves
            # when its leaf mask is empty
            row, srow = mul[pi], step_rows[hmask]
            arow = alpha_rows[pmask] if narrow else None
            c, stop = tracker.count, tracker.stop
            for i in range(start if multiset else 0, nalpha):
                y = alist[i]
                c += 1
                if c >= stop:
                    stop = reach(c)
                p = pmask
                if narrow:
                    p = arow[y]
                    if p is None:
                        p = alpha(arow, pmask, y)
                    if not p:
                        continue
                s = srow[y]
                if s is None:
                    s = step(srow, hmask, y)
                _, nd, m = s
                if nd > 2:
                    continue
                first = i if multiset else 0
                if m:
                    piy = row[y]
                    f = frow[piy]
                    m &= last(piy) if f is None else f
                    if multiset and m:
                        lm = lo_memo[piy]
                        m &= (lo(piy) if lm is None else lm) & at_least[y]
                if not m:
                    # no leaf below can complete: count them all
                    c += nalpha - first
                    if c >= stop:
                        stop = reach(c)
                    continue
                entries.append(y)
                tracker.count = c
                res = leaves(row[y], p, first, m)
                entries.pop()
                if res:
                    return res
                c, stop = tracker.count, tracker.stop
            tracker.count = c
            return None

        def leaves(pi: int, pmask: int, first: int, m: int):
            # the children are leaves, one node each; those in `m` complete
            # (when narrowing, if their partner alphabet still generates G),
            # and the others are counted arithmetically: the leaf at
            # position i of alist is node base + i + 1
            nonlocal emits
            row = mul[pi]
            arow = alpha_rows[pmask] if narrow else None
            base, stop = tracker.count - first, tracker.stop
            # the first entry whose leaf count base + i + 1 reaches `stop`
            k = stop - base - 1
            ystop = alist[k] if k < nalpha else n
            while m:
                low = m & -m
                m ^= low
                y = low.bit_length() - 1
                if y >= ystop:
                    stop = reach(base + (amask & (low - 1)).bit_count() + 1)
                    k = stop - base - 1
                    ystop = alist[k] if k < nalpha else n
                z = inv[row[y]]
                p = pmask
                if narrow:
                    q = arow[y]
                    if q is None:
                        q = alpha(arow, pmask, y)
                    if not q:
                        continue
                    qrow = alpha_rows[q]
                    p = qrow[z]
                    if p is None:
                        p = alpha(qrow, q, z)
                    if not p:
                        continue
                emits += 1
                if p in dead:
                    # a refuted partner alphabet: counted, not emitted
                    stats.t1_candidates += 1
                    continue
                i = (amask & (low - 1)).bit_count()
                tracker.count = base + i + 1
                res = emit(tuple(entries) + (y, z), p)
                if res:
                    return res
                base, stop = tracker.count - i - 1, tracker.stop
                k = stop - base - 1
                ystop = alist[k] if k < nalpha else n
            cy = tracker.count = base + nalpha
            if cy >= stop:
                reach(cy)
            return None

        try:
            c = tracker.count = tracker.count + 1
            if c >= tracker.stop:
                reach(c)
            if narrow and not self.alphabet_generates(amask) or self.need(self.base) > r:
                return None
            if r > 3:
                return rec(0, 0, self.base, amask, 0)
            if r == 3:
                return parents(0, 0, self.base, amask, 0)
            m = self.closed(self.base)[2] & last(0)
            if multiset:
                m &= lo(0)
            return leaves(0, amask, 0, m)
        finally:
            del rec  # rec refers to itself; free it without the cyclic collector

    def partner(self, amask: int, r2: int, tracker: _Tracker, refuted: set) -> Optional[tuple]:
        """First spherical system of size r2 over the partner alphabet amask,
        searched and memoized; the caller reads `partner_memo` first.
        `refuted` holds the caller's alphabets read off the memo, so a clear
        of the memo empties it too."""
        tracker.stats.partner_searches += 1
        res = self.walk(r2, amask, self.abelian, tracker, lambda t2, _: t2)
        if len(self.partner_memo) > PARTNER_ENTRIES:
            self.partner_memo.clear()  # speed cache only; bound the memory
            refuted.clear()  # their refutations went with it
        self.partner_memo[(amask, r2)] = res
        return res


def _guard(sizes: tuple[int, ...], least: int, what: str, budget: Optional[SearchBudget]) -> None:
    """Refuse sizes before any context is built: one below `least` (`what`
    says so), one past the budget's cap, or a sum the walk cannot recurse
    through.  The walk holds about one frame per tuple entry and a partner
    walk runs inside its T1 walk, so the sum must leave STACK_RESERVE frames
    of `sys.getrecursionlimit()` for the fixed frames and the caller's."""
    if min(sizes) < least:
        raise ValueError(what)
    if budget is not None and max(sizes) > budget.cap:
        raise ValueError(f"requested size exceeds budget cap {budget.cap}")
    deepest = sys.getrecursionlimit() - STACK_RESERVE
    if sum(sizes) > deepest:
        raise ValueError(f"requested sizes sum to {sum(sizes)}; the recursion limit allows {deepest}")


def _run(G: FiniteGroup, budget: SearchBudget, search) -> SearchStats:
    """Run `search(ctx, tracker)` on a context built for this search alone,
    under the budget, and return the search's counters, `tracker.stats`.
    The budget's clock starts before the context is built, so the build is
    charged; a budget stop clears `exhausted`, and `candidates` is the node
    count either way."""
    tracker = _Tracker(budget, SearchStats())
    ctx = _SearchContext(G)
    try:
        tracker.poll()
        search(ctx, tracker)
    except _BudgetStop:
        tracker.stats.exhausted = False
    tracker.stats.candidates = tracker.count
    return tracker.stats


def enumerate_spherical(G: FiniteGroup, r: int) -> list[GenTuple]:
    """The list of all spherical systems of size r, in lexicographic order of
    the first r-1 entries over nontrivial elements; the last entry is forced
    as the inverse of the prefix product.  The walk runs to the end before
    this returns."""
    _guard((r,), 2, "spherical systems need size >= 2", None)
    out: list[GenTuple] = []

    def search(ctx, tracker):
        ctx.walk(r, ctx.all_nontrivial, False, tracker, lambda t, _: out.append(GenTuple(G, t)))

    _run(G, SearchBudget(), search)
    return out


_MISSING = object()  # partner_memo stores None for a proven negative


def _search_rows(
    G: FiniteGroup, pairs: list[tuple[int, int]], budget: SearchBudget
) -> tuple[dict[tuple[int, int], Optional[RamStructure]], SearchStats]:
    """Decide each (r1, r2) pair (r1 <= r2) in one search, returning the
    decisions and the search's counters.  A decision is the validated
    witness, or None for proven nonexistence.  Pairs are left undecided, and
    absent from the decisions, only by a budget stop, which clears
    `exhausted`; so the search is exhaustive exactly when every pair is
    decided.  Each row r1 is one T1 walk for its ascending list of partner
    sizes, from which a size is dropped once `results` holds a witness for
    it; each witness is validated once, after the search."""
    results: dict[tuple[int, int], Optional[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    rows: dict[int, list[int]] = {}
    for r1, r2 in sorted(pairs):
        rows.setdefault(r1, []).append(r2)

    def search(ctx, tracker):
        partner_memo = ctx.partner_memo
        for r1, undecided in rows.items():
            refuted: set[int] = set()

            def emit(t1, pmask):
                tracker.stats.t1_candidates += 1
                found = len(results)
                for r2 in undecided:
                    t2 = partner_memo.get((pmask, r2), _MISSING)
                    if t2 is _MISSING:
                        t2 = ctx.partner(pmask, r2, tracker, refuted)
                    if t2 is not None:
                        results[(r1, r2)] = (t1, t2)
                if len(results) > found:
                    undecided[:] = [r2 for r2 in undecided if (r1, r2) not in results]
                # pmask has no partner at any size still undecided; unless a
                # clear lost one, the memo holds each refutation, and the
                # walk counts later completions on pmask itself
                if all((pmask, r2) in partner_memo for r2 in undecided):
                    refuted.add(pmask)
                return not undecided

            ctx.walk(r1, ctx.all_nontrivial, ctx.abelian, tracker, emit, narrow=True, dead=refuted)
            for r2 in undecided:
                results[(r1, r2)] = None

    stats = _run(G, budget, search)
    return {pair: None if w is None else validated(G, *w) for pair, w in results.items()}, stats


@dataclass
class FindOutcome:
    """Tri-state search result: found / none exists / budget exhausted.
    `structure` is the witness of size (r1, r2) as requested, or None unless
    found; `stats` holds the counters of the one search that decided it."""

    status: str  # "found" | "none" | "budget"
    structure: Optional[RamStructure]
    stats: SearchStats


def find_structure(
    G: FiniteGroup, r1: int, r2: int, budget: Optional[SearchBudget] = None
) -> FindOutcome:
    """First ramification structure of size (r1, r2) in deterministic order, or
    proof of nonexistence, or budget exhaustion."""
    budget = budget or SearchBudget()
    _guard((r1, r2), 3, "structure sizes must be >= 3", budget)
    a, b = min(r1, r2), max(r1, r2)
    decided, stats = _search_rows(G, [(a, b)], budget)
    if (a, b) not in decided:
        return FindOutcome("budget", None, stats)
    structure = decided[(a, b)]
    if structure is None:
        return FindOutcome("none", None, stats)
    return FindOutcome("found", structure if (r1, r2) == (a, b) else structure.swapped(), stats)


@dataclass
class SizeSetResult:
    """The decided admissible pairs of one size-set search with a witness
    for each; `exhaustive` is `stats.exhausted`, true exactly when every
    pair up to the cap was decided."""

    pairs: set[tuple[int, int]]  # canonical r1 <= r2
    exhaustive: bool
    stats: SearchStats
    witnesses: dict[tuple[int, int], RamStructure]

    def membership(self, r1: int, r2: int) -> bool:
        return (min(r1, r2), max(r1, r2)) in self.pairs


def size_set_up_to(
    G: FiniteGroup, cap: int, budget: Optional[SearchBudget] = None
) -> SizeSetResult:
    """All admissible size pairs with 3 <= r1 <= r2 <= cap; symmetric closure is
    implied since swapping the two systems swaps the size components."""
    _guard((cap, cap), 3, "cap must be >= 3", budget)
    budget = budget or SearchBudget(cap=cap)
    decided, stats = _search_rows(G, size_pairs(cap), budget)
    witnesses = {pair: S for pair, S in decided.items() if S is not None}
    return SizeSetResult(set(witnesses), stats.exhausted, stats, witnesses)


def enumerate_structures(
    G: FiniteGroup,
    r1: int,
    r2: int,
    limit: int,
    budget: Optional[SearchBudget] = None,
) -> tuple[list[RamStructure], SearchStats]:
    """Up to `limit` distinct ramification structures of size (r1, r2), in
    deterministic search order (capped enumeration; no partner memoization)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    budget = budget or SearchBudget()
    _guard((r1, r2), 3, "structure sizes must be >= 3", budget)
    a, b = min(r1, r2), max(r1, r2)
    out: list[RamStructure] = []

    def search(ctx, tracker):
        def emit(t1, pmask):
            tracker.stats.t1_candidates += 1
            tracker.stats.partner_searches += 1

            def emit_partner(t2, _):
                structure = validated(G, t1, t2)
                out.append(structure if (r1, r2) == (a, b) else structure.swapped())
                return len(out) >= limit

            return ctx.walk(b, pmask, ctx.abelian, tracker, emit_partner)

        ctx.walk(a, ctx.all_nontrivial, ctx.abelian, tracker, emit, narrow=True)

    return out, _run(G, budget, search)  # the search fills `out`
