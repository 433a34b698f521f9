"""Brute-force ground truth: exhaustive search for spherical systems and
ramification structures on small groups.

The search is deterministic: candidates are visited in element-index order and
the first witness in that order is returned. Negative answers are produced
only after the candidate space is exhausted; running out of budget is reported
as its own outcome, never as a negative.

Every search is one prefix walk, `_SearchContext.walk`: a depth-first search
over tuple prefixes of length < r drawn from a sorted alphabet, carrying the
running product and the closure HPhi of the prefix with the Frattini
subgroup (see below). The last entry is forced as the
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
  element at a time through the memoized `extend_closure`, starting from
  Phi(G), skipping elements already in the closure and stopping once it is
  all of G, and its answer is memoized per alphabet.

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
`G.mul`: `mul` is `G.mul_table()`, which each realization computes with
array arithmetic (a table group returns its own table), and `compat` is read
off buckets rather than a scan over all pairs.  Two conjugate-closed cyclic
sets cyc(x) and cyc(y) meet in more than the identity exactly when some
conjugates of <x> and <y> share an element z != 1, hence share the subgroup
of prime order p generated by a power of z.  A cyclic group has one
subgroup of each prime order p dividing its order, so this happens exactly
when, for some p, the order-p subgroups of <x> and <y> are conjugate.  The
order-p subgroup of <x> is generated by z = x^(o(x)/p), and two order-p
subgroups are conjugate exactly when their conjugate-closed sets cyc[z] are
equal (if cyc[z] = cyc[w], then w lies in a conjugate of <z>, which has
order p and so is <w>), so cyc[z] keys a bucket of all elements having that subgroup; x is
incompatible with precisely the members of its own buckets.

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
* `last(pi)` is the mask of the y in the alphabet A whose forced last entry
  (pi*y)^-1 lies in A as well, A & pi^-1 A^-1.  It is slot pi of A's
  forced-last row, filled on first use from the inverses of A's elements
  or, when fewer, of the others' (left multiplication by pi^-1 maps those
  onto the complement), so a slot of the full T1 alphabet costs one
  product.  A partner walk therefore visits a leaf parent only if a leaf
  below it completes, and then its first visited leaf ends the walk.
* `lo(pi)` is the mask of y with (pi*y)^-1 >= y, memoized per pi.
* A leaf's own partner alphabet generates G whenever the smaller alphabet
  left after the forced last entry does, since generation is monotone in the
  alphabet, and `need(H')` > 1 would mean no single entry closes H' to G; so
  neither is tested at a leaf.

Every leaf still counts as one node in `SearchStats.candidates` and against
the budget: the leaf at alphabet position i is node c + (i - first) + 1,
where c is the count at its parent and `first` the parent's first allowed
position, so the skipped leaves are added arithmetically.

The walk has one loop per level.  `rec` takes the prefixes shorter than
r-3, whose children are interior; `parents` the prefixes of length r-3,
whose children are leaf parents; and `leaves` a leaf parent with leaves to
visit.  `rec` hands a child on to `parents` or to itself by its depth, and
the root, counted and tested on entry to `walk`, goes to the loop of its own
length (to `parents` when r = 3, and when r = 2 it computes its own leaf
mask).  Each loop counts and cuts its children itself: a child is one node,
then it is cut if its partner alphabet shrank and no longer generates G, or
if `need` of its closure exceeds the slots left, two in `parents`.  There a
leaf parent that passes both has its leaf mask computed; when the mask is
empty (78-88% of leaf parents on the larger abelian groups), none of its
leaves can complete, and it is counted with all its leaves at once,
1 + len(alphabet) - first nodes.  Only a leaf parent with leaves to visit is
called, and `leaves` takes its mask, so closers(H) and `lo` are read once
per leaf parent.  The checks run in the order a child would run them itself.

A loop keeps the node count and `stop` in locals: `stop` is the node limit
or, with a deadline, the next multiple of 4096, where the clock is polled.
Once the count reaches `stop` it calls `_Tracker.reach` with it, which
stores the count before it reads the clock.  Otherwise it stores the count
in `tracker.count` in two places only: just before it calls out, to a loop
or to `emit`, whose walks count on the same tracker, and when it returns.
After a call it reads the count and `stop` back.  Every count is checked
against `stop` before it is stored or handed on, so the first stored count
at or past a poll is the one `reach` reads the clock at.  All counts since the last `reach` lie in one block of
4096, so `stop` is the first poll a jump crosses; `reach` stops there if
the deadline has passed, else at the limit if the count reached it, just as
counting one node at a time would, and otherwise moves `stop` on.  Every
count and budget stop is therefore the same as when each node is stored.
`leaves` finds a leaf's position only to store it or hand it to `reach`: it
compares the entry with the first entry whose count reaches `stop`.

The loops read three row tables, not the memos.  The step row of a closed set
H holds in slot y the record (K, need(K), closers(K)) of K = <H, y>, one
tuple per closed set shared by every slot that reaches it; the alphabet row
of a partner alphabet P holds in slot y the alphabet P & compat[y], or 0
when that no longer generates G.  A call reads its parent's rows once and
one slot of each per child, so a child costs list reads rather than dict
reads hashed on |G|-bit keys, and walks reach few closures and alphabets
(15 and 92 on C4xC4xC4 at cap 7), so rows are few.  A leaf's partner
alphabet is its parent's row at y, then that alphabet's row at the forced
last entry.  The forced-last row of the walk's alphabet (above) is read in
`parents` at the leaf parent's product; a walk fetches it once, made by
`last_row` with the elements its slots are filled from.  An empty step or
alphabet slot is filled by `step` or `alpha` from the memoized
`extend_closure`, `closed` and `alphabet_generates`, a forced-last slot by
`last`.  `need` is a few bit counts and is not memoized; the root reads
need(base), and closers(base) and last at the identity only when r = 2.

Every search builds its own context in `_run`, and nothing keeps one on a
group, so a search is a function of its request alone: its counts, budget
stops and witnesses do not depend on what ran on the group object before
it, and the context build is always charged to its budget.  The caches have
two lifetimes.  The context, with its rows, memos and partner memo, lives
for one search, every T1 row of a size set included, and is freed when the
search returns; the replay table below lives for one walk.

Within a search, one bound holds the caches that grow with the closures and
alphabets a walk reaches: the rows, the records of `closed` and the answers
of `alphabet_generates` are stored through `_Bounded.put`, which counts |G|
slots per entry and clears its table before it would hold more than
ROW_SLOTS slots.  They are speed caches, so a clear changes no answer or
count, and a row a clear detaches serves on, unshared, the call that holds
it.  The other caches keep their own policy.  `partner_memo` is cleared at
its own bound of PARTNER_ENTRIES entries, together with the refuted
alphabets below, and the replay table has no bound, because their misses are
counted: a cleared partner entry is walked again, adding nodes and
`partner_searches`, and a lost replay state changes `states_replayed`.
`gens_for` is never cleared, since a closed set a live row holds is still
extended through it; `ext_memo` holds one closure per closed set and element
it was asked about, few since walks carry HPhi; and `lo_memo` holds at most
|G| masks.

Every walk replays repeated interior states.  Until it emits, the walk of
the subtree below a prefix depends only on the prefix's state: depth,
product pi, closure HPhi, partner alphabet and, under the multiset rule, its
first allowed position; the memos it reads cache pure functions.  Partner
searches run only inside `emit`, so a subtree that emitted nothing ran none
and counts the same nodes on every visit, whatever the partner memo holds.
Within one walk, when the subtree of an interior child (one whose children
are not leaves) returns having emitted nothing, a table keyed on that state
stores the nodes it counted, and a later child in the same state adds that
count instead of being walked, by the same rule.  Every count, budget stop
and completion is therefore the same as without the table.  Leaf-parent
states are not tabled: there the table grew by far more memory than it
saved time.

A pair search skips the T1 completions whose partner alphabet is already
refuted.  Many completions share few partner alphabets (64,514 completions
and 30 alphabets in `size_set_up_to(C4xC4xC4, 7)`), and once `emit` has
found no partner on an alphabet P for any size still undecided in its row,
every later completion on P would find the same memoized Nones.  So P joins
the row's set `refuted`, and from then on `leaves` counts a completion on P
itself, as one emission and one `t1_candidates`, and builds no tuple and
calls no `emit`.  That call would have read the memo and run no walk, so
every node count, budget stop and counter is the same; the emission still
keeps the subtree out of the replay table.  A row's undecided sizes only
shrink, so P stays refuted for the row.  Each row starts a new set, the
partner memo's clear empties it, and P joins it only while the memo holds
all its refutations, so a lost refutation is walked again as before.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .bitset import iter_bits
from .errors import NotNilpotent, RamError
from .groups import FiniteGroup, prime_factorization
from .invariants import frattini, generators_missing
from .structures import GenTuple, RamStructure, _cyc_masks, validated

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

    def reach(self, cy: int):
        """Count up to cy >= stop, stopping where counting one node at a time
        would (see the module docstring), else moving `stop` on.  The count
        is stored before the clock is read."""
        self.count = cy
        if self.stop < self.limit and time.monotonic() > self.deadline:
            self.count = self.stop
            raise _BudgetStop
        if cy >= self.limit:
            self.count = self.limit
            raise _BudgetStop
        self.stop = self.limit if self.deadline is None else min(self.limit, (cy | 0xFFF) + 1)

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
        self.last_rows = _Bounded(n)  # walk alphabet A -> its forced-last row
        self.all_nontrivial = self.full & ~1
        self.compat = self._compat_masks(G)
        self._setup_generation_bound(G)

    def _compat_masks(self, G: FiniteGroup) -> list[int]:
        """compat[x]: usable partner entries once x is in the tuple, i.e. all
        nontrivial y whose conjugate cyclic set meets that of x only in the
        identity.  Read off buckets of the prime-order subgroups (see the
        module docstring): each nontrivial x files itself under the key
        cyc[x^(o(x)/p)] of each prime p dividing o(x), and compat[x] is every
        nontrivial element outside the buckets of x's keys."""
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
        """Closure of <H, y> given the closed set H; memoized on (H, y).

        One coset step (see the module docstring): the closure is grown by
        whole left cosets gH, queueing each new representative g, until
        s*g lies in it for every representative g and every generator s of
        <H, y>."""
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
        where closers(H) is the mask of all y with <H, y> = G.  Since
        <H, y> = <H, yh> for every h in H, that mask is a union of cosets yH,
        and one closure decides a whole coset."""
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

    def last_row(self, amask: int) -> tuple[list, tuple[int, ...], bool]:
        """Make the forced-last row of the alphabet amask: its slots, each
        None until `last` fills it, and what they are filled from, the
        inverses of amask's elements or, flagged, of all other elements,
        whichever are fewer."""
        flip = 2 * amask.bit_count() > self.n
        src = tuple(self.inv[a] for a in iter_bits(self.full & ~amask if flip else amask))
        return self.last_rows.put(amask, ([None] * self.n, src, flip))

    def last(self, row: list, amask: int, pi: int, src: tuple[int, ...], flip: bool) -> int:
        """Fill slot pi of the forced-last row `row, src, flip` of the
        alphabet amask: the mask of the z in amask whose forced last entry
        (pi*z)^-1 also lies in amask, that is amask & pi^-1 amask^-1.  Left
        multiplication by pi^-1 is a bijection, so with `flip` it maps src
        onto the complement of pi^-1 amask^-1.  On the full T1 alphabet
        that is one product per slot."""
        prow = self.mul[self.inv[pi]]
        m = 0
        for b in src:
            m |= 1 << prow[b]
        m = row[pi] = amask & (~m if flip else m)
        return m

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
        """Depth-first walk over the spherical systems of size r >= 2 whose
        entries lie in the alphabet `amask`, in lexicographic order of
        alphabet indices (nondecreasing under `multiset`).

        `tracker` counts one node per visited prefix, before any pruning, and
        raises `_BudgetStop` at its node limit or deadline.  One loop walks
        each level: `rec` the prefixes shorter than r-3, `parents` those of
        length r-3, whose children are leaf parents, and `leaves` a leaf
        parent's leaves that may complete (see the module docstring).  Each
        loop counts and cuts its children itself; `parents` counts a leaf
        parent none of whose leaves can complete together with its leaves,
        and `leaves` counts the leaves it skips arithmetically.  A loop
        counts in a local, hands it to `reach` at `stop` and stores it in
        `tracker.count` only just before a call out and on return; `emit`
        may run walks on the same tracker, so after each call the loop reads
        the count and `tracker.stop` back.  A call reads its parent's step
        row and, with `narrow`, its alphabet row once, then one slot of each
        per child; `parents` also reads one slot of the forced-last row of
        `amask` per leaf parent.  The rows and the memos that fill their
        slots share one bound of ROW_SLOTS slots per table (see the module
        docstring).  The root reads need(base), and closers(base) and the
        identity's forced-last slot only when r = 2.  Each completion
        calls `emit(entries, pmask)`; a truthy return stops the
        walk and becomes its result, otherwise the walk returns None.  With
        `narrow`, `pmask` is the partner alphabet of the completed tuple and
        prefixes whose partner alphabet no longer generates G are cut;
        otherwise `pmask` is `amask`.  A completion whose `pmask` lies in
        `dead` is counted as an emission and in `stats.t1_candidates`
        instead of emitted.

        An interior state met again whose first visit emitted nothing is
        replayed from that visit's node count rather than walked (see the
        module docstring); `repeats=False` walks every subtree."""
        mul, inv, lo, lo_memo, at_least = self.mul, self.inv, self.lo, self.lo_memo, self.at_least
        # an empty slot is filled by its table's method
        step_rows, step, alpha_rows, alpha = self.step_rows, self.step, self.alpha_rows, self.alpha
        reach, stats = tracker.reach, tracker.stats
        alist = tuple(iter_bits(amask))
        nalpha = len(alist)
        n = self.n
        frow, src, flip = self.last_rows.get(amask) or self.last_row(amask)
        last = self.last
        entries: list[int] = []
        emits = 0
        # an interior child's state (its parent's depth, pi, hmask, pmask,
        # start) -> the nodes below it, for subtrees that emitted nothing
        seen: Optional[dict[tuple, int]] = {} if repeats else None

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
                    reach(c)
                    stop = tracker.stop
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
                            reach(c)
                            stop = tracker.stop
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
                    reach(c)
                    stop = tracker.stop
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
                    m &= last(frow, amask, piy, src, flip) if f is None else f
                    if multiset and m:
                        lm = lo_memo[piy]
                        m &= (lo(piy) if lm is None else lm) & at_least[y]
                if not m:
                    # no leaf below can complete: count them all
                    c += nalpha - first
                    if c >= stop:
                        reach(c)
                        stop = tracker.stop
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
                    cy = base + (amask & (low - 1)).bit_count() + 1
                    reach(cy)
                    stop = tracker.stop
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
            m = self.closed(self.base)[2] & last(frow, amask, 0, src, flip)
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


def _run(G: FiniteGroup, budget: SearchBudget, stats: SearchStats, search) -> None:
    """Run `search(ctx, tracker)` on a context built for this search alone,
    under the budget.  The budget's clock starts before the context is built,
    so the build is charged; a budget stop clears `stats.exhausted`, and
    `stats.candidates` is the node count either way."""
    tracker = _Tracker(budget, stats)
    ctx = _SearchContext(G)
    try:
        tracker.poll()
        search(ctx, tracker)
    except _BudgetStop:
        stats.exhausted = False
    stats.candidates = tracker.count


def enumerate_spherical(G: FiniteGroup, r: int) -> list[GenTuple]:
    """The list of all spherical systems of size r, in lexicographic order of
    the first r-1 entries over nontrivial elements; the last entry is forced
    as the inverse of the prefix product.  The walk runs to the end before
    this returns."""
    _guard((r,), 2, "spherical systems need size >= 2", None)
    out: list[GenTuple] = []

    def search(ctx, tracker):
        ctx.walk(r, ctx.all_nontrivial, False, tracker, lambda t, _: out.append(GenTuple(G, t)))

    _run(G, SearchBudget(), SearchStats(), search)
    return out


_MISSING = object()  # partner_memo stores None for a proven negative


def _search_rows(
    G: FiniteGroup,
    pairs: list[tuple[int, int]],
    budget: SearchBudget,
    stats: SearchStats,
) -> dict[tuple[int, int], Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Decide each (r1, r2) pair (r1 <= r2): a witness tuple pair, or None for
    proven nonexistence. Pairs left undecided on budget exhaustion are absent
    from the result and stats.exhausted is cleared.  Each row r1 is one T1
    walk for its ascending list of partner sizes, from which a size is
    dropped once `results` holds a witness for it."""
    results: dict[tuple[int, int], Optional[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    rows: dict[int, list[int]] = {}
    for r1, r2 in sorted(pairs):
        rows.setdefault(r1, []).append(r2)

    def search(ctx, tracker):
        partner_memo = ctx.partner_memo
        for r1, undecided in rows.items():
            refuted: set[int] = set()

            def emit(t1, pmask):
                stats.t1_candidates += 1
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

    _run(G, budget, stats, search)
    return results


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
    budget = budget or SearchBudget()
    _guard((r1, r2), 3, "structure sizes must be >= 3", budget)
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
    _guard((cap, cap), 3, "cap must be >= 3", budget)
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
    if limit < 1:
        raise ValueError("limit must be >= 1")
    budget = budget or SearchBudget()
    _guard((r1, r2), 3, "structure sizes must be >= 3", budget)
    stats = SearchStats()
    a, b = min(r1, r2), max(r1, r2)
    out: list[RamStructure] = []

    def search(ctx, tracker):
        def emit(t1, pmask):
            stats.t1_candidates += 1
            stats.partner_searches += 1

            def emit_partner(t2, _):
                structure = validated(G, t1, t2)
                out.append(structure if (r1, r2) == (a, b) else structure.swapped())
                return len(out) >= limit

            return ctx.walk(b, pmask, ctx.abelian, tracker, emit_partner)

        ctx.walk(a, ctx.all_nontrivial, ctx.abelian, tracker, emit, narrow=True)

    _run(G, budget, stats, search)
    return out, stats
