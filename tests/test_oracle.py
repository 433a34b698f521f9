import gc
import itertools
import random
import sys
import weakref
from collections import Counter

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramstruct import oracle
from ramstruct.bitset import iter_bits
from ramstruct.catalog import builtin_catalog, bundled_cayley_path
from ramstruct.constructors import construct_any
from ramstruct.groups import AbelianGroup, HeisenbergGroup
from ramstruct.invariants import frattini, min_generators
from ramstruct.oracle import (
    SearchBudget,
    enumerate_spherical,
    enumerate_structures,
    find_structure,
    size_set_up_to,
)
from ramstruct.parsing import build_group
from ramstruct.structures import RamStructure, check_ramification


def _record_contexts(monkeypatch, weak: bool = False) -> list:
    """Patch a subclass over `oracle._SearchContext` that records every
    context a search builds, or a weak reference to it, in the list
    returned."""
    built = []

    class Recording(oracle._SearchContext):
        def __init__(self, G):
            super().__init__(G)
            built.append(weakref.ref(self) if weak else self)

    monkeypatch.setattr(oracle, "_SearchContext", Recording)
    return built


def spherical_count(G, r: int) -> int:
    """Number of spherical systems of size r."""
    return sum(1 for _ in enumerate_spherical(G, r))


def test_enumerate_spherical_klein_four():
    G = AbelianGroup([2, 2])
    systems = enumerate_spherical(G, 3)
    assert isinstance(systems, list)
    tuples = [T.entries for T in systems]
    assert len(tuples) == 6
    assert sorted(tuples) == sorted(itertools.permutations([1, 2, 3]))


def test_enumerate_spherical_r2():
    G = AbelianGroup([5])
    tuples = [T.entries for T in enumerate_spherical(G, 2)]
    assert tuples == [(g, G.inv(g)) for g in range(1, 5)]
    assert spherical_count(AbelianGroup([2, 2]), 2) == 0  # no generating pairs (g, g)


def test_enumerate_spherical_c3c3_count():
    G = AbelianGroup([3, 3])
    # independent count: ordered pairs with independent nonzero vectors; the
    # forced third entry is automatically nontrivial since g1 + g2 != 0 there
    count = 0
    for g1 in range(1, 9):
        for g2 in range(1, 9):
            if G.closure_mask((g1, g2)) == (1 << 9) - 1:
                count += 1
    assert count == 48
    assert spherical_count(G, 3) == 48


def test_find_structure_examples(heis3):
    assert find_structure(AbelianGroup([3, 3]), 3, 3).status == "none"
    out = find_structure(AbelianGroup([2, 2, 2]), 5, 6)
    assert out.status == "found"
    assert isinstance(out.structure, RamStructure)
    assert out.structure.size == (5, 6)
    assert find_structure(AbelianGroup([2, 2, 2]), 5, 5).status == "none"


def test_find_structure_symmetry_and_determinism(heis3):
    a = find_structure(heis3, 4, 5)
    b = find_structure(heis3, 5, 4)
    assert a.status == b.status == "found"
    assert a.structure.size == (4, 5) and b.structure.size == (5, 4)
    again = find_structure(heis3, 4, 5)
    assert again.structure.t1.entries == a.structure.t1.entries
    assert again.structure.t2.entries == a.structure.t2.entries


def test_found_structures_validate(heis3, c2c4cubed):
    for G, size in ((heis3, (4, 4)), (AbelianGroup([2, 2, 2, 2]), (5, 5))):
        out = find_structure(G, *size)
        assert out.status == "found"
        S = out.structure
        revalidated = check_ramification(S.group, S.t1, S.t2)
        assert isinstance(revalidated, RamStructure)


def test_size_set_examples():
    res = size_set_up_to(AbelianGroup([2, 2]), 7)
    assert res.pairs == set() and res.exhaustive

    res = size_set_up_to(AbelianGroup([5, 5]), 5)
    assert res.pairs == {(a, b) for a in range(3, 6) for b in range(a, 6)}

    res = size_set_up_to(AbelianGroup([3, 3]), 5)
    assert res.pairs == {(4, 4), (4, 5), (5, 5)}


def test_size_set_symmetric_membership():
    res = size_set_up_to(AbelianGroup([2, 2, 2]), 7)
    for r1 in range(3, 8):
        for r2 in range(3, 8):
            assert res.membership(r1, r2) == res.membership(r2, r1)


def test_budget_exhaustion_never_reports_negative():
    G = AbelianGroup([4, 4, 2])
    out = find_structure(G, 8, 8, SearchBudget(max_candidates=50, cap=8))
    assert out.status == "budget"
    assert not out.stats.exhausted
    res = size_set_up_to(G, 8, SearchBudget(max_candidates=50, cap=8))
    assert not res.exhaustive
    # 26.5M nodes to exhaust: the deadline, polled inside the leaf loop, must stop it
    out = find_structure(
        AbelianGroup([2, 4, 4, 4]), 5, 5, SearchBudget(max_millis=200, cap=5)
    )
    assert out.status == "budget"
    assert not out.stats.exhausted


def test_context_build_charged_to_budget(monkeypatch):
    # the budget's clock runs while the search context is built: a build that
    # outlasts the budget stops the search at the first check after it
    build = oracle._SearchContext.__init__

    def slow_build(self, G):
        build(self, G)
        time.sleep(0.3)

    monkeypatch.setattr(oracle._SearchContext, "__init__", slow_build)
    out = find_structure(
        AbelianGroup([2, 4, 4, 4]), 5, 5, SearchBudget(max_millis=100, cap=5)
    )
    assert out.status == "budget"
    assert not out.stats.exhausted
    assert out.stats.candidates <= 4096


SMALL_SPECS = [e.spec for e in builtin_catalog(16) if build_group(e.spec).order <= 16]


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(SMALL_SPECS),
    r1=st.integers(3, 5),
    r2=st.integers(3, 5),
    max_candidates=st.integers(1, 5000),
)
def test_budgets_never_lie(spec, r1, r2, max_candidates):
    unbounded = find_structure(build_group(spec), r1, r2, SearchBudget(cap=5))
    out = find_structure(
        build_group(spec), r1, r2, SearchBudget(max_candidates=max_candidates, cap=5)
    )
    assert out.stats.exhausted == (out.status != "budget")
    if out.status == "budget":
        assert out.stats.candidates == max_candidates
    else:
        assert out.status == unbounded.status
    if out.status == "found":
        assert out.structure.t1.entries == unbounded.structure.t1.entries
        assert out.structure.t2.entries == unbounded.structure.t2.entries


# max_candidates -> (status, candidates, t1_candidates, partner_searches);
# the stops at heis(3) 2000 and 2063 and C3xC3 20 and 24 land inside a partner
# walk, which ticks the same tracker as the T1 walk around it
BUDGET_STOPS = {
    "C4xC4xC2-7-7": (
        lambda: AbelianGroup([4, 4, 2]),
        (7, 7),
        {n: ("budget", n, 0, 0) for n in (1, 2, 3, 50, 97, 1000, 4095, 4096, 4097, 20000)},
    ),
    "heis3-4-5": (
        lambda: HeisenbergGroup(3),
        (4, 5),
        {
            **{n: ("budget", n, 0, 0) for n in (1, 2, 3, 50, 97, 1000)},
            2000: ("budget", 2000, 1, 1),
            2063: ("budget", 2063, 1, 1),
            **{n: ("found", 2063, 1, 1) for n in (2064, 4095, 4096, 4097, 20000)},
        },
    ),
    "C3xC3-4-4": (
        lambda: AbelianGroup([3, 3]),
        (4, 4),
        {
            **{n: ("budget", n, 0, 0) for n in (1, 2, 3)},
            20: ("budget", 20, 1, 1),
            24: ("budget", 24, 1, 1),
            **{n: ("found", 24, 1, 1) for n in (25, 50, 97, 1000, 4095, 4096, 4097, 20000)},
        },
    ),
}


@pytest.mark.parametrize("case", list(BUDGET_STOPS))
def test_budget_stops_pinned(case):
    make, size, stops = BUDGET_STOPS[case]
    for n, expected in stops.items():
        out = find_structure(make(), *size, SearchBudget(max_candidates=n, cap=8))
        stats = out.stats
        got = (out.status, stats.candidates, stats.t1_candidates, stats.partner_searches)
        assert got == expected, n
        assert stats.exhausted == (out.status == "found")


def _find_one_by_one(G, r1, r2):
    """find_structure(G, r1, r2), r1 <= r2, unbounded, by a plain recursion
    that counts every node one at a time: the final count, the witness or
    None, and the counts at which each T1 completion and each partner walk
    began.  No leaf masks, no arithmetic counting and no replay."""
    ctx = oracle._SearchContext(G)
    multiset = ctx.abelian
    count = 0
    t1_at, partner_at, memo = [], [], {}

    def walk(r, amask, narrow, complete):
        nonlocal count
        alist = [y for y in range(ctx.n) if (amask >> y) & 1]
        count += 1
        if narrow and not ctx.alphabet_generates(amask) or ctx.need(1) > r:
            return None

        def visit(depth, pi, hmask, pmask, start, entries):
            nonlocal count
            for i in range(start, len(alist)):
                y = alist[i]
                count += 1
                piy = ctx.mul[pi][y]
                h = ctx.extend_closure(hmask, y)
                p = pmask & ctx.compat[y] if narrow else pmask
                if depth + 1 == r - 1:
                    # a leaf: its last entry is forced
                    last = ctx.inv[piy]
                    if not (amask >> last) & 1 or multiset and last < y or h != ctx.full:
                        continue
                    if narrow:
                        p &= ctx.compat[last]
                        if not ctx.alphabet_generates(p):
                            continue
                    res = complete(entries + (y, last), p)
                elif narrow and not ctx.alphabet_generates(p) or ctx.need(h) > r - depth - 1:
                    continue
                else:
                    res = visit(depth + 1, piy, h, p, i if multiset else 0, entries + (y,))
                if res:
                    return res
            return None

        return visit(0, 0, 1, amask, 0, ())

    def complete_t1(t1, pmask):
        t1_at.append(count)
        if pmask not in memo:
            partner_at.append(count)
            memo[pmask] = walk(r2, pmask, False, lambda t2, _: t2)
        return memo[pmask] and (t1, memo[pmask])

    witness = walk(r1, ctx.all_nontrivial, True, complete_t1)
    return count, witness, t1_at, partner_at


# an r = 3 root; stops inside a partner walk; interior levels above the leaf
# parents, with 28 partner walks; and a group without the multiset rule
NODE_LIMIT_SWEEPS = [("C3xC3", (3, 3)), ("C3xC3", (4, 4)), ("C2xC2xC2", (5, 5)), ("d4", (4, 4))]


@pytest.mark.parametrize(
    "spec,size", NODE_LIMIT_SWEEPS, ids=[f"{spec}-{a}-{b}" for spec, (a, b) in NODE_LIMIT_SWEEPS]
)
def test_every_node_limit_stops_where_counting_one_by_one_does(spec, size):
    # a search under node limit L stops at the L-th node of the unbounded
    # search, with the T1 completions and partner walks begun before it, or
    # ends as the unbounded search does when L exceeds its total
    if spec == "d4":
        spec = f"cayley:{bundled_cayley_path(spec)}"
    total, witness, t1_at, partner_at = _find_one_by_one(build_group(spec), *size)
    unbounded = find_structure(build_group(spec), *size, SearchBudget(cap=8))
    S = unbounded.structure
    assert (S and (S.t1.entries, S.t2.entries)) == witness
    assert unbounded.status == ("found" if witness else "none")
    for limit in range(1, total + 2):
        out = find_structure(build_group(spec), *size, SearchBudget(max_candidates=limit, cap=8))
        stats = out.stats
        got = (out.status, stats.candidates, stats.t1_candidates, stats.partner_searches)
        if limit <= total:
            before = lambda at: sum(k < limit for k in at)
            assert got == ("budget", limit, before(t1_at), before(partner_at)), limit
            assert out.structure is None and not stats.exhausted
        else:
            assert got == (unbounded.status, total, len(t1_at), len(partner_at)), limit
            assert (out.structure and out.structure.t1.entries) == (S and S.t1.entries)
            assert (out.structure and out.structure.t2.entries) == (S and S.t2.entries)


def test_groups_freed_by_refcount(monkeypatch):
    # a group, each search's context and its memos must not wait for the
    # cyclic collector: searches on large groups would otherwise pile them up
    contexts = _record_contexts(monkeypatch, weak=True)
    searches = [
        lambda G: size_set_up_to(G, 5),
        lambda G: find_structure(G, 4, 5),
        lambda G: find_structure(G, 7, 7, SearchBudget(max_candidates=500, cap=8)),
        lambda G: enumerate_structures(G, 4, 4, limit=3),
        lambda G: list(enumerate_spherical(G, 3)),
        min_generators,
        lambda G: construct_any(G, 4, 5),
    ]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for search in searches:
            for make in (lambda: AbelianGroup([3, 3]), lambda: HeisenbergGroup(3)):
                G = make()
                ref = weakref.ref(G)
                search(G)
                # freed as the search returned, while the group is still live
                assert all(ctx_ref() is None for ctx_ref in contexts)
                del G
                assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    assert len(contexts) == 10


def test_budget_cap_guard(monkeypatch):
    built = _record_contexts(monkeypatch)
    with pytest.raises(ValueError):
        find_structure(AbelianGroup([2, 2, 2]), 5, 9, SearchBudget(cap=8))
    with pytest.raises(ValueError):
        find_structure(AbelianGroup([2, 2, 2]), 2, 5)
    # every budgeted search refuses sizes past its cap, before it searches
    G, budget = AbelianGroup([3, 3]), SearchBudget(cap=4)
    for search in (
        lambda: find_structure(G, 6, 6, budget),
        lambda: size_set_up_to(G, 7, budget),
        lambda: enumerate_structures(G, 6, 6, 2, budget),
    ):
        with pytest.raises(ValueError, match="budget cap 4"):
            search()
    assert built == []
    # sizes up to the cap are searched
    assert size_set_up_to(G, 4, budget).pairs == {(4, 4)}
    assert len(enumerate_structures(G, 4, 4, 2, budget)[0]) == 2


def test_sizes_past_the_recursion_bound_are_refused(monkeypatch):
    # the walk recurses once per entry and a partner walk runs inside its T1
    # walk, so sizes whose sum leaves less than STACK_RESERVE frames of the
    # recursion limit are refused, before any context is built
    built = _record_contexts(monkeypatch)
    deepest = sys.getrecursionlimit() - oracle.STACK_RESERVE
    G, r2 = AbelianGroup([3, 3]), deepest - 4
    for search in (
        lambda: find_structure(G, 4, r2 + 1, SearchBudget(cap=r2 + 1)),
        lambda: enumerate_structures(G, r2 + 1, 4, 1, SearchBudget(cap=r2 + 1)),
        lambda: size_set_up_to(G, deepest // 2 + 1),
        lambda: enumerate_spherical(G, deepest + 1),
    ):
        with pytest.raises(ValueError, match="recursion limit"):
            search()
    assert built == []
    # just inside the bound, the search answers
    assert find_structure(G, 4, r2, SearchBudget(cap=r2)).status == "found"


def test_enumerate_structures_capped(heis3):
    # the abelian case walks partners as multisets
    for G, size in ((heis3, (4, 4)), (AbelianGroup([2, 2, 2]), (5, 6))):
        structures, stats = enumerate_structures(G, *size, limit=5)
        assert len(structures) == 5
        seen = set()
        for S in structures:
            assert S.size == size
            key = (S.t1.entries, S.t2.entries)
            assert key not in seen
            seen.add(key)
        # determinism: the first witness equals the single-search witness
        first = find_structure(G, *size).structure
        assert structures[0].t1.entries == first.t1.entries
        assert structures[0].t2.entries == first.t2.entries


def test_counters_populated():
    out = find_structure(AbelianGroup([3, 3]), 3, 3)
    assert out.stats.candidates > 0
    assert out.stats.exhausted


def test_search_stats_counters_and_add():
    total = oracle.SearchStats(candidates=5, t1_candidates=2, partner_searches=1, states_replayed=6)
    total.add(
        oracle.SearchStats(candidates=7, t1_candidates=3, partner_searches=4, states_replayed=2)
    )
    assert total.exhausted
    assert list(total.counters().items()) == [
        ("candidates_examined", 12),
        ("t1_candidates", 5),
        ("partner_searches", 5),
        ("states_replayed", 8),
    ]
    total.add(oracle.SearchStats(exhausted=False))
    assert not total.exhausted and total.counters()["candidates_examined"] == 12


def test_counters_pinned():
    def counts(stats):
        return stats.candidates, stats.t1_candidates, stats.partner_searches

    assert counts(find_structure(AbelianGroup([3, 3]), 3, 3).stats) == (45, 0, 0)
    assert counts(find_structure(HeisenbergGroup(3), 4, 5).stats) == (2063, 1, 1)
    assert counts(size_set_up_to(AbelianGroup([3, 3]), 6).stats) == (116, 3, 3)
    _, stats = enumerate_structures(HeisenbergGroup(3), 4, 4, limit=5)
    assert counts(stats) == (2066, 1, 1)


def test_counters_pinned_size_sets():
    # abelian, non-abelian nilpotent and non-nilpotent (s3) groups, each
    # with its partner-alphabet tests
    def counts(G):
        stats = size_set_up_to(G, 6).stats
        return stats.candidates, stats.t1_candidates, stats.partner_searches

    assert counts(AbelianGroup([2, 2, 2, 2])) == (1262, 2, 3)
    assert counts(AbelianGroup([2, 4, 4])) == (71241, 0, 0)
    assert counts(build_group(f"cayley:{bundled_cayley_path('s3')}")) == (284, 0, 0)
    assert counts(build_group(f"cayley:{bundled_cayley_path('q8')}")) == (32, 0, 0)
    assert counts(HeisenbergGroup(3)) == (6951, 3, 5)


def test_counters_pinned_across_partner_walks():
    # 29 T1 candidates run partner walks from inside a leaf loop that then
    # goes on; those walks tick the same tracker as the loop around them
    stats = size_set_up_to(AbelianGroup([2, 2, 2]), 6).stats
    assert (stats.candidates, stats.t1_candidates, stats.partner_searches) == (1550, 29, 30)


# per group: a find, a size set and a capped enumeration (r1, r2, limit)
REPEATED_SEARCHES = {
    "C2xC2xC2": {"find": (5, 5), "sizes": (6,), "enumerate": (5, 6, 5)},
    "heis(3)": {"find": (4, 5), "sizes": (6,), "enumerate": (4, 4, 5)},
}


def _observe(kind, G, args, budget):
    """Status, witnesses and the four counters of one search, with
    exhaustiveness."""
    if kind == "find":
        out = find_structure(G, *args, budget)
        S = out.structure
        found = out.status, S and (S.t1.entries, S.t2.entries)
        stats = out.stats
    elif kind == "sizes":
        result = size_set_up_to(G, *args, budget)
        witnesses = {p: (S.t1.entries, S.t2.entries) for p, S in result.witnesses.items()}
        found = sorted(result.pairs), witnesses
        stats = result.stats
    else:
        structures, stats = enumerate_structures(G, *args, budget)
        found = [(S.t1.entries, S.t2.entries) for S in structures]
    return found, stats.counters(), stats.exhausted


@pytest.mark.parametrize("spec", list(REPEATED_SEARCHES))
def test_repeated_searches_answer_as_fresh_ones(spec):
    # a search repeated on one group object, or run after another search on
    # it without a limit, answers as on a fresh group: no table outlives its
    # search, so on C2xC2xC2 a second (5,5) walks its 1,310 nodes and 28
    # partners again, and under 500 nodes it stops on the budget again
    searches = REPEATED_SEARCHES[spec]
    for limit, c2_cubed_find in ((None, ("none", 1310, 28)), (500, ("budget", 500, 12))):
        budget = SearchBudget(max_candidates=limit or 10**12, cap=8)
        fresh = {k: _observe(k, build_group(spec), a, budget) for k, a in searches.items()}
        if spec == "C2xC2xC2":
            (status, _), counters, _ = fresh["find"]
            got = status, counters["candidates_examined"], counters["partner_searches"]
            assert got == c2_cubed_find
        for kind, args in searches.items():
            G = build_group(spec)
            assert _observe(kind, G, args, budget) == fresh[kind], (kind, limit)
            assert _observe(kind, G, args, budget) == fresh[kind], (kind, limit)
            for other, other_args in searches.items():
                if other != kind:
                    G = build_group(spec)
                    _observe(other, G, other_args, SearchBudget(cap=8))
                    assert _observe(kind, G, args, budget) == fresh[kind], (kind, other, limit)


def test_deadline_polled_inside_leaf_level():
    # a passed deadline stops the walk at the first multiple of 4096 nodes,
    # also where the leaf level counts that node without visiting it
    ctx = oracle._SearchContext(AbelianGroup([2, 4, 4, 4]))
    tracker = oracle._Tracker(SearchBudget(max_millis=1), oracle.SearchStats())
    time.sleep(0.01)
    with pytest.raises(oracle._BudgetStop):
        ctx.walk(5, ctx.all_nontrivial, True, tracker, lambda t, p: None)
    assert tracker.count == 4096


def _count_one_by_one(count, cy, limit, expired):
    """Where counting the nodes count+1..cy one at a time stops: at the limit,
    or at a multiple of 4096 polled once the deadline has passed; None if it
    reaches cy."""
    for n in range(count + 1, cy + 1):
        if n >= limit or expired and not n % 4096:
            return n
    return None


@pytest.mark.parametrize("clock", ["no-deadline", "running", "passed", "passes"])
@pytest.mark.parametrize("limit", [1, 100, 4095, 4096, 4097, 8192, 12_289, 60_000, 10**12])
def test_tracker_reach_matches_counting_one_by_one(monkeypatch, limit, clock):
    # jumps of one node, within a block of 4096, onto a poll and across
    # several polls; the clock is read once per jump, as the walk counts a
    # jump in no time
    now = 0.0
    monkeypatch.setattr(time, "monotonic", lambda: now)
    budget = SearchBudget(max_candidates=limit, max_millis=None if clock == "no-deadline" else 1000)
    tracker = oracle._Tracker(budget, oracle.SearchStats())
    jumps = [1, 1, 4093, 1, 1, 5000, 4096, 3, 12_288, 1, 20_000, 7, 4095, 40_000, 1]
    for k, jump in enumerate(jumps):
        if clock == "passed" or clock == "passes" and k == 5:
            now = 2.0
        count, cy = tracker.count, tracker.count + jump
        expected = _count_one_by_one(count, cy, limit, now > 1.0)
        tracker.count = cy
        if cy < tracker.stop:
            assert expected is None, k
            continue
        try:
            tracker.reach(cy)
        except oracle._BudgetStop:
            assert tracker.count == expected, k
            return
        assert expected is None and tracker.count == cy, k
        assert cy < tracker.stop <= limit
    assert limit == 10**12 and clock in ("no-deadline", "running")


@pytest.mark.parametrize(
    "spec", ["C2xC2xC2xC2", "C2xC4xC4", "C3xC3", "C6xC6", "heis(3)", "q8", "d4", "s3"]
)
def test_alphabet_generates_matches_closure(spec, bfs_closure):
    if spec in ("q8", "d4", "s3"):
        spec = f"cayley:{bundled_cayley_path(spec)}"
    G = build_group(spec)
    ctx = oracle._SearchContext(G)
    rng = random.Random(spec)
    masks = [rng.getrandbits(ctx.n) & ctx.all_nontrivial for _ in range(100)]
    masks += ctx.compat[1:]
    masks += [a & b for a, b in itertools.combinations(masks, 2)]
    for m in masks:
        closed = bfs_closure(G.mul, list(iter_bits(m))) == ctx.full
        assert ctx.alphabet_generates(m) == closed


def test_grid_witnesses_match_single_searches(heis3):
    result = size_set_up_to(AbelianGroup([3, 3]), 6)
    for pair, witness in result.witnesses.items():
        single = find_structure(AbelianGroup([3, 3]), *pair).structure
        assert witness.t1.entries == single.t1.entries
        assert witness.t2.entries == single.t2.entries
    result = size_set_up_to(heis3, 5)
    for pair, witness in result.witnesses.items():
        single = find_structure(heis3, *pair).structure
        assert witness.t1.entries == single.t1.entries
        assert witness.t2.entries == single.t2.entries


@pytest.mark.parametrize(
    "spec", ["C2xC2xC2xC2", "C2xC4xC4", "C6xC6", "C3xC3xC3", "heis(3)", "q8", "s3"]
)
def test_leaf_masks_match_brute_force(spec, bfs_closure, monkeypatch):
    # s3 is not nilpotent, so `need` is only its trivial bound there
    nilpotent = spec != "s3"
    if spec in ("q8", "s3"):
        spec = f"cayley:{bundled_cayley_path(spec)}"
    G = build_group(spec)
    built = _record_contexts(monkeypatch)
    size_set_up_to(G, 5)
    (ctx,) = built
    # the base, the closure of every prefix the walk reached (none in q8,
    # whose partner alphabets are empty), and every 2-generated subgroup
    subgroups = set(ctx.closed_memo) | {ctx.base}
    ext = ctx.extend_closure
    subgroups |= {ext(ext(1, x), y) for x in range(G.order) for y in range(x)}
    # the least number of elements that, adjoined to H, generate G
    fewest = {ctx.full: 0}

    def min_extra(H):
        if H not in fewest:
            fewest[H] = 1 + min(
                min_extra(ext(H, y)) for y in range(G.order) if not (H >> y) & 1
            )
        return fewest[H]

    for H in subgroups:
        if nilpotent:
            assert ctx.need(H) == min_extra(H)
        else:
            assert ctx.need(H) == (0 if H == ctx.full else 1)
        gens = list(iter_bits(H))
        closers = [y for y in range(G.order) if bfs_closure(G.mul, gens + [y]) == ctx.full]
        assert ctx.closed(H) == (H, ctx.need(H), sum(1 << y for y in closers))
    for pi in range(G.order):
        lo = [y for y in range(G.order) if G.inv(G.mul(pi, y)) >= y]
        assert ctx.lo(pi) == sum(1 << y for y in lo)


@pytest.mark.parametrize(
    "spec", ["C2xC2xC2xC2", "C2xC4xC4", "C3xC3", "C6xC6", "heis(3)", "q8", "s3"]
)
def test_forced_last_rows_match_brute_force(spec):
    # slot pi of a walk's forced-last row holds the z in its alphabet A whose
    # forced last entry (pi*z)^-1 lies in A too: every slot that a size set,
    # a spherical enumeration and walks over random alphabets, each to its
    # first completion, fill (q8 has no partner alphabets).  The random
    # alphabets hold more and fewer than |G|/2 elements, so rows are filled
    # from the inverses of A's elements and from those of the others
    if spec in ("q8", "s3"):
        spec = f"cayley:{bundled_cayley_path(spec)}"
    G = build_group(spec)
    fills = []

    def record(frame, event, arg):
        if event == "return" and frame.f_code.co_qualname == "_SearchContext.walk.<locals>.last":
            local = frame.f_locals
            fills.append((local["amask"], local["pi"], local["flip"], arg))

    ctx = oracle._SearchContext(G)
    rng = random.Random(spec)
    draws = [(rng.getrandbits(ctx.n), rng.getrandbits(ctx.n)) for _ in range(8)]
    dense = {ctx.all_nontrivial & (a | b) for a, b in draws}
    sparse = {ctx.all_nontrivial & a & b for a, b in draws}
    sys.setprofile(record)
    try:
        size_set_up_to(G, 5)
        enumerate_spherical(G, 3)
        for A in dense | sparse:
            for r in range(2, 6):
                tracker = oracle._Tracker(SearchBudget(), oracle.SearchStats())
                ctx.walk(r, A, False, tracker, lambda *_: True)
    finally:
        sys.setprofile(None)

    def brute(A, pi):
        return sum(1 << z for z in iter_bits(A) if (A >> G.inv(G.mul(pi, z))) & 1)

    assert fills
    for A, pi, _, slot in fills:
        assert slot == brute(A, pi)
    assert {flip for A, _, flip, _ in fills if A in dense | sparse} == {False, True}


def test_compat_buckets_match_pairwise_definition(table_groups):
    # compat, read off prime-order subgroup buckets, is the pairwise
    # definition: nontrivial y whose conjugate cyclic set meets that of x
    # only in the identity
    for G in table_groups:
        name = G.describe()
        n = G.order
        ctx = oracle._SearchContext(G)
        cyc = ctx.cyc
        pairwise = [0] * n
        for x in range(1, n):
            for y in range(1, n):
                if cyc[x] & cyc[y] == 1:
                    pairwise[x] |= 1 << y
        assert ctx.compat == pairwise, name


def test_extend_closure_matches_breadth_first(closure_groups, bfs_closure):
    # <H, y> by the coset step equals the breadth-first closure of H's
    # generators and y, for closed H reached from {1} and from the base
    for i, G in enumerate(closure_groups):
        name = G.describe()
        ctx = oracle._SearchContext(G)
        rng = random.Random(i)
        for start in (1, ctx.base):
            H = start
            for _ in range(6):
                y = rng.randrange(G.order)
                gens = ctx.gens_for[H]
                assert bfs_closure(G.mul, gens) == H, name
                K = ctx.extend_closure(H, y)
                assert K == bfs_closure(G.mul, gens + (y,)), name
                H = K if K != ctx.full else start


def test_walks_start_from_the_frattini_subgroup(closure_groups):
    for G in closure_groups:
        name = G.describe()
        ctx = oracle._SearchContext(G)
        expected = 1 if name.endswith("s3.json") else frattini(G).mask
        assert ctx.base == expected, name
    assert sum(G.describe().endswith("s3.json") for G in closure_groups) == 1


@pytest.mark.parametrize("narrow", [False, True], ids=["plain", "narrow"])
@pytest.mark.parametrize("multiset", [False, True], ids=["tuples", "multisets"])
def test_walk_counts_one_node_per_prefix(walk_nodes, multiset, narrow):
    # the leaf masks, the leaf parents counted in their parent's loop and the
    # replay table all count arithmetically; a plain recursion counts one by one
    for spec in SMALL_SPECS:
        ctx = oracle._SearchContext(build_group(spec))
        alphabets = [ctx.all_nontrivial]
        if not narrow:
            # a partner walk's alphabet, with gaps
            alphabets.append(ctx.compat[ctx.n - 1])
        for amask in alphabets:
            for r in range(2, 6):
                tracker = oracle._Tracker(SearchBudget(), oracle.SearchStats())
                ctx.walk(r, amask, multiset, tracker, lambda *_: None, narrow=narrow)
                expected = walk_nodes(ctx, r, amask, multiset, narrow)
                assert tracker.count == expected, (spec, amask, r)


def test_walk_calls_once_per_interior_prefix_and_open_leaf_parent():
    # a leaf parent none of whose leaves can complete is counted in its
    # parent's loop without a call; calling each one made 7,086 calls here.
    # The 1,564 prefixes called are split by level: `parents` takes those
    # whose children are leaf parents, `rec` those above them.  Only the
    # level loops are counted, not the walk's other nested code
    levels = {"rec", "parents", "leaves"}
    G = build_group("C2xC4xC4")
    calls = Counter()

    def count_calls(frame, event, arg):
        scope, _, name = frame.f_code.co_qualname.rpartition(".")
        if event == "call" and scope == "_SearchContext.walk.<locals>" and name in levels:
            calls[name] += 1

    sys.setprofile(count_calls)
    try:
        result = size_set_up_to(G, 6)
    finally:
        sys.setprofile(None)
    assert result.stats.candidates == 71_241
    assert calls == {"rec": 318, "parents": 1_246, "leaves": 1_040}


def test_refuted_alphabets_skip_emit_and_open_no_dead_leaf_parent(monkeypatch):
    # C4xC4xC4 at cap 7 completes 64,514 T1 tuples on 30 partner alphabets:
    # `emit` runs once per row and alphabet (it ran 64,514 times when every
    # completion was emitted), and a partner walk calls `leaves` only where a
    # leaf completes, so only in its 2 walks that find a partner (it made
    # 16,852 calls when the forced last entry was tested per leaf)
    walk, partner = oracle._SearchContext.walk, oracle._SearchContext.partner
    emitted = Counter()
    inside, leaves_in_partners, found = 0, 0, 0

    def counted_walk(self, r, amask, multiset, tracker, emit, **kwargs):
        if kwargs.get("narrow"):
            t1_emit = emit

            def emit(t1, pmask):
                emitted[r, pmask] += 1
                return t1_emit(t1, pmask)

        return walk(self, r, amask, multiset, tracker, emit, **kwargs)

    def counted_partner(self, *args):
        nonlocal inside, found
        inside += 1
        try:
            res = partner(self, *args)
        finally:
            inside -= 1
        found += res is not None
        return res

    def count_leaves(frame, event, arg):
        nonlocal leaves_in_partners
        if event == "call" and inside and frame.f_code.co_qualname.endswith(".<locals>.leaves"):
            leaves_in_partners += 1

    monkeypatch.setattr(oracle._SearchContext, "walk", counted_walk)
    monkeypatch.setattr(oracle._SearchContext, "partner", counted_partner)
    sys.setprofile(count_leaves)
    try:
        result = size_set_up_to(AbelianGroup([4, 4, 4]), 7)
    finally:
        sys.setprofile(None)
    stats = result.stats
    assert result.pairs == {(5, 6), (5, 7), (6, 6), (6, 7), (7, 7)} and result.exhaustive
    assert (stats.candidates, stats.t1_candidates, stats.partner_searches) == (1_700_620, 64_514, 30)
    assert set(emitted.values()) == {1} and len(emitted) == 30
    assert found == 2 and leaves_in_partners == found


# size sets under a partner memo bound of PARTNER_ENTRIES, and their counters
# as the walk that emitted every completion counted them under that bound:
# a clear forgets the refuted alphabets with the memo, so a lost refutation
# is walked again
PARTNER_BOUND_COUNTS = [
    ("C2xC2xC2", 6, 0, (1_550, 29, 30)),
    ("heis(3)", 6, 0, (6_951, 3, 5)),
    ("C3xC3", 6, 0, (133, 3, 5)),
    ("C4xC4xC4", 7, 28, (2_556_830, 64_514, 59)),
]


@pytest.mark.parametrize("spec, cap, bound, counts", PARTNER_BOUND_COUNTS)
def test_partner_memo_clear_forgets_refuted_alphabets(monkeypatch, spec, cap, bound, counts):
    unbounded = size_set_up_to(build_group(spec), cap)
    monkeypatch.setattr(oracle, "PARTNER_ENTRIES", bound)
    result = size_set_up_to(build_group(spec), cap)
    stats = result.stats
    assert (stats.candidates, stats.t1_candidates, stats.partner_searches) == counts
    assert result.pairs == unbounded.pairs and result.exhaustive
    assert stats.states_replayed == 0


def test_walk_closures_stay_few_on_c4_cubed(monkeypatch):
    # walking HPhi instead of H merges the prefixes' closures; closing them
    # from {1} left 4,130 memoized extensions here
    built = _record_contexts(monkeypatch)
    size_set_up_to(AbelianGroup([4, 4, 4]), 7)
    (ctx,) = built
    assert len(ctx.ext_memo) < 1000


# -- the walk's row tables ----------------------------------------------------


def test_row_slots_match_their_definitions(monkeypatch):
    built = _record_contexts(monkeypatch)
    filled = 0
    for entry in builtin_catalog(16):
        size_set_up_to(build_group(entry.spec), 5)
        (ctx,) = built
        built.clear()
        for H, row in ctx.step_rows.items():
            for y, slot in enumerate(row):
                if slot is not None:
                    h = ctx.extend_closure(H, y)
                    assert slot == (h, ctx.need(h), ctx.closed(h)[2])
                    # every slot that reaches h shares its one record
                    assert slot is ctx.closed_memo[h]
                    filled += 1
        for P, row in ctx.alpha_rows.items():
            for y, slot in enumerate(row):
                if slot is not None:
                    q = P & ctx.compat[y]
                    assert slot == (q if ctx.alphabet_generates(q) else 0)
                    filled += 1
    assert filled > 1000


@pytest.mark.parametrize("spec", ["C2xC4xC4", "C2xC2xC2xC4"])
def test_row_tables_keep_to_their_bound(spec, monkeypatch):
    # a table is cleared before it would pass ROW_SLOTS; walks over the
    # cleared tables (and over rows a clear detached) find the same answers
    def run():
        result = size_set_up_to(build_group(spec), 6)
        witnesses = {p: (S.t1.entries, S.t2.entries) for p, S in result.witnesses.items()}
        return sorted(result.pairs), witnesses, result.stats.counters(), result.exhaustive

    unbounded = run()
    largest, made = 0, 0
    missing = oracle._Rows.__missing__

    def watched(self, key):
        nonlocal largest, made
        row = missing(self, key)
        largest, made = max(largest, len(self)), made + 1
        return row

    monkeypatch.setattr(oracle, "ROW_SLOTS", 3 * build_group(spec).order)
    monkeypatch.setattr(oracle._Rows, "__missing__", watched)
    assert run() == unbounded
    assert largest == 3
    assert made > 100


@pytest.mark.parametrize("spec", ["C2xC4xC4", "C6xC6"])
def test_caches_keep_to_the_one_bound(spec, monkeypatch):
    # the per-closure records and the alphabet answers share the rows' bound:
    # at 3 rows' worth of slots no table keeps more than 3 entries, and the
    # walk finds the same answers as with the tables unbounded
    built = _record_contexts(monkeypatch)

    def run():
        result = size_set_up_to(build_group(spec), 6)
        witnesses = {p: (S.t1.entries, S.t2.entries) for p, S in result.witnesses.items()}
        (ctx,) = built
        built.clear()
        tables = (ctx.step_rows, ctx.alpha_rows, ctx.closed_memo, ctx.alpha_gen_memo)
        answers = sorted(result.pairs), witnesses, result.stats.counters(), result.exhaustive
        return [len(t) for t in tables], answers

    sizes, unbounded = run()
    assert min(sizes) > 3
    monkeypatch.setattr(oracle, "ROW_SLOTS", 3 * build_group(spec).order)
    sizes, bounded = run()
    assert bounded == unbounded
    assert all(0 < size <= 3 for size in sizes)


def test_walk_rows_stay_few_on_c4_cubed(monkeypatch):
    # C4xC4xC4 at cap 7 reaches 15 closures and 92 partner alphabets
    built = _record_contexts(monkeypatch)
    size_set_up_to(AbelianGroup([4, 4, 4]), 7)
    (ctx,) = built
    assert len(ctx.step_rows) <= 15
    assert len(ctx.alpha_rows) < 200


@pytest.mark.parametrize("spec", ["x".join(["C2"] * 9), "C8xC8xC8", "heis(7)"])
def test_context_build_reads_the_group_arithmetic(spec, monkeypatch):
    # the build reads the table from the group's arithmetic, not |G|^2 calls
    G = build_group(spec)
    calls = 0
    mul = type(G).mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(type(G), "mul", counted)
    oracle._SearchContext(G)
    assert calls < G.order**2 // 8


def test_budget_answers_from_the_need_bound_on_c2_9():
    # C2^9 needs 9 generators, so (5,5) is refuted at the root: the context
    # build must leave the 1000 ms budget room to say so
    G = AbelianGroup([2] * 9)
    out = find_structure(G, 5, 5, SearchBudget(max_millis=1000, cap=5))
    assert out.status == "none"
    assert out.stats.exhausted


# -- replay of repeated walk states ------------------------------------------

# the catalog groups and prod(heis(3),C2) at cap 5, and C2xC2xC2 at cap 7,
# whose T1 walk holds completions next to the subtrees it replays
REPLAY_SIZE_SETS = [(entry.spec, 5) for entry in builtin_catalog(32)]
REPLAY_SIZE_SETS += [("prod(heis(3),C2)", 5), ("C2xC2xC2", 7)]
# single searches and node limits; the dense run on C2xC2xC2 (7,7) stops
# inside replayed subtrees and inside subtrees that hold T1 completions
REPLAY_FINDS = [
    ("C2xC2xC2", (7, 7), [*range(1, 1650, 47), *range(1650, 2100, 2), 3984, 3985, 3986]),
    ("C2xC4xC4", (6, 6), list(range(1, 53300, 991))),
    ("prod(heis(3),C2)", (5, 5), [250_007, 694_036, 694_037]),
]


def _without_repeats(monkeypatch):
    """Make every walk run without its repeat table."""
    walk = oracle._SearchContext.walk

    def plain(self, *args, **kwargs):
        return walk(self, *args, **{**kwargs, "repeats": False})

    monkeypatch.setattr(oracle._SearchContext, "walk", plain)


def _forgetful_partners(monkeypatch):
    """Clear the partner memo before and after every partner search, as its
    size limit does (with the refuted alphabets read off it, the set that
    `partner` is given), so that no lookup hits it: no replay may depend on
    what the memo holds."""
    partner = oracle._SearchContext.partner

    def forgetful(self, amask, r2, tracker, refuted):
        self.partner_memo.clear()
        refuted.clear()
        try:
            return partner(self, amask, r2, tracker, refuted)
        finally:
            self.partner_memo.clear()
            refuted.clear()

    monkeypatch.setattr(oracle._SearchContext, "partner", forgetful)


def _replay_runs(monkeypatch, forgetful, run):
    """`run()` with the repeat table, then without it, each on fresh groups;
    and the number of states the first replayed."""
    with monkeypatch.context() as m:
        if forgetful:
            _forgetful_partners(m)
        with_table, replayed = run()
        _without_repeats(m)
        plain, none_replayed = run()
    assert none_replayed == 0
    return with_table, plain, replayed


def _counts(stats):
    return stats.candidates, stats.t1_candidates, stats.partner_searches, stats.exhausted


@pytest.mark.parametrize("forgetful", [False, True])
def test_replay_keeps_size_sets_witnesses_and_counters(monkeypatch, forgetful):
    def run():
        out, replayed = {}, 0
        for spec, cap in REPLAY_SIZE_SETS:
            result = size_set_up_to(build_group(spec), cap)
            witnesses = {p: (S.t1.entries, S.t2.entries) for p, S in result.witnesses.items()}
            out[spec, cap] = (sorted(result.pairs), witnesses, _counts(result.stats))
            replayed += result.stats.states_replayed
        return out, replayed

    with_table, plain, replayed = _replay_runs(monkeypatch, forgetful, run)
    assert with_table == plain
    assert replayed > 500


@pytest.mark.parametrize("forgetful", [False, True])
def test_replay_keeps_budget_stops(monkeypatch, forgetful):
    def run():
        out, replayed = {}, 0
        for spec, size, limits in REPLAY_FINDS:
            for n in limits:
                budget = SearchBudget(max_candidates=n, cap=8)
                found = find_structure(build_group(spec), *size, budget)
                S = found.structure
                witness = S and (S.t1.entries, S.t2.entries)
                out[spec, n] = (found.status, witness, _counts(found.stats))
                replayed += found.stats.states_replayed
        return out, replayed

    with_table, plain, replayed = _replay_runs(monkeypatch, forgetful, run)
    assert with_table == plain
    assert replayed > 1000


def test_replay_finds_stop_at_the_first_poll_past_the_deadline(monkeypatch):
    # a clock that expires at the first count stored at or past T, for each
    # multiple T of 4096 below 65,536 and below the search's own total: it
    # must be read at that very store, and the search stops at T exactly as a
    # node limit of T does, with and without the repeat table.  On C2xC4xC4
    # these stops fall at an interior child, an empty leaf parent, a replayed
    # state, a visited leaf and (without the table) the leaf tail.  A jump
    # reads the clock once, at its end, so with T inside a block a jump that
    # crosses the block's poll and reaches T stops at that poll, before T.
    live = []
    deadline_at = 0
    slot = oracle._Tracker.count

    class FakeClockTracker(oracle._Tracker):
        __slots__ = ("reached",)

        def __init__(self, *args):
            live.clear()
            self.reached = None
            super().__init__(*args)
            live.append(self)

        @property
        def count(self):
            return slot.__get__(self)

        @count.setter
        def count(self, value):
            if self.reached is None and value >= deadline_at:
                self.reached = value
            slot.__set__(self, value)

    def clock():
        if not live or live[0].reached is None:
            return 0.0
        assert live[0].count == live[0].reached, "the clock was read late"
        return 1.0

    monkeypatch.setattr(oracle, "_Tracker", FakeClockTracker)
    monkeypatch.setattr(time, "monotonic", clock)

    def run():
        nonlocal deadline_at
        out, replayed = {}, 0
        for spec, size, _ in REPLAY_FINDS:
            deadline_at = 10**12
            total = find_structure(build_group(spec), *size, SearchBudget(cap=8)).stats.candidates
            for deadline_at in range(4096, min(total, 65_536), 4096):
                timed = find_structure(build_group(spec), *size, SearchBudget(max_millis=1, cap=8))
                limited = find_structure(
                    build_group(spec), *size, SearchBudget(max_candidates=deadline_at, cap=8)
                )
                assert timed.status == "budget", (spec, deadline_at)
                assert _counts(timed.stats) == _counts(limited.stats), (spec, deadline_at)
                assert timed.stats.candidates == deadline_at
                out[spec, deadline_at] = _counts(timed.stats)
                replayed += timed.stats.states_replayed
        return out, replayed

    with_table, plain, replayed = _replay_runs(monkeypatch, False, run)
    assert with_table == plain
    assert len(with_table) == 13 + 15
    assert replayed > 1000


# capped enumerations (limit 3) that refute their size, replaying 978
# states between them
REPLAY_ENUMERATIONS = [
    ("C2xC2xC2", (7, 7)),
    ("C4xC8", (6, 6)),
    ("prod(heis(3),C2)", (5, 5)),
]


def test_replay_keeps_enumerations(monkeypatch):
    def run():
        out, replayed = {}, 0
        for spec, size in REPLAY_ENUMERATIONS:
            structures, stats = enumerate_structures(build_group(spec), *size, limit=3)
            entries = [(S.t1.entries, S.t2.entries) for S in structures]
            out[spec, size] = (entries, _counts(stats))
            replayed += stats.states_replayed
        for spec in ("C2xC2xC2xC2", "C3xC3xC3"):
            out[spec, 5] = [T.entries for T in enumerate_spherical(build_group(spec), 5)]
        return out, replayed

    with_table, plain, replayed = _replay_runs(monkeypatch, False, run)
    assert with_table == plain
    assert replayed > 900


def test_replay_pinned_on_prod_heis3_c2():
    # the non-abelian refutation the replay table is for: exact counts,
    # with 3,437 subtrees replayed rather than walked
    result = size_set_up_to(build_group("prod(heis(3),C2)"), 6)
    assert result.pairs == set() and result.exhaustive
    stats = result.stats
    assert (stats.candidates, stats.t1_candidates, stats.partner_searches) == (11_908_892, 0, 0)
    assert stats.states_replayed == 3437
