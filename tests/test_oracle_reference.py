"""Cross-check the optimized search against a naive reference implementation.

The reference enumerates full ordered tuples with no pruning beyond the
forced last entry, computes disjointness from first principles, and decides
each size pair by a double loop. Slow, but independent of every search-side
reduction (alphabet filtering, feasibility bounds, multiset enumeration), so
any unsound pruning would show up here as a missing or extra pair.
"""

import itertools

import pytest

from ramstruct.groups import AbelianGroup
from ramstruct.oracle import enumerate_spherical, size_set_up_to
from ramstruct.parsing import load_cayley_file
from ramstruct.structures import GenTuple, sigma


def naive_spherical(G, r):
    n = G.order
    full = (1 << n) - 1
    out = []
    for prefix in itertools.product(range(1, n), repeat=r - 1):
        pi = 0
        for g in prefix:
            pi = G.mul(pi, g)
        last = G.inv(pi)
        if last == 0:
            continue
        entries = prefix + (last,)
        if G.closure_mask(entries) == full:
            out.append(entries)
    return out


def naive_pairs(G, cap):
    tuples_by_r = {r: naive_spherical(G, r) for r in range(3, cap + 1)}
    sig_cache = {}

    def sigma_mask(t):
        if t not in sig_cache:
            sig_cache[t] = sigma(G, GenTuple(G, t)).mask
        return sig_cache[t]

    pairs = set()
    for r1 in range(3, cap + 1):
        for r2 in range(r1, cap + 1):
            if any(
                sigma_mask(t1) & sigma_mask(t2) == 1
                for t1 in tuples_by_r[r1]
                for t2 in tuples_by_r[r2]
            ):
                pairs.add((r1, r2))
    return pairs


@pytest.mark.parametrize(
    "orders,cap",
    [
        ([2, 2], 5),
        ([5], 4),
        ([4, 2], 5),
        ([3, 3], 5),
        ([2, 2, 2], 5),
        ([9], 5),
        ([2, 3, 3], 4),
    ],
)
def test_size_sets_match_reference_abelian(orders, cap):
    G = AbelianGroup(orders)
    result = size_set_up_to(G, cap)
    assert result.exhaustive
    assert result.pairs == naive_pairs(G, cap)


@pytest.mark.parametrize("name,cap", [("s3", 5), ("q8", 5), ("d4", 4)])
def test_size_sets_match_reference_nonabelian(name, cap):
    from ramstruct.catalog import bundled_cayley_path

    G = load_cayley_file(str(bundled_cayley_path(name)))
    result = size_set_up_to(G, cap)
    assert result.exhaustive
    assert result.pairs == naive_pairs(G, cap)


@pytest.mark.parametrize(
    "orders,r",
    [([2, 2], 3), ([3, 3], 3), ([2, 2, 2], 4), ([6], 3), ([4, 2], 4)],
)
def test_spherical_stream_matches_reference(orders, r):
    G = AbelianGroup(orders)
    got = [T.entries for T in enumerate_spherical(G, r)]
    assert got == naive_spherical(G, r)


def test_spherical_stream_matches_reference_nonabelian(s3, heis3):
    got = [T.entries for T in enumerate_spherical(s3, 3)]
    assert got == naive_spherical(s3, 3)
    got = [T.entries for T in enumerate_spherical(heis3, 3)]
    assert got == naive_spherical(heis3, 3)
