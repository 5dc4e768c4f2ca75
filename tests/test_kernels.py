from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowpoly import kernels
from chowpoly.combinat import perm_descent_aggregates
from chowpoly.schubert import _id_order_ranks
from tests.oracles import (
    brute_loops_and_cogirth,
    brute_perm_descent_aggregates,
    brute_rank_fingerprint,
    brute_relabel,
)


def _k_subset_masks(n: int, k: int) -> list[int]:
    return [sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), k)]


def _fingerprints(table, colls, n: int, k: int) -> np.ndarray:
    # one kernel call per collection of k-subset masks, rows concatenated
    masks = _k_subset_masks(n, k)
    ranks = [[masks.index(m) for m in c] for c in colls]
    return np.concatenate([kernels.census_fingerprints(table, r, n, k) for r in ranks])


def test_relabel_table_roundtrip():
    n, k = 4, 2
    perms = kernels.perm_table(n)
    table = kernels.relabel_table(perms, n, k)
    assert table.shape == (6, 24)
    # the identity permutation is the first lexicographic row; k-subsets in
    # combinations order: 12, 13, 14, 23, 24, 34
    assert list(table[:, 0]) == list(range(6))
    # relabeling by (2,1,3,4) swaps 1 and 2: 13 -> 23, 24 -> 14
    col = perms.tolist().index([2, 1, 3, 4])
    assert list(table[:, col]) == [0, 3, 4, 1, 2, 5]
    # every entry against the relabeled mask, for every rank
    for rank in range(n + 1):
        masks = _k_subset_masks(n, rank)
        table = kernels.relabel_table(perms, n, rank)
        for p, perm in enumerate(perms.tolist()):
            assert [masks[r] for r in table[:, p]] == [brute_relabel(m, perm) for m in masks]


def test_fingerprints_batched_and_streamed_agree():
    # deduplicating each index set's block and then merging the survivors,
    # as census does, keeps exactly np.unique's rows of the whole rank
    n = 5
    perms = kernels.perm_table(n)
    per_set = perms.shape[0]
    for k in range(1, n + 1):
        table = kernels.relabel_table(perms, n, k)
        blocks = [
            kernels.census_fingerprints(table, _id_order_ranks(n, idx), n, k)
            for idx in combinations(range(1, n + 1), k)
        ]
        batched = np.concatenate(blocks)
        assert np.array_equal(kernels.distinct_rows(batched), np.unique(batched, axis=0))
        streamed = kernels.distinct_rows(
            np.concatenate([kernels.distinct_rows(b) for b in blocks])
        )
        assert np.array_equal(streamed, np.unique(batched, axis=0))
        assert batched.shape[0] == len(blocks) * per_set


def test_fingerprint_words():
    # one word per rank up to n = 7; at n = 8 only C(8, 4) = 70 needs two
    for n in range(1, 8):
        assert [kernels.fingerprint_words(n, k) for k in range(n + 1)] == [1] * (n + 1)
    assert [kernels.fingerprint_words(8, k) for k in range(9)] == [1] * 4 + [2] + [1] * 4
    assert kernels.fingerprint_words(9, 4) == 2  # C(9, 4) = 126


def test_rank0_fingerprint_classifies_as_no_hitting_set():
    rows = np.ones((1, 1), dtype=np.uint64)  # only the empty set is a basis
    loops, cogirths = kernels.classify_fingerprints(rows, 4, 0)
    assert loops[0] == 4 and cogirths[0] == -1


def test_second_word_fingerprints_at_rank_four_of_eight():
    # collections on n = 8, k = 4 that differ only in k-subsets of rank >= 64,
    # the bits of the second word
    n, k = 8, 4
    masks = _k_subset_masks(n, k)
    low = masks[:10]
    colls = [low] + [low + [masks[r]] for r in range(64, 70)] + [low + masks[64:]]
    perms = [tuple(range(1, n + 1)), (8, 7, 6, 5, 4, 3, 2, 1), (2, 5, 8, 3, 6, 1, 4, 7)]
    table = kernels.relabel_table(np.array(perms, dtype=np.uint8), n, k)
    rows = _fingerprints(table, colls, n, k)
    assert rows.shape == (len(colls) * len(perms), 2)
    r = 0
    for coll in colls:
        for perm in perms:
            image = {brute_relabel(m, perm) for m in coll}
            assert rows[r].tolist() == brute_rank_fingerprint(image, n, k)
            r += 1
    # under the identity the collections stay apart only through word 2
    identity = rows[:: len(perms)]
    assert len(set(identity[:, 0].tolist())) == 1
    assert kernels.distinct_rows(identity).shape == (len(colls), 2)
    assert kernels.distinct_rows(rows).shape[0] == len({tuple(x) for x in rows.tolist()})
    loops, cogirths = kernels.classify_fingerprints(identity, n, k)
    for i, coll in enumerate(colls):
        assert (loops[i], cogirths[i]) == brute_loops_and_cogirth(coll, n), coll


def test_perm_scan_empty_and_tiny():
    assert perm_descent_aggregates(1, [0, 7], False) == [7, 0]
    assert perm_descent_aggregates(2, [0, 3, 5], True) == [5, 0, 0]
    assert perm_descent_aggregates(2, [0, 3, 5], False) == [5, 3, 0]
    with pytest.raises(ValueError):
        perm_descent_aggregates(0, [0], False)


@pytest.mark.parametrize("first_ascent_required", [False, True])
def test_perm_dp_matches_brute_force_oracle(first_ascent_required):
    # the insertion DP against the definition, with the binomial weights of
    # gamma_perm (n = k + 3) and with weights above 2^63
    for k in range(1, 9):
        weight_sets = [
            [0] + [comb(k + 3 - t, k - t) for t in range(1, k + 1)],
            [0] + [2**64 + 7**t for t in range(1, k + 1)],
        ]
        for binoms in weight_sets:
            expected = brute_perm_descent_aggregates(k, binoms, first_ascent_required)
            assert (
                perm_descent_aggregates(k, binoms, first_ascent_required)
                == expected
            )


@st.composite
def perm_weight_cases(draw):
    k = draw(st.integers(1, 7))
    small_or_wide = st.one_of(st.integers(0, 1000), st.integers(2**64, 2**80))
    weights = draw(st.lists(small_or_wide, min_size=k + 1, max_size=k + 1))
    return k, weights, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(perm_weight_cases())
def test_perm_dp_matches_brute_force_oracle_random(case):
    k, weights, first_ascent_required = case
    assert perm_descent_aggregates(
        k, weights, first_ascent_required
    ) == brute_perm_descent_aggregates(k, weights, first_ascent_required)


@st.composite
def basis_collections(draw):
    """A ground size n <= 7, a rank k, some permutations of {1..n}, and
    collections of k-subset masks that always include a repeated collection
    (at k = 0 every collection is the rank-0 collection {empty set})."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    masks = _k_subset_masks(n, k)
    perms = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=3))
    collection = st.frozensets(st.sampled_from(masks), min_size=1, max_size=10)
    colls = draw(st.lists(collection, min_size=1, max_size=5))
    colls = colls + [colls[0]]
    return n, k, perms, [sorted(c) for c in colls]


@settings(max_examples=80, deadline=None)
@given(basis_collections())
def test_census_fingerprints_match_brute_oracle(case):
    n, k, perms, colls = case
    table = kernels.relabel_table(np.array(perms, dtype=np.uint8), n, k)
    rows = _fingerprints(table, colls, n, k)
    assert rows.shape == (len(colls) * len(perms), kernels.fingerprint_words(n, k))
    r = 0
    for coll in colls:
        for perm in perms:
            image = {brute_relabel(m, perm) for m in coll}
            assert rows[r].tolist() == brute_rank_fingerprint(image, n, k)
            r += 1


@settings(max_examples=80, deadline=None)
@given(basis_collections())
def test_classify_fingerprints_matches_brute_oracle(case):
    n, k, _, colls = case
    rows = np.array([brute_rank_fingerprint(c, n, k) for c in colls], dtype=np.uint64)
    loops, cogirths = kernels.classify_fingerprints(rows, n, k)
    for i, coll in enumerate(colls):
        assert (loops[i], cogirths[i]) == brute_loops_and_cogirth(coll, n), coll


@settings(max_examples=80, deadline=None)
@given(basis_collections())
def test_distinct_rows_is_exact_dedupe(case):
    n, k, _, colls = case
    rows = np.array([brute_rank_fingerprint(c, n, k) for c in colls], dtype=np.uint64)
    # one-word rows, and two-word rows for the lexsort path, each with added
    # rows that differ from others in one word only
    for block in (rows, np.concatenate([rows, rows[:, ::-1]], axis=1)):
        for w in range(block.shape[1]):
            variant = block.copy()
            variant[:, w] ^= np.uint64(1 << 63)
            block = np.concatenate([block, variant])
        distinct = kernels.distinct_rows(block)
        assert sorted(map(tuple, distinct.tolist())) == sorted(set(map(tuple, block.tolist())))
