from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowpoly import SchubertSpec, census, kernels, schubert_matroid
from tests.oracles import (
    _id_order_ranks,
    brute_loops_and_cogirth,
    brute_rank_fingerprint,
    brute_relabel,
)


def _k_subset_masks(n: int, k: int) -> list[int]:
    return [sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), k)]


def _schubert_fingerprint(n: int, idx, perm) -> list[int]:
    # the census pair (I, p) is the Schubert matroid of p(I) in the order p,
    # built from the definition in chowpoly.schubert, not from the kernels
    image = tuple(sorted(perm[e - 1] for e in idx))
    bases = schubert_matroid(SchubertSpec(n, image, tuple(perm)), validate=False).bases
    return brute_rank_fingerprint(bases, n, len(idx))


def _block_rows(perms, n: int, k: int) -> np.ndarray:
    table = kernels.relabel_table(np.array(perms, dtype=np.uint8).reshape(-1, n), n, k)
    return kernels.census_fingerprints(table, n, k)


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
    # fingerprinting in blocks of permutations, prefiltering each index set's
    # run, deduplicating each block and then merging the survivors, as census
    # does, keeps exactly np.unique's rows of the whole rank, in every block
    # size; the rows of a block are the matching slices of the whole sweep
    n = 5
    perms = kernels.perm_table(n)
    nperms = perms.shape[0]
    for k in range(1, n + 1):
        size = comb(n, k)
        batched = _block_rows(perms, n, k)
        assert batched.shape[0] == size * nperms
        expected = np.unique(batched, axis=0)
        assert np.array_equal(kernels.distinct_rows(batched), expected)
        for block in (6, 24, nperms):
            survivors = []
            for start in range(0, nperms, block):
                block_perms = perms[start : start + block]
                rows = _block_rows(block_perms, n, k)
                assert rows.shape[0] == size * block
                for i in range(size):
                    whole = batched[i * nperms + start : i * nperms + start + block]
                    assert np.array_equal(rows[i * block : (i + 1) * block], whole)
                survivors.append(kernels.block_distinct_rows(block_perms, n, k))
            streamed = kernels.distinct_rows(np.concatenate(survivors))
            assert np.array_equal(streamed, expected), (k, block)


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
    # at n = 8, k = 4 the index sets 64..69 have every basis at a k-subset of
    # rank >= 64, in the second word, so under the identity their rows agree
    # on word 0 and differ only in word 1
    n, k = 8, 4
    perms = [tuple(range(1, n + 1)), (8, 7, 6, 5, 4, 3, 2, 1), (2, 5, 8, 3, 6, 1, 4, 7)]
    rows = _block_rows(perms, n, k)
    assert rows.shape == (comb(n, k) * len(perms), 2)
    subsets = list(combinations(range(1, n + 1), k))
    for i, idx in enumerate(subsets):
        for p, perm in enumerate(perms):
            row = rows[i * len(perms) + p].tolist()
            assert row == _schubert_fingerprint(n, idx, perm), (idx, perm)
    high = rows[64 * len(perms) :: len(perms)]  # identity rows of sets 64..69
    assert high.shape == (6, 2)
    assert set(high[:, 0].tolist()) == {0}
    assert kernels.distinct_rows(high).shape == (6, 2)
    assert kernels.distinct_rows(rows).shape[0] == len({tuple(x) for x in rows.tolist()})
    # as one run they differ only in word 1, at offsets 1 and 2: none repeats
    assert kernels.prefilter_mask(high, 6).all()
    loops, cogirths = kernels.classify_fingerprints(high, n, k)
    for j, idx in enumerate(subsets[64:]):
        bases = schubert_matroid(SchubertSpec(n, idx, perms[0])).bases
        assert (loops[j], cogirths[j]) == brute_loops_and_cogirth(bases, n), idx


@st.composite
def basis_collections(draw):
    """A ground size n <= 7, a rank k, and collections of k-subset masks that
    always include a repeated collection (at k = 0 every collection is the
    rank-0 collection {empty set})."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    masks = _k_subset_masks(n, k)
    collection = st.frozensets(st.sampled_from(masks), min_size=1, max_size=10)
    colls = draw(st.lists(collection, min_size=1, max_size=5))
    colls = colls + [colls[0]]
    return n, k, [sorted(c) for c in colls]


@st.composite
def census_pairs(draw):
    """A ground size of 7 or 8, a rank, a block of permutations and some
    positions (index set, permutation) in it."""
    n = draw(st.sampled_from([7, 8]))
    k = draw(st.integers(1, n))
    perms = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=3))
    pairs = st.tuples(st.integers(0, comb(n, k) - 1), st.integers(0, len(perms) - 1))
    return n, k, perms, draw(st.lists(pairs, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(census_pairs())
@example((8, 4, [(2, 5, 8, 3, 6, 1, 4, 7)], [(0, 0), (35, 0), (69, 0)]))
def test_census_fingerprints_match_brute_oracle(case):
    n, k, perms, pairs = case
    rows = _block_rows(perms, n, k)
    assert rows.shape == (comb(n, k) * len(perms), kernels.fingerprint_words(n, k))
    subsets = list(combinations(range(1, n + 1), k))
    for i, p in pairs:
        row = rows[i * len(perms) + p].tolist()
        idx, perm = subsets[i], perms[p]
        assert row == _schubert_fingerprint(n, idx, perm), (idx, perm)


def test_block_fingerprints_match_schubert_bases_exhaustively():
    # every (index set, permutation) row for n <= 6, against the bases of
    # schubert_matroid, which shares no code with the kernels
    for n in range(1, 7):
        perms = kernels.perm_table(n)
        perm_rows = [tuple(int(v) for v in row) for row in perms]
        for k in range(1, n + 1):
            rows = _block_rows(perms, n, k).tolist()
            r = 0
            for idx in combinations(range(1, n + 1), k):
                for perm in perm_rows:
                    assert rows[r] == _schubert_fingerprint(n, idx, perm), (idx, perm)
                    r += 1


@settings(max_examples=80, deadline=None)
@given(basis_collections())
def test_classify_fingerprints_matches_brute_oracle(case):
    n, k, colls = case
    rows = np.array([brute_rank_fingerprint(c, n, k) for c in colls], dtype=np.uint64)
    loops, cogirths = kernels.classify_fingerprints(rows, n, k)
    for i, coll in enumerate(colls):
        assert (loops[i], cogirths[i]) == brute_loops_and_cogirth(coll, n), coll


@settings(max_examples=80, deadline=None)
@given(basis_collections())
def test_distinct_rows_is_exact_dedupe(case):
    n, k, colls = case
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


def _factorial_offsets(per_set: int) -> list[int]:
    offsets, j = [], 1
    while factorial(j) < per_set:
        offsets.append(factorial(j))
        j += 1
    return offsets


def _brute_prefilter(rows: list[tuple[int, ...]], per_set: int) -> list[bool]:
    # a row is dropped when it equals the row j! places back in its own run
    offsets = _factorial_offsets(per_set)
    return [
        not any(r % per_set >= f and row == rows[r - f] for f in offsets)
        for r, row in enumerate(rows)
    ]


@st.composite
def planted_runs(draw):
    """Runs of one- or two-word rows with few distinct values, where some
    rows are copied from j! places back (also across the start of a run) and
    some copies are then changed in their last word only."""
    words = draw(st.integers(1, 2))
    per_set = draw(st.sampled_from([1, 2, 5, 6, 24, 30]))
    total = per_set * draw(st.integers(1, 4))
    word = st.sampled_from([0, 1, 2**63, 2**64 - 1])
    rows = [draw(st.lists(word, min_size=words, max_size=words)) for _ in range(total)]
    for _ in range(draw(st.integers(0, total))):
        r = draw(st.integers(0, total - 1))
        f = draw(st.sampled_from([1, 2, 6, 24]))
        if r >= f:
            rows[r] = list(rows[r - f])
            if draw(st.booleans()):
                rows[r][-1] ^= 1
    return per_set, np.array(rows, dtype=np.uint64).reshape(total, words)


def test_identity_rows_are_the_upper_sets_of_every_index_set():
    # under the identity the bases of I are the k-subsets dominating it, for
    # every index set up to n = 8 (both words of k = 4 included)
    for n in (7, 8):
        for k in range(1, n + 1):
            rows = _block_rows([tuple(range(1, n + 1))], n, k).tolist()
            for i, idx in enumerate(combinations(range(1, n + 1), k)):
                vector = sum(1 << r for r in _id_order_ranks(n, idx))
                words = [(vector >> (64 * w)) % 2**64 for w in range(len(rows[i]))]
                assert rows[i] == words, idx


@settings(max_examples=150, deadline=None)
@given(planted_runs())
def test_prefilter_and_distinct_rows_keep_every_row_value(case):
    per_set, rows = case
    keep = kernels.prefilter_mask(rows, per_set)
    as_tuples = [tuple(r) for r in rows.tolist()]
    assert keep.tolist() == _brute_prefilter(as_tuples, per_set)
    distinct = kernels.distinct_rows(rows[keep])
    assert sorted(map(tuple, distinct.tolist())) == sorted(set(as_tuples))
    # each index set's run keeps all of its own values, not only the union
    for start in range(0, rows.shape[0], per_set):
        run = set(as_tuples[start : start + per_set])
        kept = {as_tuples[r] for r in range(start, start + per_set) if keep[r]}
        assert kept == run, start


def test_census_fingerprints_every_pair_once_in_fixed_blocks(monkeypatch):
    # one census(8) call fingerprints each (index set, permutation) pair once,
    # in blocks of PERM_BLOCK < 8! permutations, never a whole rank at once
    calls = []
    kernel = kernels.census_fingerprints

    def counted(table, n, k):
        rows = kernel(table, n, k)
        calls.append((k, table.shape[1], rows.shape[0]))
        return rows

    monkeypatch.setattr(kernels, "census_fingerprints", counted)
    n = 8
    census(n)
    assert sum(rows for _, _, rows in calls) == sum(
        comb(n, k) for k in range(1, n + 1)
    ) * factorial(n)
    assert kernels.PERM_BLOCK < factorial(n)
    for k, nperms, rows in calls:
        assert nperms == kernels.PERM_BLOCK
        assert rows == comb(n, k) * kernels.PERM_BLOCK


def test_census_is_the_same_in_any_block_size(monkeypatch):
    expected = census(6)
    for block in (2, 24, 120):
        monkeypatch.setattr(kernels, "PERM_BLOCK", block)
        assert census(6) == expected, block
