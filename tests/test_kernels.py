from functools import cache
from itertools import combinations
from math import comb

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowpoly import SchubertSpec, census, delta_multinomial, kernels, schubert_matroid
from tests.oracles import (
    _id_order_ranks,
    brute_loops_and_cogirth,
    brute_rank_fingerprint,
    brute_relabel,
    schubert_fingerprints,
)


def _k_subset_masks(n: int, k: int) -> list[int]:
    return [sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), k)]


def _schubert_fingerprint(n: int, idx, perm) -> list[int]:
    # the image under perm of the identity-order Schubert matroid of idx is
    # the Schubert matroid of perm(idx) in the order perm, built from the
    # definition in chowpoly.schubert, not from the kernels
    image = tuple(sorted(perm[e - 1] for e in idx))
    bases = schubert_matroid(SchubertSpec(n, image, tuple(perm)), validate=False).bases
    return brute_rank_fingerprint(bases, n, len(idx))


def _swap(n: int, i: int, j: int) -> tuple[int, ...]:
    """One-line notation of the swap of bits i and j (elements i+1, j+1)."""
    perm = list(range(1, n + 1))
    perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def _as_set(rows: np.ndarray) -> set[tuple[int, ...]]:
    return set(map(tuple, rows.tolist()))


@cache
def _closure(n: int, k: int) -> np.ndarray:
    rows = kernels.orbit_closure(kernels.schubert_seeds(n, k), n, k)
    rows.setflags(write=False)
    return rows


@cache
def _closure_set(n: int, k: int) -> frozenset[tuple[int, ...]]:
    return frozenset(_as_set(_closure(n, k)))


def test_transposition_ranks_roundtrip():
    # k-subsets of {1..4} in combinations order: 12, 13, 14, 23, 24, 34;
    # swapping 1 and 2 (bits 0 and 1) sends 13 -> 23 and 24 -> 14
    assert kernels.transposition_ranks(4, 2, 0, 1).tolist() == [0, 3, 4, 1, 2, 5]
    assert kernels.transposition_ranks(4, 2, 2, 2).tolist() == list(range(6))
    # every entry against the relabeled mask, for every rank and swap
    n = 5
    for k in range(n + 1):
        masks = _k_subset_masks(n, k)
        for i in range(n):
            for j in range(n):
                ranks = kernels.transposition_ranks(n, k, i, j).tolist()
                expected = [brute_relabel(m, _swap(n, i, j)) for m in masks]
                assert [masks[r] for r in ranks] == expected, (k, i, j)


@st.composite
def relabel_cases(draw):
    """A ground size n <= 8, a rank, two bits (equal or not), and basis
    collections of k-subset masks."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    collection = st.frozensets(st.sampled_from(_k_subset_masks(n, k)), max_size=12)
    colls = draw(st.lists(collection, min_size=1, max_size=4))
    return n, k, i, j, [sorted(c) for c in colls]


@settings(max_examples=100, deadline=None)
@given(relabel_cases())
# at n = 8, k = 4 the swap of 1 and 8 exchanges {1,5,6,7} (rank 31, word 0)
# and {5,6,7,8} (rank 69, word 1)
@example((8, 4, 0, 7, [[0b1111, 0b1110001], [0b11110000]]))
def test_transposition_action_matches_brute_relabel(case):
    n, k, i, j, colls = case
    rows = np.array([brute_rank_fingerprint(c, n, k) for c in colls], dtype=np.uint64)
    swaps = np.array([kernels.transposition_ranks(n, k, i, j), np.arange(comb(n, k))])
    images = kernels.relabel_rows(rows, swaps).tolist()
    assert len(images) == 2 * len(colls)
    for r, coll in enumerate(colls):
        relabeled = [brute_relabel(m, _swap(n, i, j)) for m in coll]
        assert images[2 * r] == brute_rank_fingerprint(relabeled, n, k), coll
        assert images[2 * r + 1] == rows[r].tolist(), coll


@st.composite
def bit_matrices(draw):
    """A boolean matrix whose width straddles the word boundaries; the census
    meets none of the widths that are a multiple of 64."""
    width = draw(st.sampled_from([1, 63, 64, 65, 70, 128, 129]))
    row = st.lists(st.booleans(), min_size=width, max_size=width)
    return width, draw(st.lists(row, min_size=1, max_size=5))


@settings(max_examples=100, deadline=None)
@given(bit_matrices())
@example((64, [[True] * 64, [False] * 63 + [True]]))
@example((129, [[False] * 128 + [True]]))
def test_pack_matches_python_fingerprint(case):
    # bit i of a row is bit i % 64 of word i // 64, and the last word is
    # padded with zeros
    width, rows = case
    packed = kernels._pack(np.array(rows, dtype=bool))
    words = (width + 63) // 64
    assert packed.dtype == np.uint64 and packed.shape == (len(rows), words)
    for got, row in zip(packed.tolist(), rows):
        vector = sum(1 << i for i, bit in enumerate(row) if bit)
        assert got == [(vector >> (64 * w)) % 2**64 for w in range(words)], row


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
    # rank >= 64, in the second word, so their seeds agree on word 0 and
    # differ only in word 1; swaps move bases between the two words
    n, k = 8, 4
    seeds = kernels.schubert_seeds(n, k)
    assert seeds.shape == (comb(n, k), 2)
    high = seeds[64:]
    assert set(high[:, 0].tolist()) == {0}
    assert kernels.distinct_rows(high).shape == (6, 2)
    pairs = [(0, 7), (3, 4), (0, 1), (2, 6)]
    swaps = np.array([kernels.transposition_ranks(n, k, i, j) for i, j in pairs])
    images = kernels.relabel_rows(seeds, swaps).tolist()
    for r, idx in enumerate(combinations(range(1, n + 1), k)):
        for s, (i, j) in enumerate(pairs):
            expected = _schubert_fingerprint(n, idx, _swap(n, i, j))
            assert images[r * len(pairs) + s] == expected, (idx, i, j)
    loops, cogirths = kernels.classify_fingerprints(high, n, k)
    for j, idx in enumerate(list(combinations(range(1, n + 1), k))[64:]):
        bases = schubert_matroid(SchubertSpec(n, idx, tuple(range(1, n + 1)))).bases
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
    """A ground size of 7 or 8, a rank, and some (index set, permutation)
    pairs."""
    n = draw(st.sampled_from([7, 8]))
    k = draw(st.integers(1, n))
    index_set = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    pair = st.tuples(index_set.map(lambda s: tuple(sorted(s))), st.permutations(range(1, n + 1)))
    return n, k, draw(st.lists(pair, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(census_pairs())
@example((8, 4, [((1, 2, 3, 4), (2, 5, 8, 3, 6, 1, 4, 7)), ((5, 6, 7, 8), (8, 7, 6, 5, 4, 3, 2, 1))]))
def test_census_fingerprints_match_brute_oracle(case):
    # at n = 7 and 8, past the exhaustive check, the closure holds the
    # fingerprint of every sampled (index set, permutation) pair
    n, k, pairs = case
    closure = _closure_set(n, k)
    for idx, perm in pairs:
        assert tuple(_schubert_fingerprint(n, idx, perm)) in closure, (idx, perm)


def test_closure_matches_schubert_bases_exhaustively():
    # for n <= 6 the closure of each rank's seeds is, as a set, the
    # fingerprints of schubert_matroid over every (index set, permutation)
    # pair; schubert_matroid shares no code with the kernels
    for n in range(1, 7):
        for k in range(n + 1):
            rows = _closure(n, k)
            assert _as_set(rows) == set(schubert_fingerprints(n, k).values()), (n, k)
            assert np.array_equal(kernels.distinct_rows(rows), rows), (n, k)


def test_closure_is_closed_under_adjacent_transpositions():
    # the adjacent swaps generate every permutation, so each of them maps the
    # final rows of a rank onto themselves, across both words at n = 8, k = 4
    for n in (2, 5, 8):
        for k in range(1, n):
            rows = _closure(n, k)
            adjacent = [kernels.transposition_ranks(n, k, i, i + 1) for i in range(n - 1)]
            images = kernels.relabel_rows(rows, np.array(adjacent))
            assert _as_set(images) == _closure_set(n, k), (n, k)


def test_fingerprints_batched_and_streamed_agree():
    # closing all seeds of a rank at once keeps exactly the rows of closing
    # each index set's seed alone and merging; each index set's own orbit
    # has as many matroids as its gap multinomial
    for n in (5, 6):
        for k in range(1, n + 1):
            seeds = kernels.schubert_seeds(n, k)
            orbits = [kernels.orbit_closure(seeds[i : i + 1], n, k) for i in range(len(seeds))]
            for idx, orbit in zip(combinations(range(1, n + 1), k), orbits):
                assert orbit.shape[0] == delta_multinomial(n, idx), idx
            streamed = kernels.distinct_rows(np.concatenate(orbits))
            assert np.array_equal(streamed, _closure(n, k)), (n, k)


def test_census_relabels_only_distinct_rows(monkeypatch):
    # census(8) relabels the distinct rows of each stage, 298,329 images over
    # all ranks, not the 10,281,600 (index set, permutation) pairs
    images = []
    relabel = kernels.relabel_rows

    def counted(rows, ranks):
        assert np.array_equal(kernels.distinct_rows(rows), rows)
        out = relabel(rows, ranks)
        images.append(out.shape[0])
        return out

    monkeypatch.setattr(kernels, "relabel_rows", counted)
    census(8)
    assert len(images) == 8 * 7
    assert sum(images) == 298_329


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


def test_identity_rows_are_the_upper_sets_of_every_index_set():
    # the seed of I fingerprints the k-subsets dominating it, for every index
    # set up to n = 8 (both words of k = 4 included)
    for n in (7, 8):
        for k in range(1, n + 1):
            rows = kernels.schubert_seeds(n, k).tolist()
            for i, idx in enumerate(combinations(range(1, n + 1), k)):
                vector = sum(1 << r for r in _id_order_ranks(n, idx))
                words = [(vector >> (64 * w)) % 2**64 for w in range(len(rows[i]))]
                assert rows[i] == words, idx
