from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowpoly import kernels
from chowpoly.schubert import _id_order_bases
from tests.oracles import (
    brute_fingerprint,
    brute_loops_and_cogirth,
    brute_perm_descent_aggregates,
    brute_relabel,
)


def test_relabel_table_roundtrip():
    n = 4
    perms = kernels.perm_table(n)
    table = kernels.relabel_table(perms, n)
    assert table.shape == (24, 16)
    # identity permutation is the first lexicographic row
    assert list(table[0]) == list(range(16))
    # relabeling by (2,1,3,4) swaps bits 0 and 1
    row = perms.tolist().index([2, 1, 3, 4])
    assert table[row, 0b0001] == 0b0010
    assert table[row, 0b0011] == 0b0011
    assert table[row, 0b0101] == 0b0110


def test_fingerprints_batched_and_streamed_agree():
    # deduplicating each index set's block and then merging the survivors,
    # as census does, keeps exactly np.unique's rows of the whole rank
    n = 5
    perms = kernels.perm_table(n)
    table = kernels.relabel_table(perms, n)
    per_set = perms.shape[0]
    for k in range(1, n + 1):
        bases_lists = [
            _id_order_bases(n, idx) for idx in combinations(range(1, n + 1), k)
        ]
        batched = kernels.census_fingerprints(table, bases_lists, n)
        assert np.array_equal(kernels.distinct_rows(batched), np.unique(batched, axis=0))
        streamed = kernels.distinct_rows(
            np.concatenate(
                [
                    kernels.distinct_rows(kernels.census_fingerprints(table, [b], n))
                    for b in bases_lists
                ]
            )
        )
        assert np.array_equal(streamed, np.unique(batched, axis=0))
        assert batched.shape[0] == len(bases_lists) * per_set


def test_fingerprint_words():
    assert kernels.fingerprint_words(3) == 1
    assert kernels.fingerprint_words(6) == 1
    assert kernels.fingerprint_words(7) == 2
    assert kernels.fingerprint_words(8) == 4


def test_rank0_fingerprint_classifies_as_no_hitting_set():
    rows = np.zeros((1, 1), dtype=np.uint64)
    rows[0, 0] = 1  # only the empty mask is a basis
    loops, cogirths = kernels.classify_fingerprints(rows, 4)
    assert loops[0] == 4 and cogirths[0] == -1


def test_perm_scan_empty_and_tiny():
    assert kernels.perm_descent_aggregates(1, [0, 7], False) == [7, 0]
    assert kernels.perm_descent_aggregates(2, [0, 3, 5], True) == [5, 0, 0]
    assert kernels.perm_descent_aggregates(2, [0, 3, 5], False) == [5, 3, 0]
    with pytest.raises(ValueError):
        kernels.perm_descent_aggregates(0, [0], False)


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
                kernels.perm_descent_aggregates(k, binoms, first_ascent_required)
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
    assert kernels.perm_descent_aggregates(
        k, weights, first_ascent_required
    ) == brute_perm_descent_aggregates(k, weights, first_ascent_required)


@st.composite
def basis_collections(draw):
    """A ground size n <= 7, some permutations of {1..n}, and collections of
    subset masks that always include the rank-0 collection {empty set} and a
    repeated collection."""
    n = draw(st.integers(1, 7))
    perms = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=3))
    collection = st.frozensets(st.integers(0, (1 << n) - 1), min_size=1, max_size=10)
    colls = draw(st.lists(collection, min_size=1, max_size=5))
    colls = colls + [frozenset({0}), colls[0]]
    return n, perms, [sorted(c) for c in colls]


@settings(max_examples=80, deadline=None)
@given(basis_collections())
def test_census_fingerprints_match_brute_oracle(case):
    n, perms, colls = case
    table = kernels.relabel_table(np.array(perms, dtype=np.uint8), n)
    rows = kernels.census_fingerprints(table, colls, n)
    assert rows.shape == (len(colls) * len(perms), kernels.fingerprint_words(n))
    r = 0
    for coll in colls:
        for perm in perms:
            image = {brute_relabel(m, perm) for m in coll}
            assert rows[r].tolist() == brute_fingerprint(image, n)
            r += 1


@settings(max_examples=80, deadline=None)
@given(basis_collections())
def test_classify_fingerprints_matches_brute_oracle(case):
    n, _, colls = case
    rows = np.array([brute_fingerprint(c, n) for c in colls], dtype=np.uint64)
    loops, cogirths = kernels.classify_fingerprints(rows, n)
    for i, coll in enumerate(colls):
        assert (loops[i], cogirths[i]) == brute_loops_and_cogirth(coll, n), coll


@settings(max_examples=80, deadline=None)
@given(basis_collections())
def test_distinct_rows_is_exact_dedupe(case):
    n, _, colls = case
    rows = np.array([brute_fingerprint(c, n) for c in colls], dtype=np.uint64)
    for w in range(rows.shape[1]):  # add rows that differ from others in one word only
        variant = rows.copy()
        variant[:, w] ^= np.uint64(1 << 63)
        rows = np.concatenate([rows, variant])
    distinct = kernels.distinct_rows(rows)
    assert sorted(map(tuple, distinct.tolist())) == sorted(set(map(tuple, rows.tolist())))
