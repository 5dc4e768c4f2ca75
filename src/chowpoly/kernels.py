"""The census sweep in numpy: relabel, fingerprint, prefilter, deduplicate,
classify.

The census of Schubert matroids sweeps every (index set, permutation) pair,
relabeling and fingerprinting each basis collection.  A rank-k collection is
a set of k-subsets of {1..n}, so its fingerprint is a bit vector over the
C(n, k) k-subsets: bit i is set when the i-th k-subset, in
``itertools.combinations`` order, is a basis.  The vector is cut into
ceil(C(n, k) / 64) little-endian uint64 words.  That is one word for every
rank at n <= 7, and for every rank at n = 8 except k = 4 (C(8, 4) = 70),
which takes two.  Equal fingerprints mean equal basis collections, so
deduplication is exact.

The permutations are swept in blocks of ``PERM_BLOCK`` (7!/2, for every
n), so the memory of one block does not grow with n.  A block of 7! would
be about a fifth faster at n = 8, but at n = 7 it holds the whole rank and
raises the peak memory of ``census(7)`` by about 0.8 MB.

* ``relabel_table`` maps each k-subset and permutation of a block to the
  rank of the image subset.
* ``census_fingerprints`` builds the fingerprints of every index set under
  every permutation of the block by a recurrence over the componentwise
  order on k-subsets: the bases of index set I are the upper set of I, so
  its fingerprint is the bit of I's image OR the fingerprints of the upper
  covers of I.
* ``prefilter_mask`` drops, inside each index set's run of rows, a row that
  equals the row j! places before it.  The value stays in the earlier row,
  so the filter is exact; about one row in eight is left at n = 8.
* ``distinct_rows`` sorts one-word fingerprints as plain integers and
  orders two-word ones with a ``lexsort``, then drops equal neighbours.
  ``block_distinct_rows`` runs the four steps above on one block.
* ``classify_fingerprints`` reads loops and cogirth off whole arrays of
  fingerprints with bitwise masks over the k-subsets.

Ground-set convention: element e of {1..n} is bit e-1 of a subset mask.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations
from math import comb, factorial

import numpy as np

PERM_BLOCK = 2520  # permutations per block of the sweep, whatever n is


def perm_table(n: int) -> np.ndarray:
    """All permutations of {1..n} in lexicographic order, one per row."""
    rows = factorial(n)
    flat = chain.from_iterable(permutations(range(1, n + 1)))
    return np.fromiter(flat, dtype=np.uint8, count=rows * n).reshape(rows, n)


def _subset_masks(n: int, k: int) -> np.ndarray:
    """Masks of the k-subsets of {1..n}, in ``combinations`` order."""
    return np.array(
        [sum(1 << e for e in c) for c in combinations(range(n), k)], dtype=np.int64
    )


def _rank_of_mask(n: int, k: int) -> np.ndarray:
    """lookup[m] = rank of the k-subset mask m; -1 for masks of other sizes."""
    lookup = np.full(1 << n, -1, dtype=np.intp)
    lookup[_subset_masks(n, k)] = np.arange(comb(n, k))
    return lookup


def relabel_table(perms: np.ndarray, n: int, k: int) -> np.ndarray:
    """table[i, p] = rank of the image of the i-th k-subset under permutation
    row p.

    Element e (bit e-1) is sent to perms[p, e-1].  Shape (C(n, k), n!), in
    the smallest unsigned dtype that holds C(n, k) - 1.
    """
    masks = _subset_masks(n, k).astype(np.uint16)
    image = np.zeros((masks.size, perms.shape[0]), dtype=np.uint16)
    for j in range(n):
        bit = (masks >> j) & 1
        target = (perms[:, j].astype(np.uint16) - 1)[None, :]
        image |= bit[:, None] << target
    # the image of a k-subset is a k-subset, so no lookup entry of -1 is read
    rank_of = _rank_of_mask(n, k).astype(np.min_scalar_type(masks.size - 1))
    return rank_of[image]


def fingerprint_words(n: int, k: int) -> int:
    """Number of uint64 words in a fingerprint of k-subsets of {1..n}."""
    return (comb(n, k) + 63) // 64


def _rank_bits(n: int, k: int) -> np.ndarray:
    """bits[i] is the fingerprint of the i-th k-subset alone."""
    size = comb(n, k)
    ranks = np.arange(size)
    bits = np.zeros((size, fingerprint_words(n, k)), dtype=np.uint64)
    bits[ranks, ranks // 64] = np.uint64(1) << (ranks % 64).astype(np.uint64)
    return bits


def _fingerprints_of(members: np.ndarray, n: int, k: int) -> np.ndarray:
    """Row r fingerprints the k-subsets i with members[r, i] true."""
    words = np.where(members[:, :, None], _rank_bits(n, k), 0)
    return words.sum(axis=1, dtype=np.uint64)


def _upper_covers(n: int, k: int) -> list[list[int]]:
    """covers[i] = ranks of the k-subsets covering the i-th one in the
    componentwise order: one element raised by one, the rest kept."""
    subsets = list(combinations(range(n), k))
    rank = {c: i for i, c in enumerate(subsets)}
    return [
        [
            rank[c[:j] + (e + 1,) + c[j + 1 :]]
            for j, e in enumerate(c)
            if e + 1 < n and (j + 1 == k or c[j + 1] != e + 1)
        ]
        for c in subsets
    ]


def census_fingerprints(table: np.ndarray, n: int, k: int) -> np.ndarray:
    """Fingerprint every (index set, permutation) pair of one block.

    ``table`` is the relabel table of the block's permutations.  Row
    i * nperms + p fingerprints the image under permutation p of the
    identity-order Schubert matroid of the i-th k-subset I, whose bases are
    the upper set of I.  A raised subset comes later in ``combinations``
    order, so walking the subsets backwards meets every cover first, and the
    fingerprint of I is the bit of its own image OR those of its covers.
    """
    size, nperms = table.shape
    bits = _rank_bits(n, k)
    out = np.empty((size, nperms, bits.shape[1]), dtype=np.uint64)
    covers = _upper_covers(n, k)
    for i in range(size - 1, -1, -1):
        np.take(bits, table[i], axis=0, out=out[i])
        for j in covers[i]:
            out[i] |= out[j]
    return out.reshape(size * nperms, bits.shape[1])


def prefilter_mask(rows: np.ndarray, per_set: int) -> np.ndarray:
    """keep[r] is false when row r repeats a row j! places before it inside
    its own run of ``per_set`` rows, for some j! < per_set.

    The rows come in runs of ``per_set``, one run per index set, with the
    permutations in lexicographic order.  Permutations j! places apart
    there often differ by swapping two values, which can leave the matroid
    as it was.  Only rows equal to an earlier row of the same run are
    dropped, so every run keeps each of its distinct rows.  The words are
    compared one at a time.
    """
    runs = rows.reshape(-1, per_set, rows.shape[1])
    drop = np.zeros(runs.shape[:2], dtype=bool)
    step, j = 1, 1
    while step < per_set:
        same = runs[:, step:, 0] == runs[:, :-step, 0]
        for w in range(1, runs.shape[2]):
            same &= runs[:, step:, w] == runs[:, :-step, w]
        drop[:, step:] |= same
        j += 1
        step *= j
    return ~drop.reshape(-1)


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, by exact equality, in lexicographic
    order of their words.

    One-word rows are sorted as one column; wider rows are ordered with a
    ``lexsort``.  Duplicates are then adjacent.
    """
    if rows.shape[1] == 1:
        ordered = np.sort(rows, axis=0)
    else:
        ordered = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(ordered.shape[0], dtype=bool)
    keep[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[keep]


def block_distinct_rows(perms: np.ndarray, n: int, k: int) -> np.ndarray:
    """The distinct fingerprints of all rank-k index sets under one block of
    permutations: relabel, fingerprint, prefilter, deduplicate.  The block's
    full array of rows is freed on return."""
    rows = census_fingerprints(relabel_table(perms, n, k), n, k)
    return distinct_rows(rows[prefilter_mask(rows, perms.shape[0])])


def classify_fingerprints(
    rows: np.ndarray, n: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Loop counts and cogirths of fingerprinted rank-k basis collections.

    The number of loops is n minus the number of elements lying in some
    basis.  The cogirth is the smallest size of a subset meeting every basis
    (the smallest set dependent in the dual): S meets every basis exactly
    when no basis is a subset of the complement of S.  -1 encodes "no such
    set", which happens exactly when the empty set is a basis, i.e. for the
    rank-0 collection {empty set}.
    """
    masks = _subset_masks(n, k)
    every_mask = np.arange(1 << n)
    elements = np.arange(n)[:, None]
    containing = _fingerprints_of((masks[None, :] >> elements) & 1 == 1, n, k)
    subsets_of = _fingerprints_of((masks[None, :] & ~every_mask[:, None]) == 0, n, k)
    loop_counts = np.full(rows.shape[0], n, dtype=np.int64)
    for words in containing:
        loop_counts -= (rows & words).any(axis=1)
    cogirths = np.full(rows.shape[0], -1, dtype=np.int64)
    full = (1 << n) - 1
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1, full + 1):
        by_size[s.bit_count()].append(s)
    for size in range(1, n + 1):
        open_rows = np.flatnonzero(cogirths < 0)
        if open_rows.size == 0:
            break
        pending = rows[open_rows]
        meets_all = np.zeros(open_rows.size, dtype=bool)
        for s in by_size[size]:
            meets_all |= ~(pending & subsets_of[full ^ s]).any(axis=1)
        cogirths[open_rows[meets_all]] = size
    return loop_counts, cogirths
