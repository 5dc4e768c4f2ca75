"""The census sweep in numpy: relabel, fingerprint, deduplicate, classify.

The census of Schubert matroids sweeps every (index set, permutation) pair,
relabeling and fingerprinting each basis collection.  A rank-k collection is
a set of k-subsets of {1..n}, so its fingerprint is a bit vector over the
C(n, k) k-subsets: bit i is set when the i-th k-subset, in
``itertools.combinations`` order, is a basis.  The vector is cut into
ceil(C(n, k) / 64) little-endian uint64 words.  That is one word for every
rank at n <= 7, and for every rank at n = 8 except k = 4 (C(8, 4) = 70),
which takes two.  Equal fingerprints mean equal basis collections, so
deduplication is exact.

* ``relabel_table`` maps each k-subset and permutation to the rank of the
  image subset.
* ``census_fingerprints`` adds up, for each basis, the power of two at the
  rank of its image.  The bits are distinct, so the sum is their OR.  The
  permutations are walked in blocks of ``PERM_BLOCK`` to bound the memory of
  the intermediate array.
* ``distinct_rows`` sorts one-word fingerprints as plain integers and
  orders two-word ones with a ``lexsort``, then drops equal neighbours.
* ``classify_fingerprints`` reads loops and cogirth off whole arrays of
  fingerprints with bitwise masks over the k-subsets.

Ground-set convention: element e of {1..n} is bit e-1 of a subset mask.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

import numpy as np

PERM_BLOCK = 1024  # permutations fingerprinted per step of the sweep


def perm_table(n: int) -> np.ndarray:
    """All permutations of {1..n} in lexicographic order, one per row."""
    return np.array(list(permutations(range(1, n + 1))), dtype=np.uint8)


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


def census_fingerprints(
    table: np.ndarray, ranks: list[int], n: int, k: int
) -> np.ndarray:
    """Fingerprint one basis collection under every permutation.

    The collection is given as the ranks of its k-subsets in
    ``combinations`` order.  Row p holds the fingerprint of its image under
    permutation row p of the relabel table.
    """
    nperms = table.shape[1]
    bits = _rank_bits(n, k)
    images = table[np.asarray(ranks, dtype=np.intp)]
    out = np.empty((nperms, bits.shape[1]), dtype=np.uint64)
    for start in range(0, nperms, PERM_BLOCK):
        stop = min(start + PERM_BLOCK, nperms)
        out[start:stop] = np.take(bits, images[:, start:stop], axis=0).sum(
            axis=0, dtype=np.uint64
        )
    return out


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
