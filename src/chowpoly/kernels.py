"""The census closure in numpy: seed, relabel, deduplicate, classify.

The census of Schubert matroids on {1..n} is the orbit, under every
relabeling of the ground set, of the identity-order Schubert matroids of
the index sets.  A rank-k collection is a set of k-subsets of {1..n}, so
its fingerprint is a bit vector over the C(n, k) k-subsets: bit i is set
when the i-th k-subset, in ``itertools.combinations`` order, is a basis.
The vector is cut into ceil(C(n, k) / 64) little-endian uint64 words.  That
is one word for every rank at n <= 7, and for every rank at n = 8 except
k = 4 (C(8, 4) = 70), which takes two.  Equal fingerprints mean equal basis
collections, so deduplication is exact.

* ``_pack`` is the one place that knows the word layout: it packs a
  boolean matrix with one column per k-subset into those words.
* ``schubert_seeds`` fingerprints the identity-order Schubert matroid of
  every k-subset I from the definition: its bases are the k-subsets J with
  J >= I componentwise, one comparison over the subsets' elements.
* ``transposition_ranks`` maps each k-subset to the rank of its image when
  two elements are swapped.  A relabeling acts on a fingerprint as that
  permutation of its bit positions, which ``relabel_rows`` applies to whole
  arrays: unpack the bits once, then gather the columns and pack each image.
* ``orbit_closure`` closes a set of fingerprints under all n! relabelings
  in n - 1 stages.  Every permutation of {1..m+1} is a permutation of
  {1..m} followed by the swap of m + 1 with some element up to m + 1, so
  stage m adds the images of the rows under each such swap and
  deduplicates.  The work grows with the distinct rows of each stage, not
  with n!: 298,329 rows over all ranks at n = 8, against 10,281,600
  (index set, permutation) pairs.
* ``distinct_rows`` sorts one-word fingerprints as plain integers and
  orders two-word ones with a ``lexsort``, then drops equal neighbours.
* ``classify_fingerprints`` reads loops and cogirth off whole arrays of
  fingerprints with bitwise masks over the k-subsets.

Ground-set convention: element e of {1..n} is bit e-1 of a subset mask.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np


def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of {1..n}, one row of k element bits each, in
    ``combinations`` order."""
    return np.array(list(combinations(range(n), k)), dtype=np.int64)


def _subset_masks(n: int, k: int) -> np.ndarray:
    """Masks of the k-subsets of {1..n}, in ``combinations`` order."""
    return (1 << _subsets(n, k)).sum(axis=1)


def fingerprint_words(n: int, k: int) -> int:
    """Number of uint64 words in a fingerprint of k-subsets of {1..n}."""
    return (comb(n, k) + 63) // 64


def _pack(bits: np.ndarray) -> np.ndarray:
    """Fingerprints of the rows of a boolean matrix with one column per
    k-subset: column i is bit i % 64 of little-endian uint64 word i // 64,
    and the bits past the last column are 0."""
    rows, width = bits.shape
    words = (width + 63) // 64
    padded = np.zeros((rows, 64 * words), dtype=bool)
    padded[:, :width] = bits
    return np.packbits(padded, bitorder="little").view("<u8").reshape(rows, words)


def schubert_seeds(n: int, k: int) -> np.ndarray:
    """Row i fingerprints the identity-order Schubert matroid of the i-th
    k-subset I, whose bases are the k-subsets J >= I componentwise."""
    subsets = _subsets(n, k)
    return _pack((subsets[None, :, :] >= subsets[:, None, :]).all(axis=2))


def transposition_ranks(n: int, k: int, i: int | np.ndarray, j: int) -> np.ndarray:
    """ranks[r] = rank of the image of the r-th k-subset of {1..n} when the
    elements at bits i and j are swapped; the identity when i == j.

    ``i`` may also be an array of bits, which gives one row of ranks per
    bit.  A swap is its own inverse, and so is each row.
    """
    masks = _subset_masks(n, k)
    i = np.asarray(i)[..., None]
    moved = ((masks >> i) ^ (masks >> j)) & 1
    image = masks ^ ((moved << i) | (moved << j))
    order = np.argsort(masks)
    return order[np.searchsorted(masks, image, sorter=order)]


def relabel_rows(rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Images of fingerprint rows under relabelings of the ground set.

    Each row of ``ranks`` is a self-inverse permutation of the subset ranks,
    as ``transposition_ranks`` gives: the image of a collection holds subset
    ranks[r] exactly when the collection holds subset r.  Row
    r * len(ranks) + s of the result is the image of row r under ranks[s].
    """
    words = rows.shape[1]
    as_bytes = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, count=ranks.shape[1], bitorder="little")
    images = np.empty((rows.shape[0], ranks.shape[0], words), dtype=np.uint64)
    # one swap at a time, so the gathered bits are those of one image per
    # row, not of all of them
    for s, perm in enumerate(ranks):
        images[:, s] = _pack(np.take(bits, perm, axis=1))
    return images.reshape(-1, words)


def orbit_closure(seeds: np.ndarray, n: int, k: int) -> np.ndarray:
    """The distinct images of the rank-k fingerprint rows ``seeds`` under
    every permutation of {1..n}, in the order of ``distinct_rows``.

    Stage m takes the rows closed under the permutations of the first m
    elements to their images under the swaps of element m + 1 with each of
    the elements up to m + 1 (the last swap is the identity, so the rows
    themselves stay), and deduplicates them.
    """
    rows = distinct_rows(seeds)
    for m in range(1, n):
        swaps = transposition_ranks(n, k, np.arange(m + 1), m)
        rows = distinct_rows(relabel_rows(rows, swaps))
    return rows


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
    containing = _pack((masks[None, :] >> elements) & 1 == 1)
    subsets_of = _pack((masks[None, :] & ~every_mask[:, None]) == 0)
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
