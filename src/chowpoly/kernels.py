"""Enumeration kernels: a permutation-sum DP and the census sweep, in numpy.

* The permutation-sum closed form needs, for each descent count, a weighted
  sum over the permutations of {1..k} whose descents are never adjacent.
  It is an exact insertion DP in Python ints, polynomial in k (about k^3
  big-integer additions); ``tests/oracles.py`` holds the k! scan it replaces.
* The census of Schubert matroids sweeps every (index set, permutation)
  pair, relabeling and fingerprinting each basis collection.  Fingerprints
  are built by scattering the relabeled bases into a bool array and packing
  it; deduplication sorts the fingerprint words and compares neighbours; the
  classifier reads loops and cogirth off whole arrays of fingerprints with
  bitwise masks.

Ground-set conventions: element e of {1..n} is bit e-1 of a mask, and a
collection of bases is fingerprinted as the characteristic bit vector over
all 2^n masks, packed into ceil(2^n / 64) little-endian uint64 words.  Equal
fingerprints mean equal basis collections, so deduplication is exact.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

# ---------------------------------------------------------------------------
# permutation descent aggregates
# ---------------------------------------------------------------------------


def perm_descent_aggregates(
    k: int, binoms: list[int], first_ascent_required: bool
) -> list[int]:
    """For each descent count j, sum ``binoms[last entry]`` over the
    permutations of {1..k} whose descent set has no two consecutive positions
    (and, when requested, no descent in position 1).

    ``binoms`` is indexed by value 1..k (index 0 ignored).  The sum is an
    exact insertion DP in Python ints, polynomial in k.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    # A prefix of length m is tracked by the relative rank r (0-based) of its
    # last entry among its m entries; asc[r][j] / desc[r][j] count the
    # admissible prefixes with j descents whose last step was an ascent (or
    # that have length 1) / a descent.  Appending an entry of relative rank r'
    # among m + 1 entries makes a descent exactly when r' <= r.  At length k
    # the relative rank is the value itself, which selects binoms[r + 1].
    width = k + 1
    asc = [[1] + [0] * k]
    desc = [[0] * width]
    for m in range(1, k):
        descent_allowed = not (m == 1 and first_ascent_required)
        new_asc = []
        below = [0] * width  # sum over r < r' of every prefix ending at rank r
        for r_new in range(m + 1):
            new_asc.append(below)
            if r_new < m:
                below = [b + a + d for b, a, d in zip(below, asc[r_new], desc[r_new])]
        new_desc = [[0] * width for _ in range(m + 1)]
        if descent_allowed:
            at_or_above = [0] * width  # sum over r >= r' of ascent-ended prefixes
            for r_new in range(m - 1, -1, -1):
                at_or_above = [s + a for s, a in zip(at_or_above, asc[r_new])]
                new_desc[r_new] = [0] + at_or_above[:-1]
        asc, desc = new_asc, new_desc
    agg = [0] * width
    for r in range(k):
        w = binoms[r + 1]
        for j in range(width):
            agg[j] += (asc[r][j] + desc[r][j]) * w
    return agg


# ---------------------------------------------------------------------------
# census fingerprints
# ---------------------------------------------------------------------------


def perm_table(n: int) -> np.ndarray:
    """All permutations of {1..n} in lexicographic order, one per row."""
    return np.array(list(permutations(range(1, n + 1))), dtype=np.uint8)


def relabel_table(perms: np.ndarray, n: int) -> np.ndarray:
    """table[p, m] = image of mask m under permutation row p.

    Element e (bit e-1) is sent to perms[p, e-1].  Shape (n!, 2^n), uint16.
    """
    nmasks = 1 << n
    masks = np.arange(nmasks, dtype=np.uint16)
    table = np.zeros((perms.shape[0], nmasks), dtype=np.uint16)
    for j in range(n):
        bit = ((masks >> j) & 1).astype(np.uint16)
        target = (perms[:, j].astype(np.uint16) - 1)[:, None]
        table |= bit[None, :] << target
    return table


def fingerprint_words(n: int) -> int:
    """Number of uint64 words in a basis-set fingerprint on ground size n."""
    return ((1 << n) + 63) // 64


def _bit_width(n: int) -> int:
    return 64 * fingerprint_words(n)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack rows of a bool array, 64 columns per word, into uint64 fingerprints
    (column m is bit m % 64 of word m // 64)."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def census_fingerprints(
    table: np.ndarray, bases_lists: list[list[int]], n: int
) -> np.ndarray:
    """Fingerprint every relabeled basis collection.

    Row i * n! + p holds the fingerprint of bases_lists[i] pushed through
    permutation row p of the relabel table.
    """
    nperms = table.shape[0]
    out = np.empty((len(bases_lists) * nperms, fingerprint_words(n)), dtype=np.uint64)
    bits = np.empty((nperms, _bit_width(n)), dtype=bool)
    perm_rows = np.arange(nperms)[:, None]
    for i, bases in enumerate(bases_lists):
        bits[:] = False
        bits[perm_rows, np.take(table, np.asarray(bases, dtype=np.intp), axis=1)] = True
        out[i * nperms : (i + 1) * nperms] = _pack(bits)
    return out


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, by exact equality, in lexicographic
    order of their words."""
    if rows.shape[0] < 2:
        return rows
    ordered = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(ordered.shape[0], dtype=bool)
    keep[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[keep]


# ---------------------------------------------------------------------------
# classification of deduplicated fingerprints
# ---------------------------------------------------------------------------


def _mask_fingerprints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``containing[e]`` fingerprints the masks that contain element e + 1;
    ``subsets_of[t]`` fingerprints the masks that are subsets of mask t."""
    nmasks = 1 << n
    masks = np.arange(nmasks)
    containing = np.zeros((n, _bit_width(n)), dtype=bool)
    containing[:, :nmasks] = (masks[None, :] >> np.arange(n)[:, None]) & 1
    subsets_of = np.zeros((nmasks, _bit_width(n)), dtype=bool)
    subsets_of[:, :nmasks] = (masks[None, :] & ~masks[:, None]) == 0
    return _pack(containing), _pack(subsets_of)


def classify_fingerprints(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Loop counts and cogirths of fingerprinted basis collections.

    The number of loops is n minus the number of elements lying in some
    basis.  The cogirth is the smallest size of a subset meeting every basis
    (the smallest set dependent in the dual): S meets every basis exactly
    when no basis is a subset of the complement of S.  -1 encodes "no such
    set", which happens exactly when the empty set is a basis, i.e. for the
    rank-0 collection {empty set}.
    """
    containing, subsets_of = _mask_fingerprints(n)
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
