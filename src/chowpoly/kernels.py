"""The census closure in plain Python ints: seed, relabel, deduplicate, classify.

The census of Schubert matroids on {1..n} is the orbit, under every
relabeling of the ground set, of the identity-order Schubert matroids of
the index sets.  A basis collection is one Python int with bit ``mask`` set
for each basis mask: 2^n bits, 256 at n = 8.  Equal ints mean equal basis
collections, so deduplication is exact.

* ``schubert_seeds`` builds the identity-order Schubert matroid of every
  k-subset I: its bases are the k-subsets J with J >= I componentwise, the
  AND over the positions t of the subsets whose t-th element is at least
  the t-th element of I.
* A collection is relabeled by the swap of elements i < j as a delta swap:
  the positions whose mask holds i but not j move up by 2^j - 2^i, and
  those holding j but not i move down by as much.
* A seed is closed under the relabelings of {1..n-2} in n - 3 stages.
  Every permutation of {1..m+1} is a permutation of {1..m} followed by the
  swap of m + 1 with some element up to m + 1, so stage m
  (``relabel_stage``) adds the images of the members under each such swap
  and deduplicates them in a ``set``.  The work grows with the distinct
  members of each stage, not with n!: 24,348 images over the ranks 1..8 at
  n = 8, each member's own included, against 10,281,600 (index set,
  permutation) pairs.
* ``loops_and_cogirth`` reads both invariants off a collection with a few
  whole-int operations; relabeling preserves them, so a seed's values hold
  for its whole orbit.
* ``orbit_counts`` counts the top two levels instead of listing them:
  with M the seed's closure under {1..n-2}, its orbit under every
  relabeling of {1..n} has n (n-1) |M| / (c1 c2) members, where c1 counts
  the swaps (i n-1), i = n-1 included, that keep the seed in M, and c2 the
  swaps (j n), j = n included, that keep it in its orbit under {1..n-1}
  (orbit-stabilizer, once per level).  Both counts read one row of n - 1
  images (i n-1).(j n).s per j: 56 per seed, 14,336 over the ranks at
  n = 8.  It tallies the orbits of a rank's seeds by (loops, cogirth),
  skipping a seed that already lies in an earlier orbit: the orbits of a
  group are equal or disjoint.

Ground-set convention: element e of {1..n} is bit e-1 of a subset mask.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from operator import and_
from typing import Iterable


@cache
def _position_masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(containing, of_size) over the 2^n subset masks of {1..n}:
    containing[e] has bit p set when mask p holds bit e, of_size[s] when
    mask p has s elements."""
    positions = range(1 << n)
    containing = tuple(sum(1 << p for p in positions if p >> e & 1) for e in range(n))
    of_size = tuple(
        sum(1 << p for p in positions if p.bit_count() == s) for s in range(n + 1)
    )
    return containing, of_size


def schubert_seeds(n: int, k: int) -> list[int]:
    """Entry i is the identity-order Schubert matroid of the i-th k-subset I
    in ``combinations`` order, whose bases are the k-subsets J >= I
    componentwise.

    at_least[t][v] collects the k-subsets whose t-th element is at least v,
    so each seed is the AND of one such collection per position of I; the
    empty AND (k = 0) is every k-subset."""
    subsets = list(combinations(range(n), k))
    at_least = [[0] * (n + 1) for _ in range(k)]
    for J in subsets:
        bit = 1 << sum(1 << e for e in J)
        for row, e in zip(at_least, J):
            row[e] |= bit
    for row in at_least:
        for v in range(n - 1, -1, -1):
            row[v] |= row[v + 1]
    every = at_least[0][0] if k else 1
    return [reduce(and_, (row[v] for row, v in zip(at_least, I)), every) for I in subsets]


@cache
def _delta(n: int, i: int, j: int) -> tuple[int, int]:
    """(shift, low) of the swap of bits i < j: ``low`` marks the masks that
    hold i but not j, and ``shift`` = 2^j - 2^i carries each onto its
    partner."""
    containing, _ = _position_masks(n)
    return (1 << j) - (1 << i), containing[i] & ~containing[j]


def _swap_images(members: Iterable[int], deltas: list[tuple[int, int]]) -> list[int]:
    """The image of each member under each delta swap, repeats kept."""
    # the delta swap written inline (``tests/oracles.py`` has it as a
    # function): a call per image made the closures of census(8) 10-30 %
    # slower
    return [
        x ^ moved ^ (moved << shift)
        for shift, low in deltas
        for x in members
        for moved in ((x ^ (x >> shift)) & low,)
    ]


def relabel_stage(members: set[int], n: int, m: int) -> set[int]:
    """``members`` joined by their images under the swaps of bit m with
    each lower bit."""
    return members.union(_swap_images(members, [_delta(n, i, m) for i in range(m)]))


def loops_and_cogirth(collection: int, n: int) -> tuple[int, int]:
    """Loop count and cogirth of a basis collection.

    The loops are the elements in no basis.  The cogirth is the smallest
    size of a set S meeting every basis (the smallest set dependent in the
    dual).  S meets every basis exactly when its complement contains none,
    so the cogirth is n minus the largest size of a set that contains no
    basis.  -1 encodes "no such set", which happens exactly when the empty
    set is a basis, i.e. for the rank-0 collection {empty set}.
    """
    containing, of_size = _position_masks(n)
    loops = sum(1 for held in containing if not collection & held)
    spanning = collection  # the masks that contain some basis
    for e, held in enumerate(containing):
        spanning |= (spanning & ~held) << (1 << e)
    for size in range(n, -1, -1):
        if of_size[size] & ~spanning:
            return loops, n - size
    return loops, -1


def orbit_counts(seeds: Iterable[int], n: int) -> dict[tuple[int, int], int]:
    """(loops, cogirth) -> number of distinct collections in the union of the
    orbits of ``seeds``.

    Each seed s is closed only under the permutations of {1..n-2}, by
    stages 1..n-3, into M = S_{n-2}.s, and the two top levels are counted by
    orbit-stabilizer.  Every permutation of {1..n-1} is one of {1..n-2}
    followed by a swap (i n-1), so S_{n-1}.s is the union of the (i n-1).M,
    and a collection y lies in it exactly when y or some (i n-1).y lies in
    M.  Its size is (n-1) |M| / c1 with c1 = #{i : (i n-1).s in M}, i = n-1
    (the identity) included: (i n-1).s lies in M exactly when some
    stabilizer element of s sends n-1 to i, so c1 is the size of the
    stabilizer orbit of n-1.  In the same way S_n.s, the union of the
    (j n).S_{n-1}.s, has n |S_{n-1}.s| / c2 members with
    c2 = #{j : (j n).s in S_{n-1}.s}.  So one row of n-1 images
    (i n-1).(j n).s per j decides both counts; each division is checked to
    be exact.  A seed t lies in an earlier orbit exactly when one of its
    rows meets an earlier M, and then it is skipped, since the orbits of a
    group are equal or disjoint; each other orbit adds its size to the cell
    of its seed.  The rows and each row start with the unswapped collection,
    so n = 1 and 2 take the same path: one row of one image at n = 1, two
    at n = 2.
    """
    top, sub = n - 1, n - 2
    top_deltas = [_delta(n, j, top) for j in range(top)]
    sub_deltas = [_delta(n, i, sub) for i in range(sub)]
    seen: set[int] = set()  # the union of the M of the seeds counted so far
    counts: dict[tuple[int, int], int] = {}
    for seed in seeds:
        # (j n).seed for j = n, 1, .., n - 1, then every (i n-1) of those:
        # row j is images[j::width], and row 0 (j = n) holds the (i n-1).seed;
        # lists, since two swaps may give one image and each c counts them
        swapped = [seed, *_swap_images((seed,), top_deltas)]
        width = len(swapped)
        images = swapped + _swap_images(swapped, sub_deltas)
        if not seen.isdisjoint(images):
            continue
        members = {seed}
        for m in range(1, sub):
            members = relabel_stage(members, n, m)
        size = len(members)
        c1 = sum(1 for x in images[::width] if x in members)
        c2 = sum(1 for j in range(width) if not members.isdisjoint(images[j::width]))
        for swaps, c in ((len(sub_deltas) + 1, c1), (width, c2)):
            if not c or swaps * size % c:
                raise RuntimeError(
                    f"inexact orbit count at n={n}: {c} of {swaps} swaps keep the"
                    f" seed in a closure of {size} members, and {c} does not divide"
                    f" {swaps} * {size}"
                )
            size = swaps * size // c
        seen |= members
        key = loops_and_cogirth(seed, n)
        counts[key] = counts.get(key, 0) + size
    return counts
