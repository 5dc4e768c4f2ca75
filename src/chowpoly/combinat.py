"""Descent-set combinatorics.

Positions and ground-set elements are 1-based throughout: a descent of the
sequence (a_1, ..., a_m) is a position i in 1..m-1 with a_i > a_{i+1}.

The module provides the one multinomial of the package, a running product
of binomials that never forms a factorial of the total; the gap
multinomial attached to an index set (from the minima of its maximal runs
of consecutive integers); descent-set counting over the symmetric group, for
every set of positions with no two consecutive at once, listed by
``polynomial.run_minima_sets`` (the count with descents inside a set is
its parent's times one binomial, and a Moebius transform makes the counts
exact); the weighted sums over permutations with no two adjacent descents
that ``gamma_perm`` needs (an exact insertion DP, polynomial in k;
``tests/oracles.py`` holds the k! scan it replaces), and the rows of the
Eulerian and derangement polynomials as coefficient lists, each row from the
one or two before it by its recurrence, so k rows take O(k^2) operations.
"""

from __future__ import annotations

from itertools import count, islice
from math import comb
from typing import Iterable, Iterator

from .polynomial import MAX_VARIABLES, UniPoly, _is_int, run_minima_sets


def _as_index_set(elements: Iterable[int]) -> tuple[int, ...]:
    """Normalize to a strictly increasing tuple of positive integers."""
    elems = tuple(sorted(set(elements)))
    if elems and elems[0] < 1:
        raise ValueError(f"index sets contain positive integers only, got {elems[0]}")
    return elems


def _check_n(n: int) -> None:
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"negative n={n}")


def multinomial(parts: Iterable[int]) -> int:
    """(p_1 + ... + p_s)! / (p_1! ... p_s!) for nonnegative parts p_j.

    Computed as C(p_1, p_1) C(p_1 + p_2, p_2) ... C(p_1 + ... + p_s, p_s),
    one binomial per part; no parts give 1.  A negative part is a ValueError.
    """
    result, total = 1, 0
    for p in parts:
        total += p
        result *= comb(total, p)
    return result


def delta_multinomial(n: int, index_set: Iterable[int]) -> int:
    """Gap multinomial of an index set I inside {1..n}.

    With m_1 < ... < m_s the minima of the maximal runs of consecutive
    integers in I (the elements e with e - 1 not in I), this is n! divided by
    (m_1 - 1)!, the gaps (m_{j+1} - m_j)!, and the remainder (n - m_s + 1)!.
    The empty set yields 1, and an n that is not an int >= 0 is a ValueError.
    """
    _check_n(n)
    elems = _as_index_set(index_set)
    if not elems:
        return 1
    if elems[-1] > n:
        raise ValueError(f"element {elems[-1]} exceeds ground size n={n}")
    minima = [e for i, e in enumerate(elems) if i == 0 or elems[i - 1] != e - 1]
    parts = [minima[0] - 1]
    parts += [b - a for a, b in zip(minima, minima[1:])]
    parts.append(n - minima[-1] + 1)
    return multinomial(parts)


def _check_positions(m: int) -> None:
    """Refuse more than MAX_VARIABLES positions 1..m before any is listed."""
    if m > MAX_VARIABLES:
        raise ValueError(
            f"descent positions 1..{m} are {m} positions, more than {MAX_VARIABLES = }"
        )


def exact_descent_counts(n: int, m: int, exclude_one: bool = False) -> dict[int, int]:
    """Number of permutations of {1..n} with descent set exactly D, for every
    D inside positions 1..m (2..m with ``exclude_one``) without two
    consecutive positions, keyed by its bitmask (bit i for position i) in
    ascending order.  An m above MAX_VARIABLES is a ValueError.

    A permutation has its descents inside D exactly when it increases on
    each block between the cuts of D, so that count is the multinomial of
    the block sizes.  The sets are ``run_minima_sets`` shifted by one, and
    ascending order puts each set after the set without its largest
    position t; adding t splits the last block, so its count is that set's
    times C(n - last, t - last), with last = 0 for the empty set.  The
    family is closed under taking subsets, so one in-place Moebius transform
    over it turns every such count into the exact count.
    """
    if m > max(n - 1, 0):
        raise ValueError(f"descent position {m} out of range for n={n}")
    _check_positions(m)
    counts = {0: 1}
    for a in run_minima_sets(m, not exclude_one)[1:]:  # bit i - 1 for position i
        t = a.bit_length()
        rest = a ^ 1 << (t - 1)
        last = rest.bit_length()
        counts[a << 1] = counts[rest << 1] * comb(n - last, t - last)
    for i in range(1, m + 1):
        bit = 1 << i
        for mask in counts:
            if mask & bit:
                counts[mask] -= counts[mask ^ bit]
    return counts


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


def eulerian_rows() -> Iterator[list[int]]:
    """The coefficient lists of the Eulerian polynomials A_0, A_1, ..., row m
    padded with zeros to length m + 1, by the triangle recurrence
    T(m, j) = (j+1) T(m-1, j) + (m-j) T(m-1, j-1); A_0 = A_1 = 1."""
    row = [1]
    for m in count(1):
        yield row
        out = [0] * (m + 1)
        for j, c in enumerate(row):
            out[j] += (j + 1) * c
            out[j + 1] += (m - j - 1) * c
        row = out


def derangement_rows() -> Iterator[list[int]]:
    """The coefficient lists of the derangement polynomials d_0, d_1, ..., row
    m padded with zeros to length m + 1, by the recurrence
    d_m = (m-1) x (d_{m-1} + d_{m-2}) + x (1-x) d'_{m-1}, whose coefficient
    of x^i is i d_{m-1}[i] + (m-i) d_{m-1}[i-1] + (m-1) d_{m-2}[i-1];
    d_0 = 1 and d_1 = 0."""
    older, row = [], [1]
    for m in count(1):
        yield row
        out = [0] * (m + 1)
        for i, c in enumerate(row):
            out[i] += i * c
            out[i + 1] += (m - i - 1) * c
        for i, c in enumerate(older):
            out[i + 1] += (m - 1) * c
        older, row = row, out


def eulerian_poly(n: int) -> UniPoly:
    """Descent-generating polynomial over all permutations of {1..n}: row n
    of ``eulerian_rows``.  Both n = 0 and n = 1 give the constant 1."""
    _check_n(n)
    return UniPoly(next(islice(eulerian_rows(), n, None)))


def derangement_poly(n: int) -> UniPoly:
    """Excedance-generating polynomial over fixpoint-free permutations of
    {1..n}: row n of ``derangement_rows``."""
    _check_n(n)
    return UniPoly(next(islice(derangement_rows(), n, None)))
