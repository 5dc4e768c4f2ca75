"""Closed forms for the Chow and augmented Chow polynomials of uniform matroids.

Four equivalent univariate expansions are implemented for the rank-k uniform
matroid on n elements, selected by name:

* ``monomial``        -- sum over index sets I inside {1..k} (containing 1 in
  the non-augmented case) of the gap multinomial of I times x^(|I|-1)
  (augmented: x^|I|).  The multinomial depends only on the run minima of I,
  so the sum is a polynomial-time DP over run minima and sizes.
* ``gamma_eulerian``  -- sum over no-consecutive descent sets D (avoiding 1 in
  the non-augmented case) of the number of n-permutations with descent set D
  times x^|D| (1+x)^(k-1-2|D|) (augmented exponent: k-2|D|).  The counts of
  all D come from one Moebius transform over the family.
* ``gamma_perm``      -- sum over permutations s of {1..k} whose descent set
  has no consecutive positions (and an ascent in position 1 when not
  augmented) of C(n - s(k), k - s(k)) times the same gamma-shaped weight.
* ``convolution``     -- a convolution of derangement (resp. Eulerian)
  polynomials against binomials with a truncated geometric factor, in
  O(k^2) operations: the rows come from their recurrences, and one running
  sum applies every geometric factor.

The two multivariate refinements (``monomial`` and ``gamma`` bases) collapse
to the univariate forms under ``specialize``; they have up to 2^k terms.  All
results are exact.

One table per kind, ``_FORMS`` and ``_BASES``, maps each name to the form's
function and its growth in k, which sets its rank bound.  ``METHODS`` and
``MULTIVARIATE_BASES`` are the tables' names in order: a new form is one row.
"""

from __future__ import annotations

import sys
from functools import partial
from itertools import accumulate
from math import comb
from typing import Callable, NamedTuple

from .combinat import (
    derangement_rows,
    eulerian_rows,
    exact_descent_counts,
    perm_descent_aggregates,
)
from .polynomial import (
    MAX_VARIABLES,
    SqfMultiPoly,
    UniPoly,
    _is_int,
    _show_int,
    expand_run_minima,
    gamma_reconstruct,
    gamma_reconstruct_multivariate,
    run_minima_sets,
)

# Largest rank for the forms exponential in k: ``gamma_eulerian`` sums over
# Fib(k) descent sets (augmented, 2 CPUs, Python 3.11: 0.02 s at k = n = 20,
# 0.07 s at 22) and both multivariate bases fill 2^k coefficients (k = n = 18,
# plain / augmented, best of 7: monomial 0.007 / 0.016 s, gamma 0.018 /
# 0.033 s).  Above it the rows marked exponential raise ValueError.  It is
# the variable bound of the multivariate polynomials and of the descent
# positions, not a second number, so a form that ``checked_form`` lets start
# is never refused by those bounds halfway.
EXPONENTIAL_RANK_MAX = MAX_VARIABLES

# Largest rank for every form and for ``coefficient_formula``.  The
# ``monomial`` and ``gamma_perm`` forms grow like k^3 to k^4 big-integer
# operations, ``convolution`` like k^2 (2 CPUs, Python 3.11: the slowest,
# ``monomial``, takes about 1 s at k = n = 200, 2 s at 256 and 6 s at 320;
# ``convolution`` under 0.1 s at 320).
RANK_MAX = 256


def _check_domain(k: int, n: int, augmented: bool) -> None:
    if not (_is_int(k) and _is_int(n)):
        raise ValueError(f"rank k and ground size n must be ints, got k={k!r}, n={n!r}")
    lower = 0 if augmented else 1
    if not lower <= k <= n:
        note = (
            " (k = 0 is only defined for the augmented polynomial)"
            if k == 0 and not augmented
            else ""
        )
        raise ValueError(
            f"rank k={_show_int(k)} out of domain {lower} <= k <= n for n={_show_int(n)}{note}"
        )
    # Each coefficient sums at most 2^k gap multinomials below n^k, so it has
    # at most k * (n.bit_length() + 1) bits; a limit of 0 admits any length.
    # The bits times log10(2) are taken in ints: a float overflows past 2^1024.
    limit = getattr(sys, "get_int_max_str_digits", int)()  # none before 3.10.7
    digits = k * (n.bit_length() + 1) * 3010299956639812 // 10**16 + 1
    if 0 < limit < digits:
        raise ValueError(
            f"coefficients at k={_show_int(k)} and a {n.bit_length()}-bit n can have "
            f"{_show_int(digits)} digits, "
            f"more than the {limit} that Python converts to a string"
        )


def _check_rank(form: str, k: int, exponential: bool) -> None:
    if exponential and k > EXPONENTIAL_RANK_MAX:
        *most, last = (name for name, row in _FORMS.items() if not row.exponential)
        raise ValueError(
            f"the {form} form is exponential in k and capped at k <= {EXPONENTIAL_RANK_MAX}, "
            f"got k={_show_int(k)}; use {', '.join(most)} or {last}"
        )
    if k > RANK_MAX:
        raise ValueError(f"{form} is capped at rank k <= {RANK_MAX}, got k={_show_int(k)}")


def _monomial_form(k: int, n: int, augmented: bool) -> UniPoly:
    # An index set is a sequence of runs [m_j, m_j + l_j) with gaps between
    # them, and its gap multinomial telescopes to
    # C(n, m_1 - 1) * prod_j C(n - m_j + 1, m_{j+1} - m_j).  f[m][t] is the
    # weighted count of run sequences whose next run starts at m after t
    # elements; the non-augmented sets start at 1.
    f = [[0] * (k + 1) for _ in range(k + 1)]
    for m in range(1, k + 1 if augmented else 2):
        f[m][0] = comb(n, m - 1)
    sizes = [1 if augmented else 0] + [0] * k  # by |I|; augmented: the empty set
    for m in range(1, k + 1):
        row = f[m]
        # the last run, of length 1..k - m + 1
        for t, w in enumerate(row):
            if w:
                for length in range(1, k - m + 2):
                    sizes[t + length] += w
        # a run of length 1..m' - m - 1 before the next minimum m'
        window = [0] * (k + 1)
        for nxt in range(m + 2, k + 1):
            length = nxt - m - 1
            for t in range(k + 1 - length):
                window[t + length] += row[t]
            c = comb(n - m + 1, nxt - m)
            target = f[nxt]
            for t, w in enumerate(window):
                if w:
                    target[t] += c * w
    return UniPoly(sizes if augmented else sizes[1:])


def _gamma_eulerian_form(k: int, n: int, augmented: bool) -> UniPoly:
    d = k if augmented else k - 1
    gammas = [0] * (d // 2 + 1)
    for mask, count in exact_descent_counts(n, k - 1, not augmented).items():
        gammas[mask.bit_count()] += count
    return gamma_reconstruct(gammas, d)


def _gamma_perm_form(k: int, n: int, augmented: bool) -> UniPoly:
    if k == 0:  # augmented only; sole contribution is the empty index set
        return UniPoly((1,))
    binoms = [0] + [comb(n - t, k - t) for t in range(1, k + 1)]
    agg = perm_descent_aggregates(k, binoms, first_ascent_required=not augmented)
    return gamma_reconstruct(agg, k if augmented else k - 1)


def _convolution_form(k: int, n: int, augmented: bool) -> UniPoly:
    # sum_j C(n, j) s_j(x) (1 - x^(k-j)) / (1 - x), augmented: 1 + x times
    # it, as a difference list that one running sum divides by 1 - x
    shift = int(augmented)
    diff = [shift, -shift] + [0] * k  # augmented: the constant 1
    rows = eulerian_rows() if augmented else derangement_rows()
    for j, series in zip(range(k), rows):
        binom = comb(n, j)
        for i, s in enumerate(series, shift):
            diff[i] += binom * s
            diff[i + k - j] -= binom * s
    return UniPoly(accumulate(diff))


def _gamma_basis(k: int, n: int, augmented: bool) -> SqfMultiPoly:
    weights = exact_descent_counts(n, k - 1, not augmented)
    return gamma_reconstruct_multivariate(weights, (0 if augmented else 1, k - 1))


def _monomial_basis(k: int, n: int, augmented: bool) -> SqfMultiPoly:
    # dense position q is an index set as a bit pattern: bit i of q is
    # variable lo + i, index lo + i + 1, and the non-augmented sets all hold
    # index 1, which has no variable.  The gap multinomial depends only on
    # the run minima M, ``q & ~(q << 1)``: non-augmented, bit 0 (index 2) is
    # never one, as index 1 precedes it, and index 1 is left out.  The weight
    # telescopes as in ``_monomial_form``:
    # weight(M) = weight(M - top) * C(n - prev + 1, top - prev) over the two
    # largest minima by index, with prev = 1 when there is no second, and
    # the empty M weighs 1.  Ascending order puts M - top before M.
    lo = 0 if augmented else 1
    width = k - lo
    weight = {0: 1}
    for m in run_minima_sets(width, 1 - lo)[1:]:
        rest = m ^ (1 << (m.bit_length() - 1))
        top = m.bit_length() + lo
        prev = rest.bit_length() + lo or 1
        weight[m] = weight[rest] * comb(n - prev + 1, top - prev)
    return SqfMultiPoly.from_dense((lo, k - 1), expand_run_minima(weight, width, 1 - lo))


class _Form(NamedTuple):
    function: Callable[[int, int, bool], UniPoly | SqfMultiPoly]
    exponential: bool  # in k, so capped at EXPONENTIAL_RANK_MAX


_FORMS = {
    "monomial": _Form(_monomial_form, exponential=False),
    "gamma_eulerian": _Form(_gamma_eulerian_form, exponential=True),
    "gamma_perm": _Form(_gamma_perm_form, exponential=False),
    "convolution": _Form(_convolution_form, exponential=False),
}
_BASES = {
    "monomial": _Form(_monomial_basis, exponential=True),
    "gamma": _Form(_gamma_basis, exponential=True),
}
METHODS = tuple(_FORMS)
MULTIVARIATE_BASES = tuple(_BASES)


def checked_form(
    k: int, n: int, name: str, augmented: bool = False, multivariate: bool = False
) -> Callable[[], UniPoly | SqfMultiPoly]:
    """Check the domain, the name of the form (``multivariate``: basis) and its
    rank bound, in this order; return a call without arguments that runs it."""
    _check_domain(k, n, augmented)
    kind, table = ("basis", _BASES) if multivariate else ("method", _FORMS)
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}, expected one of {tuple(table)}")
    function, exponential = table[name]
    _check_rank(f"multivariate {name}" if multivariate else name, k, exponential)
    return partial(function, k, n, augmented)


def closed_form(
    k: int, n: int, method: str = "monomial", augmented: bool = False
) -> UniPoly:
    """Chow (or augmented Chow) polynomial of the rank-k uniform matroid on
    {1..n}, computed by the named expansion.

    All methods agree; computing several and comparing is a useful
    independent check.  Requires int 1 <= k <= n (k = 0 is admitted for the
    augmented polynomial and yields the constant 1), k <= RANK_MAX and
    coefficients that fit the ``sys.get_int_max_str_digits()`` limit;
    ``gamma_eulerian`` also requires k <= EXPONENTIAL_RANK_MAX.
    """
    return checked_form(k, n, method, augmented)()


def multivariate_closed_form(
    k: int, n: int, basis: str = "monomial", augmented: bool = False
) -> SqfMultiPoly:
    """Multivariate refinement of the (augmented) Chow polynomial.

    Non-augmented polynomials live in variables x_1..x_{k-1}, augmented ones
    in x_0..x_{k-1}.  The ``monomial`` basis attaches each index set I to the
    squarefree monomial over the shifted set; the ``gamma`` basis expands
    products of (1 + x_i) over positions not adjacent to a descent.
    Specializing all variables to x recovers ``closed_form``.  Both bases
    require k <= EXPONENTIAL_RANK_MAX.
    """
    return checked_form(k, n, basis, augmented, multivariate=True)()


def _binomial_sum(n: int, lo: int, hi: int) -> int:
    """Sum of C(n, j) for lo <= j < hi, each term from the one before."""
    total = 0
    c = comb(n, lo)
    for j in range(lo, hi):
        total += c
        c = c * (n - j) // (j + 1)
    return total


def coefficient_formula(k: int, n: int, m: int, augmented: bool = False) -> int:
    """Direct formulas for the coefficient of x^m, m in {1, 2}.

    These evaluate closed sums of binomials and trinomials rather than
    expanding the whole polynomial; they agree with coefficient extraction
    from ``closed_form`` for every 1 <= k <= n, and like it they require
    k <= RANK_MAX.  The coefficient of x sums the gap multinomials of I = {i}
    (augmented) or I = {1, i}: C(n, i - 1), except 1 for I = {1, 2}, a
    single run.  In the coefficient of x^2 each trinomial is
    C(n, i) * C(n - i, j) (augmented: C(n, i - 1) * C(n - i + 1, j)), so the
    first binomial multiplies one sum over j per i.
    """
    _check_domain(k, n, augmented)
    _check_rank("coefficient_formula", k, exponential=False)
    if not _is_int(m) or m not in (1, 2):
        raise ValueError(f"unsupported coefficient index m={m!r}, only 1 and 2 are available")
    if m == 1:
        if augmented:
            return sum(comb(n, i - 1) for i in range(1, k + 1))
        return (1 if k >= 2 else 0) + sum(comb(n, i - 1) for i in range(3, k + 1))
    if augmented:
        total = sum(comb(n, i - 1) for i in range(1, k))
        total += sum(
            comb(n, i - 1) * _binomial_sum(n - i + 1, 2, k - i + 1)
            for i in range(1, k - 1)
        )
        return total
    total = 1 if k >= 3 else 0
    total += sum(comb(n, i) for i in range(3, k))
    total += sum(comb(n, i) for i in range(2, k - 1))
    total += sum(comb(n, i) * _binomial_sum(n - i, 2, k - i) for i in range(2, k - 2))
    return total
