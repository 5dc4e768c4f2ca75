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
  polynomials against binomials with a truncated geometric factor.

The two multivariate refinements (``monomial`` and ``gamma`` bases) collapse
to the univariate forms under ``specialize``; they have up to 2^k terms.  All
results are exact.
"""

from __future__ import annotations

from math import comb

from .combinat import (
    delta_multinomial,
    derangement_poly,
    eulerian_poly,
    exact_descent_counts,
    multinomial,
    perm_descent_aggregates,
)
from .polynomial import SqfMultiPoly, UniPoly
from .polynomial import gamma_reconstruct, gamma_reconstruct_multivariate

METHODS = ("monomial", "gamma_eulerian", "gamma_perm", "convolution")
MULTIVARIATE_BASES = ("monomial", "gamma")

# Largest rank for the forms exponential in k: ``gamma_eulerian`` sums over
# Fib(k) descent sets (augmented, 2 CPUs, Python 3.11: 0.04 s at k = n = 20,
# 0.2 s at 22) and both multivariate bases return 2^k terms (about 0.25 s at
# k = n = 18, about 4x per two ranks).  Above it they raise ValueError;
# ``monomial``, ``gamma_perm`` and ``convolution`` are polynomial in k.
EXPONENTIAL_RANK_MAX = 18

# Largest rank for every form and for ``coefficient_formula``.  The
# polynomial forms still grow like k^3 to k^4 big-integer operations: the
# slowest takes about 1.3 s at k = n = 200, 3 s at 256 and 6 s at 320, and
# coefficient_formula(1000, 1000, 2) takes about 19 s.
RANK_MAX = 256

_POLYNOMIAL_FORMS = ("monomial", "gamma_perm", "convolution", "coefficient_formula")


def _check_domain(k: int, n: int, augmented: bool) -> None:
    lower = 0 if augmented else 1
    if not lower <= k <= n:
        note = (
            " (k = 0 is only defined for the augmented polynomial)"
            if k == 0 and not augmented
            else ""
        )
        raise ValueError(f"rank k={k} out of domain {lower} <= k <= n for n={n}{note}")


def _check_rank(form: str, k: int) -> None:
    if form not in _POLYNOMIAL_FORMS and k > EXPONENTIAL_RANK_MAX:
        raise ValueError(
            f"the {form} form is exponential in k and capped at k <= {EXPONENTIAL_RANK_MAX}, "
            f"got k={k}; use monomial, gamma_perm or convolution"
        )
    if k > RANK_MAX:
        raise ValueError(f"{form} is capped at rank k <= {RANK_MAX}, got k={k}")


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
    for dset, count in exact_descent_counts(n, k - 1, not augmented).items():
        gammas[len(dset)] += count
    return gamma_reconstruct(gammas, d)


def _gamma_perm_form(k: int, n: int, augmented: bool) -> UniPoly:
    binoms = [0] + [comb(n - t, k - t) for t in range(1, k + 1)]
    agg = perm_descent_aggregates(k, binoms, first_ascent_required=not augmented)
    return gamma_reconstruct(agg, k if augmented else k - 1)


def _convolution_form(k: int, n: int, augmented: bool) -> UniPoly:
    acc = UniPoly.zero()
    for j in range(k):
        series = eulerian_poly(j) if augmented else derangement_poly(j)
        if series:
            acc = acc + comb(n, j) * series * UniPoly.geometric(k - 1 - j)
    if augmented:
        return UniPoly.one() + UniPoly.x() * acc
    return acc


_FORMS = {
    "monomial": _monomial_form,
    "gamma_eulerian": _gamma_eulerian_form,
    "gamma_perm": _gamma_perm_form,
    "convolution": _convolution_form,
}


def closed_form(
    k: int, n: int, method: str = "monomial", augmented: bool = False
) -> UniPoly:
    """Chow (or augmented Chow) polynomial of the rank-k uniform matroid on
    {1..n}, computed by the named expansion.

    All methods agree; computing several and comparing is a useful
    independent check.  Requires 1 <= k <= n (k = 0 is admitted for the
    augmented polynomial and yields the constant 1) and k <= RANK_MAX;
    ``gamma_eulerian`` also requires k <= EXPONENTIAL_RANK_MAX.
    """
    _check_domain(k, n, augmented)
    try:
        form = _FORMS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}") from None
    _check_rank(method, k)
    if k == 0:  # augmented only; sole contribution is the empty index set
        return UniPoly.one()
    return form(k, n, augmented)


def multivariate_closed_form(
    k: int, n: int, basis: str = "monomial", augmented: bool = False
) -> SqfMultiPoly:
    """Multivariate refinement of the (augmented) Chow polynomial.

    Non-augmented polynomials live in variables x_1..x_{k-1}, augmented ones
    in x_0..x_{k-1}.  The ``monomial`` basis attaches each index set I to the
    squarefree monomial over the shifted set; the ``gamma`` basis expands
    products of (1 + x_i) over positions not adjacent to a descent.
    Specializing all variables to x recovers ``closed_form``.
    """
    _check_domain(k, n, augmented)
    if basis not in MULTIVARIATE_BASES:
        raise ValueError(
            f"unknown basis {basis!r}, expected one of {MULTIVARIATE_BASES}"
        )
    _check_rank(f"multivariate {basis}", k)
    var_range = (0 if augmented else 1, k - 1)
    if basis == "gamma":
        weights = exact_descent_counts(n, k - 1, not augmented)
        return gamma_reconstruct_multivariate(weights, var_range)
    # index sets as bit patterns (bit i for index i + 1); bit i of the dense
    # position q is variable lo + i, index lo + i + 1, and the non-augmented
    # sets all hold index 1, which has no variable.  The gap multinomial
    # depends only on the run minima.
    lo = var_range[0]
    weight_of: dict[int, int] = {}
    coeffs = []
    for q in range(1 << (k - lo)):
        pattern = q << lo | lo
        minima = pattern & ~(pattern << 1)
        w = weight_of.get(minima)
        if w is None:
            w = weight_of[minima] = delta_multinomial(
                n, [i + 1 for i in range(k) if minima >> i & 1]
            )
        coeffs.append(w)
    return SqfMultiPoly.from_dense(var_range, coeffs)


def coefficient_formula(k: int, n: int, m: int, augmented: bool = False) -> int:
    """Direct formulas for the coefficient of x^m, m in {1, 2}.

    These evaluate closed sums of binomials and trinomials rather than
    expanding the whole polynomial; they agree with coefficient extraction
    from ``closed_form`` for every 1 <= k <= n, and like it they require
    k <= RANK_MAX.  The coefficient of x sums the gap multinomials of I = {i}
    (augmented) or I = {1, i}: C(n, i - 1), except 1 for I = {1, 2}, a
    single run.
    """
    _check_domain(k, n, augmented)
    _check_rank("coefficient_formula", k)
    if m == 1:
        if augmented:
            return sum(comb(n, i - 1) for i in range(1, k + 1))
        return (1 if k >= 2 else 0) + sum(comb(n, i - 1) for i in range(3, k + 1))
    if m == 2:
        if augmented:
            total = sum(comb(n, i - 1) for i in range(1, k))
            total += sum(
                multinomial((i - 1, j, n - i + 1 - j))
                for i in range(1, k - 1)
                for j in range(2, k - i + 1)
            )
            return total
        total = 1 if k >= 3 else 0
        total += sum(comb(n, i) for i in range(3, k))
        total += sum(comb(n, i) for i in range(2, k - 1))
        total += sum(
            multinomial((i, j, n - i - j))
            for i in range(2, k - 2)
            for j in range(2, k - i)
        )
        return total
    raise ValueError(f"unsupported coefficient index m={m}, only 1 and 2 are available")
