"""Closed forms for the Chow and augmented Chow polynomials of uniform matroids.

Four equivalent univariate expansions are implemented for the rank-k uniform
matroid on n elements, selected by name:

* ``monomial``        -- sum over index sets I inside {1..k} (containing 1 in
  the non-augmented case) of the gap multinomial of I times x^(|I|-1)
  (augmented: x^|I|).
* ``gamma_eulerian``  -- sum over no-consecutive descent sets D (avoiding 1 in
  the non-augmented case) of the number of n-permutations with descent set D
  times x^|D| (1+x)^(k-1-2|D|) (augmented exponent: k-2|D|).
* ``gamma_perm``      -- sum over permutations s of {1..k} whose descent set
  has no consecutive positions (and an ascent in position 1 when not
  augmented) of C(n - s(k), k - s(k)) times the same gamma-shaped weight.
* ``convolution``     -- a convolution of derangement (resp. Eulerian)
  polynomials against binomials with a truncated geometric factor.

The two multivariate refinements (``monomial`` and ``gamma`` bases) collapse
to the univariate forms under ``specialize``.  All results are exact.
"""

from __future__ import annotations

from math import comb, factorial

from .combinat import (
    delta_multinomial,
    derangement_poly,
    eulerian_fixed_descents,
    eulerian_poly,
    nc_subsets,
)
from .polynomial import SqfMultiPoly, UniPoly
from .polynomial import gamma_reconstruct, gamma_reconstruct_multivariate

METHODS = ("monomial", "gamma_eulerian", "gamma_perm", "convolution")
MULTIVARIATE_BASES = ("monomial", "gamma")

# Largest rank for the forms exponential in k (``monomial``, ``gamma_eulerian``
# and both multivariate bases; seconds at k = 20, about 4x per two ranks).
# Above it they raise ValueError; ``gamma_perm`` and ``convolution`` scale.
EXPONENTIAL_RANK_MAX = 18


def _check_domain(k: int, n: int, augmented: bool) -> None:
    lower = 0 if augmented else 1
    if not lower <= k <= n:
        note = (
            " (k = 0 is only defined for the augmented polynomial)"
            if k < 1 and not augmented
            else ""
        )
        raise ValueError(f"rank k={k} out of domain {lower} <= k <= n for n={n}{note}")


def _check_exponential_rank(form: str, k: int) -> None:
    if form not in ("gamma_perm", "convolution") and k > EXPONENTIAL_RANK_MAX:
        raise ValueError(
            f"the {form} form is exponential in k and capped at k <= "
            f"{EXPONENTIAL_RANK_MAX}, got k={k}; use gamma_perm or convolution"
        )


def _monomial_form(k: int, n: int, augmented: bool) -> UniPoly:
    coeffs = [0] * (k + 1)
    # subsets of {1..k} as bit patterns in increasing numeric order
    for pattern in range(1 << k):
        if not augmented and not pattern & 1:
            continue
        index_set = [i + 1 for i in range(k) if pattern >> i & 1]
        degree = len(index_set) if augmented else len(index_set) - 1
        coeffs[degree] += delta_multinomial(n, index_set)
    return UniPoly(coeffs)


def _gamma_eulerian_form(k: int, n: int, augmented: bool) -> UniPoly:
    d = k if augmented else k - 1
    gammas = [0] * (d // 2 + 1)
    for dset in nc_subsets(k - 1, exclude_one=not augmented):
        gammas[len(dset)] += eulerian_fixed_descents(n, dset)
    return gamma_reconstruct(gammas, d)


def _gamma_perm_form(k: int, n: int, augmented: bool) -> UniPoly:
    from .kernels import perm_descent_aggregates

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
    augmented polynomial and yields the constant 1); ``monomial`` and
    ``gamma_eulerian`` also require k <= EXPONENTIAL_RANK_MAX.
    """
    _check_domain(k, n, augmented)
    try:
        form = _FORMS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}") from None
    if k == 0:  # augmented only; sole contribution is the empty index set
        return UniPoly.one()
    _check_exponential_rank(method, k)
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
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} out of domain 1 <= k <= n for n={n}")
    if basis not in MULTIVARIATE_BASES:
        raise ValueError(
            f"unknown basis {basis!r}, expected one of {MULTIVARIATE_BASES}"
        )
    _check_exponential_rank(f"multivariate {basis}", k)
    var_range = (0 if augmented else 1, k - 1)
    if basis == "gamma":
        weights = {
            dset: eulerian_fixed_descents(n, dset)
            for dset in nc_subsets(k - 1, exclude_one=not augmented)
        }
        return gamma_reconstruct_multivariate(weights, var_range)
    terms: dict[tuple[int, ...], int] = {}
    for pattern in range(1 << k):
        if not augmented and not pattern & 1:
            continue
        index_set = [i + 1 for i in range(k) if pattern >> i & 1]
        if augmented:
            key = tuple(i - 1 for i in index_set)
        else:
            key = tuple(i - 1 for i in index_set if i != 1)
        terms[key] = terms.get(key, 0) + delta_multinomial(n, index_set)
    return SqfMultiPoly(var_range, terms)


def _trinomial(n: int, a: int, b: int) -> int:
    """n! / (a! b! (n-a-b)!)."""
    rest = n - a - b
    if a < 0 or b < 0 or rest < 0:
        return 0
    return factorial(n) // (factorial(a) * factorial(b) * factorial(rest))


def coefficient_formula(k: int, n: int, m: int, augmented: bool = False) -> int:
    """Direct formulas for the coefficient of x^m, m in {1, 2}.

    These evaluate closed sums of binomials and trinomials rather than
    expanding the whole polynomial; they agree with coefficient extraction
    from ``closed_form`` for every 1 <= k <= n.
    """
    _check_domain(k, n, augmented)
    if m == 1:
        if augmented:
            return sum(delta_multinomial(n, (i,)) for i in range(1, k + 1))
        return sum(delta_multinomial(n, (1, i)) for i in range(2, k + 1))
    if m == 2:
        if augmented:
            total = sum(comb(n, i - 1) for i in range(1, k))
            total += sum(
                _trinomial(n, i - 1, j)
                for i in range(1, k - 1)
                for j in range(2, k - i + 1)
            )
            return total
        total = 1 if k >= 3 else 0
        total += sum(comb(n, i) for i in range(3, k))
        total += sum(comb(n, i) for i in range(2, k - 1))
        total += sum(
            _trinomial(n, i, j)
            for i in range(2, k - 2)
            for j in range(2, k - i)
        )
        return total
    raise ValueError(f"unsupported coefficient index m={m}, only 1 and 2 are available")
