"""Exact polynomials with arbitrary-precision integer coefficients.

Two representations are provided:

* ``UniPoly`` -- a dense univariate polynomial, stored as a coefficient
  tuple with index i holding the coefficient of x^i.  Trailing zeros are
  trimmed, so the zero polynomial is the empty tuple.

* ``SqfMultiPoly`` -- a dense multivariate polynomial whose monomials are
  squarefree products of the variables x_lo..x_hi of a declared range of at
  most MAX_VARIABLES, stored as a coefficient tuple whose entry q is the
  monomial over the x_{lo+i} with bit i of q set; entry 0 is the constant
  term.  Each key of a dict it is built from is checked to be in range and
  squarefree.  It has no arithmetic: the multivariate formulas of this
  package fill one coefficient per subset of the range (``from_dense``),
  then compare, specialize, render or serialize the result.

All coefficients are Python ints, so results are exact at any size.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

# Widest range of a SqfMultiPoly, which stores 2^width coefficients: every
# basis (k <= EXPONENTIAL_RANK_MAX) and chain oracle (rank <= MAX_GROUND) fits.
MAX_VARIABLES = 18


class NonSquarefreeProductError(ValueError):
    """Raised when a multivariate monomial repeats a variable."""


class NotPalindromicError(ValueError):
    """Raised when a polynomial is not palindromic about the requested center."""


def _join_terms(terms: Iterable[tuple[str, int]]) -> str:
    """Join (monomial text, coefficient) pairs into a sum.  Zero coefficients
    are skipped, a coefficient of 1 is elided and -1 becomes a minus sign;
    the constant term, whose text is empty, is written as its number.  No
    nonzero term gives "0"."""
    parts: list[str] = []
    for mono, c in terms:
        if c == 0:
            continue
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class UniPoly:
    """Dense univariate polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "UniPoly":
        """coeff * x**power."""
        return cls((0,) * power + (coeff,))

    @classmethod
    def one_plus_x_power(cls, e: int) -> "UniPoly":
        """(1 + x)**e via the binomial row, avoiding repeated multiplication."""
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        return cls(comb(e, i) for i in range(e + 1))

    @classmethod
    def geometric(cls, top: int) -> "UniPoly":
        """1 + x + ... + x**top (zero polynomial when top < 0)."""
        return cls((1,) * (top + 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int:
        """Coefficient of x**i (0 beyond the stored degree)."""
        if i < 0:
            raise IndexError(f"negative exponent {i}")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("UniPoly", self.coeffs))

    def __add__(self, other: "UniPoly | int") -> "UniPoly":
        if isinstance(other, int):
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other: "UniPoly | int") -> "UniPoly":
        if not isinstance(other, (UniPoly, int)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "UniPoly | int") -> "UniPoly":
        if isinstance(other, int):
            return UniPoly(other * c for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def render(self) -> str:
        """Human-readable form like ``1 + 11*x + x^2``; unit coefficients are elided."""
        return _join_terms(
            ("x" if i == 1 else f"x^{i}" if i else "", c)
            for i, c in enumerate(self.coeffs)
        )

    def __repr__(self) -> str:
        return f"UniPoly({self.render()})"

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, exact beyond native integer width."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list) -> "UniPoly":
        """Inverse of ``to_json``; a malformed document is a ValueError."""
        if not isinstance(data, list):
            raise ValueError(f"polynomial JSON is malformed: {type(data).__name__}, not a list")
        try:
            return cls(map(_json_int, data))
        except ValueError as exc:
            raise ValueError(f"polynomial JSON is malformed: {exc}") from None


class SqfMultiPoly:
    """Multivariate polynomial with squarefree monomials in variables x_lo..x_hi.

    ``coeffs`` holds one coefficient per subset of the range, 2^width in
    all: entry q is the coefficient of the monomial that holds x_{lo+i}
    exactly when bit i of q is set, so entry 0 is the constant term.  A range
    of more than MAX_VARIABLES variables is a ValueError.
    """

    __slots__ = ("var_range", "coeffs")

    def __init__(self, var_range: tuple[int, int], terms: dict | None = None):
        lo, hi = var_range
        dense = [0] * (1 << _range_width(lo, hi))
        for key, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            k = tuple(sorted(key))
            if len(set(k)) != len(k):
                raise NonSquarefreeProductError(f"repeated variable in monomial {k}")
            if k and not lo <= k[0] <= k[-1] <= hi:
                v = next(v for v in k if not lo <= v <= hi)
                raise ValueError(f"variable x{v} outside declared range x{lo}..x{hi}")
            dense[sum(1 << (i - lo) for i in k)] += coeff
        self.var_range: tuple[int, int] = (lo, hi)
        self.coeffs: tuple[int, ...] = tuple(dense)

    @classmethod
    def from_dense(
        cls, var_range: tuple[int, int], coeffs: Iterable[int]
    ) -> "SqfMultiPoly":
        """The polynomial whose ``coeffs`` are ``coeffs``, one per subset of the
        range (ValueError for any other length)."""
        lo, hi = var_range
        size, dense = 1 << _range_width(lo, hi), tuple(coeffs)
        if len(dense) != size:
            raise ValueError(f"{len(dense)} coefficients for the {size} monomials in x{lo}..x{hi}")
        poly = cls.__new__(cls)
        poly.var_range, poly.coeffs = (lo, hi), dense
        return poly

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """A new {index tuple: coefficient} dict of the nonzero terms."""
        return dict(self.sorted_terms())

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SqfMultiPoly):
            return NotImplemented
        return self.var_range == other.var_range and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.var_range, self.coeffs))

    def monomials(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(index tuple, position in ``coeffs``) of every monomial of the
        range, in the canonical order: by total degree, then by index tuple."""
        lo = self.var_range[0]
        return self._walk(range(lo, lo + len(self.coeffs).bit_length() - 1))

    @staticmethod
    def _walk(labels: Sequence) -> Iterator[tuple[tuple, int]]:
        """(labels of a monomial's variables, its position in ``coeffs``) in
        the order of ``monomials``, with labels[i] standing for x_{lo+i}."""
        bits = [1 << i for i in range(len(labels))]
        return chain.from_iterable(
            zip(combinations(labels, d), map(sum, combinations(bits, d)))
            for d in range(len(labels) + 1)
        )

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """The nonzero terms in the order of ``monomials``."""
        cs = self.coeffs
        return [(key, cs[q]) for key, q in self.monomials() if cs[q]]

    def specialize(self) -> UniPoly:
        """Set every variable to a common x: a monomial over an index set of
        size d collapses to x**d, and coefficients of equal degree add up."""
        out = [0] * len(self.coeffs).bit_length()
        for q, c in enumerate(self.coeffs):
            out[q.bit_count()] += c
        return UniPoly(out)

    def render(self) -> str:
        """Human-readable form like ``1 + 2*x1 + x1*x2``, in the order of
        ``sorted_terms``; unit coefficients are elided."""
        lo, cs = self.var_range[0], self.coeffs
        names = [f"x{i}" for i in range(lo, lo + len(cs).bit_length() - 1)]
        return _join_terms(("*".join(k), cs[q]) for k, q in self._walk(names) if cs[q])

    def __repr__(self) -> str:
        return f"SqfMultiPoly({self.var_range}, {self.render()})"

    def to_json(self) -> dict:
        return {
            "vars": [self.var_range[0], self.var_range[1]],
            "terms": [
                {"vars": list(k), "coeff": str(c)} for k, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SqfMultiPoly":
        """Inverse of ``to_json``; a malformed document is a ValueError."""
        try:
            lo, hi = map(_json_int, data["vars"])
            terms = {
                tuple(map(_json_int, t["vars"])): _json_int(t["coeff"]) for t in data["terms"]
            }
        except KeyError as exc:
            raise ValueError(f"multivariate polynomial JSON lacks the field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"multivariate polynomial JSON is malformed: {exc}") from None
        return cls((lo, hi), terms)


def _range_width(lo: int, hi: int) -> int:
    """Number of variables in x_lo..x_hi; more than MAX_VARIABLES is a ValueError."""
    width = max(hi - lo + 1, 0)
    if width > MAX_VARIABLES:
        raise ValueError(f"x{lo}..x{hi} has {width} variables, more than {MAX_VARIABLES = }")
    return width


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(value) -> int:
    """An int (not a bool), or a string of ASCII digits with an optional minus
    sign read as one; anything else is a ValueError."""
    if _is_int(value):
        return value
    if isinstance(value, str) and value.isascii() and value.removeprefix("-").isdigit():
        return int(value)
    raise ValueError(f"expected a decimal string or an int, got {value!r}")


def gamma_vector(p: UniPoly, d: int) -> tuple[int, ...]:
    """Expansion coefficients of p in the basis x^i (1+x)^(d-2i).

    Requires p to be palindromic about center d/2 (with p padded to degree d).
    Returns (g_0, ..., g_floor(d/2)) such that
    p = sum g_i * x^i * (1+x)^(d-2i), found by peeling the lowest surviving
    coefficient at each step.  Entirely integer arithmetic; raises
    NotPalindromicError otherwise.
    """
    if d < 0:
        raise ValueError(f"negative center parameter d={d}")
    if p.degree > d:
        raise NotPalindromicError(f"not palindromic of degree {d}: degree exceeds {d}")
    rem = list(p.coeffs) + [0] * (d + 1 - len(p.coeffs))
    if rem != rem[::-1]:
        raise NotPalindromicError(f"not palindromic of degree {d}")
    gammas: list[int] = []
    for i in range(d // 2 + 1):
        g = rem[i]
        gammas.append(g)
        if g:
            e = d - 2 * i
            for j in range(e + 1):
                rem[i + j] -= g * comb(e, j)
        # lowest i+1 coefficients must be exhausted, and what is left is
        # still palindromic about the same center
        assert all(c == 0 for c in rem[: i + 1]) and rem == rem[::-1]
    assert all(c == 0 for c in rem)
    return tuple(gammas)


def gamma_reconstruct(gammas: Iterable[int], d: int) -> UniPoly:
    """Inverse of gamma_vector: sum g_i * x^i * (1+x)^(d-2i).

    Zero g_i are skipped, so a list padded with zeros past d // 2 is fine."""
    result = UniPoly.zero()
    for i, g in enumerate(gammas):
        if g:
            result = result + UniPoly.monomial(g, i) * UniPoly.one_plus_x_power(d - 2 * i)
    return result


def run_minima_sets(width: int, first: int) -> list[int]:
    """The sets ``q & ~(q << 1)`` of the q below 2^width, bit 0 dropped when
    ``first`` is 0, in ascending order: every mask without two adjacent bits
    inside bits 0..width-1 (1..width-1 when ``first`` is 0), Fib-many.

    Those of width t are those of width t - 1, then those of width t - 2 with
    bit t - 1 added.  A width above MAX_VARIABLES is a ValueError."""
    width = _range_width(0, width - 1)
    shorter, family = [0], [0, 1] if first else [0]
    for t in range(1, width):
        shorter, family = family, family + [a | 1 << t for a in shorter]
    return family if width else shorter


def expand_run_minima(values: Mapping[int, int], width: int, first: int) -> list[int]:
    """Entry q is ``values[q & ~(q << 1)]`` for every q below 2^width, bit 0
    dropped when ``first`` is 0.  ``values`` is read once per set of
    ``run_minima_sets(width, first)``, and a width above MAX_VARIABLES is a
    ValueError.

    For q from 2^(w-1) on, bit w - 1 is a run minimum exactly when bit w - 2
    is clear: so those entries are the width-(w-2) expansion with bit w - 1
    added to every key, then a copy of the entries from 2^(w-2) to 2^(w-1)."""
    width = _range_width(0, width - 1)

    def expand(w: int, high: int) -> list[int]:
        # below width 3 a direct list is faster than the recursion
        if w < 3:
            low = values[high]
            if w == 0:
                return [low]
            one = values[high | 1] if first else low
            return [low, one, values[high | 2], one] if w == 2 else [low, one]
        lower = expand(w - 1, high)
        return lower + expand(w - 2, high | 1 << (w - 1)) + lower[1 << (w - 2) :]

    return expand(width, 0)


def gamma_reconstruct_multivariate(
    weights: Mapping[int, int], var_range: tuple[int, int]
) -> SqfMultiPoly:
    """Sum over descent sets D of weights[D] * prod_{i in D} x_i * prod (1 + x_i)
    over the free i in var_range, those with neither i nor i+1 in D.

    Each D is a bitmask, bit i for position i, with no two adjacent bits and
    every bit inside lo+1..hi; any other key, or a negative lo, raises
    ValueError.  ``specialize`` then gives ``gamma_reconstruct`` of the
    weights summed by |D| with d = hi - lo + 1.

    The pairs (D, E) with E a set of free positions of D match one to one the
    pairs (S, D) with D a subset of A(S), the run minima of S above lo, via
    S = D + E.  So x_S has coefficient W(A(S)), the sum of weights[D] over
    the D inside A(S).  The run-minima sets are closed under taking subsets,
    so one zeta pass per position gives every W: the pass over bit i adds
    W(A - i) to each A holding i, and changes no set that lacks i.  Each W
    then fills the coefficients of its sets S by ``expand_run_minima``.
    """
    lo, hi = var_range
    if lo < 0:
        raise ValueError(f"x{lo}..x{hi} starts below x0, and a mask has no negative bits")
    width = _range_width(lo, hi)  # before anything of 2^width is allocated
    window = max((1 << width) - 2, 0) << lo  # positions lo+1..hi
    for mask in weights:
        if not isinstance(mask, int) or mask & ~window or mask & mask >> 1:
            shown = bin(mask) if isinstance(mask, int) else repr(mask)
            raise ValueError(
                f"descent set {shown} is not a mask without adjacent bits "
                f"inside positions {lo + 1}..{hi}"
            )
    # bit 0 is position lo, which no D holds
    summed = {a: weights.get(a << lo, 0) for a in run_minima_sets(width, 0)}
    for i in range(1, width):
        bit = 1 << i
        summed.update({a: summed[a] + summed[a ^ bit] for a in summed if a & bit})
    return SqfMultiPoly.from_dense(var_range, expand_run_minima(summed, width, 0))
