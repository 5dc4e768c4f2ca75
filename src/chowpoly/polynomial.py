"""Exact polynomials with arbitrary-precision integer coefficients.

Two representations are provided:

* ``UniPoly`` -- a dense univariate polynomial, stored as a coefficient
  tuple with index i holding the coefficient of x^i.  Trailing zeros are
  trimmed, so the zero polynomial is the empty tuple.

* ``SqfMultiPoly`` -- a sparse multivariate polynomial whose monomials are
  squarefree products of indexed variables x_i.  Each term is keyed by the
  set of variable indices appearing in it; the coefficient of the key ``()``
  is the constant term.  A declared index range restricts which variables
  are admissible, and a key that repeats a variable is rejected.  It has no
  arithmetic: the multivariate formulas of this package fill one coefficient
  per subset of the range (``from_dense``), then compare, specialize,
  render or serialize the result.

All coefficients are Python ints, so results are exact at any size.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Mapping, Sequence


class NonSquarefreeProductError(ValueError):
    """Raised when a multivariate monomial repeats a variable."""


class NotPalindromicError(ValueError):
    """Raised when a polynomial is not palindromic about the requested center."""


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
        if coeff == 0:
            return cls.zero()
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
        return cls((1,) * (top + 1)) if top >= 0 else cls.zero()

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
        if isinstance(other, int):
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "UniPoly | int") -> "UniPoly":
        if isinstance(other, int):
            if other == 0:
                return UniPoly.zero()
            return UniPoly(other * c for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self or not other:
            return UniPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        result = UniPoly.one()
        for _ in range(e):
            result = result * self
        return result

    def is_palindromic(self, d: int) -> bool:
        """True if the coefficient vector padded to degree d reads the same reversed."""
        if self.degree > d:
            return False
        padded = list(self.coeffs) + [0] * (d + 1 - len(self.coeffs))
        return padded == padded[::-1]

    def render(self) -> str:
        """Human-readable form like ``1 + 11*x + x^2``; unit coefficients are elided."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            power = "x" if i == 1 else f"x^{i}"
            if c == 1:
                parts.append(power)
            elif c == -1:
                parts.append(f"-{power}")
            else:
                parts.append(f"{c}*{power}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"UniPoly({self.render()})"

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, exact beyond native integer width."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "UniPoly":
        return cls(int(s) for s in data)


class SqfMultiPoly:
    """Multivariate polynomial with squarefree monomials in variables x_lo..x_hi.

    ``terms`` maps sorted tuples of variable indices to nonzero integer
    coefficients; the empty tuple keys the constant term.
    """

    __slots__ = ("var_range", "terms")

    def __init__(self, var_range: tuple[int, int], terms: dict | None = None):
        lo, hi = var_range
        self.var_range: tuple[int, int] = (lo, hi)
        normalized: dict[tuple[int, ...], int] = {}
        for key, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            k = tuple(sorted(key))
            if len(set(k)) != len(k):
                raise NonSquarefreeProductError(f"repeated variable in monomial {k}")
            if k and not lo <= k[0] <= k[-1] <= hi:
                v = next(v for v in k if not lo <= v <= hi)
                raise ValueError(f"variable x{v} outside declared range x{lo}..x{hi}")
            normalized[k] = normalized.get(k, 0) + coeff
        self.terms: dict[tuple[int, ...], int] = {
            k: c for k, c in normalized.items() if c != 0
        }

    @classmethod
    def from_dense(
        cls, var_range: tuple[int, int], coeffs: Sequence[int]
    ) -> "SqfMultiPoly":
        """The polynomial whose monomial at position q of
        ``variable_subsets(lo, hi)`` has coefficient ``coeffs[q]``, one entry
        per subset of the range.  Those keys are sorted, distinct and in range
        by construction, so only the length is checked (ValueError) and zero
        coefficients are dropped."""
        lo, hi = var_range
        keys = variable_subsets(lo, hi)
        if len(coeffs) != len(keys):
            raise ValueError(
                f"{len(coeffs)} coefficients for the {len(keys)} monomials "
                f"in x{lo}..x{hi}"
            )
        poly = cls((lo, hi))
        poly.terms = {key: c for key, c in zip(keys, coeffs) if c}
        return poly

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SqfMultiPoly):
            return NotImplemented
        return self.var_range == other.var_range and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.var_range, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in the canonical (total degree, index tuple) order."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def specialize(self) -> UniPoly:
        """Set every variable to a common x: a monomial over an index set of
        size d collapses to x**d, and coefficients of equal degree add up."""
        if not self.terms:
            return UniPoly.zero()
        out = [0] * (max(len(k) for k in self.terms) + 1)
        for k, c in self.terms.items():
            out[len(k)] += c
        return UniPoly(out)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for k, c in self.sorted_terms():
            if not k:
                parts.append(str(c))
                continue
            mono = "*".join(f"x{i}" for i in k)
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

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
        lo, hi = data["vars"]
        return cls(
            (lo, hi),
            {tuple(t["vars"]): int(t["coeff"]) for t in data["terms"]},
        )


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


def variable_subsets(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Every subset of the variables lo..hi as a sorted index tuple, listed so
    that the subset at position q holds lo + i exactly when bit i of q is set."""
    keys: list[tuple[int, ...]] = [()]
    for i in range(lo, hi + 1):
        keys += [key + (i,) for key in keys]
    return keys


def gamma_reconstruct_multivariate(
    weights: Mapping[tuple[int, ...], int], var_range: tuple[int, int]
) -> SqfMultiPoly:
    """Sum over descent sets D of weights[D] * prod_{i in D} x_i * prod (1 + x_i)
    over the free i in var_range, those with neither i nor i+1 in D.

    Each D must be a strictly increasing tuple with no consecutive entries
    inside lo+1..hi; any other set raises ValueError.  ``specialize`` then
    gives ``gamma_reconstruct`` of the weights summed by |D| with
    d = hi - lo + 1.

    The pairs (D, E) with E a set of free positions of D match one to one the
    pairs (S, D) with D a subset of A(S), the run minima of S above lo, via
    S = D + E.  So x_S has coefficient W(A(S)), the sum of weights[D] over
    the D inside A(S), found once per A by submask enumeration.
    """
    lo, hi = var_range
    by_mask: dict[int, int] = {}
    for dset, w in weights.items():
        if (
            any(b - a < 2 for a, b in zip(dset, dset[1:]))
            or dset and not lo < dset[0] <= dset[-1] <= hi
        ):
            raise ValueError(
                f"descent set {dset} is not strictly increasing without "
                f"consecutive entries inside {lo + 1}..{hi}"
            )
        mask = 0
        for i in dset:
            mask |= 1 << (i - lo)
        by_mask[mask] = w
    summed: dict[int, int] = {}
    coeffs = []
    for s in range(1 << max(hi - lo + 1, 0)):
        a = s & ~(s << 1) & ~1  # bit 0 is position lo, which no D holds
        total = summed.get(a)
        if total is None:
            total = by_mask.get(0, 0)
            sub = a
            while sub:
                total += by_mask.get(sub, 0)
                sub = (sub - 1) & a
            summed[a] = total
        coeffs.append(total)
    return SqfMultiPoly.from_dense(var_range, coeffs)
