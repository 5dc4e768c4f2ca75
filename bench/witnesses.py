"""Witnesses computed apart from chowpoly.

Nothing here imports the package under test.  Each function returns either
an exact value to compare against or a list of problems (empty when the
property holds).  Polynomials are coefficient sequences, constant term
first.
"""

from __future__ import annotations

from math import comb, factorial


def eulerian(n: int) -> tuple[int, ...]:
    """Descent counts over permutations of {1..n}, by the explicit sum
    A(n, m) = sum_j (-1)^j C(n+1, j) (m+1-j)^n (no recurrence)."""
    if n <= 1:
        return (1,)
    return tuple(
        sum((-1) ** j * comb(n + 1, j) * (m + 1 - j) ** n for j in range(m + 1))
        for m in range(n)
    )


def derangement(n: int) -> tuple[int, ...]:
    """Excedance counts over fixpoint-free permutations of {1..n}, by the
    recurrence d_n = (n-1) x (d_{n-1} + d_{n-2}) + x (1-x) d'_{n-1}
    from d_0 = 1, d_1 = 0.  Trailing zeros are trimmed."""
    prev2, prev = [1], [0]
    if n == 0:
        return (1,)
    for m in range(2, n + 1):
        out = [0] * (m + 1)
        for i, c in enumerate(prev):
            out[i + 1] += (m - 1) * c  # (m-1) x d_{m-1}
            if i:
                out[i] += i * c  # x d'_{m-1}
                out[i + 1] -= i * c  # -x^2 d'_{m-1}
        for i, c in enumerate(prev2):
            out[i + 1] += (m - 1) * c  # (m-1) x d_{m-2}
        prev2, prev = prev, out
    return coefficients(prev)


def coefficients(coeffs) -> tuple[int, ...]:
    """Integer coefficients (decimal strings accepted), trailing zeros trimmed."""
    cs = [int(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def gamma_expansion(coeffs, d: int) -> tuple[tuple[int, ...], bool]:
    """Coefficients g_i with p = sum g_i x^i (1+x)^(d-2i), and whether the
    expansion is exact (it is for every palindromic p of degree d)."""
    rest = list(coeffs) + [0] * max(0, d + 1 - len(coeffs))
    gammas = []
    for i in range(d // 2 + 1):
        g = rest[i]
        gammas.append(g)
        for j in range(d - 2 * i + 1):
            rest[i + j] -= g * comb(d - 2 * i, j)
    return tuple(gammas), not any(rest)


def chow_properties(coeffs, d: int) -> list[str]:
    """Degree d, constant term 1, palindromic, gamma-nonnegative."""
    cs = tuple(coeffs)
    problems = []
    if len(cs) != d + 1:
        problems.append(f"degree {len(cs) - 1}, expected {d}")
        return problems
    if cs[0] != 1:
        problems.append(f"constant term {cs[0]}")
    if cs != cs[::-1]:
        problems.append("not palindromic")
    gammas, exact = gamma_expansion(cs, d)
    if not exact or min(gammas) < 0:
        problems.append(f"gamma vector {gammas} not nonnegative")
    return problems


def specialize(terms: dict) -> tuple[int, ...]:
    """Set every variable of a squarefree multivariate polynomial to x."""
    out: dict[int, int] = {}
    for key, c in terms.items():
        out[len(key)] = out.get(len(key), 0) + c
    return coefficients(out.get(i, 0) for i in range(max(out, default=-1) + 1))


def uniform_flats(k: int, n: int) -> int:
    """Flats of U(k, n): every set of size < k, plus the ground set."""
    return sum(comb(n, i) for i in range(k)) + 1


def uniform_maximal_chains(k: int, n: int) -> int:
    """Maximal chains of flats of U(k, n): n (n-1) ... (n-k+2)."""
    return factorial(n) // factorial(n - k + 1)


def census_pairs(n: int) -> int:
    """(index set, permutation) pairs the census sweeps: sum_{k>=1} C(n,k) n!."""
    return sum(comb(n, k) for k in range(1, n + 1)) * factorial(n)


def loopless_by_rank(rows) -> dict[int, int]:
    """Loopless census counts summed per rank, from (rank, loops, _, count) rows."""
    out: dict[int, int] = {}
    for rank, loops, _, count in rows:
        if loops == 0 and rank >= 1:
            out[rank] = out.get(rank, 0) + count
    return out


def expected_loopless_by_rank(n: int) -> dict[int, int]:
    """Loopless Schubert matroids of rank r number A(n, r-1)."""
    return {r: a for r, a in enumerate(eulerian(n), start=1)}
