"""Schubert matroids: their count by rank, loops and cogirth, and an exhaustive census.

A Schubert matroid on {1..n} is given by an index set I and a total order
of {1..n}: its bases are the |I|-subsets that dominate I componentwise in
that order.  The number of distinct ones of given rank, loop count, and
cogirth is a sum of gap multinomials (``sm_count``).  The construction from
(I, order) and the reading of the loops and the cogirth off the extremes of
I are brute-force references in ``tests/oracles.py``; nothing here builds a
matroid from such a pair.

``census`` cross-checks the count exhaustively: it finds the distinct
basis collections of all (index set, permutation) pairs, by exact basis-set
equality, classifies each distinct matroid from its own bases, and
tabulates counts by (rank, loops, cogirth).  It runs on the plain-Python
kernels in ``chowpoly.kernels`` and never lists the pairs: a basis
collection is one int with a bit for each basis mask, the identity-order
matroid of each index set is built from the definition (the k-subsets
dominating it), and each one is closed under the relabelings of {1..n-2}
one element at a time, deduplicating after each stage; the stages of the
last two elements are counted by orbit-stabilizer instead of listed.  That is exact by
group theory alone and shares no code with the counting formula.

The census is exponential in n, so ``census`` refuses n > MAX_EXHAUSTIVE_N
= 8 with a ResourceLimitError before it builds any seed.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import kernels
from .combinat import delta_multinomial
from .forms import closed_form
from .matroid import INFINITY
from .polynomial import _is_int, _json_int, _show_int

# Largest ground size for ``census``: census(8) takes about 0.02 s and 15 MB
# of peak RSS, census(9) about 0.10 s and 17 MB (986,410 matroids; fresh
# processes, 2 CPUs, Python 3.11.7), and the matroids, and with them the
# work, grow about n-fold with each further n.
MAX_EXHAUSTIVE_N = 8


class ResourceLimitError(ValueError):
    """Raised when an exhaustive operation exceeds its fixed bound."""


def check_ground_size(operation: str, n: int) -> None:
    """Raise ResourceLimitError when an exhaustive operation on ground size n
    exceeds MAX_EXHAUSTIVE_N."""
    if n > MAX_EXHAUSTIVE_N:
        raise ResourceLimitError(
            f"{operation}(n={_show_int(n)}) exceeds the resource guard n <= {MAX_EXHAUSTIVE_N}"
        )


def sm_count(n: int, m: int, loops: int, k: int) -> int:
    """Number of distinct Schubert matroids on {1..n} with rank m, exactly
    ``loops`` loops, and cogirth n + 1 - k.

    Computed as the sum of gap multinomials over index sets inside
    {loops+1..k} of size m containing both endpoints; degenerate ranges give 0.
    """
    if not all(map(_is_int, (n, m, loops, k))):
        raise ValueError(
            f"n, m, loops and k must be ints, got n={n!r}, m={m!r}, loops={loops!r}, k={k!r}"
        )
    if m < 1:
        raise ValueError(f"rank m must be at least 1, got {m}")
    if not 0 <= loops < k <= n:
        raise ValueError(f"need 0 <= loops < k <= n, got loops={loops}, k={k}, n={n}")
    lo = loops + 1
    if m == 1:
        return delta_multinomial(n, (k,)) if lo == k else 0
    if lo >= k:
        return 0
    total = 0
    for middle in combinations(range(lo + 1, k), m - 2):
        total += delta_multinomial(n, (lo, *middle, k))
    return total


# -- census -------------------------------------------------------------------


def _check_census_n(n: int) -> None:
    if not _is_int(n) or n < 1:
        raise ValueError(f"a census table needs an int n >= 1, got {n!r}")


def _add_cell(
    entries: dict, n: int, rank: int, loops: int, cogirth: int | float, count: int
) -> None:
    """Add a cell read from a document; refuse one that no census of n holds."""
    for field, value in (("rank", rank), ("loops", loops)):
        if not 0 <= value <= n:
            raise ValueError(f"{field} {value} outside 0..{n}")
    if cogirth != INFINITY and not 1 <= cogirth <= n:
        raise ValueError(f"cogirth {cogirth} outside 1..{n} and not inf")
    if count < 0:
        raise ValueError(f"negative count {count}")
    if (rank, loops, cogirth) in entries:
        raise ValueError(f"repeated cell {(rank, loops, cogirth)}")
    entries[(rank, loops, cogirth)] = count


class _CensusTableFields(NamedTuple):
    n: int
    entries: dict


class CensusTable(_CensusTableFields):
    """Counts of distinct Schubert matroids keyed by (rank, loops, cogirth).

    Cogirth is an int, or inf for the rank-0 matroid (its dual is free).
    The table holds its own copy of ``entries``.
    """

    __slots__ = ()

    def __new__(cls, n: int, entries: dict) -> "CensusTable":
        return super().__new__(cls, n, dict(entries))

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def rows(self) -> list[tuple[int, int, int | float, int]]:
        """(rank, loops, cogirth, count) sorted lexicographically; inf sorts last."""
        return [(*key, c) for key, c in sorted(self.entries.items())]

    def slice_count(self, rank: int, min_cogirth_exclusive: int, loopless: bool) -> int:
        """Matroids of the given rank and cogirth strictly above the bound."""
        return sum(
            c
            for (r, l, g), c in self.entries.items()
            if r == rank and g > min_cogirth_exclusive and (l == 0 or not loopless)
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.entries.items())))

    def to_csv(self) -> str:
        rows = (f"{r},{l},{g},{c}" for r, l, g, c in self.rows())
        return "\n".join(["rank,loops,cogirth,count", *rows]) + "\n"

    @classmethod
    def from_csv(cls, n: int, text: str) -> "CensusTable":
        """Parse ``to_csv`` output; blank lines are skipped.  A malformed row
        or out-of-bound cell is a one-line ValueError naming its line number."""
        _check_census_n(n)
        entries = {}
        body = text.lstrip()
        first = text[: len(text) - len(body)].count("\n") + 1
        lines = [(i, ln) for i, ln in enumerate(body.rstrip().splitlines(), first) if ln]
        if not lines:
            raise ValueError("census CSV is empty: no header line")
        if lines[0][1] != "rank,loops,cogirth,count":
            raise ValueError(f"unexpected header {lines[0][1]!r}")
        for number, ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) != 4:
                raise ValueError(
                    f"census CSV line {number} has {len(fields)} fields, not 4: {ln!r}"
                )
            r, l, g, c = fields
            try:
                cog = INFINITY if g == "inf" else _json_int(g)
                cell = _json_int(r), _json_int(l), cog, _json_int(c)
            except ValueError:
                raise ValueError(
                    f"census CSV line {number} has a field that is not an integer: {ln!r}"
                ) from None
            try:
                _add_cell(entries, n, *cell)
            except ValueError as exc:
                raise ValueError(f"census CSV line {number} has {exc}: {ln!r}") from None
        return cls(n, entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "total": str(self.total),
            "entries": [
                {
                    "rank": r,
                    "loops": l,
                    "cogirth": "inf" if g == INFINITY else g,
                    "count": str(c),
                }
                for r, l, g, c in self.rows()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CensusTable":
        """Inverse of ``to_json``; a malformed document is a ValueError."""
        entries = {}
        try:
            rows = data["entries"]
            n = _json_int(data["n"])
            _check_census_n(n)
            for row in rows:
                g = INFINITY if row["cogirth"] == "inf" else _json_int(row["cogirth"])
                r, l = _json_int(row["rank"]), _json_int(row["loops"])
                _add_cell(entries, n, r, l, g, _json_int(row["count"]))
            return cls(n, entries)
        except KeyError as exc:
            raise ValueError(f"census JSON lacks the field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"census JSON is malformed: {exc}") from None


def census(n: int) -> CensusTable:
    """Exhaustive deduplicated census of Schubert matroids on {1..n}.

    For each rank k, the identity-order Schubert matroid of each k-subset
    is closed under every relabeling of {1..n-2}, one element at a time:
    the members closed under the permutations of the first m elements are
    joined by their images under the swaps of element m + 1 with each
    earlier one, and deduplicated exactly.  The size of its orbit under
    every relabeling of {1..n} follows by orbit-stabilizer, applied at
    element n - 1 and then at element n, from that closure and the seed's
    images under the swaps of n with each element, each followed by the
    swaps of n - 1 with each element; both divisions are checked to be
    exact.  A seed that already lies in an earlier orbit is skipped.  The union of the orbits is the set of basis
    collections of all (index set, permutation) pairs, counted without
    listing the pairs.  Each orbit is classified by (rank, loops, cogirth)
    from its seed's bases, which relabeling preserves; the rank-0 matroid
    {empty set} has cogirth inf.  An n that is not an int >= 1 (``bool``
    included) is the ValueError of the census readers.
    """
    _check_census_n(n)
    check_ground_size("census", n)
    entries: dict[tuple[int, int, int | float], int] = {}
    for k in range(n + 1):
        counts = kernels.orbit_counts(kernels.schubert_seeds(n, k), n)
        for (ell, cg), count in sorted(counts.items()):
            entries[(k, ell, cg if cg >= 0 else INFINITY)] = count
    return CensusTable(n, entries)


# -- verification against the closed forms -------------------------------------


class CoefficientCheck(NamedTuple):
    augmented: bool
    power: int
    coefficient: int
    census_count: int

    @property
    def ok(self) -> bool:
        return self.coefficient == self.census_count


class CoefficientCountReport(NamedTuple):
    k: int
    n: int
    checks: tuple[CoefficientCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def first_mismatch(self) -> CoefficientCheck | None:
        return next((c for c in self.checks if not c.ok), None)


def verify_coefficient_counts(
    k: int, n: int, table: CensusTable
) -> CoefficientCountReport:
    """Check that each coefficient of the (augmented) Chow polynomial of the
    rank-k uniform matroid counts Schubert matroids with cogirth above n - k:
    coefficient m of the plain polynomial against loopless matroids of rank
    m + 1, coefficient m of the augmented one against all matroids of rank m.
    ``table`` is ``census(n)``; a table for another n is a ValueError.
    """
    if table.n != n:
        raise ValueError(f"census table is for n={table.n}, not n={n}")
    checks: list[CoefficientCheck] = []
    for augmented in (False, True):
        poly = closed_form(k, n, "monomial", augmented)
        checks += (
            CoefficientCheck(
                augmented, m, poly[m],
                table.slice_count(m + 1 - augmented, n - k, loopless=not augmented),
            )
            for m in range(k + augmented)
        )
    return CoefficientCountReport(k=k, n=n, checks=tuple(checks))


def census_matches_formula(table: CensusTable) -> bool:
    """True when the table's nonzero cells are exactly the formula's: every
    nonzero ``sm_count(n, m, loops, k)`` at key (m, loops, n + 1 - k), and
    the rank-0 matroid, whose n elements are all loops, at (0, n, inf).
    Its cost about doubles with each n, so n is held to MAX_EXHAUSTIVE_N."""
    n = table.n
    check_ground_size("census_matches_formula", n)
    expected = {(0, n, INFINITY): 1}
    for m in range(1, n + 1):
        for loops in range(0, n):
            for k in range(loops + 1, n + 1):
                count = sm_count(n, m, loops, k)
                if count:
                    expected[(m, loops, n + 1 - k)] = count
    return {key: c for key, c in table.entries.items() if c} == expected
