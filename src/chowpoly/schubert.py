"""Schubert matroids: construction, invariants, counting, and an exhaustive census.

A Schubert matroid on {1..n} is built from an index set I and a permutation
p: its bases are the |I|-subsets that dominate I componentwise in the total
order given by p's one-line notation.  The loops and the cogirth can be read
off the p-positions of the extremes of I without building the matroid; the
number of distinct matroids of given rank, loop count, and cogirth is a sum
of gap multinomials.

``census`` cross-checks all of this exhaustively: it constructs the basis
collection of every (index set, permutation) pair, deduplicates by exact
basis-set equality, classifies each distinct matroid from its own bases, and
tabulates counts by (rank, loops, cogirth).  The sweep runs on the numpy
kernels in ``chowpoly.kernels``, one fixed block of permutations at a time:
a rank-k collection is fingerprinted over the C(n, k) k-subsets (one or two
uint64 words up to n = 8) by a recurrence over the upper covers of its index
set, rows that repeat within an index set's run are dropped by an exact
prefilter, and each block's survivors are deduplicated before the blocks of
one rank are merged.  ``census`` is the only function that imports numpy,
so ``import chowpoly`` and every other command run without it.

The sweep is exponential in n, so ``census`` refuses n > MAX_EXHAUSTIVE_N = 8
with a ResourceLimitError before it lists a permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .combinat import delta_multinomial
from .forms import closed_form
from .matroid import INFINITY, Matroid, mask_of

# Largest ground size for ``census`` and the CLI ``oracle``: census(8) takes
# under 1 s, census(9) about 13.5 s and 154 MB (986,410 matroids), and each
# further n multiplies the n! sweep.
MAX_EXHAUSTIVE_N = 8


class ResourceLimitError(ValueError):
    """Raised when an exhaustive operation exceeds its fixed bound."""


def check_ground_size(operation: str, n: int) -> None:
    """Raise ResourceLimitError when an exhaustive operation on ground size n
    exceeds MAX_EXHAUSTIVE_N."""
    if n > MAX_EXHAUSTIVE_N:
        raise ResourceLimitError(
            f"{operation}(n={n}) exceeds the resource guard n <= {MAX_EXHAUSTIVE_N}"
        )


@dataclass(frozen=True)
class SchubertSpec:
    """Defining data (ground size, index set, total order) of a Schubert matroid."""

    n: int
    index_set: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "index_set", tuple(sorted(self.index_set)))
        object.__setattr__(self, "perm", tuple(self.perm))
        if tuple(sorted(self.perm)) != tuple(range(1, self.n + 1)):
            raise ValueError(f"{self.perm} is not a permutation of 1..{self.n}")
        for e in self.index_set:
            if not 1 <= e <= self.n:
                raise ValueError(f"index {e} outside ground set 1..{self.n}")
        if len(set(self.index_set)) != len(self.index_set):
            raise ValueError(f"repeated index in {self.index_set}")


def schubert_matroid(spec: SchubertSpec, validate: bool = True) -> Matroid:
    """Matroid whose bases are the |I|-subsets dominating I in the order of p.

    An empty index set yields the rank-0 matroid with the single empty basis.
    """
    if not spec.index_set:
        return Matroid(spec.n, [0], validate=False)
    position = {e: i for i, e in enumerate(spec.perm)}
    ordered_i = sorted(spec.index_set, key=position.__getitem__)
    k = len(ordered_i)
    bases = []
    for j in combinations(range(1, spec.n + 1), k):
        ordered_j = sorted(j, key=position.__getitem__)
        if all(position[a] <= position[b] for a, b in zip(ordered_i, ordered_j)):
            bases.append(mask_of(j, spec.n))
    return Matroid(spec.n, bases, validate=validate)


@dataclass(frozen=True)
class SchubertInvariants:
    loops: tuple[int, ...]
    cogirth: int


def schubert_invariants_formula(spec: SchubertSpec) -> SchubertInvariants:
    """Loops and cogirth read off the permutation positions of min and max of
    the index set, without constructing the matroid.

    The loops are the elements strictly before the order-minimum of I in the
    one-line notation; the cogirth is n + 1 - c where c is the (1-based)
    position of the order-maximum of I.
    """
    if not spec.index_set:
        raise ValueError("formula requires a nonempty index set")
    position = {e: i for i, e in enumerate(spec.perm)}
    min_pos = min(position[e] for e in spec.index_set)
    max_pos = max(position[e] for e in spec.index_set)
    loops = tuple(sorted(spec.perm[:min_pos]))
    return SchubertInvariants(loops=loops, cogirth=spec.n - max_pos)


def sm_count(n: int, m: int, loops: int, k: int) -> int:
    """Number of distinct Schubert matroids on {1..n} with rank m, exactly
    ``loops`` loops, and cogirth n + 1 - k.

    Computed as the sum of gap multinomials over index sets inside
    {loops+1..k} of size m containing both endpoints; degenerate ranges give 0.
    """
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


@dataclass(frozen=True)
class CensusTable:
    """Counts of distinct Schubert matroids keyed by (rank, loops, cogirth).

    Cogirth is an int, or inf for the rank-0 matroid (its dual is free).
    """

    n: int
    entries: dict

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def rows(self) -> list[tuple[int, int, int | float, int]]:
        """(rank, loops, cogirth, count) sorted lexicographically; inf sorts last."""
        return [
            (r, l, g, self.entries[(r, l, g)])
            for (r, l, g) in sorted(self.entries)
        ]

    def count(self, rank: int, loops: int, cogirth: int | float) -> int:
        return self.entries.get((rank, loops, cogirth), 0)

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
        lines = ["rank,loops,cogirth,count"]
        for r, l, g, c in self.rows():
            cg = "inf" if g == INFINITY else str(g)
            lines.append(f"{r},{l},{cg},{c}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, n: int, text: str) -> "CensusTable":
        entries = {}
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines:
            raise ValueError("census CSV is empty: no header line")
        if lines[0] != "rank,loops,cogirth,count":
            raise ValueError(f"unexpected header {lines[0]!r}")
        for ln in lines[1:]:
            r, l, g, c = ln.split(",")
            cog = INFINITY if g == "inf" else int(g)
            entries[(int(r), int(l), cog)] = int(c)
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
        entries = {}
        try:
            for row in data["entries"]:
                g = INFINITY if row["cogirth"] == "inf" else int(row["cogirth"])
                entries[(int(row["rank"]), int(row["loops"]), g)] = int(row["count"])
            return cls(int(data["n"]), entries)
        except KeyError as exc:
            raise ValueError(f"census JSON lacks the field {exc}") from None
        except TypeError as exc:
            raise ValueError(f"census JSON is malformed: {exc}") from None


def census(n: int) -> CensusTable:
    """Exhaustive deduplicated census of Schubert matroids on {1..n}.

    Every (index set, permutation) pair is expanded to its basis collection
    and fingerprinted, one block of permutations at a time.  Inside each
    index set's run of a block, rows that repeat a row j! places earlier are
    dropped; the rest of one rank are deduplicated exactly, and each
    distinct matroid is classified by (rank, loops, cogirth) from its own
    bases.
    """
    if n < 1:
        raise ValueError(f"census needs n >= 1, got {n}")
    check_ground_size("census", n)
    import numpy as np

    from . import kernels

    perms = kernels.perm_table(n)
    block = kernels.PERM_BLOCK
    entries: dict[tuple[int, int, int | float], int] = {(0, n, INFINITY): 1}
    for k in range(1, n + 1):
        kept = [
            kernels.block_distinct_rows(perms[start : start + block], n, k)
            for start in range(0, perms.shape[0], block)
        ]
        distinct = kernels.distinct_rows(np.concatenate(kept))
        loop_counts, cogirths = kernels.classify_fingerprints(distinct, n, k)
        # cogirth + 1 lies in 0..n + 1, so the pair is one integer base n + 2
        keys, counts = np.unique(
            loop_counts * (n + 2) + cogirths + 1, return_counts=True
        )
        for key, count in zip(keys.tolist(), counts.tolist()):
            ell, cg = divmod(key, n + 2)
            entries[(k, ell, cg - 1 if cg else INFINITY)] = count
    return CensusTable(n, entries)


# -- verification against the closed forms -------------------------------------


@dataclass(frozen=True)
class CoefficientCheck:
    augmented: bool
    power: int
    coefficient: int
    census_count: int

    @property
    def ok(self) -> bool:
        return self.coefficient == self.census_count


@dataclass(frozen=True)
class CoefficientCountReport:
    k: int
    n: int
    checks: tuple[CoefficientCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def first_mismatch(self) -> CoefficientCheck | None:
        for c in self.checks:
            if not c.ok:
                return c
        return None


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
    chow = closed_form(k, n, "monomial", augmented=False)
    aug = closed_form(k, n, "monomial", augmented=True)
    checks: list[CoefficientCheck] = []
    for m in range(k):
        checks.append(
            CoefficientCheck(
                augmented=False,
                power=m,
                coefficient=chow[m],
                census_count=table.slice_count(m + 1, n - k, loopless=True),
            )
        )
    for m in range(k + 1):
        checks.append(
            CoefficientCheck(
                augmented=True,
                power=m,
                coefficient=aug[m],
                census_count=table.slice_count(m, n - k, loopless=False),
            )
        )
    return CoefficientCountReport(k=k, n=n, checks=tuple(checks))


def census_matches_formula(table: CensusTable) -> bool:
    """True when every census cell (and no phantom cell) equals ``sm_count``."""
    n = table.n
    for m in range(1, n + 1):
        for loops in range(0, n):
            for k in range(loops + 1, n + 1):
                expected = sm_count(n, m, loops, k)
                if table.count(m, loops, n + 1 - k) != expected:
                    return False
    # nothing besides the rank-0 cell may fall outside the formula's key grid
    for (r, l, g), c in table.entries.items():
        if r == 0:
            continue
        if g == INFINITY or not 1 <= g <= n:
            return False
    return True
