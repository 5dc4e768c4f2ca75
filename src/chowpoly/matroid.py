"""Small-matroid engine over explicit basis collections.

Ground sets are {1..n} with n capped at 16; subsets are stored as bit masks
(element e is bit e-1).  A matroid is its canonically sorted tuple of basis
masks and one table holding the rank of every subset, its largest
intersection with a basis.  Construction checks the rank axioms on that
table, for every n, so the given sets are the bases of a matroid.

Besides the usual invariants (loops, coloops, girth, cogirth), the
module builds the lattice of flats and labels each cover relation by the
first atom entering the upper flat (atoms ordered by their smallest new
element).  Summing a gamma-shaped weight over maximal chains whose label
sequence has no two consecutive descents yields the Chow and augmented Chow
polynomials of the matroid; this is the package's chain oracle against the
closed forms for uniform matroids.  The oracle counts those chains by their
descent sets with a transfer count over the flats in rank order, so its cost
grows with the lattice (at most 2^n flats), not with the number of maximal
chains; ``tests/oracles.py`` holds the chain-by-chain walk and tally it
replaces.  Each matroid builds its lattice once, on first use, and the
lattice counts its chains once, under the augmented rules; the plain
polynomial keeps the descent sets without position 1.  Both are shared by
every later call on the same matroid, so the lattice exposes read-only
mappings.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .polynomial import SqfMultiPoly, UniPoly, _is_int
from .polynomial import gamma_reconstruct, gamma_reconstruct_multivariate

INFINITY = float("inf")

MAX_GROUND = 16


class MatroidError(ValueError):
    pass


def mask_of(elements: Iterable[int], n: int) -> int:
    m = 0
    for e in elements:
        if not 1 <= e <= n:
            raise MatroidError(f"element {e} outside ground set 1..{n}")
        if m >> (e - 1) & 1:
            raise MatroidError(f"element {e} repeated in one basis")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class Matroid:
    """Matroid given by ground-set size and the collection of basis masks."""

    def __init__(self, n: int, bases: Iterable[int], validate: bool = True):
        if not _is_int(n):
            raise MatroidError(f"ground size {n!r} is not an int")
        if not 0 <= n <= MAX_GROUND:
            raise MatroidError(f"ground size {n} not in 0..{MAX_GROUND}")
        self.n = n
        bases = tuple(bases)
        for b in bases:
            if not _is_int(b):
                raise MatroidError(f"basis mask {b!r} is not an int")
        self.bases: tuple[int, ...] = tuple(sorted(set(bases)))
        if not self.bases:
            raise MatroidError("basis collection is empty")
        for b in self.bases[0], self.bases[-1]:  # sorted, so the extremes
            if not 0 <= b < 1 << n:
                raise MatroidError(f"basis mask {b} not in 0..{(1 << n) - 1}")
        sizes = {b.bit_count() for b in self.bases}
        if len(sizes) > 1:
            ordered = sorted(self.bases, key=lambda m: m.bit_count())
            raise MatroidError(
                f"bases of unequal size: {elements_of(ordered[0])} and "
                f"{elements_of(ordered[-1])}"
            )
        self.rank: int = self.bases[0].bit_count()
        if validate:
            self._check_rank()

    @cached_property
    def _rank(self) -> list[int]:
        """Rank of every subset mask: its largest intersection with a basis.

        The subsets of bases are independent and get their size, marked down
        from the bases; every other set has the largest rank among its
        one-smaller subsets.
        """
        n = self.n
        rank = [-1] * (1 << n)
        for b in self.bases:
            rank[b] = self.rank
        for s in range(len(rank) - 1, 0, -1):  # supersets come first
            if rank[s] > 0:
                for i in range(n):
                    if s >> i & 1:
                        rank[s ^ 1 << i] = rank[s] - 1
        for s in range(1, len(rank)):
            if rank[s] < 0:
                rank[s] = max(rank[s ^ 1 << i] for i in range(n) if s >> i & 1)
        return rank

    @cached_property
    def _lattice(self) -> "FlatLattice":
        """The lattice of flats, built on first use; ``flats_lattice`` reads it."""
        return _build_lattice(self)

    def __getstate__(self) -> dict:
        # the lattice's read-only mappings do not pickle; a copy builds its own
        return {k: v for k, v in self.__dict__.items() if k != "_lattice"}

    def _check_rank(self) -> None:
        """Raise unless the rank table is a matroid rank function.

        It starts at 0 on the empty set and grows by at most 1 per added
        element, so it is one exactly when it is locally submodular,
        r(S+x) + r(S+y) >= r(S+x+y) + r(S).  That can fail only when neither
        x nor y raises r(S) and the two together do.  The bases of the
        matroid are then the sets of size and rank ``self.rank``: the given
        bases.
        """
        rank = self._rank
        for s, r in enumerate(rank):
            if r == self.rank:
                continue  # nothing raises a spanning set
            same = [
                1 << i for i in range(self.n) if not s >> i & 1 and rank[s | 1 << i] == r
            ]
            for j, x in enumerate(same):
                for y in same[j + 1 :]:
                    if rank[s | x | y] > r:
                        raise MatroidError(
                            f"not a matroid: adding {x.bit_length()} or "
                            f"{y.bit_length()} to {elements_of(s)} keeps its "
                            f"rank {r}, adding both raises it"
                        )

    # -- basic invariants ---------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def loops(self) -> tuple[int, ...]:
        """Elements of rank 0: those in no basis."""
        return tuple(e for e in range(1, self.n + 1) if not self._rank[1 << (e - 1)])

    def coloops(self) -> tuple[int, ...]:
        """Elements whose removal lowers the rank: those in every basis."""
        rank, full = self._rank, self.full_mask
        return tuple(
            e for e in range(1, self.n + 1) if rank[full ^ 1 << (e - 1)] < self.rank
        )

    @property
    def is_loopless(self) -> bool:
        return not self.loops()

    def girth(self) -> int | float:
        """Size of the smallest dependent set; inf when everything is independent."""
        rank = self._rank
        return min(
            (s.bit_count() for s, r in enumerate(rank) if r < s.bit_count()),
            default=INFINITY,
        )

    def cogirth(self) -> int | float:
        """Size of the smallest set whose complement does not span; the girth
        of the dual, read off this matroid's rank table."""
        rank, full = self._rank, self.full_mask
        return min(
            (s.bit_count() for s in range(full + 1) if rank[full ^ s] < self.rank),
            default=INFINITY,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n == other.n and self.bases == other.bases

    def __hash__(self) -> int:
        return hash((self.n, self.bases))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank}, bases={len(self.bases)})"

    def bases_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(b) for b in self.bases)


def matroid_from_bases(n: int, bases: Iterable[Iterable[int]]) -> Matroid:
    return Matroid(n, (mask_of(b, n) for b in bases))


def uniform(k: int, n: int) -> Matroid:
    """All k-subsets of {1..n} as bases; k and n are checked before C(n, k)
    sets are listed."""
    if not (_is_int(k) and _is_int(n)):
        raise MatroidError(f"uniform matroid needs int k and n, got k={k!r}, n={n!r}")
    if not 0 <= k <= n <= MAX_GROUND:
        raise MatroidError(
            f"uniform matroid needs 0 <= k <= n <= {MAX_GROUND}, got k={k}, n={n}"
        )
    masks = [mask_of(c, n) for c in combinations(range(1, n + 1), k)]
    return Matroid(n, masks, validate=False)


# -- lattice of flats --------------------------------------------------------


class _FlatLatticeFields(NamedTuple):
    rank: int
    flats: tuple[int, ...]
    flat_rank: Mapping[int, int]
    covers: Mapping[int, tuple[tuple[int, int], ...]]
    bottom: int
    top: int


class FlatLattice(_FlatLatticeFields):
    """Flats of a matroid ordered by inclusion, with cover labels.

    ``covers[f]`` lists the pairs (g, label) of the flats g covering f.  The
    atoms (rank-1 flats) are numbered 1, 2, ... in the order of their
    smallest element outside the bottom flat, and the label of a cover F < G
    is the number of the first atom below G but not below F: the atom that
    holds the smallest element of G - F.  ``flat_rank`` and ``covers`` are
    read-only, and so is every attribute: one lattice serves every oracle
    call on its matroid.  A lattice equals only itself.  It has no
    ``__slots__``, so that ``admissible_chains`` can be cached on it.
    """

    def __eq__(self, other: object) -> bool:
        return self is other

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's !=
    __hash__ = object.__hash__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r} of a shared FlatLattice")

    def maximal_chain_count(self) -> int:
        counts = {self.bottom: 1}
        for f in self.flats:  # sorted by rank, so predecessors come first
            for g, _ in self.covers[f]:
                counts[g] = counts.get(g, 0) + counts[f]
        return counts[self.top]

    @cached_property
    def admissible_chains(self) -> Mapping[int, int]:
        """Number of maximal chains with each descent set, as a bitmask (bit i
        for position i), among the chains whose label sequence has no two
        consecutive descents.

        A transfer count over the flats in rank order: ``states[f]`` maps
        (label of the last cover, bitmask of descent positions) to the number
        of chains from the bottom to f.  A step whose descent would follow
        another descent is dropped where it happens, so no extension of it is
        ever visited.
        """
        states: dict[int, dict[tuple[int, int], int]] = {self.bottom: {(0, 0): 1}}
        for f in self.flats:  # sorted by rank, so predecessors come first
            if f == self.top:
                break
            here = states.pop(f)
            pos = self.flat_rank[f]  # position of a descent from f's label to g's
            for g, label in self.covers[f]:
                there = states.setdefault(g, {})
                for (last, mask), count in here.items():
                    if last > label:
                        if mask >> (pos - 1) & 1:
                            continue
                        mask |= 1 << pos
                    key = (label, mask)
                    there[key] = there.get(key, 0) + count
        counts: dict[int, int] = {}
        for (_, mask), count in states.get(self.top, {}).items():
            counts[mask] = counts.get(mask, 0) + count
        return MappingProxyType(counts)


def flats_lattice(m: Matroid) -> FlatLattice:
    """The labeled lattice of flats of m, built once per matroid."""
    return m._lattice


def _build_lattice(m: Matroid) -> FlatLattice:
    rank = m._rank
    # a flat is a set that every added element raises in rank
    flats = []
    for s, r in enumerate(rank):
        rest = m.full_mask ^ s
        while rest and rank[s | rest & -rest] > r:
            rest &= rest - 1
        if not rest:
            flats.append(s)
    flats.sort(key=lambda s: (rank[s], s))
    flat_rank = {f: rank[f] for f in flats}
    by_rank: dict[int, list[int]] = {}
    for f in flats:
        by_rank.setdefault(flat_rank[f], []).append(f)
    bottom = flats[0]
    # atoms meet only in the bottom flat, so each element outside it lies in
    # exactly one atom
    atoms = sorted(by_rank.get(1, ()), key=lambda a: elements_of(a & ~bottom))
    atom_label = {
        e: j for j, a in enumerate(atoms, start=1) for e in elements_of(a & ~bottom)
    }

    def label(f: int, g: int) -> int:
        fresh = g & ~f
        return atom_label[(fresh & -fresh).bit_length()]

    covers = {
        f: tuple(
            (g, label(f, g)) for g in by_rank.get(flat_rank[f] + 1, ()) if g & f == f
        )
        for f in flats
    }
    return FlatLattice(
        rank=m.rank,
        flats=tuple(flats),
        flat_rank=MappingProxyType(flat_rank),
        covers=MappingProxyType(covers),
        bottom=bottom,
        top=m.full_mask,
    )


def _chain_descent_weights(m: Matroid, augmented: bool) -> dict[int, int]:
    """Number of maximal chains with each admissible descent set (a bitmask,
    bit i for position i), as a fresh dict.

    The lattice counts its chains once under the augmented rules.  A chain is
    admissible for the plain polynomial exactly when it is admissible for the
    augmented one and has no descent at position 1, so the plain weights are
    the descent sets without 1.
    """
    if not m.is_loopless:
        raise MatroidError("oracle requires loopless input")
    if m.rank < 1:
        raise MatroidError("oracle requires rank at least 1")
    counts = flats_lattice(m).admissible_chains
    if augmented:
        return dict(counts)
    return {mask: count for mask, count in counts.items() if not mask & 2}


def chain_chow(m: Matroid, augmented: bool = False) -> UniPoly:
    """Chow (augmented: augmented Chow) polynomial summed over maximal chains
    of the lattice of flats whose label sequence has no two consecutive
    descents (and no descent in position 1 when not augmented).  The chains
    are counted by descent set with a transfer count over the flats, not
    listed one at a time."""
    weights = _chain_descent_weights(m, augmented)
    d = m.rank if augmented else m.rank - 1
    gammas = [0] * (d // 2 + 1)
    for mask, count in weights.items():
        gammas[mask.bit_count()] += count
    return gamma_reconstruct(gammas, d)


def chain_chow_multivariate(m: Matroid, augmented: bool = False) -> SqfMultiPoly:
    """Multivariate refinement of ``chain_chow``: each chain contributes the
    product of x_i over its descent positions i times (1 + x_i) over window
    positions i with neither i nor i+1 a descent.  The chain counts per
    descent set come from the same transfer count as ``chain_chow``."""
    weights = _chain_descent_weights(m, augmented)
    return gamma_reconstruct_multivariate(
        weights, (0 if augmented else 1, m.rank - 1)
    )


# -- JSON exchange format -----------------------------------------------------


def matroid_to_json(m: Matroid) -> dict:
    return {
        "n": m.n,
        "rank": m.rank,
        "bases": [list(b) for b in sorted(m.bases_sets())],
    }


def matroid_from_json(data: dict) -> Matroid:
    """Parse the JSON exchange format; a malformed document is a MatroidError."""
    if not isinstance(data, dict):
        raise MatroidError("matroid JSON must be an object")
    if not _is_int(data.get("n")):
        raise MatroidError('matroid JSON needs an integer "n"')
    bases = data.get("bases")
    if not isinstance(bases, list) or not all(
        isinstance(b, list) and all(_is_int(e) for e in b) for b in bases
    ):
        raise MatroidError('matroid JSON needs "bases" as a list of lists of integers')
    if "rank" in data and not _is_int(data["rank"]):
        raise MatroidError('matroid JSON "rank" must be an integer')
    m = matroid_from_bases(data["n"], bases)
    if "rank" in data and data["rank"] != m.rank:
        raise MatroidError(
            f"declared rank {data['rank']} does not match basis size {m.rank}"
        )
    return m
