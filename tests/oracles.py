"""Independent brute-force reference implementations used across the tests.

Everything here scans permutations, subsets or chains directly from the
definitions, with no shared code paths into the faster implementations, so
these stay valid as oracles for them.  The lattice of flats is rebuilt here
from the rank defined by the bases, by a flat test of every subset and a
scan of every pair of flats of adjacent ranks.  The depth-first walk over
the maximal chains of a lattice of flats lives here, not in the package: the
chain tally runs it over the package's lattice and its cover labels, which
are the definitions it counts over.  So do the per-set descent count
``eulerian_fixed_descents``, an inclusion-exclusion over a superset count
taken from factorials, and the pattern scan behind
``grassmannian_avoiding_count``, which checks a coefficient formula of the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from math import factorial
from typing import Iterable, Iterator

from chowpoly import (
    Matroid,
    ResourceLimitError,
    SchubertSpec,
    SqfMultiPoly,
    UniPoly,
    schubert_matroid,
)


def brute_descents(seq) -> tuple[int, ...]:
    return tuple(i for i in range(1, len(seq)) if seq[i - 1] > seq[i])


def positions_mask(positions: Iterable[int]) -> int:
    """A set of distinct nonnegative positions as the package's bitmask, bit i
    for position i."""
    return sum(1 << i for i in positions)


def by_mask(weights: dict[tuple[int, ...], int]) -> dict[int, int]:
    """A {descent set: weight} dict keyed by ``positions_mask`` instead."""
    return {positions_mask(dset): w for dset, w in weights.items()}


def brute_descent_census(n: int) -> dict[tuple[int, ...], int]:
    """Descent set -> number of permutations of {1..n} with exactly that set."""
    counts: dict[tuple[int, ...], int] = {}
    for w in permutations(range(1, n + 1)):
        d = brute_descents(w)
        counts[d] = counts.get(d, 0) + 1
    return counts


def eulerian_fixed_descents(n: int, dset: Iterable[int]) -> int:
    """Number of permutations of {1..n} with descent set exactly dset, by
    inclusion-exclusion over the subsets of dset against the superset count
    (2^|dset| terms)."""
    ds = tuple(sorted(set(dset)))
    if ds and ds[0] < 1:
        raise ValueError(f"index sets contain positive integers only, got {ds[0]}")
    if ds and ds[-1] > n - 1:
        raise ValueError(f"descent position {ds[-1]} out of range for n={n}")
    total = 0
    for r in range(len(ds) + 1):
        sign = (-1) ** (len(ds) - r)
        for sub in combinations(ds, r):
            total += sign * factorial_superset_count(n, sub)
    return total


def brute_eulerian_poly(n: int) -> UniPoly:
    if n == 0:
        return UniPoly.one()
    coeffs = [0] * n
    for w in permutations(range(1, n + 1)):
        coeffs[len(brute_descents(w))] += 1
    return UniPoly(coeffs)


def brute_derangement_poly(n: int) -> UniPoly:
    if n == 0:
        return UniPoly.one()
    coeffs = [0] * (n + 1)
    any_derangement = False
    for w in permutations(range(1, n + 1)):
        if any(v == i for i, v in enumerate(w, start=1)):
            continue
        any_derangement = True
        coeffs[sum(1 for i, v in enumerate(w, start=1) if v > i)] += 1
    return UniPoly(coeffs) if any_derangement else UniPoly.zero()


def brute_perm_descent_aggregates(
    k: int, weights, no_descent_at_one: bool
) -> list[int]:
    """For each descent count j, the sum of weights[s(k)] over the
    permutations s of {1..k} whose descent set holds no two consecutive
    positions (and not position 1 when ``no_descent_at_one``)."""
    agg = [0] * (k + 1)
    for s in permutations(range(1, k + 1)):
        d = brute_descents(s)
        if any(b - a == 1 for a, b in zip(d, d[1:])):
            continue
        if no_descent_at_one and 1 in d:
            continue
        agg[len(d)] += weights[s[-1]]
    return agg


def brute_nc_subsets(m: int, exclude_one: bool = False) -> set[tuple[int, ...]]:
    out = set()
    universe = range(2 if exclude_one else 1, m + 1)
    for size in range(len(list(universe)) + 1):
        for combo in combinations(universe, size):
            if all(b - a > 1 for a, b in zip(combo, combo[1:])):
                out.add(combo)
    return out


def factorial_superset_count(n: int, dset: tuple[int, ...]) -> int:
    """Number of permutations of {1..n} whose descents all lie in dset: cut
    at d_1 < ... < d_m, each block increases, so n! over the factorials of
    the block sizes."""
    value = factorial(n)
    prev = 0
    for d in dset:
        value //= factorial(d - prev)
        prev = d
    return value // factorial(n - prev)


def brute_delta_multinomial(n: int, index_set: tuple[int, ...]) -> int:
    """Gap multinomial recomputed directly from factorials of the gap sequence."""
    if not index_set:
        return 1
    elems = sorted(index_set)
    minima = [elems[0]]
    for prev, cur in zip(elems, elems[1:]):
        if cur != prev + 1:
            minima.append(cur)
    gaps = [minima[0] - 1]
    gaps += [b - a for a, b in zip(minima, minima[1:])]
    gaps.append(n - minima[-1] + 1)
    value = factorial(n)
    for g in gaps:
        value //= factorial(g)
    return value


def brute_monomial_terms(k: int, n: int, augmented: bool) -> dict[tuple[int, ...], int]:
    """Terms of the multivariate monomial basis: every index set I inside
    {1..k} (holding 1 when not augmented) adds its gap multinomial to the
    monomial over the shifted set {i - 1 : i in I} (without 0 when not
    augmented)."""
    terms: dict[tuple[int, ...], int] = {}
    for size in range(k + 1):
        for index_set in combinations(range(1, k + 1), size):
            if not augmented and 1 not in index_set:
                continue
            key = tuple(i - 1 for i in index_set if augmented or i != 1)
            terms[key] = terms.get(key, 0) + brute_delta_multinomial(n, index_set)
    return terms


def brute_monomial_form(k: int, n: int, augmented: bool) -> UniPoly:
    """The monomial expansion, with the terms of each degree summed."""
    coeffs = [0] * (k + 1)
    for key, c in brute_monomial_terms(k, n, augmented).items():
        coeffs[len(key)] += c
    return UniPoly(coeffs)


def brute_gamma_reconstruct_multivariate(
    weights, var_range: tuple[int, int]
) -> dict[tuple[int, ...], int]:
    """Nonzero terms of the sum over D of weights[D] * x_D times the product of
    (1 + x_i) over the i in var_range with neither i nor i+1 in D, expanded
    one subset of those free positions at a time."""
    lo, hi = var_range
    terms: dict[tuple[int, ...], int] = {}
    for dset, w in weights.items():
        free = [i for i in range(lo, hi + 1) if i not in dset and i + 1 not in dset]
        for size in range(len(free) + 1):
            for extra in combinations(free, size):
                key = tuple(sorted(dset + extra))
                terms[key] = terms.get(key, 0) + w
    return {key: c for key, c in terms.items() if c}


def run_minima(width: int, first: int) -> list[int]:
    """Entry q is ``q & ~(q << 1)``, the lowest bit of each run of ones in q,
    for every q below 2^width; bit 0 is dropped when ``first`` is 0.

    Built one bit at a time: the entries from 2^t on repeat the lower half,
    with bit t added where bit t - 1 is clear."""
    minima = [0, 1 if first else 0][: 1 << width]
    for t in range(1, width):
        bit, half = 1 << t, 1 << (t - 1)
        minima += map(bit.__or__, minima[:half])
        minima += minima[half:bit]
    return minima


def brute_subsets(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Every subset of the variables lo..hi as a sorted tuple, at the position
    q whose bit i is set exactly when lo + i is in it."""
    width = max(hi - lo + 1, 0)
    return [tuple(lo + i for i in range(width) if q >> i & 1) for q in range(1 << width)]


def brute_sorted_terms(terms: dict) -> list[tuple[tuple[int, ...], int]]:
    """The nonzero (key, coefficient) items, sorted by key length, then key."""
    return sorted(((k, c) for k, c in terms.items() if c), key=lambda t: (len(t[0]), t[0]))


def brute_multipoly(var_range: tuple[int, int], terms) -> SqfMultiPoly:
    """The polynomial over var_range with the {index tuple: coefficient}
    ``terms``, every other subset of the range at 0: ``from_dense`` over
    ``brute_subsets``.  A key that is not a sorted subset of the range fails."""
    subsets = brute_subsets(*var_range)
    unknown = set(terms) - set(subsets)
    assert not unknown, f"keys outside the subsets of {var_range}: {sorted(unknown)}"
    return SqfMultiPoly.from_dense(var_range, [terms.get(key, 0) for key in subsets])


def brute_json_document(poly: SqfMultiPoly) -> dict:
    """The JSON document of a multivariate polynomial: its range, then the
    variables and the decimal coefficient of each nonzero term, in the order
    of ``brute_sorted_terms``."""
    lo, hi = poly.var_range
    terms = dict(zip(brute_subsets(lo, hi), poly.coeffs))
    return {
        "vars": [lo, hi],
        "terms": [{"vars": list(k), "coeff": str(c)} for k, c in brute_sorted_terms(terms)],
    }


def brute_fingerprint(masks) -> int:
    """Fingerprint of a set of subset masks: the int with bit m set for each
    mask m in the set."""
    return sum(1 << m for m in set(masks))


def brute_relabel(mask: int, perm) -> int:
    """Image of a subset mask under the permutation with one-line ``perm``:
    element e (bit e-1) goes to perm[e-1]."""
    return sum(1 << (perm[e - 1] - 1) for e in range(1, len(perm) + 1) if mask >> (e - 1) & 1)


@cache
def _holding_low_only(n: int, i: int, j: int) -> int:
    """The int with bit p set for each subset mask p of {1..n} that holds
    bit i but not bit j."""
    return sum(1 << p for p in range(1 << n) if p >> i & 1 and not p >> j & 1)


def swap(collection: int, n: int, i: int, j: int) -> int:
    """The collection with bits i and j exchanged in every member mask, as a
    delta swap; the identity when i == j, and its own inverse.  For i < j the
    members holding i but not j move up by 2^j - 2^i onto their partners,
    which move down; ``kernels.relabel_stage`` inlines the same swap."""
    if i == j:
        return collection
    i, j = min(i, j), max(i, j)
    shift = (1 << j) - (1 << i)
    moved = (collection ^ (collection >> shift)) & _holding_low_only(n, i, j)
    return collection ^ moved ^ (moved << shift)


def orbit(seed: int, n: int, m: int | None = None) -> set[int]:
    """The distinct images of ``seed`` under every permutation of {1..m}
    (m = n when not given), as its closure under the adjacent swaps of those
    elements, which generate them all."""
    members, frontier = {seed}, [seed]
    while frontier:
        x = frontier.pop()
        for i in range((n if m is None else m) - 1):
            y = swap(x, n, i, i + 1)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


@cache
def schubert_fingerprints(n: int, k: int) -> dict[tuple, int]:
    """(index set, order) -> ``brute_fingerprint`` of the bases that
    ``schubert_matroid`` builds, for every k-subset and every permutation of
    {1..n}.  The values are the whole rank-k census, with repeats."""
    out = {}
    for perm in permutations(range(1, n + 1)):
        for idx in combinations(range(1, n + 1), k):
            bases = schubert_matroid(SchubertSpec(n, idx, perm), validate=False).bases
            out[idx, perm] = brute_fingerprint(bases)
    return out


def brute_dual(matroid: Matroid) -> Matroid:
    """The dual matroid: the complements of the bases, with the rank axioms
    checked on them."""
    full = (1 << matroid.n) - 1
    return Matroid(matroid.n, [full ^ b for b in matroid.bases])


def brute_loops_and_cogirth(masks, n: int) -> tuple[int, int]:
    """Number of elements in no set of the collection, and the smallest size
    of a set meeting every member (-1 when none does), by a direct scan."""
    members = list(masks)
    loops = sum(1 for e in range(n) if not any(m >> e & 1 for m in members))
    for size in range(1, n + 1):
        for chosen in combinations(range(n), size):
            hitter = sum(1 << e for e in chosen)
            if all(hitter & m for m in members):
                return loops, size
    return loops, -1


def _id_order_bases(n: int, index_set: tuple[int, ...]) -> list[int]:
    """Bases of the identity-order Schubert matroid of ``index_set``, as
    masks: the k-subsets that dominate it componentwise."""
    return [
        sum(1 << (e - 1) for e in j)
        for j in combinations(range(1, n + 1), len(index_set))
        if all(a <= b for a, b in zip(index_set, j))
    ]


_GRASSMANNIAN_MAX_N = 9


def _grassmannian_perms(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of {1..n} with at most one descent."""
    identity = tuple(range(1, n + 1))
    yield identity
    for size in range(1, n):
        for chosen in combinations(range(1, n + 1), size):
            if chosen == identity[:size]:
                continue  # sorted(S) + sorted(rest) would be the identity again
            rest = tuple(e for e in identity if e not in set(chosen))
            yield chosen + rest


def _contains_pattern(word: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    k = len(pattern)
    for sub in combinations(word, k):
        order = sorted(sub)
        if tuple(order.index(v) + 1 for v in sub) == pattern:
            return True
    return False


def grassmannian_avoiding_count(n: int, sigma: Iterable[int]) -> int:
    """Number of permutations of {1..n} with at most one descent avoiding the
    classical pattern ``sigma`` (which must have exactly one descent)."""
    pattern = tuple(sigma)
    if tuple(sorted(pattern)) != tuple(range(1, len(pattern) + 1)):
        raise ValueError(f"{pattern} is not a permutation in one-line notation")
    if len(brute_descents(pattern)) != 1:
        raise ValueError(f"pattern {pattern} must have exactly one descent")
    if n > _GRASSMANNIAN_MAX_N:
        raise ResourceLimitError(
            f"pattern scan capped at n <= {_GRASSMANNIAN_MAX_N}, got {n}"
        )
    return sum(
        1 for w in _grassmannian_perms(n) if not _contains_pattern(w, pattern)
    )


def brute_satisfies_exchange(bases) -> bool:
    """Basis-exchange axiom on a collection of basis masks: for bases B1, B2
    and x in B1 - B2 some y in B2 - B1 makes B1 - x + y a basis.  Every pair
    of bases and every removed element is scanned."""
    base_set = set(bases)
    for b1 in base_set:
        for b2 in base_set:
            for x in (1 << i for i in range(b1.bit_length()) if (b1 & ~b2) >> i & 1):
                add = b2 & ~b1
                if not any(
                    (b1 ^ x) | 1 << i in base_set
                    for i in range(add.bit_length())
                    if add >> i & 1
                ):
                    return False
    return True


def brute_rank_table(matroid: Matroid) -> list[int]:
    """Rank of every subset mask, as its largest intersection with a basis,
    one basis at a time."""
    return [
        max((s & b).bit_count() for b in matroid.bases) for s in range(1 << matroid.n)
    ]


def brute_flats_lattice(matroid: Matroid) -> dict:
    """The fields of the labeled lattice of flats, from the definitions.

    A flat is a set that every added element raises in rank; g covers f when
    g holds f and has rank one more, found by a scan over every pair of flats
    of adjacent ranks.  The atoms are numbered 1, 2, ... in the order of
    their smallest element outside the bottom flat, and a cover is labeled by
    the atom of its smallest new element."""
    n, rank = matroid.n, brute_rank_table(matroid)
    full = (1 << n) - 1

    def smallest(mask: int) -> int:
        return min(i for i in range(n) if mask >> i & 1)

    def is_flat(s: int) -> bool:
        return all(rank[s | 1 << i] > rank[s] for i in range(n) if not s >> i & 1)

    flats = sorted(filter(is_flat, range(full + 1)), key=lambda s: (rank[s], s))
    bottom = flats[0]
    atoms = sorted((a for a in flats if rank[a] == 1), key=lambda a: smallest(a & ~bottom))
    atom_of = {
        i: j for j, a in enumerate(atoms, start=1) for i in range(n) if (a & ~bottom) >> i & 1
    }
    return {
        "rank": matroid.rank,
        "flats": tuple(flats),
        "flat_rank": {f: rank[f] for f in flats},
        "covers": {
            f: tuple(
                (g, atom_of[smallest(g & ~f)])
                for g in flats
                if rank[g] == rank[f] + 1 and g & f == f
            )
            for f in flats
        },
        "bottom": bottom,
        "top": full,
    }


def labeled_chains(lattice) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every maximal chain of the lattice as (flats, cover labels), by a
    depth-first walk that reads each label from ``lattice.covers``."""
    stack = [((lattice.bottom,), ())]
    while stack:
        flats, labels = stack.pop()
        if flats[-1] == lattice.top:
            yield flats, labels
            continue
        for g, label in lattice.covers[flats[-1]]:
            stack.append((flats + (g,), labels + (label,)))


def brute_chain_descent_weights(lattice, augmented: bool) -> dict[tuple[int, ...], int]:
    """Descent set -> number of maximal chains of the lattice whose label
    sequence has that descent set, no two consecutive descents, and (when
    not augmented) no descent at position 1; one chain at a time.  It shares
    the lattice and its cover labels with the package, and nothing of the
    transfer count that the chain oracle runs."""
    weights: dict[tuple[int, ...], int] = {}
    for _, labels in labeled_chains(lattice):
        dset = brute_descents(labels)
        if any(b == a + 1 for a, b in zip(dset, dset[1:])):
            continue
        if not augmented and dset and dset[0] == 1:
            continue
        weights[dset] = weights.get(dset, 0) + 1
    return weights


@dataclass(frozen=True)
class SubsetPermutation:
    """A bijection of a subset S of {1..n}, in one-line notation.

    With S = {s_1 < ... < s_k}, entry i of ``one_line`` is the image of s_i.
    """

    support: tuple[int, ...]
    one_line: tuple[int, ...]

    def __post_init__(self):
        support = tuple(sorted(set(self.support)))
        if support and support[0] < 1:
            raise ValueError(f"supports hold positive integers only, got {support[0]}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "one_line", tuple(self.one_line))
        if tuple(sorted(self.one_line)) != support:
            raise ValueError(
                f"one-line {self.one_line} is not a permutation of {support}"
            )

    def extend(self, n: int) -> tuple[int, ...]:
        """One-line of the extension to {1..n}: the missing elements are
        appended in increasing order.  Preserves descents."""
        if self.support and self.support[-1] > n:
            raise ValueError(f"support {self.support} not contained in 1..{n}")
        tail = tuple(e for e in range(1, n + 1) if e not in set(self.support))
        return self.one_line + tail

    def standardize(self) -> tuple[int, ...]:
        """One-line of the order-isomorphic permutation of {1..len(S)}.
        Preserves descents."""
        relabel = {s: i for i, s in enumerate(self.support, start=1)}
        return tuple(relabel[v] for v in self.one_line)


def chain_label_permutations(k: int, n: int) -> Iterator[SubsetPermutation]:
    """Subset permutations realizable as chain label sequences of the rank-k
    uniform matroid on {1..n}: permutations of a k-subset S whose last entry
    v satisfies {1..v} inside S.  Deterministic (support, one-line) order."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    for support in combinations(range(1, n + 1), k):
        in_s = set(support)
        for one_line in permutations(support):
            if all(e in in_s for e in range(1, one_line[-1])):
                yield SubsetPermutation(support, one_line)
