from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowpoly import census, delta_multinomial, kernels
from tests.oracles import (
    brute_fingerprint,
    brute_loops_and_cogirth,
    brute_relabel,
    orbit,
    schubert_bases,
    schubert_fingerprints,
    swap,
)


def _k_subset_masks(n: int, k: int) -> list[int]:
    return [sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), k)]


def _schubert_fingerprint(n: int, idx, perm) -> int:
    # the image under perm of the identity-order Schubert matroid of idx is
    # the Schubert matroid of perm(idx) in the order perm, built from the
    # definition in tests.oracles, not from the kernels
    image = tuple(sorted(perm[e - 1] for e in idx))
    return brute_fingerprint(schubert_bases(n, image, perm))


def _transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    """One-line notation of the swap of bits i and j (elements i+1, j+1)."""
    perm = list(range(1, n + 1))
    perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


@cache
def _orbits(n: int, k: int, m: int | None = None) -> tuple[frozenset[int], ...]:
    """The orbit of each rank-k seed under the permutations of {1..m} (of
    {1..n} when m is not given), in ``combinations`` order, from the
    adjacent-swap closure of the oracles."""
    return tuple(frozenset(orbit(s, n, m)) for s in kernels.schubert_seeds(n, k))


@cache
def _closure(n: int, k: int) -> frozenset[int]:
    return frozenset().union(*_orbits(n, k))


@st.composite
def relabel_cases(draw):
    """A ground size n <= 8, two bits (equal or not, in either order), and a
    collection of subset masks of any sizes."""
    n = draw(st.integers(1, 8))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=12))
    return n, i, j, sorted(masks)


@settings(max_examples=150, deadline=None)
@given(relabel_cases())
# masks holding element 8 sit in the high half of the positions at n = 8,
# both when the swap moves element 8 and when it does not
@example((8, 0, 7, [0b1111, 0b1110001, 0b11110000]))
@example((8, 2, 5, [0b10000100, 0b10100000, 0b11111111, 0b100]))
@example((8, 6, 1, [0b11000000, 0b10000010]))
def test_transposition_action_matches_brute_relabel(case):
    # each swap is the relabeling by that transposition, and its own inverse
    n, i, j, masks = case
    collection = brute_fingerprint(masks)
    image = swap(collection, n, i, j)
    assert image == brute_fingerprint(brute_relabel(m, _transposition(n, i, j)) for m in masks)
    assert swap(image, n, i, j) == collection


@st.composite
def stage_cases(draw):
    """A ground size n <= 8, a stage m < n and a collection of subset masks
    of any sizes."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, n - 1))
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=12))
    return n, m, brute_fingerprint(masks)


@settings(max_examples=150, deadline=None)
@given(stage_cases())
@example((8, 7, brute_fingerprint([0b1111, 0b1110001, 0b11110000])))
@example((8, 0, brute_fingerprint([0b10000100, 0b100])))
def test_relabel_stage_adds_the_swaps_with_every_lower_bit(case):
    # the inlined delta swaps of a stage are the oracle's swaps of bit m
    # with bits 0..m - 1, and the collection itself is kept
    n, m, x = case
    expected = {x} | {swap(x, n, i, m) for i in range(m)}
    assert kernels.relabel_stage({x}, n, m) == expected


def test_swap_moves_each_mask_to_its_relabeling():
    # n = 4: swapping elements 1 and 2 (bits 0 and 1) sends {1, 3} to {2, 3}
    # and {2, 4} to {1, 4}; exhaustively at n = 6, every single mask under
    # every swap goes to its brute relabeling
    assert swap(1 << 0b0101 | 1 << 0b1010, 4, 0, 1) == 1 << 0b0110 | 1 << 0b1001
    n = 6
    for i in range(n):
        for j in range(n):
            for mask in range(1 << n):
                got = swap(1 << mask, n, i, j)
                assert got == 1 << brute_relabel(mask, _transposition(n, i, j)), (i, j, mask)


def test_rank0_fingerprint_classifies_as_no_hitting_set():
    # only the empty set is a basis; its orbit is itself
    assert kernels.schubert_seeds(4, 0) == [1]
    assert kernels.loops_and_cogirth(1, 4) == (4, -1)
    assert kernels.orbit_counts([1], 4) == {(4, -1): 1}


def test_swaps_of_every_seed_at_rank_four_of_eight():
    # at n = 8, k = 4 each seed's image under a swap is the Schubert matroid
    # of the swapped pair, and each seed classifies as the brute scan says
    n, k = 8, 4
    pairs = [(0, 7), (3, 4), (0, 1), (2, 6), (6, 7)]
    seeds = kernels.schubert_seeds(n, k)
    for seed, idx in zip(seeds, combinations(range(1, n + 1), k)):
        for i, j in pairs:
            assert swap(seed, n, i, j) == _schubert_fingerprint(n, idx, _transposition(n, i, j))
        bases = schubert_bases(n, idx)
        assert kernels.loops_and_cogirth(seed, n) == brute_loops_and_cogirth(bases, n), idx


@st.composite
def census_pairs(draw):
    """A ground size of 7 or 8, a rank, and some (index set, permutation)
    pairs."""
    n = draw(st.sampled_from([7, 8]))
    k = draw(st.integers(1, n))
    index_set = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    pair = st.tuples(index_set.map(lambda s: tuple(sorted(s))), st.permutations(range(1, n + 1)))
    return n, k, draw(st.lists(pair, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(census_pairs())
@example((8, 4, [((1, 2, 3, 4), (2, 5, 8, 3, 6, 1, 4, 7)), ((5, 6, 7, 8), (8, 7, 6, 5, 4, 3, 2, 1))]))
def test_census_fingerprints_match_brute_oracle(case):
    # at n = 7 and 8, past the exhaustive check, the orbit of the index set
    # holds the fingerprint of every sampled (index set, permutation) pair
    n, k, pairs = case
    orbits = dict(zip(combinations(range(1, n + 1), k), _orbits(n, k)))
    for idx, perm in pairs:
        assert _schubert_fingerprint(n, idx, perm) in orbits[idx], (idx, perm)


def test_closure_matches_schubert_bases_exhaustively():
    # for n <= 6 the orbit of each index set's seed is, as a set, the
    # fingerprints of schubert_bases over all its (index set, permutation)
    # pairs, and the union over a rank is that rank's whole census;
    # schubert_bases shares no code with the kernels
    for n in range(1, 7):
        for k in range(n + 1):
            brute = schubert_fingerprints(n, k)
            perms = list(permutations(range(1, n + 1)))
            for idx, members in zip(combinations(range(1, n + 1), k), _orbits(n, k)):
                images = {
                    brute[tuple(sorted(p[e - 1] for e in idx)), p] for p in perms
                }
                assert members == images, (n, idx)
            assert _closure(n, k) == set(brute.values()), (n, k)


def test_closure_is_closed_under_adjacent_transpositions():
    # the adjacent swaps generate every permutation, so each of them maps
    # every orbit onto itself
    for n in (2, 5, 8):
        for k in range(1, n):
            for members in _orbits(n, k):
                for i in range(n - 1):
                    assert {swap(x, n, i, i + 1) for x in members} == members, (n, k)


def test_orbit_members_share_the_seed_invariants():
    # relabeling preserves loops and cogirth, so reading them once per orbit
    # off the seed is exact; checked on every member for n <= 6
    for n in range(1, 7):
        for k in range(n + 1):
            for seed, members in zip(kernels.schubert_seeds(n, k), _orbits(n, k)):
                expected = kernels.loops_and_cogirth(seed, n)
                assert {kernels.loops_and_cogirth(x, n) for x in members} == {expected}


def test_fingerprints_batched_and_streamed_agree():
    # tallying all seeds of a rank at once gives the sum of tallying each
    # seed alone: the orbits of distinct index sets are disjoint, and each
    # has as many matroids as its gap multinomial
    for n in (5, 6):
        for k in range(1, n + 1):
            seeds = kernels.schubert_seeds(n, k)
            streamed: dict = {}
            for seed, idx in zip(seeds, combinations(range(1, n + 1), k)):
                ((key, size),) = kernels.orbit_counts([seed], n).items()
                assert size == delta_multinomial(n, idx), idx
                streamed[key] = streamed.get(key, 0) + size
            assert kernels.orbit_counts(seeds, n) == streamed, (n, k)
            assert sum(streamed.values()) == len(_closure(n, k))


def test_orbit_counts_skip_a_seed_in_a_counted_orbit():
    # a seed that lies in an orbit already counted adds nothing, whether it
    # is repeated or a relabeled image of an earlier seed
    n = 6
    for k in range(1, n + 1):
        seeds = kernels.schubert_seeds(n, k)
        once = kernels.orbit_counts(seeds, n)
        images = [swap(s, n, 0, n - 1) for s in seeds]
        assert kernels.orbit_counts(seeds + seeds, n) == once, k
        assert kernels.orbit_counts(seeds + images, n) == once, k
        assert kernels.orbit_counts(images + seeds, n) == once, k


def test_orbit_counts_match_the_oracle_closure_per_seed():
    # the orbit-stabilizer count of each seed alone is the size of its whole
    # orbit, as the adjacent-swap closure of the oracles lists it, for every
    # seed of every rank up to n = 8
    for n in range(1, 9):
        for k in range(n + 1):
            for seed, members in zip(kernels.schubert_seeds(n, k), _orbits(n, k)):
                expected = {kernels.loops_and_cogirth(seed, n): len(members)}
                assert kernels.orbit_counts([seed], n) == expected, (n, k)


def test_orbit_counts_refuse_an_inexact_count(monkeypatch):
    # a stage that loses a member of more than one leaves a closure whose
    # count is not exact; the refusal is an exception, not an assert, so it
    # holds under -O
    stage = kernels.relabel_stage

    def lossy(members, n, m):
        out = stage(members, n, m)
        if len(out) > 1:
            out.discard(max(out))
        return out

    monkeypatch.setattr(kernels, "relabel_stage", lossy)
    with pytest.raises(RuntimeError, match=r"^inexact orbit count at n=6: "):
        census(6)


def test_census_relabels_only_distinct_rows(monkeypatch):
    # census(8) lists each seed's closure only under the relabelings of
    # {1..6} and counts the top two levels: stage m relabels the seed's
    # closure under {1..m}, as the oracle closure lists it, each member to
    # itself and by m swaps.  That is 24,348 images over the ranks 1..8, not
    # the 10,281,600 (index set, permutation) pairs, and 20 for the rank-0
    # matroid, which is its own image
    images = []
    stage = kernels.relabel_stage

    def counted(members, n, m):
        assert isinstance(members, set)
        images.append(len(members) * (m + 1))
        return stage(members, n, m)

    monkeypatch.setattr(kernels, "relabel_stage", counted)
    census(8)
    assert len(images) == 256 * 5  # every index set, 5 stages each
    assert sum(images) == 24_348 + 20
    assert sum(images) == sum(
        (m + 1) * len(members)
        for k in range(9)
        for m in range(1, 6)
        for members in _orbits(8, k, m)
    )


@st.composite
def basis_collections(draw, sizes=st.integers(1, 7)):
    """A ground size n from ``sizes`` (n <= 7 by default), a rank k, and a
    nonempty collection of k-subset masks."""
    n = draw(sizes)
    k = draw(st.integers(0, n))
    masks = st.frozensets(st.sampled_from(_k_subset_masks(n, k)), min_size=1, max_size=10)
    return n, sorted(draw(masks))


@settings(max_examples=100, deadline=None)
@given(basis_collections())
def test_classify_fingerprints_matches_brute_oracle(case):
    n, masks = case
    assert kernels.loops_and_cogirth(brute_fingerprint(masks), n) == brute_loops_and_cogirth(masks, n)


def test_identity_rows_are_the_upper_sets_of_every_index_set():
    # the seed of I holds the k-subsets dominating it, for every index set
    # up to n = 8
    for n in (7, 8):
        for k in range(n + 1):
            seeds = kernels.schubert_seeds(n, k)
            for seed, idx in zip(seeds, combinations(range(1, n + 1), k)):
                assert seed == brute_fingerprint(schubert_bases(n, idx)), idx


@st.composite
def seed_lists(draw):
    """A ground size n <= 6 and one to three collections of subset masks on
    it: the first from ``basis_collections``, each later one a new such
    collection, a repeat of an earlier one, or an earlier one relabeled by a
    permutation."""
    n, masks = draw(basis_collections(st.integers(1, 6)))
    collections = [masks]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["new", "repeat", "relabel"]))
        if kind == "new":
            collections.append(draw(basis_collections(st.just(n)))[1])
            continue
        earlier = draw(st.sampled_from(collections))
        if kind == "relabel":
            perm = draw(st.permutations(range(1, n + 1)))
            earlier = [brute_relabel(mask, perm) for mask in earlier]
        collections.append(earlier)
    return n, collections


@settings(max_examples=200, deadline=None)
@given(seed_lists())
@example((1, [[0], [1], [1]]))
@example((2, [[0b01], [0b10], [0b11]]))
@example((2, [[0b01, 0b10], [0b00]]))
# a perfect matching of {1..6}: its stabilizer permutes the pairs, so it is
# no Young subgroup, and a relabeled image of it must be skipped
@example((6, [[0b11, 0b1100, 0b110000], [0b101, 0b1010, 0b110000]]))
@example((6, [[0b1001, 0b110, 0b110000], [0b11, 0b1100, 0b110000]]))
def test_orbit_counts_match_a_tally_over_oracle_orbits(case):
    # Schubert seeds have Young-subgroup stabilizers; arbitrary collections,
    # repeated and relabeled, exercise the general two-level count and the
    # skip of a collection in an orbit already counted
    n, collections = case
    seeds = [brute_fingerprint(masks) for masks in collections]
    orbits: dict = {}
    for seed, masks in zip(seeds, collections):
        orbits.setdefault(frozenset(orbit(seed, n)), brute_loops_and_cogirth(masks, n))
    expected: dict = {}
    for members, key in orbits.items():
        expected[key] = expected.get(key, 0) + len(members)
    assert kernels.orbit_counts(seeds, n) == expected
