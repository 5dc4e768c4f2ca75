import json
import pickle
import re
from copy import deepcopy
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowpoly import (
    INFINITY,
    FlatLattice,
    Matroid,
    MatroidError,
    SchubertSpec,
    chain_chow,
    chain_chow_multivariate,
    closed_form,
    flats_lattice,
    matroid_from_bases,
    matroid_from_json,
    matroid_to_json,
    multivariate_closed_form,
    schubert_matroid,
    uniform,
)
from chowpoly import matroid as matroid_module
from chowpoly.matroid import _build_lattice, _chain_descent_weights, elements_of, mask_of
from chowpoly.polynomial import UniPoly
from tests.oracles import (
    brute_chain_descent_weights,
    brute_descents,
    brute_dual,
    brute_loops_and_cogirth,
    brute_satisfies_exchange,
    by_mask,
    chain_label_permutations,
    labeled_chains,
)


def _label(lattice, n, lower, upper):
    # label of the cover lower < upper; KeyError when it is not a cover
    return dict(lattice.covers[mask_of(lower, n)])[mask_of(upper, n)]


def _label_sequences(lattice):
    return [labels for _, labels in labeled_chains(lattice)]


def _graphic_k4():
    # edges 1..6 of K4; the triangles are its 3-element circuits
    triangles = {(1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)}
    return matroid_from_bases(
        6, [c for c in combinations(range(1, 7), 3) if c not in triangles]
    )


def test_construction_validates():
    m = matroid_from_bases(3, [(1, 2), (1, 3), (2, 3)])
    assert m == uniform(2, 3)
    assert matroid_from_bases(2, [(1,), (2,)]).rank == 1
    with pytest.raises(MatroidError):
        matroid_from_bases(3, [(1, 2), (3,)])  # unequal sizes
    with pytest.raises(MatroidError):
        matroid_from_bases(3, [])
    with pytest.raises(MatroidError):
        # {1,2} and {3,4} violate exchange: dropping 1 admits no replacement
        matroid_from_bases(4, [(1, 2), (3, 4)])
    with pytest.raises(MatroidError):
        matroid_from_bases(2, [(1, 5)])
    with pytest.raises(MatroidError, match="element 1 repeated"):
        matroid_from_bases(3, [(1, 1)])
    # the rank axioms are checked at every ground size
    with pytest.raises(MatroidError, match="not a matroid"):
        matroid_from_bases(13, [(1, 2), (3, 4)])
    assert Matroid(16, uniform(2, 16).bases) == uniform(2, 16)
    with pytest.raises(MatroidError, match="ground size 17 not in 0..16"):
        Matroid(17, [0b11])


def test_basis_mask_outside_the_ground_set_is_refused():
    # before the rank table is built, with or without the rank check
    for validate in (True, False):
        with pytest.raises(MatroidError, match=r"^basis mask 19 not in 0\.\.7$"):
            Matroid(3, [0b10011], validate=validate)
        with pytest.raises(MatroidError, match=r"^basis mask -1 not in 0\.\.7$"):
            Matroid(3, [-1], validate=validate)
    assert Matroid(3, [0b111]).rank == 3


@pytest.mark.parametrize("mask", [1.5, "3", None, True])
def test_basis_mask_that_is_not_an_int_is_refused(mask):
    # before the range check, which would compare it with ints, and before
    # the sort, which would compare it with the other masks
    for validate in (True, False):
        with pytest.raises(MatroidError, match=r"^basis mask \S+ is not an int$"):
            Matroid(3, [mask], validate=validate)
        with pytest.raises(MatroidError, match="is not an int"):
            Matroid(3, [0b011, mask], validate=validate)


@pytest.mark.parametrize("n", ["3", None, 2.5, 3.0, True])
def test_ground_size_that_is_not_an_int_is_refused(n):
    # before the range check, which would compare it with ints
    for validate in (True, False):
        with pytest.raises(MatroidError, match=r"^ground size \S+ is not an int$"):
            Matroid(n, [1], validate=validate)


def test_uniform_refuses_large_ground_sets_before_listing_bases(monkeypatch):
    # uniform(20, 40) would list C(40, 20) bases before Matroid saw n
    def no_listing(*args):
        raise AssertionError("bases listed before the ground size was checked")

    monkeypatch.setattr("chowpoly.matroid.combinations", no_listing)
    for k, n in ((20, 40), (2, 17), (3, 2), (-1, 4)):
        with pytest.raises(MatroidError, match="uniform matroid needs"):
            uniform(k, n)


@pytest.mark.parametrize("k, n", [(True, 3), (2.0, 3), (2, 3.0), (2, None), ("2", 3), (1, False)])
def test_uniform_refuses_an_argument_that_is_not_an_int(monkeypatch, k, n):
    # a bool is refused too, though True <= 3 would pass the range check
    monkeypatch.setattr("chowpoly.matroid.combinations", None)
    message = f"uniform matroid needs int k and n, got k={k!r}, n={n!r}"
    with pytest.raises(MatroidError, match=f"^{re.escape(message)}$"):
        uniform(k, n)


@st.composite
def equal_size_families(draw):
    # a random family of k-subsets, or a Schubert matroid's bases with one
    # k-subset added or taken away, which is seldom a matroid but close to one
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    subsets = [mask_of(c, n) for c in combinations(range(1, n + 1), k)]
    if draw(st.booleans()):
        return n, draw(st.sets(st.sampled_from(subsets), min_size=1))
    index_set = draw(st.sets(st.integers(1, n), min_size=k, max_size=k))
    perm = draw(st.permutations(range(1, n + 1)))
    spec = SchubertSpec(n, tuple(index_set), tuple(perm))
    bases = schubert_matroid(spec, validate=False).bases
    return n, set(bases) ^ {draw(st.sampled_from(subsets))} or set(bases)


@settings(max_examples=300, deadline=None)
@given(equal_size_families())
@example((4, {0b0011, 0b1100}))
@example((6, set(_graphic_k4().bases)))
def test_rank_check_matches_exchange_scan(family):
    n, bases = family
    try:
        Matroid(n, bases)
    except MatroidError:
        accepted = False
    else:
        accepted = True
    assert accepted == brute_satisfies_exchange(bases)


def test_uniform_counts():
    assert len(uniform(2, 3).bases) == 3
    u03 = uniform(0, 3)
    assert u03.bases == (0,)
    assert u03.loops() == (1, 2, 3)
    u33 = uniform(3, 3)
    assert len(u33.bases) == 1
    assert u33.girth() == INFINITY
    with pytest.raises(MatroidError):
        uniform(4, 3)


def test_uniform_matches_explicit_bases():
    for n in range(1, 6):
        for k in range(0, n + 1):
            explicit = matroid_from_bases(n, combinations(range(1, n + 1), k))
            assert uniform(k, n) == explicit


def test_girth_of_uniform():
    for n in range(1, 7):
        for k in range(1, n):
            assert uniform(k, n).girth() == k + 1, (k, n)


def test_invariants_record():
    m = uniform(2, 4)
    assert m.rank == 2
    assert m.loops() == () and m.coloops() == ()
    assert m.girth() == 3 and m.cogirth() == 3
    assert brute_dual(m) == uniform(2, 4)


def test_duality_involution():
    mats = [uniform(k, n) for n in range(1, 6) for k in range(0, n + 1)]
    mats.append(matroid_from_bases(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]))
    for m in mats:
        dual = brute_dual(m)
        assert brute_dual(dual) == m
        assert dual.rank == m.n - m.rank
        assert m.cogirth() == dual.girth()
        assert m.loops() == dual.coloops()


def test_flats_of_uniform():
    lat = flats_lattice(uniform(2, 3))
    assert len(lat.flats) == 5  # empty set, three singletons, everything
    assert sorted(flats_lattice(uniform(3, 3)).flats) == list(range(8))
    lat35 = flats_lattice(uniform(3, 5))
    chains = lat35.maximal_chain_count()
    assert chains == sum(1 for _ in chain_label_permutations(3, 5)) == 20


def test_cover_label_lookups():
    lat45 = flats_lattice(uniform(4, 5))
    assert _label(lat45, 5, (1, 3), (1, 2, 3)) == 2
    lat35 = flats_lattice(uniform(3, 5))
    assert _label(lat35, 5, (4, 5), (1, 2, 3, 4, 5)) == 1
    for i in range(1, 6):
        assert _label(lat35, 5, (), (i,)) == i
    with pytest.raises(KeyError):
        _label(lat35, 5, (1,), (1, 2, 3, 4, 5))


def test_cover_labels_are_first_new_atoms():
    # uniform matroids: the atoms are the singletons, so a cover is labeled by
    # the smallest element it adds
    for n in range(1, 7):
        for k in range(n + 1):
            lat = flats_lattice(uniform(k, n))
            for f in lat.flats:
                for g, label in lat.covers[f]:
                    assert label == elements_of(g & ~f)[0], (k, n, f, g)
    # otherwise the bottom's covers are numbered 1, 2, ... in the order of
    # each atom's smallest new element, which need not be the order of masks
    loops = matroid_from_bases(4, [(1, 2), (1, 3), (2, 3)])  # element 4 a loop
    assert flats_lattice(loops).covers[0b1000] == ((0b1001, 1), (0b1010, 2), (0b1100, 3))
    parallel = matroid_from_bases(3, [(1, 2), (1, 3)])  # 2 and 3 parallel
    assert flats_lattice(parallel).covers[0] == ((0b001, 1), (0b110, 2))
    classes = matroid_from_bases(4, [(1, 2), (1, 3), (2, 4), (3, 4)])  # {1,4}, {2,3}
    assert flats_lattice(classes).covers[0] == ((0b0110, 2), (0b1001, 1))


def test_flats_lattice_with_loops_for_inspection():
    # element 4 is a loop: every flat contains it, grading is unaffected
    m = matroid_from_bases(4, [(1, 2), (1, 3), (2, 3)])
    lat = flats_lattice(m)
    assert lat.bottom == 0b1000
    assert lat.top == 0b1111
    assert lat.maximal_chain_count() == 3
    with pytest.raises(MatroidError):
        chain_chow(m)


def test_cover_labels_with_parallel_elements():
    # elements 2 and 3 are parallel: atoms are {1} and {2,3}
    m = matroid_from_bases(3, [(1, 2), (1, 3)])
    lat = flats_lattice(m)
    assert _label(lat, 3, (), (2, 3)) == 2
    assert sorted(_label_sequences(lat)) == [(1, 2), (2, 1)]


def test_unique_increasing_chain_in_intervals():
    # across every interval of the lattice, exactly one maximal chain carries
    # a strictly increasing label sequence
    mats = [uniform(k, n) for n in range(1, 7) for k in range(1, n + 1)]
    mats.append(matroid_from_bases(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]))
    mats.append(_graphic_k4())
    for m in mats:
        lat = flats_lattice(m)
        for low in lat.flats:
            for high in lat.flats:
                if low & high != low or lat.flat_rank[high] <= lat.flat_rank[low]:
                    continue
                increasing = 0
                stack = [(low, ())]
                while stack:
                    flat, labels = stack.pop()
                    if flat == high:
                        if all(a < b for a, b in zip(labels, labels[1:])):
                            increasing += 1
                        continue
                    for g, label in lat.covers[flat]:
                        if g & high == g:
                            stack.append((g, labels + (label,)))
                assert increasing == 1, (m, low, high)


def test_chain_chow_golden():
    assert chain_chow(uniform(3, 5)) == UniPoly((1, 11, 1))
    assert chain_chow(uniform(1, 4)) == UniPoly.one()
    assert chain_chow(uniform(4, 5), augmented=True) == UniPoly((1, 26, 66, 26, 1))


def test_chain_chow_rejects_loops_and_rank_zero():
    with pytest.raises(MatroidError):
        chain_chow(matroid_from_bases(3, [(1, 2)]))  # 3 is a loop
    with pytest.raises(MatroidError):
        chain_chow(uniform(0, 2))
    with pytest.raises(MatroidError, match="rank at least 1"):
        chain_chow(uniform(0, 0))


def test_chain_chow_matches_closed_forms():
    for n in range(1, 7):
        for k in range(1, n + 1):
            m = uniform(k, n)
            for augmented in (False, True):
                assert chain_chow(m, augmented) == closed_form(
                    k, n, "monomial", augmented
                ), (k, n, augmented)


def test_chain_chow_multivariate_matches_closed_forms():
    for n in range(1, 9):
        for k in range(1, n + 1):
            m = uniform(k, n)
            for augmented in (False, True):
                got = chain_chow_multivariate(m, augmented)
                want = multivariate_closed_form(k, n, "monomial", augmented)
                assert got == want, (k, n, augmented)
    assert chain_chow_multivariate(uniform(2, 2)).terms == {(): 1, (1,): 1}
    assert chain_chow_multivariate(uniform(1, 2), augmented=True).terms == {
        (): 1,
        (0,): 1,
    }


def test_chain_chow_graphic_k4():
    m = _graphic_k4()
    plain = chain_chow(m)
    augmented = chain_chow(m, augmented=True)
    assert plain == UniPoly((1, 8, 1))
    assert augmented == UniPoly((1, 14, 14, 1))
    assert chain_chow_multivariate(m).specialize() == plain
    assert chain_chow_multivariate(m, augmented=True).specialize() == augmented


@st.composite
def loopless_schubert_matroids(draw):
    # the loops of a Schubert matroid are the elements ordered before every
    # member of its index set, so holding perm[0] makes it loopless
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(1, n + 1)))
    index_set = draw(st.sets(st.integers(1, n))) | {perm[0]}
    return schubert_matroid(SchubertSpec(n, tuple(index_set), tuple(perm)))


@settings(max_examples=80, deadline=None)
@given(loopless_schubert_matroids(), st.booleans())
@example(_graphic_k4(), False)
@example(_graphic_k4(), True)
@example(matroid_from_bases(3, [(1, 2), (1, 3)]), False)
@example(matroid_from_bases(3, [(1, 2), (1, 3)]), True)
def test_transfer_count_matches_brute_chain_tally(m, augmented):
    want = brute_chain_descent_weights(flats_lattice(m), augmented)
    assert _chain_descent_weights(m, augmented) == by_mask(want)


def test_chain_descent_masks_and_the_plain_rule():
    # every key is a mask inside positions 1..rank-1 with no two adjacent
    # bits, and the plain weights are the augmented ones without bit 1
    mats = [uniform(k, n) for n in range(1, 9) for k in range(1, n + 1)]
    for m in mats + [_graphic_k4()]:
        counts = flats_lattice(m).admissible_chains
        for mask in counts:
            assert mask >= 0 and not mask & ~((1 << m.rank) - 2), (m, mask)
            assert not mask & mask >> 1, (m, mask)
        augmented = _chain_descent_weights(m, True)
        assert augmented == counts
        plain = {mask: c for mask, c in augmented.items() if not mask & 2}
        assert _chain_descent_weights(m, False) == plain, m


def test_lattice_and_chain_count_built_once_per_matroid(monkeypatch):
    builds, counts = [], []
    build = matroid_module._build_lattice
    monkeypatch.setattr(
        matroid_module, "_build_lattice", lambda m: builds.append(m) or build(m)
    )
    count = FlatLattice.admissible_chains.func
    counted = cached_property(lambda lattice: counts.append(lattice) or count(lattice))
    counted.__set_name__(FlatLattice, "admissible_chains")
    monkeypatch.setattr(FlatLattice, "admissible_chains", counted)
    m = uniform(4, 7)
    lattice = flats_lattice(m)
    for augmented in (False, True):
        assert chain_chow(m, augmented) == closed_form(4, 7, augmented=augmented)
        assert chain_chow_multivariate(m, augmented) == multivariate_closed_form(
            4, 7, augmented=augmented
        )
    assert len(builds) == 1 and flats_lattice(m) is lattice
    assert len(counts) == 1 and counts[0] is lattice


def test_matroids_of_equal_size_and_rank_keep_their_own_lattices():
    # two loopless rank-3 Schubert matroids on 1..5, evaluated one after the
    # other; each must match a tally over a lattice built for it alone
    first, second = (
        schubert_matroid(SchubertSpec(5, index_set, (1, 2, 3, 4, 5)))
        for index_set in ((1, 2, 4), (1, 3, 5))
    )
    assert first != second and first.rank == second.rank == 3
    assert chain_chow(first) != chain_chow(second)
    for m in (first, second):
        for augmented in (False, True):
            want = brute_chain_descent_weights(_build_lattice(m), augmented)
            assert _chain_descent_weights(m, augmented) == by_mask(want)


def test_equal_matroids_give_equal_results():
    m = uniform(3, 6)
    copy = matroid_from_bases(6, m.bases_sets())
    assert copy == m and copy is not m
    for augmented in (False, True):
        assert chain_chow(copy, augmented) == chain_chow(m, augmented)
        assert chain_chow_multivariate(copy, augmented) == chain_chow_multivariate(
            m, augmented
        )
    assert flats_lattice(copy) is not flats_lattice(m)


def test_matroid_pickles_after_the_oracle_ran():
    m = _graphic_k4()
    want = chain_chow(m, augmented=True)
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and chain_chow(copy, augmented=True) == want
    assert deepcopy(m) == m


def test_shared_lattice_cannot_be_corrupted():
    m = _graphic_k4()
    lattice = flats_lattice(m)
    with pytest.raises(TypeError):
        lattice.covers[lattice.bottom] = ()
    with pytest.raises(TypeError):
        lattice.flat_rank[lattice.top] = 0
    with pytest.raises(TypeError):
        lattice.admissible_chains[0] = 0
    for augmented in (False, True):
        want = chain_chow(m, augmented)
        weights = _chain_descent_weights(m, augmented)
        weights[0] += 100
        weights[0b110] = 7
        assert chain_chow(m, augmented) == want


def test_lattice_is_read_only_and_equals_only_itself():
    lattice = flats_lattice(_graphic_k4())
    for name in FlatLattice._fields + ("admissible_chains",):
        with pytest.raises(AttributeError):
            setattr(lattice, name, getattr(lattice, name))
    twin = flats_lattice(_graphic_k4())
    assert twin.flats == lattice.flats and twin.covers == lattice.covers
    assert twin != lattice and not twin == lattice and lattice == lattice
    assert len({lattice, twin}) == 2


def test_chain_labels_equal_admissible_subset_permutations():
    for n in range(1, 8):
        for k in range(1, n + 1):
            lat = flats_lattice(uniform(k, n))
            labels = sorted(_label_sequences(lat))
            perms = sorted(sp.one_line for sp in chain_label_permutations(k, n))
            assert labels == perms, (k, n)


def test_chain_label_permutation_edge_cases():
    assert [sp.one_line for sp in chain_label_permutations(1, 4)] == [(1,)]
    full = [sp.one_line for sp in chain_label_permutations(3, 3)]
    assert len(full) == 6  # every permutation qualifies when the support is everything
    for sp in chain_label_permutations(3, 6):
        v = sp.one_line[-1]
        assert set(range(1, v + 1)) <= set(sp.support)


def test_labeled_chains_carry_cover_labels():
    lat = flats_lattice(uniform(3, 4))
    chains = list(labeled_chains(lat))
    assert len(chains) == len(set(chains)) == lat.maximal_chain_count()
    for flats, labels in chains:
        assert flats[0] == lat.bottom and flats[-1] == lat.top
        assert len(labels) == len(flats) - 1 == lat.rank
        for low, high, label in zip(flats, flats[1:], labels):
            assert (high, label) in lat.covers[low]


def test_chain_chow_with_parallel_elements():
    # rank 2 with elements 2 and 3 parallel; the label sequences are (1,2)
    # and (2,1), the latter excluded from the non-augmented sum
    m = matroid_from_bases(3, [(1, 2), (1, 3)])
    assert chain_chow(m) == UniPoly((1, 1))
    assert chain_chow(m, augmented=True) == UniPoly((1, 3, 1))


def test_descents_of_labels_well_defined():
    m = matroid_from_bases(3, [(1, 2), (1, 3)])
    for labels in _label_sequences(flats_lattice(m)):
        assert len(set(labels)) == len(labels)
        brute_descents(labels)


def test_json_roundtrip():
    m = uniform(2, 4)
    data = matroid_to_json(m)
    assert data["bases"] == sorted(data["bases"])
    assert matroid_from_json(data) == m
    with pytest.raises(MatroidError):
        matroid_from_json({"n": 3, "rank": 2, "bases": [[1]]})


@st.composite
def small_matroids(draw):
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return uniform(draw(st.integers(0, n)), n)
    index_set = draw(st.sets(st.integers(1, n)))
    perm = draw(st.permutations(range(1, n + 1)))
    return schubert_matroid(SchubertSpec(n, tuple(index_set), tuple(perm)))


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_json_roundtrip_random(m):
    assert matroid_from_json(json.loads(json.dumps(matroid_to_json(m)))) == m


@settings(max_examples=80, deadline=None)
@given(small_matroids())
def test_rank_table_invariants_match_brute_scans(m):
    def brute(matroid):
        loops, cogirth = brute_loops_and_cogirth(matroid.bases, matroid.n)
        return loops, INFINITY if cogirth == -1 else cogirth

    dual = brute_dual(m)
    assert (len(m.loops()), m.cogirth()) == brute(m)
    assert (len(m.coloops()), m.girth()) == brute(dual)
    assert m.cogirth() == dual.girth() and m.girth() == dual.cogirth()


def test_package_exports():
    import chowpoly

    assert len(set(chowpoly.__all__)) == len(chowpoly.__all__)
    for name in chowpoly.__all__:
        assert getattr(chowpoly, name) is not None, name
    removed = {
        "LabeledChain",
        "MatroidInvariants",
        "chain_label_sequences",
        "descent_count",
        "descent_set",
        "labeled_chains",
        "matroid_invariants",
        "nc_subsets",
        "r_label",
    }
    assert not removed & set(chowpoly.__all__)
    assert not any(hasattr(chowpoly, name) for name in removed)
