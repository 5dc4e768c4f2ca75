import os
import subprocess
import sys
from itertools import combinations, permutations
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chowpoly
from chowpoly import (
    NotPalindromicError,
    UniPoly,
    delta_multinomial,
    derangement_poly,
    eulerian_poly,
    exact_descent_counts,
    gamma_reconstruct,
    gamma_vector,
    sm_count,
)
from chowpoly.combinat import multinomial, perm_descent_aggregates
from chowpoly.polynomial import MAX_VARIABLES
from tests.oracles import (
    SubsetPermutation,
    brute_delta_multinomial,
    brute_descents,
    brute_derangement_poly,
    brute_descent_census,
    brute_eulerian_poly,
    brute_nc_subsets,
    brute_perm_descent_aggregates,
    eulerian_fixed_descents,
    positions_mask,
)


def test_delta_multinomial_values():
    assert delta_multinomial(8, (2, 3, 5, 7, 8)) == 1680
    assert delta_multinomial(12, ()) == 1
    assert delta_multinomial(5, (1,)) == 1
    with pytest.raises(ValueError):
        delta_multinomial(4, (5,))


def test_delta_multinomial_matches_direct_factorials():
    for n in range(1, 9):
        for size in range(0, n + 1):
            for idx in combinations(range(1, n + 1), size):
                assert delta_multinomial(n, idx) == brute_delta_multinomial(n, idx)


def test_delta_multinomial_reads_only_the_run_minima():
    # {2,3,5,7,8} has the runs (2,3), (5,), (7,8) and the same gap
    # multinomial as their minima {2,5,7}
    assert delta_multinomial(8, (2, 3, 5, 7, 8)) == delta_multinomial(8, (2, 5, 7))
    for n in range(1, 9):
        for size in range(1, n + 1):
            for idx in combinations(range(1, n + 1), size):
                minima = tuple(e for e in idx if e - 1 not in idx)
                assert delta_multinomial(n, idx) == delta_multinomial(n, minima), idx


def test_position_families_refuse_a_width_above_max_variables(monkeypatch):
    def no_count(*args):
        raise AssertionError("a count ran before the width was checked")

    monkeypatch.setattr("chowpoly.combinat.comb", no_count)
    monkeypatch.setattr("chowpoly.combinat.run_minima_sets", no_count)
    for m in (MAX_VARIABLES + 1, 60):
        # the message names the descent positions the caller gave, not the
        # variables of a multivariate range
        message = rf"^descent positions 1\.\.{m} are {m} positions, more than MAX_VARIABLES = 18$"
        for exclude_one in (False, True):
            with pytest.raises(ValueError, match=message):
                exact_descent_counts(10**6, m, exclude_one)
    with pytest.raises(ValueError, match=r"^descent positions 1\.\.19 are 19 positions"):
        exact_descent_counts(30, 19)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: delta_multinomial(5, (0, 2)), ValueError, "positive integers only, got 0"),
        (lambda: eulerian_poly(-1), ValueError, "negative n=-1"),
        (lambda: derangement_poly(-1), ValueError, "negative n=-1"),
        (lambda: gamma_reconstruct((0, 0, 1), 2), ValueError, r"nonzero g_2 past d // 2 = 1"),
        (lambda: UniPoly((0, 1))[-1], IndexError, "negative exponent -1"),
        (lambda: gamma_vector(UniPoly((1,)), -1), ValueError, "negative center parameter d=-1"),
        (lambda: gamma_vector(UniPoly((0, 1)), 0), NotPalindromicError, "degree exceeds 0"),
    ],
    ids=[
        "index-set", "eulerian", "derangement", "binomial-row",
        "coefficient", "gamma-center", "gamma-degree",
    ],
)
def test_negative_and_oversized_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: sm_count(8, 3, 0, True),
        lambda: sm_count(8.0, 3, 0, 8),
        lambda: delta_multinomial(True, (1,)),
        lambda: eulerian_poly(True),
        lambda: derangement_poly(3.0),
    ],
    ids=["sm-count-bool", "sm-count-float", "delta-bool", "eulerian-bool", "derangement-float"],
)
def test_non_int_arguments_are_refused(call):
    with pytest.raises(ValueError, match="must be (an int|ints), got"):
        call()


def test_eulerian_fixed_descents_examples():
    assert eulerian_fixed_descents(5, (2,)) == 9
    assert eulerian_fixed_descents(5, ()) == 1
    assert eulerian_fixed_descents(4, (1, 2, 3)) == 1
    with pytest.raises(ValueError):
        eulerian_fixed_descents(3, (3,))


def test_eulerian_fixed_descents_against_scan():
    for n in range(1, 9):
        census = brute_descent_census(n)
        total = 0
        for size in range(0, n):
            for dset in combinations(range(1, n), size):
                count = eulerian_fixed_descents(n, dset)
                assert count == census.get(dset, 0), (n, dset)
                total += count
        assert total == factorial(n)


def test_exact_descent_counts_against_scan():
    for n in range(1, 9):
        census = brute_descent_census(n)
        for m in range(n):
            for exclude_one in (False, True):
                counts = exact_descent_counts(n, m, exclude_one)
                sets = brute_nc_subsets(m, exclude_one)
                want = {positions_mask(d): census.get(d, 0) for d in sets}
                # the same counts, keyed in ascending mask order
                assert list(counts.items()) == sorted(want.items()), (n, m, exclude_one)


def test_exact_descent_counts_match_per_set_check_at_wide_point():
    for exclude_one in (False, True):
        counts = exact_descent_counts(30, 15, exclude_one)
        for dset in brute_nc_subsets(15, exclude_one):
            count = counts.pop(positions_mask(dset))
            assert count == eulerian_fixed_descents(30, dset), (exclude_one, dset)
        assert not counts


def test_exact_descent_counts_rejects_positions_past_n():
    assert exact_descent_counts(1, 0) == {0: 1}
    with pytest.raises(ValueError, match="descent position 3 out of range for n=3"):
        exact_descent_counts(3, 3)


def test_exact_descent_counts_keys_are_no_consecutive_masks():
    # every key is a mask inside positions 1..m with no two adjacent bits, and
    # excluding position 1 keeps exactly the masks without bit 1
    for n in range(1, 11):
        for m in range(n):
            full = exact_descent_counts(n, m)
            for mask in full:
                assert mask >= 0 and not mask & ~((1 << m + 1) - 2), (n, m, mask)
                assert not mask & mask >> 1, (n, m, mask)
            plain = {mask: c for mask, c in full.items() if not mask & 2}
            assert exact_descent_counts(n, m, True) == plain, (n, m)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=8))
@example([])
@example([0])
@example([7])
@example([0, 0, 0])
@example([3, 0, 2, 0])
def test_multinomial_matches_factorial_quotients(parts):
    expected = factorial(sum(parts)) // prod(factorial(p) for p in parts)
    assert multinomial(parts) == expected
    assert multinomial(iter(parts)) == expected


def test_multinomial_rejects_negative_parts():
    for parts in ([-1], [3, -1], [-2, 5]):
        with pytest.raises(ValueError):
            multinomial(parts)


def test_perm_descent_aggregates_smallest_ranks():
    assert perm_descent_aggregates(1, [0, 7], False) == [7, 0]
    assert perm_descent_aggregates(2, [0, 3, 5], True) == [5, 0, 0]
    assert perm_descent_aggregates(2, [0, 3, 5], False) == [5, 3, 0]
    with pytest.raises(ValueError):
        perm_descent_aggregates(0, [0], False)


@pytest.mark.parametrize("first_ascent_required", [False, True])
def test_perm_dp_matches_brute_force_oracle(first_ascent_required):
    # the insertion DP against the definition, with the binomial weights of
    # gamma_perm (n = k + 3) and with weights above 2^63
    for k in range(1, 9):
        weight_sets = [
            [0] + [comb(k + 3 - t, k - t) for t in range(1, k + 1)],
            [0] + [2**64 + 7**t for t in range(1, k + 1)],
        ]
        for binoms in weight_sets:
            expected = brute_perm_descent_aggregates(k, binoms, first_ascent_required)
            assert (
                perm_descent_aggregates(k, binoms, first_ascent_required)
                == expected
            )


@st.composite
def perm_weight_cases(draw):
    k = draw(st.integers(1, 7))
    small_or_wide = st.one_of(st.integers(0, 1000), st.integers(2**64, 2**80))
    weights = draw(st.lists(small_or_wide, min_size=k + 1, max_size=k + 1))
    return k, weights, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(perm_weight_cases())
def test_perm_dp_matches_brute_force_oracle_random(case):
    k, weights, first_ascent_required = case
    assert perm_descent_aggregates(
        k, weights, first_ascent_required
    ) == brute_perm_descent_aggregates(k, weights, first_ascent_required)


def test_perm_descent_aggregates_stay_exact_past_int64():
    # sums of weights near 2^61 pass 2^63 and stay exact in Python ints;
    # of the 5 admissible permutations of {1,2,3}, one has no descent
    big = 2**61
    agg = perm_descent_aggregates(3, [0, big, big, big], False)
    assert agg == [big, 4 * big, 0, 0]
    assert agg[1] > 2**63 - 1  # past the int64 maximum


def test_eulerian_poly_values():
    assert eulerian_poly(0).coeffs == (1,)
    assert eulerian_poly(1).coeffs == (1,)
    assert eulerian_poly(2).coeffs == (1, 1)
    assert eulerian_poly(5).coeffs == (1, 26, 66, 26, 1)


def test_eulerian_poly_against_scan():
    for n in range(0, 9):
        assert eulerian_poly(n) == brute_eulerian_poly(n), n


def test_eulerian_poly_builds_a_high_row_without_recursion():
    # a fresh interpreter has no earlier rows and the default recursion
    # limit, which a recursion two frames per row deep passes before n = 500
    src = str(Path(chowpoly.__file__).resolve().parents[1])
    code = (
        "from math import factorial\n"
        "from chowpoly import eulerian_poly\n"
        "c = eulerian_poly(1000).coeffs\n"
        "assert sum(c) == factorial(1000) and c == c[::-1] and len(c) == 1000\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, timeout=120, check=True)


def test_derangement_poly_values():
    assert derangement_poly(0).coeffs == (1,)
    assert not derangement_poly(1)
    assert derangement_poly(3).coeffs == (0, 1, 1)
    assert derangement_poly(4).coeffs == (0, 1, 7, 1)


def test_derangement_poly_against_scan():
    for n in range(0, 9):
        assert derangement_poly(n) == brute_derangement_poly(n), n


def test_derangement_identity_with_eulerian():
    # summing over fixed-point sets: A_n = sum C(n, j) d_j, an identity that
    # neither recurrence uses
    for n in range(0, 41):
        acc = [0] * (n + 1)
        for j in range(n + 1):
            for i, c in enumerate(derangement_poly(j)):
                acc[i] += comb(n, j) * c
        assert UniPoly(acc) == eulerian_poly(n), n


def test_subset_permutation_extend_standardize():
    sp = SubsetPermutation((1, 3, 4, 6), (3, 6, 4, 1))
    assert sp.extend(8) == (3, 6, 4, 1, 2, 5, 7, 8)
    assert sp.standardize() == (2, 4, 3, 1)
    full = SubsetPermutation((1, 2, 3), (2, 3, 1))
    assert full.extend(3) == (2, 3, 1)
    assert SubsetPermutation((), ()).extend(3) == (1, 2, 3)
    assert SubsetPermutation((5, 8), (8, 5)).standardize() == (2, 1)
    ident = SubsetPermutation((2, 5, 6), (2, 5, 6))
    assert ident.standardize() == (1, 2, 3)


def test_subset_permutation_validates():
    with pytest.raises(ValueError):
        SubsetPermutation((1, 2), (1, 3))
    with pytest.raises(ValueError):
        SubsetPermutation((1, 3), (1, 1))


def test_extension_and_standardization_preserve_descents():
    n = 5
    elements = range(1, n + 1)
    for size in range(0, n + 1):
        for support in combinations(elements, size):
            for one_line in permutations(support):
                sp = SubsetPermutation(support, one_line)
                inner = brute_descents(one_line)
                assert brute_descents(sp.standardize()) == inner
                extended = brute_descents(sp.extend(n))
                assert tuple(d for d in extended if d < max(size, 1)) == inner
