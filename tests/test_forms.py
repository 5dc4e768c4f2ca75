import hashlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowpoly import forms
from chowpoly.polynomial import MAX_VARIABLES
from chowpoly import (
    METHODS,
    MULTIVARIATE_BASES,
    UniPoly,
    closed_form,
    coefficient_formula,
    delta_multinomial,
    derangement_poly,
    eulerian_poly,
    gamma_vector,
    multivariate_closed_form,
)

from tests.oracles import (
    brute_json_document,
    brute_monomial_form,
    brute_monomial_terms,
    brute_multipoly,
)

GOLDEN_35 = UniPoly((1, 11, 1))


@pytest.mark.parametrize("method", METHODS)
def test_golden_rank3_on_5(method):
    assert closed_form(3, 5, method) == GOLDEN_35


def test_rank1_is_constant():
    for n in range(1, 7):
        for method in METHODS:
            assert closed_form(1, n, method) == UniPoly((1,))


def test_augmented_corank1_is_descent_polynomial():
    # coefficients of the rank-4 augmented polynomial on 5 elements match the
    # brute-force descent count over all 120 permutations
    from tests.oracles import brute_eulerian_poly

    expected = brute_eulerian_poly(5)
    for method in METHODS:
        assert closed_form(4, 5, method, augmented=True) == expected


def test_domain_errors():
    with pytest.raises(ValueError):
        closed_form(5, 4)
    with pytest.raises(ValueError):
        closed_form(0, 4)  # k = 0 only augmented
    with pytest.raises(ValueError):
        closed_form(2, 4, "newton")
    assert closed_form(0, 4, augmented=True) == UniPoly((1,))


def test_method_agreement_small():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for augmented in (False, True):
                polys = {closed_form(k, n, m, augmented) for m in METHODS}
                assert len(polys) == 1, (k, n, augmented)


def test_multivariate_monomial_examples():
    p = multivariate_closed_form(2, 2, "monomial")
    assert p.terms == {(): 1, (1,): 1}
    q = multivariate_closed_form(1, 1, "gamma", augmented=True)
    assert q.terms == {(): 1, (0,): 1}
    assert q.var_range == (0, 0)


def test_multivariate_specializes_to_univariate():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for augmented in (False, True):
                uni = closed_form(k, n, "monomial", augmented)
                for basis in ("monomial", "gamma"):
                    mv = multivariate_closed_form(k, n, basis, augmented)
                    assert mv.specialize() == uni, (k, n, basis, augmented)


def test_multivariate_bases_agree_exactly():
    for n in range(1, 11):
        for k in range(1, n + 1):
            for augmented in (False, True):
                a = multivariate_closed_form(k, n, "monomial", augmented)
                b = multivariate_closed_form(k, n, "gamma", augmented)
                assert a == b, (k, n, augmented)


# sha256 of json.dumps of the JSON document of both bases at (16, 30), by the
# augmented flag, computed before the bases were built as dense vectors
WIDE_POINT_DIGESTS = {
    False: "85e82d2a02d2b84cc2a70db435207c195a974a980ed71d3d776f014888b79004",
    True: "066f35ba8379ef22144079f6f0263381156c323fff6d783a80df62302c2d170b",
}


@pytest.mark.parametrize("augmented", [False, True])
def test_multivariate_bases_at_wide_point(augmented):
    a = multivariate_closed_form(16, 30, "monomial", augmented)
    b = multivariate_closed_form(16, 30, "gamma", augmented)
    assert a == b
    assert len(a.terms) == 2 ** (16 if augmented else 15)
    uni = closed_form(16, 30, "monomial", augmented)
    assert a.specialize() == uni
    assert closed_form(16, 30, "gamma_eulerian", augmented) == closed_form(
        16, 30, "gamma_perm", augmented
    )
    for p in (a, b):
        digest = hashlib.sha256(json.dumps(brute_json_document(p)).encode()).hexdigest()
        assert digest == WIDE_POINT_DIGESTS[augmented]


def test_monomial_form_matches_brute_force_oracle():
    for n in range(1, 11):
        for k in range(1, n + 1):
            for augmented in (False, True):
                assert closed_form(k, n, "monomial", augmented) == brute_monomial_form(
                    k, n, augmented
                ), (k, n, augmented)


def test_multivariate_monomial_matches_brute_force_terms():
    for n in range(1, 11):
        for k in range(1, min(n, 8) + 1):
            for augmented in (False, True):
                expected = brute_monomial_terms(k, n, augmented)
                got = multivariate_closed_form(k, n, "monomial", augmented)
                assert got.terms == expected, (k, n, augmented)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multivariate_monomial_terms_are_gap_multinomials(data):
    # the basis telescopes the gap multinomial over the run minima; the
    # helper computes each term on its own from the index set of the key
    augmented = data.draw(st.booleans(), label="augmented")
    n = data.draw(st.integers(1, 40), label="n")
    k = data.draw(st.integers(0 if augmented else 1, min(n, 12)), label="k")
    p = multivariate_closed_form(k, n, "monomial", augmented)
    assert len(p.terms) == 2 ** (k if augmented else k - 1)
    for key, coeff in p.terms.items():
        index_set = [v + 1 for v in key] if augmented else [1, *(v + 1 for v in key)]
        assert coeff == delta_multinomial(n, index_set), key


def test_monomial_form_reaches_large_rank():
    for k, n in ((40, 40), (80, 80), (33, 70)):
        for augmented in (False, True):
            p = closed_form(k, n, "monomial", augmented)
            for method in ("gamma_perm", "convolution"):
                assert p == closed_form(k, n, method, augmented), (k, n, augmented, method)


def test_multivariate_variable_windows():
    p = multivariate_closed_form(4, 6, "monomial")
    assert p.var_range == (1, 3)
    q = multivariate_closed_form(4, 6, "monomial", augmented=True)
    assert q.var_range == (0, 3)
    # k = 0 is the constant 1, as in closed_form, and augmented only
    for basis in MULTIVARIATE_BASES:
        assert multivariate_closed_form(0, 6, basis, augmented=True) == brute_multipoly(
            (0, -1), {(): 1}
        )
        with pytest.raises(ValueError, match="only defined for the augmented"):
            multivariate_closed_form(0, 6, basis)


def test_boundary_identities():
    for n in range(2, 10):
        chow_top = closed_form(n, n, "monomial")
        assert chow_top == eulerian_poly(n), n
        chow_sub = closed_form(n - 1, n, "monomial")
        assert UniPoly((0, *chow_sub)) == derangement_poly(n), n
        aug_sub = closed_form(n - 1, n, "monomial", augmented=True)
        assert aug_sub == eulerian_poly(n), n


def test_degree_palindromicity_constant_term():
    for n in range(1, 10):
        for k in range(1, n + 1):
            chow = closed_form(k, n, "monomial")
            aug = closed_form(k, n, "monomial", augmented=True)
            assert chow.degree == k - 1
            assert aug.degree == k
            assert chow[0] == 1 and aug[0] == 1
            assert all(g >= 0 for g in gamma_vector(chow, k - 1))
            assert all(g >= 0 for g in gamma_vector(aug, k))


def test_coefficient_formula_golden():
    assert coefficient_formula(3, 5, 1) == 11
    assert coefficient_formula(2, 9, 1) == 1
    for n in range(1, 8):
        assert coefficient_formula(1, n, 1, augmented=True) == 1
    # second coefficient for rank 5 on 6 elements, frozen from coefficient
    # extraction out of the monomial expansion
    assert coefficient_formula(5, 6, 2) == 161
    assert closed_form(5, 6, "monomial")[2] == 161


def test_coefficient_formula_at_large_ground_size():
    for augmented in (False, True):
        p = closed_form(3, 5000, augmented=augmented)
        for m in (1, 2):
            assert coefficient_formula(3, 5000, m, augmented) == p[m], (m, augmented)


@pytest.mark.parametrize("k, n", [(256, 256), (256, 1256)])
def test_second_coefficient_at_the_rank_bound(k, n):
    # convolution is the fastest full expansion at this rank
    for augmented in (False, True):
        p = closed_form(k, n, "convolution", augmented)
        assert coefficient_formula(k, n, 2, augmented) == p[2], augmented


def test_every_witness_agrees_at_rank_12_of_100000():
    # the multinomials run in binomials, so no witness pays for 100000!
    start = time.perf_counter()
    for augmented in (False, True):
        p = closed_form(12, 100_000, "monomial", augmented)
        for method in METHODS:
            assert closed_form(12, 100_000, method, augmented) == p, (method, augmented)
        for basis in MULTIVARIATE_BASES:
            mv = multivariate_closed_form(12, 100_000, basis, augmented)
            assert mv.specialize() == p, (basis, augmented)
        for m in (1, 2):
            assert coefficient_formula(12, 100_000, m, augmented) == p[m], (m, augmented)
    assert time.perf_counter() - start < 1.0


def test_coefficient_formula_matches_extraction():
    for n in range(1, 13):
        for k in range(1, n + 1):
            for augmented in (False, True):
                p = closed_form(k, n, "monomial", augmented)
                for m in (1, 2):
                    assert coefficient_formula(k, n, m, augmented) == p[m], (
                        k,
                        n,
                        m,
                        augmented,
                    )


def test_coefficient_formula_rejects_other_indices():
    for m in (3, 0, True, False, 1.0, 2.0, "1"):
        for augmented in (False, True):
            with pytest.raises(ValueError, match="unsupported coefficient index"):
                coefficient_formula(3, 5, m, augmented)


def test_coefficients_beyond_64_bit_stay_exact():
    p = closed_form(16, 30, "monomial")
    q = closed_form(16, 30, "gamma_eulerian")
    r = closed_form(16, 30, "convolution")
    s = closed_form(16, 30, "gamma_perm")
    assert p == q == r == s
    assert max(p.coeffs) > 2**63
    gamma_vector(p, 15)  # raises unless palindromic


@pytest.mark.parametrize(
    "multivariate, name",
    [(False, m) for m in METHODS] + [(True, b) for b in MULTIVARIATE_BASES],
)
def test_each_row_is_bounded_by_its_growth(multivariate, name):
    # one above the exponential cap: the exponential rows refuse and name
    # exactly the polynomial rows, each of which computes there
    k = forms.EXPONENTIAL_RANK_MAX + 1
    polynomial = [m for m, row in forms._FORMS.items() if not row.exponential]
    assert polynomial == ["monomial", "gamma_perm", "convolution"]
    table = forms._BASES if multivariate else forms._FORMS
    compute = multivariate_closed_form if multivariate else closed_form
    if not table[name].exponential:
        gamma_vector(compute(k, k, name), k - 1)  # raises unless palindromic
        return
    with pytest.raises(ValueError) as info:
        compute(k, k, name)
    form = f"multivariate {name}" if multivariate else name
    assert str(info.value) == (
        f"the {form} form is exponential in k and capped at k <= {k - 1}, "
        f"got k={k}; use monomial, gamma_perm or convolution"
    )


@pytest.mark.parametrize("k, n", [(3.0, 5), (3, 5.0), (True, 5), (3, "5")])
def test_forms_refuse_a_rank_or_size_that_is_not_an_int(k, n):
    message = rf"^rank k and ground size n must be ints, got k={k!r}, n={n!r}$"
    for call in (
        lambda: closed_form(k, n),
        lambda: multivariate_closed_form(k, n),
        lambda: coefficient_formula(k, n, 1),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_exponential_rows_run_up_to_the_variable_bound():
    # the exponential cap is the variable bound itself, so every exponential
    # row that the cap admits fills its variables or descent positions
    # without a later refusal
    k = forms.EXPONENTIAL_RANK_MAX
    assert k == MAX_VARIABLES
    for augmented in (False, True):
        reference = closed_form(k, k, "monomial", augmented=augmented)
        for name, row in forms._FORMS.items():
            if row.exponential:
                assert closed_form(k, k, name, augmented=augmented) == reference, name
        for name, row in forms._BASES.items():
            if row.exponential:
                poly = multivariate_closed_form(k, k, name, augmented=augmented)
                assert poly.specialize() == reference, name


def test_exponential_forms_guard_rank(monkeypatch):
    monkeypatch.setattr(forms, "EXPONENTIAL_RANK_MAX", 3)
    for method in METHODS:
        assert closed_form(3, 5, method) == GOLDEN_35
    with pytest.raises(ValueError, match="monomial, gamma_perm or convolution"):
        closed_form(4, 5, "gamma_eulerian", augmented=True)
    for method in ("monomial", "gamma_perm", "convolution"):
        assert closed_form(4, 5, method, augmented=True).coeffs == (1, 26, 66, 26, 1)
    for basis in ("monomial", "gamma"):
        assert multivariate_closed_form(3, 5, basis).specialize() == GOLDEN_35
        with pytest.raises(ValueError, match="gamma_perm or convolution"):
            multivariate_closed_form(4, 5, basis)


def test_rank_bound_is_checked_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the rank was checked")

    for table in (forms._FORMS, forms._BASES):
        for name, row in table.items():
            monkeypatch.setitem(table, name, row._replace(function=no_work))
    monkeypatch.setattr(forms, "comb", no_work)
    for augmented in (False, True):
        for method in METHODS:
            with pytest.raises(ValueError, match="capped at"):
                closed_form(257, 257, method, augmented)
        for basis in MULTIVARIATE_BASES:
            with pytest.raises(ValueError, match="capped at"):
                multivariate_closed_form(19, 19, basis, augmented)
        for m in (1, 2):
            with pytest.raises(ValueError, match=r"k <= 256, got k=257"):
                coefficient_formula(257, 257, m, augmented)
