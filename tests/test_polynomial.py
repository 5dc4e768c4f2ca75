import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowpoly import (
    NonSquarefreeProductError,
    NotPalindromicError,
    SqfMultiPoly,
    UniPoly,
    gamma_reconstruct,
    gamma_reconstruct_multivariate,
    gamma_vector,
)
from chowpoly.forms import EXPONENTIAL_RANK_MAX, MULTIVARIATE_BASES, multivariate_closed_form
from chowpoly.matroid import MAX_GROUND
from chowpoly.polynomial import MAX_VARIABLES, expand_run_minima, run_minima_sets
from tests.oracles import (
    brute_eulerian_poly,
    brute_gamma_reconstruct_multivariate,
    brute_nc_subsets,
    brute_sorted_terms,
    brute_subsets,
    by_mask,
    positions_mask,
    run_minima,
)


def test_trailing_zeros_trimmed():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly((0, 0)).coeffs == ()
    assert not UniPoly.zero()
    assert UniPoly.zero().degree == -1


def test_binomial_square():
    one_plus_x = UniPoly((1, 1))
    assert (one_plus_x * one_plus_x).coeffs == (1, 2, 1)


def test_add_scale_sub():
    p = UniPoly((1, 2, 3))
    q = UniPoly((0, 1))
    assert (p + q).coeffs == (1, 3, 3)
    assert (3 * q).coeffs == (0, 3)
    assert (p - p) == UniPoly.zero()
    assert (p + 5).coeffs == (6, 2, 3)


def test_pow_and_helpers():
    cube = UniPoly((1, 1)) * UniPoly((1, 1)) * UniPoly((1, 1))
    assert cube.coeffs == (1, 3, 3, 1)
    assert UniPoly.one_plus_x_power(3) == cube
    assert UniPoly.geometric(2).coeffs == (1, 1, 1)
    assert UniPoly.geometric(-1) == UniPoly.zero()
    assert UniPoly.monomial(5, 2).coeffs == (0, 0, 5)


def test_getitem_past_degree():
    p = UniPoly((1, 2))
    assert p[5] == 0
    assert p[1] == 2


def test_multivariate_variable_outside_range_rejected():
    with pytest.raises(ValueError):
        SqfMultiPoly((1, 2), {(3,): 1})


def test_multivariate_constructor_errors():
    with pytest.raises(NonSquarefreeProductError, match=r"repeated variable"):
        SqfMultiPoly((1, 3), {(2, 1, 2): 1})
    # the message names the first variable of the sorted key out of range
    with pytest.raises(ValueError, match=r"x0 outside declared range x1\.\.x3"):
        SqfMultiPoly((1, 3), {(5, 2, 0): 1})
    with pytest.raises(ValueError, match=r"x4 outside declared range x1\.\.x3"):
        SqfMultiPoly((1, 3), {(2, 4, 5): 1})
    with pytest.raises(ValueError, match=r"x1 outside declared range x1\.\.x0"):
        SqfMultiPoly((1, 0), {(1,): 1})
    assert SqfMultiPoly((1, 3), {(3, 1): 2, (1, 3): -2, (2,): 0}).terms == {}


@st.composite
def dense_coefficients(draw):
    # negative lo, empty ranges (hi below lo) and coefficients past 2^64
    lo = draw(st.integers(-3, 3))
    width = draw(st.integers(0, 7))
    hi = lo + width - 1 - (draw(st.integers(0, 2)) if width == 0 else 0)
    coeff = st.one_of(
        st.just(0), st.integers(-(10**6), 10**6), st.integers(2**64, 2**80)
    )
    coeffs = draw(st.lists(coeff, min_size=1 << width, max_size=1 << width))
    return (lo, hi), coeffs


@settings(max_examples=50, deadline=None)
@given(dense_coefficients())
def test_from_dense_matches_constructor(case):
    var_range, coeffs = case
    keys = brute_subsets(*var_range)
    expected = SqfMultiPoly(var_range, dict(zip(keys, coeffs)))
    got = SqfMultiPoly.from_dense(var_range, coeffs)
    assert got == expected and hash(got) == hash(expected)
    assert got.var_range == var_range
    # entry q is the coefficient of the key that holds lo + i for each bit i
    assert expected.coeffs == tuple(coeffs)
    assert bool(got) == any(coeffs)


@settings(max_examples=50, deadline=None)
@given(dense_coefficients())
def test_dense_terms_order_and_round_trips(case):
    var_range, coeffs = case
    terms = dict(zip(brute_subsets(*var_range), coeffs))
    poly = SqfMultiPoly(var_range, terms)
    assert poly.sorted_terms() == brute_sorted_terms(terms)
    assert poly.terms == {k: c for k, c in terms.items() if c}
    assert all(poly.terms.values())
    dense = SqfMultiPoly.from_dense(var_range, poly.coeffs)
    back = SqfMultiPoly.from_json(json.loads(json.dumps(dense.to_json())))
    assert back == dense == poly and hash(back) == hash(poly)
    assert back.to_json() == poly.to_json()


def test_variable_range_is_bounded():
    wide = (0, MAX_VARIABLES)  # MAX_VARIABLES + 1 variables
    with pytest.raises(ValueError, match="19 variables, more than MAX_VARIABLES = 18"):
        SqfMultiPoly(wide)
    with pytest.raises(ValueError, match="more than MAX_VARIABLES"):
        SqfMultiPoly.from_dense(wide, [])

    def unread():
        raise AssertionError("coefficients read before the range was checked")
        yield

    with pytest.raises(ValueError, match="more than MAX_VARIABLES"):
        SqfMultiPoly.from_dense(wide, unread())
    with pytest.raises(ValueError, match="more than MAX_VARIABLES"):
        gamma_reconstruct_multivariate({}, (0, 10**6))
    # and so is a run-minima width, before its sets or values are read
    for width in (MAX_VARIABLES + 1, 10**6):
        with pytest.raises(ValueError, match="more than MAX_VARIABLES"):
            run_minima_sets(width, 1)
        with pytest.raises(ValueError, match="more than MAX_VARIABLES"):
            expand_run_minima({}, width, 1)
    # a declared range is refused before its coefficients are allocated
    with pytest.raises(ValueError, match="more than MAX_VARIABLES"):
        SqfMultiPoly.from_json({"vars": [0, 10**6], "terms": []})
    assert len(SqfMultiPoly((-1, MAX_VARIABLES - 2)).coeffs) == 2**MAX_VARIABLES
    # every basis at the rank bound fits, and so does every chain oracle
    k = EXPONENTIAL_RANK_MAX
    for basis in MULTIVARIATE_BASES:
        p = multivariate_closed_form(k, k, basis, augmented=True)
        assert len(p.coeffs) == 2**k and p.var_range == (0, k - 1)
    assert MAX_GROUND <= MAX_VARIABLES


@pytest.mark.parametrize(
    "data", [[1.5], [True], ["1.0"], [" 1"], ["1_000"], ["+1"], ["٣"], [None], "12", {"0": 1}]
)
def test_unipoly_from_json_rejects_malformed(data):
    with pytest.raises(ValueError, match="^polynomial JSON is malformed"):
        UniPoly.from_json(data)


_TERM = {"vars": [1], "coeff": "2"}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"terms": [_TERM]}, "lacks the field 'vars'"),
        ({"vars": [1, 2]}, "lacks the field 'terms'"),
        ({"vars": [1, 2], "terms": [{"vars": [1]}]}, "lacks the field 'coeff'"),
        ({"vars": [1, 2], "terms": [{"coeff": "2"}]}, "lacks the field 'vars'"),
        ([], "is malformed"),
        (None, "is malformed"),
        ("vars", "is malformed"),
        ({"vars": [1, 2], "terms": [[1]]}, "is malformed"),
        ({"vars": [1, 2, 3], "terms": []}, "is malformed"),
        ({"vars": 2, "terms": []}, "is malformed"),
        ({"vars": [1, 2], "terms": [{"vars": [1], "coeff": 1.5}]}, "got 1.5"),
        ({"vars": [1, 2], "terms": [{"vars": [1], "coeff": True}]}, "got True"),
        ({"vars": [1, 2], "terms": [{"vars": [1.0], "coeff": "2"}]}, "got 1.0"),
        ({"vars": [1, 2], "terms": [{"vars": [3], "coeff": "2"}]}, "outside declared"),
    ],
)
def test_multipoly_from_json_rejects_malformed(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SqfMultiPoly.from_json(data)


def test_from_json_reads_decimal_strings_and_ints():
    assert UniPoly.from_json(["-3", 4, "0"]) == UniPoly((-3, 4))
    data = {"vars": ["1", 2], "terms": [{"vars": [2, 1], "coeff": -5}, _TERM]}
    assert SqfMultiPoly.from_json(data) == SqfMultiPoly((1, 2), {(1, 2): -5, (1,): 2})


def _run_minima_definition(width: int, first: int) -> list[int]:
    return [q & ~(q << 1) & ~(1 - first) for q in range(1 << width)]


@pytest.mark.parametrize("first", [0, 1])
def test_run_minima_matches_definition(first):
    for width in range(EXPONENTIAL_RANK_MAX + 1):
        assert run_minima(width, first) == _run_minima_definition(width, first), width


@pytest.mark.parametrize("first", [0, 1])
def test_run_minima_sets_match_definition(first):
    for width in range(EXPONENTIAL_RANK_MAX + 1):
        expected = sorted(set(_run_minima_definition(width, first)))
        assert run_minima_sets(width, first) == expected, width


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads: list[int] = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("first", [0, 1])
def test_expand_run_minima_matches_definition(first):
    for width in range(EXPONENTIAL_RANK_MAX + 1):
        sets = sorted(set(_run_minima_definition(width, first)))
        # distinct values, none equal to its key
        values = _CountingDict({a: -1 - 3 * a for a in sets})
        expanded = expand_run_minima(values, width, first)
        assert sorted(values.reads) == sets, width  # one read per set
        assert expanded == [values[m] for m in run_minima(width, first)], width


@pytest.mark.parametrize(
    "var_range, length", [((1, 3), 7), ((1, 3), 9), ((0, -1), 0), ((0, 0), 1)]
)
def test_from_dense_rejects_wrong_length(var_range, length):
    with pytest.raises(ValueError, match="coefficients for the"):
        SqfMultiPoly.from_dense(var_range, [1] * length)


def test_specialize_degree_is_set_size():
    p = SqfMultiPoly((1, 2), {(): 1, (1,): 2, (1, 2): 1})
    assert p.specialize().coeffs == (1, 2, 1)
    assert SqfMultiPoly((1, 2)).specialize() == UniPoly.zero()


def test_gamma_vector_golden():
    assert gamma_vector(UniPoly((1, 11, 1)), 2) == (1, 9)
    assert gamma_vector(UniPoly((1, 3, 3, 1)), 3) == (1, 0)


def test_gamma_vector_from_descent_scan():
    # degree-4 palindromic polynomial from a direct scan of all 120
    # permutations of 5 letters
    a5 = brute_eulerian_poly(5)
    assert a5.coeffs == (1, 26, 66, 26, 1)
    assert gamma_vector(a5, 4) == (1, 22, 16)
    assert gamma_reconstruct((1, 22, 16), 4) == a5


def test_gamma_vector_rejects_non_palindromic():
    with pytest.raises(NotPalindromicError):
        gamma_vector(UniPoly((1, 2)), 1)
    with pytest.raises(NotPalindromicError):
        gamma_vector(UniPoly((1, 1)), 3)  # 1 + x is not centered at 3/2
    with pytest.raises(NotPalindromicError):
        gamma_vector(UniPoly((1, 2, 2)), 2)


def test_gamma_roundtrip_various():
    for coeffs, d in [((1,), 0), ((1, 2, 1), 2), ((2, 2), 1), ((0, 1, 0), 2)]:
        p = UniPoly(coeffs)
        gs = gamma_vector(p, d)
        assert gamma_reconstruct(gs, d) == p


@st.composite
def gamma_lists(draw):
    d = draw(st.integers(0, 24))
    size = d // 2 + 1
    return d, draw(st.lists(st.integers(0, 10**25), min_size=size, max_size=size))


@settings(max_examples=100, deadline=None)
@given(gamma_lists())
def test_gamma_roundtrip_random(case):
    d, gammas = case
    assert gamma_vector(gamma_reconstruct(gammas, d), d) == tuple(gammas)


def test_gamma_multivariate_small_example():
    # the empty set leaves x1 and x2 free; D = {2} leaves neither free, since
    # 2 is in D and 1 + 1 is
    p = gamma_reconstruct_multivariate({0: 1, 1 << 2: 3}, (1, 2))
    assert p.terms == {(): 1, (1,): 1, (2,): 4, (1, 2): 1}


@st.composite
def descent_weights(draw):
    lo = draw(st.integers(0, 1))
    hi = draw(st.integers(lo, lo + 8))
    # descent sets without consecutive entries inside lo+1..hi
    candidates = [tuple(i + lo for i in dset) for dset in sorted(brute_nc_subsets(hi - lo))]
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=12))
    weights = {dset: draw(st.integers(0, 10**20)) for dset in chosen}
    return (lo, hi), weights


@settings(max_examples=100, deadline=None)
@given(descent_weights())
def test_gamma_multivariate_specializes_to_univariate(case):
    (lo, hi), weights = case
    d = hi - lo + 1
    by_size = [0] * (d // 2 + 1)
    for dset, w in weights.items():
        by_size[len(dset)] += w
    multi = gamma_reconstruct_multivariate(by_mask(weights), (lo, hi))
    assert multi.var_range == (lo, hi)
    assert multi.specialize() == gamma_reconstruct(by_size, d)


@settings(max_examples=200, deadline=None)
@given(descent_weights())
def test_gamma_multivariate_matches_brute_expansion(case):
    var_range, weights = case
    multi = gamma_reconstruct_multivariate(by_mask(weights), var_range)
    assert multi.terms == brute_gamma_reconstruct_multivariate(weights, var_range)


def _rejection(key) -> str:
    shown = bin(key) if isinstance(key, int) else repr(key)
    message = f"descent set {shown} is not a mask without adjacent bits inside positions 2..6"
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize(
    "dset",
    [
        (1,),  # position lo
        (1, 4),  # position lo
        (0, 3),  # below the window
        (3, 7),  # above hi
        (7,),  # above hi
        (2, 3),  # consecutive
        (2, 5, 6),  # consecutive
    ],
)
def test_gamma_multivariate_rejects_bad_descent_sets(dset):
    mask = positions_mask(dset)
    with pytest.raises(ValueError, match=_rejection(mask)):
        gamma_reconstruct_multivariate({0: 1, mask: 1}, (1, 6))


@pytest.mark.parametrize("dset", [(3, 1000), (1000,), (2, 10**4), (64,)])
def test_gamma_multivariate_rejects_positions_far_outside_the_window(dset):
    mask = positions_mask(dset)
    with pytest.raises(ValueError, match=_rejection(mask)):
        gamma_reconstruct_multivariate({0: 1, mask: 1}, (1, 6))


@pytest.mark.parametrize("key", [-4, -(1 << 70), (2, 4), 4.0])
def test_gamma_multivariate_rejects_keys_that_are_not_masks(key):
    # a negative int has bits past every position; a tuple or a float is no mask
    with pytest.raises(ValueError, match=_rejection(key)):
        gamma_reconstruct_multivariate({0: 1, key: 1}, (1, 6))


def test_gamma_multivariate_rejects_a_range_below_x0():
    with pytest.raises(ValueError, match="x-1..x3 starts below x0"):
        gamma_reconstruct_multivariate({0: 1}, (-1, 3))


def test_render_text():
    assert UniPoly((1, 11, 1)).render() == "1 + 11*x + x^2"
    assert UniPoly((0, 1, 1)).render() == "x + x^2"
    assert UniPoly.zero().render() == "0"
    assert UniPoly((1, -1, -2)).render() == "1 - x - 2*x^2"
    assert SqfMultiPoly((1, 2), {(): 1, (1, 2): 3}).render() == "1 + 3*x1*x2"
    poly = SqfMultiPoly((1, 3), {(): -1, (2,): -1, (1, 3): 2, (1, 2, 3): -5})
    assert poly.render() == "-1 - x2 + 2*x1*x3 - 5*x1*x2*x3"
    assert SqfMultiPoly((1, 2), {(): 1, (1,): -1, (2,): 1}).render() == "1 - x1 + x2"
    assert SqfMultiPoly((1, 2)).render() == "0"
    assert SqfMultiPoly.from_dense((1, 2), [0, 0, 0, 0]).render() == "0"


def test_json_roundtrip_unipoly():
    big = 10**40
    p = UniPoly((1, big, 3))
    data = json.loads(json.dumps(p.to_json()))
    assert UniPoly.from_json(data) == p
    assert data[1] == str(big)


def test_json_roundtrip_multipoly():
    p = SqfMultiPoly((0, 3), {(): 1, (0, 2): 10**30, (1,): -2})
    data = json.loads(json.dumps(p.to_json()))
    assert SqfMultiPoly.from_json(data) == p


def test_hash_and_eq():
    assert UniPoly((1, 2)) == UniPoly((1, 2, 0))
    assert hash(UniPoly((1, 2))) == hash(UniPoly((1, 2, 0)))
    assert UniPoly((1,)) != UniPoly((1, 1))
    s = {SqfMultiPoly((1, 2), {(1,): 1}), SqfMultiPoly((1, 2), {(1,): 1})}
    assert len(s) == 1
