import json
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowpoly import (
    CensusTable,
    INFINITY,
    ResourceLimitError,
    SchubertSpec,
    census,
    census_matches_formula,
    coefficient_formula,
    delta_multinomial,
    descent_count,
    eulerian_poly,
    schubert_invariants_formula,
    schubert_matroid,
    sm_count,
    uniform,
    verify_coefficient_counts,
)
from tests.oracles import _grassmannian_perms, grassmannian_avoiding_count


def spec(n, idx, perm=None):
    return SchubertSpec(n, tuple(idx), tuple(perm or range(1, n + 1)))


def test_schubert_bases_examples():
    assert schubert_matroid(spec(4, (1, 2))) == uniform(2, 4)
    m = schubert_matroid(spec(4, (2, 3)))
    assert m.bases_sets() == ((2, 3), (2, 4), (3, 4))
    top = schubert_matroid(spec(5, (3, 4, 5)))
    assert top.bases_sets() == ((3, 4, 5),)
    empty = schubert_matroid(spec(3, ()))
    assert empty.rank == 0 and empty.loops() == (1, 2, 3)


def test_schubert_respects_permutation_order():
    # under the reversed order 4 < 3 < 2 < 1, the singletons dominating {3}
    # are {3}, {2}, {1}, leaving 4 as a loop
    m = schubert_matroid(spec(4, (3,), (4, 3, 2, 1)))
    assert m.bases_sets() == ((1,), (2,), (3,))
    assert m.loops() == (4,)


@pytest.mark.parametrize(
    "idx, perm, message",
    [
        ((1, 2), (1, 1, 3, 4), "not a permutation"),
        ((1, 2), (1, 2, 3), "not a permutation"),
        ((0, 2), None, "index 0 outside"),
        ((2, 5), None, "index 5 outside"),
        ((2, 2), None, "repeated index"),
    ],
)
def test_schubert_spec_rejects_bad_data(idx, perm, message):
    with pytest.raises(ValueError, match=message):
        spec(4, idx, perm)


def test_invariants_formula_examples():
    inv = schubert_invariants_formula(spec(4, (2, 3)))
    assert inv.loops == (1,)
    assert inv.cogirth == 2
    inv2 = schubert_invariants_formula(spec(6, (1, 2, 3)))
    assert inv2.loops == () and inv2.cogirth == 4
    with pytest.raises(ValueError):
        schubert_invariants_formula(spec(3, ()))


def test_invariants_formula_matches_engine_exhaustively():
    for n in range(1, 6):
        for perm in permutations(range(1, n + 1)):
            for size in range(1, n + 1):
                for idx in combinations(range(1, n + 1), size):
                    sp = SchubertSpec(n, idx, perm)
                    inv = schubert_invariants_formula(sp)
                    m = schubert_matroid(sp)
                    assert inv.loops == m.loops(), sp
                    assert inv.cogirth == m.cogirth(), sp


def test_invariants_formula_matches_kernel_classification():
    # exhaustive at n = 6 via the census block kernel
    from chowpoly import kernels

    n = 6
    perms = kernels.perm_table(n)
    perm_rows = [tuple(int(v) for v in row) for row in perms]
    for size in range(1, n + 1):
        table = kernels.relabel_table(perms, n, size)
        rows = kernels.census_fingerprints(table, n, size)
        loops, cogirths = kernels.classify_fingerprints(rows, n, size)
        r = 0
        for idx in combinations(range(1, n + 1), size):
            for perm in perm_rows:
                image = tuple(sorted(perm[e - 1] for e in idx))
                inv = schubert_invariants_formula(SchubertSpec(n, image, perm))
                assert len(inv.loops) == loops[r], (idx, perm)
                assert inv.cogirth == cogirths[r], (idx, perm)
                r += 1
        assert r == rows.shape[0]


def test_relabeled_bases_versus_identity_order_form():
    # the bases of (I, p) are the p-images of the identity-order matroid of
    # the p-preimage of I, but the two basis collections differ as sets
    n, idx, perm = 4, (2, 4), (3, 1, 4, 2)
    preimage = tuple(sorted(perm.index(e) + 1 for e in idx))
    direct = schubert_matroid(SchubertSpec(n, idx, perm))
    id_form = schubert_matroid(SchubertSpec(n, preimage, tuple(range(1, n + 1))))
    relabeled = sorted(
        tuple(sorted(perm[e - 1] for e in basis)) for basis in id_form.bases_sets()
    )
    assert relabeled == sorted(direct.bases_sets())
    found_difference = False
    for p in permutations(range(1, 5)):
        for size in range(1, 5):
            for i in combinations(range(1, 5), size):
                pre = tuple(sorted(p.index(e) + 1 for e in i))
                a = schubert_matroid(SchubertSpec(4, i, p))
                b = schubert_matroid(SchubertSpec(4, pre, (1, 2, 3, 4)))
                if a != b:
                    found_difference = True
                    break
    assert found_difference


def test_sm_count_values():
    assert sm_count(5, 1, 2, 3) == delta_multinomial(5, (3,)) == 10
    assert sm_count(5, 2, 0, 5) == 5
    # rank 2 needs two elements of {2..2}: impossible
    assert sm_count(6, 2, 1, 2) == 0
    assert sm_count(6, 1, 1, 2) == delta_multinomial(6, (2,)) == 6
    with pytest.raises(ValueError):
        sm_count(5, 0, 0, 3)
    with pytest.raises(ValueError):
        sm_count(5, 1, 3, 3)


def test_orbit_sizes_are_gap_multinomials():
    # the number of distinct matroids arising from one index set under all
    # relabelings is its gap multinomial
    for n in range(1, 7):
        for size in range(1, n + 1):
            for idx in combinations(range(1, n + 1), size):
                bases = schubert_matroid(spec(n, idx)).bases
                seen = set()
                for perm in permutations(range(1, n + 1)):
                    relabeled = tuple(
                        sorted(
                            sum(1 << (perm[e - 1] - 1) for e in _bits(b))
                            for b in bases
                        )
                    )
                    seen.add(relabeled)
                assert len(seen) == delta_multinomial(n, idx), (n, idx)


def _bits(mask):
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


def test_census_small_totals():
    t1 = census(1)
    assert t1.total == 2
    assert t1.rows() == [(0, 1, INFINITY, 1), (1, 0, 1, 1)]
    t2 = census(2)
    assert t2.total == 5


def test_census_against_brute_dedup():
    # full reconstruction through validated matroid objects at n <= 4
    for n in range(1, 5):
        seen = {}
        all_perms = list(permutations(range(1, n + 1)))
        for size in range(0, n + 1):
            for idx in combinations(range(1, n + 1), size):
                for perm in all_perms:
                    m = schubert_matroid(SchubertSpec(n, idx, perm))
                    seen[m] = (
                        m.rank,
                        len(m.loops()),
                        m.cogirth(),
                    )
        expected: dict = {}
        for key in seen.values():
            expected[key] = expected.get(key, 0) + 1
        assert census(n).entries == expected, n


def test_census_matches_formula_small():
    for n in range(1, 7):
        assert census_matches_formula(census(n)), n


def test_census_at_eight_matches_formula():
    # within the default guard only n = 8 has a two-word rank (k = 4)
    table = census(8)
    assert census_matches_formula(table)
    assert table.total == 109_601
    assert sum(c for (r, _, _), c in table.entries.items() if r == 4) == 44_929


def test_census_matches_formula_fails_on_doctored_tables():
    table = census(5)
    changed = dict(table.entries)
    changed[(2, 0, 4)] += 1
    assert not census_matches_formula(CensusTable(5, changed))
    # a rank >= 1 cell outside the formula's key grid
    phantom = {**table.entries, (1, 0, INFINITY): 1}
    assert not census_matches_formula(CensusTable(5, phantom))


def test_census_is_deterministic():
    # repeated runs give equal tables with the same CSV bytes
    base = census(6)
    again = census(6)
    assert again == base
    assert again.to_csv() == base.to_csv()


def _no_permutations(monkeypatch):
    # census(9) would sweep all 9! permutations before a late refusal
    def no_listing(*args):
        raise AssertionError("permutations listed before the ground size was checked")

    monkeypatch.setattr("chowpoly.kernels.perm_table", no_listing)


def test_census_resource_guard(monkeypatch):
    _no_permutations(monkeypatch)
    with pytest.raises(ResourceLimitError, match=r"census\(n=9\).*n <= 8"):
        census(9)


def test_census_guard_ignores_the_removed_env_override(monkeypatch):
    # the bound used to be raised by this environment variable
    monkeypatch.setenv("_".join(("CHOW", "MAX", "N")), "100")
    _no_permutations(monkeypatch)
    with pytest.raises(ResourceLimitError):
        census(9)


def test_census_needs_a_nonempty_ground_set():
    with pytest.raises(ValueError, match="n >= 1"):
        census(0)


def test_census_from_csv_rejects_empty_text():
    for text in ("", "\n\n"):
        with pytest.raises(ValueError, match="empty"):
            CensusTable.from_csv(3, text)


@pytest.mark.parametrize(
    "header", ["rank,loops,count", "count,rank,loops,cogirth", "n,rank,loops,cogirth,count"]
)
def test_census_from_csv_rejects_wrong_header(header):
    with pytest.raises(ValueError, match="unexpected header"):
        CensusTable.from_csv(3, f"{header}\n1,0,1,3\n")


def test_verify_coefficient_counts_golden():
    table = census(5)
    report = verify_coefficient_counts(3, 5, table)
    assert report.passed
    plain = [c for c in report.checks if not c.augmented]
    assert [c.coefficient for c in plain] == [1, 11, 1]
    assert [c.census_count for c in plain] == [1, 11, 1]
    assert verify_coefficient_counts(1, 5, table).passed
    assert verify_coefficient_counts(5, 5, table).passed


def test_verify_coefficient_counts_reports_a_doctored_cell():
    table = census(5)
    # loopless rank-2 matroids with cogirth above 2: the x^1 coefficient
    entries = dict(table.entries)
    entries[(2, 0, 4)] += 1
    report = verify_coefficient_counts(3, 5, CensusTable(5, entries))
    assert not report.passed
    bad = report.first_mismatch()
    assert (bad.augmented, bad.power) == (False, 1)
    assert (bad.coefficient, bad.census_count) == (11, 12)


def test_verify_coefficient_counts_rejects_a_table_for_another_n():
    with pytest.raises(ValueError, match="census table is for n=4, not n=5"):
        verify_coefficient_counts(3, 5, census(4))


def test_loopless_census_matches_descent_counts():
    for n in range(1, 7):
        table = census(n)
        by_rank: dict[int, int] = {}
        for (r, l, g), c in table.entries.items():
            if l == 0:
                by_rank[r] = by_rank.get(r, 0) + c
        a_n = eulerian_poly(n)
        assert by_rank == {r: a_n[r - 1] for r in range(1, n + 1)}, n


GOLDEN_CENSUS_4 = """\
rank,loops,cogirth,count
0,4,inf,1
1,0,4,1
1,1,3,4
1,2,2,6
1,3,1,4
2,0,1,4
2,0,2,6
2,0,3,1
2,1,1,12
2,1,2,4
2,2,1,6
3,0,1,10
3,0,2,1
3,1,1,4
4,0,1,1
"""


def test_census_golden_csv():
    assert census(4).to_csv() == GOLDEN_CENSUS_4


def test_census_rank_totals():
    # fixing the rank, the cell counts add up to the total number of distinct
    # matroids of that rank: one orbit of gap-multinomial size per index set
    for n in range(1, 7):
        table = census(n)
        assert all(c >= 1 for c in table.entries.values())
        for m in range(1, n + 1):
            total = sum(c for (r, _, _), c in table.entries.items() if r == m)
            expected = sum(
                delta_multinomial(n, idx)
                for idx in combinations(range(1, n + 1), m)
            )
            assert total == expected, (n, m)


def test_census_csv_json_roundtrip():
    table = census(4)
    assert CensusTable.from_csv(4, table.to_csv()) == table
    data = json.loads(json.dumps(table.to_json()))
    assert CensusTable.from_json(data) == table
    assert data["entries"][0]["cogirth"] == "inf"
    assert all(isinstance(row["count"], str) for row in data["entries"])
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "rank,loops,cogirth,count"
    keys = [tuple(ln.split(",")[:3]) for ln in lines[1:]]
    assert keys == sorted(keys, key=lambda t: (int(t[0]), int(t[1]), float(t[2])))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12),
    st.dictionaries(
        st.tuples(
            st.integers(0, 12),
            st.integers(0, 12),
            st.one_of(st.integers(1, 12), st.just(INFINITY)),
        ),
        st.integers(1, 10**30),
        max_size=20,
    ),
)
def test_census_table_roundtrip_random(n, entries):
    table = CensusTable(n, {(0, n, INFINITY): 1, **entries})
    assert CensusTable.from_csv(n, table.to_csv()) == table
    assert CensusTable.from_json(json.loads(json.dumps(table.to_json()))) == table


@pytest.mark.parametrize(
    "data, field",
    [
        ({}, "entries"),
        ({"n": 3, "entries": [{"rank": 1}]}, "cogirth"),
        ({"n": 3, "entries": [[1, 0, 3, 4]]}, "malformed"),
        ({"n": 3, "entries": ["1,0,3,4"]}, "malformed"),
    ],
)
def test_census_from_json_rejects_missing_fields(data, field):
    with pytest.raises(ValueError, match=field):
        CensusTable.from_json(data)


def test_grassmannian_avoiding_counts():
    assert grassmannian_avoiding_count(5, (2, 1)) == 1
    for n in range(2, 9):
        assert grassmannian_avoiding_count(n, (2, 1)) == coefficient_formula(
            2, n, 1
        )
    with pytest.raises(ValueError):
        grassmannian_avoiding_count(4, (1, 2, 3))
    with pytest.raises(ResourceLimitError):
        grassmannian_avoiding_count(10, (2, 1))


def test_grassmannian_avoiding_matches_first_coefficient():
    for k in (2, 3, 4):
        patterns = [
            p for p in permutations(range(1, k + 1)) if descent_count(p) == 1
        ]
        for n in range(k, 8):
            want = coefficient_formula(k, n, 1)
            for sigma in patterns:
                assert grassmannian_avoiding_count(n, sigma) == want, (k, n, sigma)


def test_grassmannian_total_count():
    for n in range(1, 8):
        perms = list(_grassmannian_perms(n))
        assert len(perms) == 2**n - n
        assert len(set(perms)) == len(perms)
        assert all(descent_count(w) <= 1 for w in perms)
