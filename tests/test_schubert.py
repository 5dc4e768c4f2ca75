import hashlib
import json
import pickle
import re
import sys
from copy import deepcopy
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowpoly import (
    CensusTable,
    INFINITY,
    Matroid,
    ResourceLimitError,
    census,
    census_matches_formula,
    coefficient_formula,
    delta_multinomial,
    eulerian_poly,
    sm_count,
    uniform,
    verify_coefficient_counts,
)
from tests.oracles import (
    _grassmannian_perms,
    brute_descents,
    grassmannian_avoiding_count,
    schubert_bases,
    schubert_fingerprints,
    schubert_loops_and_cogirth,
)


def schubert(n, idx, perm=None):
    return Matroid(n, schubert_bases(n, idx, perm))


def test_schubert_bases_examples():
    assert schubert(4, (1, 2)) == uniform(2, 4)
    m = schubert(4, (2, 3))
    assert m.bases_sets() == ((2, 3), (2, 4), (3, 4))
    top = schubert(5, (3, 4, 5))
    assert top.bases_sets() == ((3, 4, 5),)
    empty = schubert(3, ())
    assert empty.rank == 0 and empty.loops() == (1, 2, 3)


def test_schubert_respects_permutation_order():
    # under the reversed order 4 < 3 < 2 < 1, the singletons dominating {3}
    # are {3}, {2}, {1}, leaving 4 as a loop
    m = schubert(4, (3,), (4, 3, 2, 1))
    assert m.bases_sets() == ((1,), (2,), (3,))
    assert m.loops() == (4,)


def test_records_are_read_only():
    table = census(4)
    report = verify_coefficient_counts(3, 4, table)
    records = [table, report.checks[0], report]
    for record in records:
        for field in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_census_table_survives_pickle_and_deepcopy():
    table = census(4)
    for copied in (pickle.loads(pickle.dumps(table)), deepcopy(table)):
        assert copied == table and type(copied) is CensusTable
    assert deepcopy(table).entries is not table.entries
    reordered = CensusTable(4, dict(reversed(table.entries.items())))
    assert reordered == table and hash(reordered) == hash(table)


def test_invariants_formula_examples():
    assert schubert_loops_and_cogirth(4, (2, 3), (1, 2, 3, 4)) == ((1,), 2)
    assert schubert_loops_and_cogirth(6, (1, 2, 3), (1, 2, 3, 4, 5, 6)) == ((), 4)
    with pytest.raises(ValueError):
        schubert_loops_and_cogirth(3, (), (1, 2, 3))


def test_invariants_formula_matches_engine_exhaustively():
    for n in range(1, 6):
        for perm in permutations(range(1, n + 1)):
            for size in range(1, n + 1):
                for idx in combinations(range(1, n + 1), size):
                    m = schubert(n, idx, perm)
                    assert schubert_loops_and_cogirth(n, idx, perm) == (
                        m.loops(),
                        m.cogirth(),
                    ), (idx, perm)


def test_invariants_formula_matches_kernel_classification():
    # exhaustive at n = 6: the census kernel classifies the brute fingerprint
    # of every Schubert matroid as the formula reads it off (I, p)
    from chowpoly import kernels

    n = 6
    for size in range(1, n + 1):
        for (idx, perm), fingerprint in schubert_fingerprints(n, size).items():
            loops, cogirth = schubert_loops_and_cogirth(n, idx, perm)
            got = kernels.loops_and_cogirth(fingerprint, n)
            assert (len(loops), cogirth) == got, (idx, perm)


def test_relabeled_bases_versus_identity_order_form():
    # the bases of (I, p) are the p-images of the identity-order matroid of
    # the p-preimage of I, but the two basis collections differ as sets
    n, idx, perm = 4, (2, 4), (3, 1, 4, 2)
    preimage = tuple(sorted(perm.index(e) + 1 for e in idx))
    direct = schubert(n, idx, perm)
    id_form = schubert(n, preimage)
    relabeled = sorted(
        tuple(sorted(perm[e - 1] for e in basis)) for basis in id_form.bases_sets()
    )
    assert relabeled == sorted(direct.bases_sets())
    found_difference = False
    for p in permutations(range(1, 5)):
        for size in range(1, 5):
            for i in combinations(range(1, 5), size):
                pre = tuple(sorted(p.index(e) + 1 for e in i))
                a = schubert(4, i, p)
                b = schubert(4, pre)
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
                bases = schubert(n, idx).bases
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
                    m = schubert(n, idx, perm)
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


@pytest.mark.parametrize(
    "cell, count",
    [
        ((1, 0, INFINITY), 1),  # a rank >= 1 cell outside the formula's key grid
        ((6, 0, 1), 5),  # rank above n
        ((1, 5, 1), 3),  # loops = n
        ((2, 3, 5), 7),  # loops >= n + 1 - cogirth
        ((0, 5, INFINITY), 2),  # a wrong rank-0 count
        ((0, 2, INFINITY), 1),  # a second rank-0 cell
    ],
)
def test_census_matches_formula_fails_on_doctored_tables(cell, count):
    table = census(5)
    changed = dict(table.entries)
    changed[(2, 0, 4)] += 1
    assert not census_matches_formula(CensusTable(5, changed))
    assert not census_matches_formula(CensusTable(5, {**table.entries, cell: count}))


def test_census_is_deterministic():
    # repeated runs give equal tables with the same CSV bytes
    base = census(6)
    again = census(6)
    assert again == base
    assert again.to_csv() == base.to_csv()


def _no_permutations(monkeypatch):
    # census(9) would close its fingerprints under the relabelings of
    # {1..8} before a late refusal
    def no_closure(*args):
        raise AssertionError("fingerprints relabeled before the ground size was checked")

    monkeypatch.setattr("chowpoly.kernels.relabel_stage", no_closure)


def test_census_resource_guard(monkeypatch):
    _no_permutations(monkeypatch)
    with pytest.raises(ResourceLimitError, match=r"census\(n=9\).*n <= 8"):
        census(9)


def test_census_matches_formula_refuses_a_loaded_table_past_the_bound(monkeypatch):
    def no_count(*args):
        raise AssertionError("sm_count ran before the ground size was checked")

    monkeypatch.setattr("chowpoly.schubert.sm_count", no_count)
    table = CensusTable.from_json({"n": 9, "entries": []})
    with pytest.raises(ResourceLimitError, match=r"census_matches_formula\(n=9\).*n <= 8"):
        census_matches_formula(table)


def test_census_guard_ignores_the_removed_env_override(monkeypatch):
    # the bound used to be raised by this environment variable
    monkeypatch.setenv("_".join(("CHOW", "MAX", "N")), "100")
    _no_permutations(monkeypatch)
    with pytest.raises(ResourceLimitError):
        census(9)


# the one refusal of a census ground size, by census and both readers
CENSUS_N_REFUSAL = r"^a census table needs an int n >= 1, got \S+$"


def test_census_needs_a_nonempty_ground_set():
    with pytest.raises(ValueError, match=CENSUS_N_REFUSAL):
        census(0)


@pytest.mark.parametrize("n", [True, False, 2.5, 8.0, "8", None])
def test_census_refuses_a_non_int_ground_size(monkeypatch, n):
    # the refusal comes before any seed is closed
    _no_permutations(monkeypatch)
    with pytest.raises(ValueError, match=CENSUS_N_REFUSAL):
        census(n)


@pytest.mark.parametrize("n", [0, -1, -8, -(10**40)])
def test_census_and_its_readers_refuse_a_ground_size_alike(n):
    message = f"a census table needs an int n >= 1, got {n}"
    with pytest.raises(ValueError) as by_census:
        census(n)
    with pytest.raises(ValueError) as by_csv:
        CensusTable.from_csv(n, "rank,loops,cogirth,count\n")
    assert str(by_census.value) == str(by_csv.value) == message
    for document_n in (n, str(n)):
        with pytest.raises(ValueError) as by_json:
            CensusTable.from_json({"n": document_n, "entries": []})
        assert str(by_json.value) == f"census JSON is malformed: {message}"


def test_census_runs_without_numpy(monkeypatch):
    # with numpy unimportable, census(7) still computes the whole table
    monkeypatch.setitem(sys.modules, "numpy", None)
    table = census(7)
    assert table.total == 13_700
    assert census_matches_formula(table)


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


@pytest.mark.parametrize("lead", ["", "\n\n"])
@pytest.mark.parametrize(
    "rows, line, problem",
    [
        ("1,0,1,3\n\n1,0\n", 4, "has 2 fields, not 4: '1,0'"),
        ("1,0,1,3,7\n", 2, "has 5 fields, not 4: '1,0,1,3,7'"),
        ("1,0,1,3\n1,x,2,3\n", 3, "has a field that is not an integer: '1,x,2,3'"),
        ("1,0,1,3.0\n", 2, "has a field that is not an integer: '1,0,1,3.0'"),
        ("1,0,1,1_000\n", 2, "has a field that is not an integer: '1,0,1,1_000'"),
        ("1,0,1, 5\n", 2, "has a field that is not an integer: '1,0,1, 5'"),
        ("1,0,1,+5\n", 2, "has a field that is not an integer: '1,0,1,+5'"),
        ("9,0,1,1\n", 2, "has rank 9 outside 0..3: '9,0,1,1'"),
        ("1,-1,1,1\n", 2, "has loops -1 outside 0..3: '1,-1,1,1'"),
        ("1,-2,1,1\n", 2, "has loops -2 outside 0..3: '1,-2,1,1'"),
        ("1,0,-1,1\n", 2, "has cogirth -1 outside 1..3 and not inf: '1,0,-1,1'"),
        ("1,0,-2,1\n", 2, "has cogirth -2 outside 1..3 and not inf: '1,0,-2,1'"),
        ("1,0,1,-5\n", 2, "has negative count -5: '1,0,1,-5'"),
        ("1,0,3,1\n1,0,3,7\n", 3, "has repeated cell (1, 0, 3): '1,0,3,7'"),
    ],
)
def test_census_from_csv_names_a_malformed_line(lead, rows, line, problem):
    # a wrong field count, a non-integer field or a cell that no census of
    # n = 3 holds is a one-line ValueError naming the line, counted from 1
    # in the text, leading blank lines too
    text = lead + "rank,loops,cogirth,count\n" + rows
    number = line + lead.count("\n")
    with pytest.raises(ValueError) as info:
        CensusTable.from_csv(3, text)
    assert str(info.value) == f"census CSV line {number} {problem}"


@pytest.mark.parametrize("n", [-3, 0, 3.0, True])
def test_census_from_csv_needs_an_int_ground_size(n):
    with pytest.raises(ValueError, match=CENSUS_N_REFUSAL):
        CensusTable.from_csv(n, "rank,loops,cogirth,count\n")


def test_verify_coefficient_counts_golden():
    table = census(5)
    report = verify_coefficient_counts(3, 5, table)
    assert report.passed
    plain = [c for c in report.checks if not c.augmented]
    assert [c.coefficient for c in plain] == [1, 11, 1]
    assert [c.census_count for c in plain] == [1, 11, 1]
    for k in (1, 3, 5):
        report = verify_coefficient_counts(k, 5, table)
        assert report.passed
        # k plain coefficients first, then k + 1 augmented ones, in power order
        assert [(c.augmented, c.power) for c in report.checks] == [
            (False, m) for m in range(k)
        ] + [(True, m) for m in range(k + 1)]


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


# sha256 of census(n).to_csv(), recorded from the numpy census that the
# plain-Python one replaced
CENSUS_CSV_SHA256 = {
    1: "bd4d505b82b55d3d1025558763c4522e31c5fff5d8d96360c309bd612155d319",
    2: "a88dc5c814bbb6ed03075caa1dcc4001f68dc3c678e33d5457e1469bf7f08610",
    3: "e37d6e5079a87bb3b18d9b463554c024f6226748d5fd7aca6c83b73b35c750f8",
    4: "a043710b696a5a491d579aeb7fe0e66d68cd246eec20acf0318223ec4a12e982",
    5: "8744ebbe73ad51134c459d01dd11491ae3d6439e87474e1d33b948b31577b527",
    6: "334f81598938ef5cb5ea7ee70a554194f1f5a39fb8b2eb63bd381bf578aabbae",
    7: "020100ba991f84abaaaa68dfc02ac7aa2ba001c52728e9883cb4d3761a8f4ff4",
    8: "04be11adac804088eac6e32398d6cfc5318ea728d7db009006119ec8525531ec",
}


def test_census_csv_matches_the_pinned_digests():
    for n, digest in CENSUS_CSV_SHA256.items():
        assert hashlib.sha256(census(n).to_csv().encode()).hexdigest() == digest, n


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


def _census_documents(n):
    # the cells a census of n may hold: rank and loops in 0..n, cogirth in
    # 1..n or inf, count >= 0
    cell = st.tuples(
        st.integers(0, n), st.integers(0, n), st.one_of(st.integers(1, n), st.just(INFINITY))
    )
    entries = st.dictionaries(cell, st.integers(0, 10**30), max_size=20)
    return st.tuples(st.just(n), entries)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(_census_documents))
def test_census_table_roundtrip_random(document):
    n, entries = document
    table = CensusTable(n, {(0, n, INFINITY): 1, **entries})
    assert CensusTable.from_csv(n, table.to_csv()) == table
    assert CensusTable.from_json(json.loads(json.dumps(table.to_json()))) == table


_ROW = {"rank": 1, "loops": 0, "cogirth": 2, "count": "3"}


@pytest.mark.parametrize(
    "data, field",
    [
        ({}, "entries"),
        ({"n": 3, "entries": [{"rank": 1}]}, "cogirth"),
        ({"n": 3, "entries": [[1, 0, 3, 4]]}, "malformed"),
        ({"n": 3, "entries": ["1,0,3,4"]}, "malformed"),
        ({"n": 5.7, "entries": []}, "^census JSON is malformed: .* got 5.7$"),
        ({"n": 5, "entries": [dict(_ROW, rank=1.9)]}, "^census JSON is malformed: .* got 1.9$"),
        ({"n": 5, "entries": [dict(_ROW, loops=True)]}, "^census JSON is malformed: .* got True$"),
        ({"n": 5, "entries": [dict(_ROW, cogirth="1_0")]}, "^census JSON is malformed: .* got '1_0'$"),
        ({"n": 5, "entries": [dict(_ROW, count=2.5)]}, "^census JSON is malformed: .* got 2.5$"),
        ({"n": 5, "entries": [dict(_ROW, rank="x")]}, "^census JSON is malformed: .* got 'x'$"),
        ({"n": -3, "entries": []}, r"^census JSON is malformed: .* n >= 1, got -3$"),
        ({"n": 3, "entries": [dict(_ROW, rank=9)]}, "^census JSON is malformed: rank 9 outside 0..3$"),
        ({"n": 3, "entries": [dict(_ROW, loops=-1)]}, "^census JSON is malformed: loops -1 outside"),
        ({"n": 3, "entries": [dict(_ROW, loops=-2)]}, "^census JSON is malformed: loops -2 outside"),
        ({"n": 3, "entries": [dict(_ROW, cogirth=-1)]}, "^census JSON is malformed: cogirth -1 outside"),
        ({"n": 3, "entries": [dict(_ROW, cogirth=-2)]}, "^census JSON is malformed: cogirth -2 outside"),
        ({"n": 3, "entries": [dict(_ROW, count="-5")]}, "^census JSON is malformed: negative count -5$"),
        (
            {"n": 3, "entries": [dict(_ROW, cogirth=3, count="1"), dict(_ROW, cogirth=3, count="7")]},
            r"^census JSON is malformed: repeated cell \(1, 0, 3\)$",
        ),
    ],
)
def test_census_from_json_rejects_missing_fields(data, field):
    with pytest.raises(ValueError, match=field):
        CensusTable.from_json(data)


# An integer field of a census document is an int (not a bool) or a string of
# ASCII digits after an optional minus sign; none of these is either.
_NOT_INTEGERS = [
    1.5, 1.0, True, False, None, [3], {"0": 3},
    "3.0", " 3", "3 ", "1_000", "+3", "٣", "", "-", "--3", "0x3",
]


@pytest.mark.parametrize("value", _NOT_INTEGERS)
def test_census_from_json_rejects_a_malformed_integer(value):
    with pytest.raises(ValueError, match=r"^census JSON is malformed: expected .*, got "):
        CensusTable.from_json({"n": 3, "entries": [dict(_ROW, count=value)]})


@pytest.mark.parametrize("field", [v for v in _NOT_INTEGERS if isinstance(v, str)])
def test_census_from_csv_rejects_a_malformed_integer(field):
    row = f"1,{field},2,3"
    message = f"^census CSV line 2 has a field that is not an integer: {re.escape(repr(row))}$"
    with pytest.raises(ValueError, match=message):
        CensusTable.from_csv(3, f"rank,loops,cogirth,count\n{row}\n")


@pytest.mark.parametrize("count", [7, "7", "007", 10**40, str(10**40)])
def test_census_readers_take_decimal_strings_and_ints(count):
    expected = CensusTable(3, {(1, 0, 2): int(count)})
    document = {"n": "3", "entries": [dict(_ROW, rank="1", count=count)]}
    assert CensusTable.from_json(document) == expected
    if isinstance(count, str):
        assert CensusTable.from_csv(3, f"rank,loops,cogirth,count\n1,0,2,{count}\n") == expected


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
            p for p in permutations(range(1, k + 1)) if len(brute_descents(p)) == 1
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
        assert all(len(brute_descents(w)) <= 1 for w in perms)
