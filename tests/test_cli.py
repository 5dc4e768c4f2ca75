import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chowpoly
from chowpoly import (
    CensusTable,
    SqfMultiPoly,
    UniPoly,
    census,
    cli,
    forms,
    matroid,
    matroid_to_json,
    multivariate_closed_form,
    uniform,
)
from chowpoly.cli import main
from chowpoly.matroid import MAX_GROUND
from chowpoly.schubert import MAX_EXHAUSTIVE_N
from tests.oracles import brute_json_document, brute_multipoly, brute_sorted_terms, brute_subsets


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"chowpoly {chowpoly.__version__}\n"
    assert chowpoly.__version__ == "0.1.0"


def _imported_top_level_modules(*args: str) -> set[str]:
    """Top-level packages a fresh ``python -X importtime`` run imports."""
    src = str(Path(chowpoly.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import chowpoly"],
        ["-m", "chowpoly", "compute", "--k", "10", "--n", "12"],
        ["-m", "chowpoly", "oracle", "--k", "4", "--n", "4"],
        ["-m", "chowpoly", "census", "--n", "8", "--verify"],
    ],
    ids=["import", "compute", "oracle", "census"],
)
def test_no_command_imports_numpy(args):
    modules = _imported_top_level_modules(*args)
    # numpy costs over 0.1 s of start-up, and each of the others several ms
    assert not modules & {"numpy", "dataclasses", "inspect"}


def test_compute_text_agreement(capsys):
    code, out, _ = run(capsys, "compute", "--k", "3", "--n", "5")
    assert code == 0
    assert "monomial: 1 + 11*x + x^2" in out
    assert out.strip().endswith("AGREE")


def test_compute_single_method(capsys):
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "4", "--method", "monomial")
    assert code == 0
    assert out.strip() == "monomial: 1"


def test_compute_augmented_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--k", "4", "--n", "5", "--augmented", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    for coeffs in payload["results"].values():
        assert UniPoly(map(int, coeffs)) == UniPoly((1, 26, 66, 26, 1))


def test_compute_rank_zero_augmented(capsys):
    code, out, _ = run(capsys, "compute", "--k", "0", "--n", "5", "--augmented")
    assert code == 0
    assert out.count(": 1") == 4 and "AGREE" in out
    code, out, _ = run(
        capsys, "compute", "--k", "0", "--n", "5", "--augmented", "--multivariate"
    )
    assert code == 0 and out.count(": 1") == 2 and "AGREE" in out


def test_compute_disagreement_reporting():
    from chowpoly.cli import _first_difference

    a, b = UniPoly((1, 2)), UniPoly((1, 3))
    msg = _first_difference({"m1": a, "m2": b})
    assert "at x^1: 3 vs 2" in msg


def test_compute_multivariate_disagreement_reporting():
    from chowpoly.cli import _first_difference

    a = multivariate_closed_form(4, 6, "monomial")
    off = list(a.coeffs)
    off[0b101] += 1  # the monomial x1*x3
    b = SqfMultiPoly.from_dense(a.var_range, off)
    msg = _first_difference({"monomial": a, "gamma": a, "wrong": b})
    assert msg == f"wrong vs monomial at (1, 3): {a.coeffs[0b101] + 1} vs {a.coeffs[0b101]}"
    # the lowest differing term in (degree, index tuple) order is reported
    off[0b110] -= 1  # x2*x3, of the same degree but later
    off[0b111] += 1  # x1*x2*x3
    b = SqfMultiPoly.from_dense(a.var_range, off)
    assert _first_difference({"m": a, "w": b}).startswith("w vs m at (1, 3): ")
    c = brute_multipoly((0, 2), {(): 1})
    msg = _first_difference({"m1": brute_multipoly((1, 2), {(): 1}), "m2": c})
    assert msg == "m2 vs m1: variables (0, 2) vs (1, 2)"


def test_compute_invalid_domain(capsys):
    code, _, err = run(capsys, "compute", "--k", "9", "--n", "4")
    assert code == 2
    assert "error" in err


def test_compute_domain_hint_only_for_rank_zero(capsys):
    code, _, err = run(capsys, "compute", "--k", "0", "--n", "3")
    assert code == 2
    assert "rank k=0 out of domain 1 <= k <= n for n=3" in err
    assert "(k = 0 is only defined for the augmented polynomial)" in err
    code, _, err = run(capsys, "compute", "--k", "-1", "--n", "3")
    assert code == 2
    assert "rank k=-1 out of domain 1 <= k <= n for n=3" in err
    assert "k = 0" not in err
    code, _, err = run(capsys, "compute", "--k", "-1", "--n", "3", "--augmented")
    assert code == 2
    assert "rank k=-1 out of domain 0 <= k <= n for n=3" in err
    assert "k = 0" not in err


def test_compute_multivariate(capsys):
    code, out, _ = run(
        capsys, "compute", "--k", "2", "--n", "2", "--multivariate"
    )
    assert code == 0
    assert "monomial: 1 + x1" in out
    assert "AGREE" in out
    code, _, err = run(
        capsys,
        "compute", "--k", "2", "--n", "2", "--multivariate", "--method", "convolution",
    )
    assert code == 2
    assert "multivariate" in err
    # and the other way round: 'gamma' is a basis, not a univariate method
    code, out, err = run(capsys, "compute", "--k", "3", "--n", "5", "--method", "gamma")
    assert code == 2
    assert out == ""
    assert "gamma-eulerian and gamma-perm" in err


def test_compute_csv(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--k", "3", "--n", "5", "--method", "monomial", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,power,coefficient"
    parsed = [ln.split(",") for ln in lines[1:]]
    assert [int(row[2]) for row in parsed] == [1, 11, 1]
    code, out, _ = run(
        capsys, "compute", "--k", "3", "--n", "4", "--multivariate", "--format", "csv"
    )
    assert code == 0
    terms = ["-,1", "1,1", "2,6", "1 2,1"]  # 1 + x1 + 6*x2 + x1*x2
    assert out.splitlines() == ["method,variables,coefficient"] + [
        f"{basis},{term}" for basis in ("monomial", "gamma") for term in terms
    ]


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("method", ["all", *forms.MULTIVARIATE_BASES])
def test_multivariate_writers_match_the_payload_and_the_brute_terms(capsys, method, augmented):
    bases = forms.MULTIVARIATE_BASES if method == "all" else (method,)
    flag = ["--augmented"] if augmented else []
    for k in range(0 if augmented else 1, 13):
        n = k + k % 3
        argv = ["compute", "--k", str(k), "--n", str(n), "--multivariate", "--method", method]
        results = {b: multivariate_closed_form(k, n, b, augmented) for b in bases}
        payload = {
            "k": k,
            "n": n,
            "augmented": augmented,
            "multivariate": True,
            "results": {b: brute_json_document(p) for b, p in results.items()},
        }
        if method == "all":
            payload["agree"] = True
        assert run(capsys, *argv, *flag, "--format", "json") == (0, json.dumps(payload) + "\n", "")
        lines = ["method,variables,coefficient"]
        for b, p in results.items():
            brute = dict(zip(brute_subsets(*p.var_range), p.coeffs))
            lines += [
                f"{b},{' '.join(map(str, key)) or '-'},{c}" for key, c in brute_sorted_terms(brute)
            ]
        assert run(capsys, *argv, *flag, "--format", "csv") == (0, "\n".join(lines) + "\n", "")


def test_univariate_json_matches_the_payload(capsys):
    for k in range(1, 13):
        results = {m: forms.closed_form(k, 2 * k, m) for m in forms.METHODS}
        payload = {
            "k": k,
            "n": 2 * k,
            "augmented": False,
            "multivariate": False,
            "results": {m: p.to_json() for m, p in results.items()},
            "agree": True,
        }
        argv = ["compute", "--k", str(k), "--n", str(2 * k), "--format", "json"]
        assert run(capsys, *argv) == (0, json.dumps(payload) + "\n", "")


def test_oracle_equal(capsys):
    code, out, _ = run(capsys, "oracle", "--k", "3", "--n", "5")
    assert code == 0
    assert "EQUAL" in out
    code, out, _ = run(capsys, "oracle", "--k", "1", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_oracle_csv_per_coefficient(capsys):
    code, out, _ = run(
        capsys, "oracle", "--k", "2", "--n", "4", "--format", "csv", "--augmented"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "power,oracle,closed_form,equal"
    assert all(ln.endswith("true") for ln in lines[1:])


@pytest.fixture
def gamma_perm_plus_x(monkeypatch):
    """The CLI's closed forms, with x added to every gamma_perm result."""
    real = cli.closed_form

    def closed_form(k, n, method="monomial", augmented=False):
        p = real(k, n, method, augmented)
        return p + UniPoly.x() if method == "gamma_perm" else p

    monkeypatch.setattr(cli, "closed_form", closed_form)


def test_oracle_reports_a_wrong_non_reference_form(capsys, gamma_perm_plus_x):
    # U(3, 4) has Chow polynomial 1 + 7x + x^2; only gamma_perm is off
    code, out, err = run(capsys, "oracle", "--k", "3", "--n", "4")
    assert (code, err) == (1, "")
    assert "gamma_perm: 1 + 8*x + x^2" in out.splitlines()
    assert [ln for ln in out.splitlines() if "MISMATCH" in ln] == [
        "MISMATCH: gamma_perm vs oracle at x^1: 8 vs 7"
    ]
    code, out, _ = run(capsys, "oracle", "--k", "3", "--n", "4", "--format", "csv")
    assert code == 1
    assert out.splitlines() == [
        "power,oracle,closed_form,equal",
        "0,1,1,true",
        "1,7,7,false",
        "2,1,1,true",
    ]
    code, out, _ = run(capsys, "oracle", "--k", "3", "--n", "4", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["equal"] is False
    assert payload["closed_forms"]["gamma_perm"] == ["1", "8", "1"]


def test_oracle_resource_guard(capsys):
    # the oracle takes every ground size that uniform does
    code, out, err = run(capsys, "oracle", "--k", "2", "--n", "17")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: uniform matroid needs 0 <= k <= n <= 16, got k=2, n=17"
    ]


def test_census_text_with_verify(capsys):
    code, out, _ = run(capsys, "census", "--n", "4", "--verify")
    assert code == 0
    assert "counting formula cells: PASS" in out
    assert "coefficient counts k=4: PASS" in out


def test_census_verify_fails_on_a_doctored_table(capsys, monkeypatch):
    table = census(4)
    entries = dict(table.entries)
    entries[(2, 0, 3)] += 1
    monkeypatch.setattr("chowpoly.cli.census", lambda n: CensusTable(n, entries))
    code, out, _ = run(capsys, "census", "--n", "4", "--verify")
    assert code == 1
    assert "counting formula cells: FAIL" in out
    assert "coefficient counts k=1: PASS" in out
    assert "coefficient counts k=2: FAIL at x^1: coefficient 1 vs census 2" in out


def test_census_csv_roundtrip(capsys):
    code, out, _ = run(capsys, "census", "--n", "4", "--format", "csv")
    assert code == 0
    assert CensusTable.from_csv(4, out) == census(4)


def test_census_csv_verify_reports_on_stderr(capsys):
    code, out, err = run(capsys, "census", "--n", "4", "--verify", "--format", "csv")
    assert code == 0
    assert CensusTable.from_csv(4, out) == census(4)
    assert err.splitlines() == ["counting formula cells: PASS"] + [
        f"coefficient counts k={k}: PASS" for k in range(1, 5)
    ]


def test_census_json_with_verification(capsys):
    code, out, _ = run(
        capsys, "census", "--n", "3", "--verify", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["passed"] is True
    assert CensusTable.from_json(payload) == census(3)


def test_census_guard(capsys):
    code, _, err = run(capsys, "census", "--n", "9")
    assert code == 2
    assert "resource guard" in err


def test_guards_ignore_the_removed_env_override(capsys, monkeypatch):
    # the oracle's bound used to be raised by this environment variable
    monkeypatch.setenv("_".join(("CHOW", "MAX", "N")), "100")
    code, out, err = run(capsys, "oracle", "--k", "2", "--n", "17")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: uniform matroid needs 0 <= k <= n <= 16, got k=2, n=17"
    ]


def test_sequences_csv(capsys):
    code, out, _ = run(
        capsys,
        "sequences", "--coeff", "1", "--k", "3", "--n-from", "3", "--n-to", "6",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    values = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert values == [4, 7, 11, 16]


def test_sequences_text(capsys):
    code, out, _ = run(
        capsys, "sequences", "--coeff", "1", "--k", "3", "--n-from", "3", "--n-to", "6"
    )
    assert code == 0
    assert out.splitlines() == ["n=3: 4", "n=4: 7", "n=5: 11", "n=6: 16"]


def test_sequences_match_extraction(capsys):
    from chowpoly import closed_form

    code, out, _ = run(
        capsys,
        "sequences", "--coeff", "2", "--k", "5", "--n-from", "5", "--n-to", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    for row in payload["values"]:
        n, value = int(row["n"]), int(row["value"])
        assert value == closed_form(5, n, "monomial")[2]


def test_sequences_all_ones_for_rank_two(capsys):
    code, out, _ = run(
        capsys,
        "sequences", "--coeff", "1", "--k", "2", "--n-from", "2", "--n-to", "9",
        "--format", "csv",
    )
    assert code == 0
    assert all(ln.endswith(",1") for ln in out.strip().splitlines()[1:])


def test_sequences_validates_range(capsys):
    code, _, err = run(
        capsys, "sequences", "--coeff", "1", "--k", "5", "--n-from", "3", "--n-to", "6"
    )
    assert code == 2
    assert "k <= n-from" in err
    code, _, err = run(
        capsys, "sequences", "--coeff", "1", "--k", "3", "--n-from", "6", "--n-to", "5"
    )
    assert code == 2
    assert "n-from <= n-to" in err


def test_sequences_refuse_long_range_before_any_value(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a value was computed before the range was checked")

    monkeypatch.setattr(cli, "coefficient_formula", no_work)
    code, out, err = run(
        capsys,
        "sequences", "--coeff", "2", "--k", "3", "--n-from", "3", "--n-to", "1000000000",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: sequences is capped at 1000 values of n, got 999999998"
    ]


def test_sequences_reach_their_bound(capsys):
    last = 2 + cli.SEQUENCES_MAX_ROWS
    code, out, _ = run(
        capsys,
        "sequences", "--coeff", "1", "--k", "3", "--n-from", "3", "--n-to", str(last),
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + cli.SEQUENCES_MAX_ROWS
    assert lines[-1].startswith(f"{last},")


def test_matroid_export_import(tmp_path, capsys):
    out_file = tmp_path / "m.json"
    code, out, _ = run(
        capsys,
        "matroid", "--uniform", "--k", "2", "--n", "4", "--output", str(out_file),
    )
    assert code == 0
    assert "rank 2" in out
    data = json.loads(out_file.read_text())
    assert data == matroid_to_json(uniform(2, 4))

    code, out, _ = run(
        capsys, "matroid", "--input", str(out_file), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bases"] == data["bases"]
    assert payload["girth"] == 3
    # stdout is compact JSON on one line; the exported file stays indented
    assert out.count("\n") == 1
    assert out_file.read_text().startswith('{\n  "n": 4,')


def test_matroid_reads_stdin(capsys, monkeypatch):
    text = json.dumps(matroid_to_json(uniform(2, 3)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "matroid", "--input", "-", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,rank,bases,loops,coloops,girth,cogirth", "3,2,3,0,0,3,2"]


def test_matroid_uniform_needs_k_and_n(capsys):
    code, out, err = run(capsys, "matroid", "--uniform", "--n", "4")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: --uniform requires --k and --n"


def test_matroid_import_rejects_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "bases": [[1, 2], [3]]}))
    code, _, err = run(capsys, "matroid", "--input", str(bad))
    assert code == 2
    assert "unequal size" in err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"rank": 1, "bases": [[1]]}, 'integer "n"'),
        ({"n": 2, "rank": 1, "bases": [["a"]]}, "lists of integers"),
        ({"n": 3, "bases": [[1, 1]]}, "element 1 repeated"),
        ({"n": 13, "bases": [[1, 2], [3, 4]]}, "not a matroid"),
        ([[1, 2]], "must be an object"),
        ({"n": 2, "rank": "1", "bases": [[1]]}, '"rank" must be an integer'),
    ],
)
def test_matroid_import_rejects_malformed_json(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "matroid", "--input", str(bad))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


def test_matroid_output_to_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "matroid", "--uniform", "--k", "2", "--n", "3", "--output", str(target)
    )
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(target) in lines[0]


@pytest.mark.parametrize("k", ["40", str(forms.EXPONENTIAL_RANK_MAX + 1)])
@pytest.mark.parametrize(
    "extra",
    [
        [],
        ["--method", "gamma-eulerian"],
        ["--multivariate"],
        ["--multivariate", "--method", "monomial"],
        ["--multivariate", "--method", "gamma"],
    ],
)
def test_compute_exponential_forms_refuse_large_rank(capsys, no_form_work, extra, k):
    code, out, err = run(capsys, "compute", "--k", k, "--n", k, *extra)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith("; use monomial, gamma_perm or convolution")


@pytest.mark.parametrize("k", ["40", str(forms.EXPONENTIAL_RANK_MAX + 1)])
@pytest.mark.parametrize("method", ["monomial", "gamma-perm", "convolution"])
def test_compute_polynomial_forms_reach_large_rank(capsys, method, k):
    code, out, _ = run(capsys, "compute", "--k", k, "--n", k, "--method", method)
    assert code == 0
    assert out.startswith(f"{method.replace('-', '_')}: 1 + ")


def test_compute_method_choices_come_from_the_table():
    commands = next(a for a in cli._parser()._actions if a.dest == "command")
    method = next(a for a in commands.choices["compute"]._actions if a.dest == "method")
    hyphenated = tuple(m.replace("_", "-") for m in forms.METHODS)
    assert method.choices == ("all", "gamma") + hyphenated
    assert hyphenated == ("monomial", "gamma-eulerian", "gamma-perm", "convolution")


@pytest.fixture
def no_form_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the rank was checked")

    for table in (forms._FORMS, forms._BASES):
        for name, row in table.items():
            monkeypatch.setitem(table, name, row._replace(function=no_work))
    monkeypatch.setattr(forms, "comb", no_work)
    # the chain oracle stops after its checks, where the lattice build would begin
    monkeypatch.setattr(matroid, "flats_lattice", no_work)


@pytest.mark.parametrize(
    "argv, form",
    [
        ("compute --k 257 --n 257 --method monomial", "monomial"),
        ("compute --k 257 --n 257 --method gamma-perm", "gamma_perm"),
        ("compute --k 257 --n 257 --method convolution", "convolution"),
        ("sequences --coeff 2 --k 257 --n-from 257 --n-to 257", "coefficient_formula"),
    ],
    ids=["monomial", "gamma-perm", "convolution", "sequences"],
)
def test_polynomial_forms_refuse_rank_above_bound(capsys, no_form_work, argv, form):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {form} is capped at rank k <= 256, got k=257"]


def test_compute_help_says_all_refuses_out_of_bound_ranks(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert (
        "'all' runs every method and compares them, and exits 2 when any is out of its bound"
        in text
    )
    assert "every applicable one" not in text


def test_compute_all_checks_every_rank_bound_first(capsys, no_form_work):
    # monomial admits k = 200; gamma_eulerian, second in METHODS, does not
    code, out, err = run(capsys, "compute", "--k", "200", "--n", "200")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: the gamma_eulerian form is exponential in k and capped at k <= 18, "
        "got k=200; use monomial, gamma_perm or convolution"
    ]


HUGE_N = str(10**400)  # 1329 bits: 12 * 1330 bits reach 4805 digits


@pytest.mark.parametrize(
    "argv",
    [
        f"compute --k 12 --n {HUGE_N}",
        f"compute --k 12 --n {HUGE_N} --format csv",
        f"compute --k 12 --n {HUGE_N} --multivariate --format json",
        f"sequences --coeff 2 --k 12 --n-from {HUGE_N} --n-to {HUGE_N}",
    ],
    ids=["compute", "compute-csv", "multivariate", "sequences"],
)
def test_coefficients_too_long_to_print_are_refused_first(
    capsys, monkeypatch, no_form_work, argv
):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: coefficients at k=12 and a 1329-bit n can have 4805 digits, "
        "more than the 4300 that Python converts to a string"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        f"compute --k {HUGE_N} --n {HUGE_N}",
        f"sequences --coeff 2 --k {HUGE_N} --n-from {HUGE_N} --n-to {HUGE_N}",
        f"compute --k {HUGE_N} --n 5",
        f"oracle --k {HUGE_N} --n {HUGE_N}",
        f"census --n {HUGE_N}",
        f"matroid --uniform --k {HUGE_N} --n {HUGE_N}",
        f"sequences --coeff 2 --k 1 --n-from 1 --n-to {HUGE_N}",
    ],
    ids=["compute", "sequences", "compute-small-n", "oracle", "census", "matroid", "rows"],
)
def test_refusals_of_huge_arguments_are_short(capsys, monkeypatch, no_form_work, argv):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    [line] = err.splitlines()
    # each 401-digit argument is shown by its digit count
    assert line.startswith("error: ") and "<401-digit int>" in line and len(line) < 200, line


def test_coefficients_up_to_the_digit_bound_are_admitted(capsys, monkeypatch):
    # 10^300 has 997 bits: 12 * 998 bits make at most 3605 digits
    n = str(10**300)
    code, out, _ = run(capsys, "sequences", "--coeff", "2", "--k", "12", "--n-from", n, "--n-to", n)
    assert code == 0
    assert out.startswith(f"n={n}: ")
    # a limit of 0 admits every length, and the bit bound holds
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    big = 10**400
    for method in forms.METHODS:
        p = forms.closed_form(12, big, method)
        longest = max(c.bit_length() for c in p)
        assert 4300 * 3.33 < longest <= 12 * (big.bit_length() + 1), method


# small values, each bound of the CLI with its two neighbours, and one value
# past every bound
SIZES = st.one_of(
    st.integers(-1, 10),
    st.sampled_from([
        b + d
        for b in (MAX_EXHAUSTIVE_N, MAX_GROUND, forms.EXPONENTIAL_RANK_MAX, forms.RANK_MAX)
        for d in (-1, 0, 1)
    ]),
    st.just(10**400),
)


@st.composite
def parsed_argvs(draw):
    """An argument list the parser accepts, drawn from its own commands,
    choices and flags; a sequences range has fewer than 20 rows."""
    commands = next(a for a in cli._parser()._actions if a.dest == "command").choices
    command = draw(st.sampled_from(sorted(commands)))
    argv, drawn = [command], {}
    for action in commands[command]._actions:
        flag = action.option_strings[-1]
        if action.dest in ("help", "input", "output"):
            continue  # the matroid tests read and write the files
        if action.dest == "uniform":
            argv.append(flag)  # one of --uniform and --input is required
        elif action.nargs == 0:
            argv += [flag] * draw(st.booleans())
        elif action.dest == "n_to":
            argv += [flag, str(drawn["n_from"] + draw(st.integers(-1, 18)))]
        elif action.required or draw(st.booleans()):
            values = SIZES if action.choices is None else st.sampled_from(action.choices)
            drawn[action.dest] = draw(values)
            argv += [flag, str(drawn[action.dest])]
    return argv


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=parsed_argvs())
@example(argv=["compute", "--k", HUGE_N, "--n", HUGE_N])  # once a float overflow
@example(argv=["sequences", "--coeff", "1", "--k", HUGE_N, "--n-from", HUGE_N, "--n-to", HUGE_N])
def test_every_parsed_argv_ends_in_an_exit_code_or_a_form(capsys, no_form_work, argv):
    try:
        code = main(argv)
    except AssertionError as exc:
        # the checks admitted the arguments and a stubbed form started
        assert str(exc) == "work started before the rank was checked", argv
        return
    finally:
        out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        assert len(lines[0]) < 200, (argv, err)
