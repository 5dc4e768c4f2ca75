import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chowpoly
from chowpoly import CensusTable, UniPoly, census, forms, matroid_to_json, uniform
from chowpoly.cli import main


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
    "args, loads_numpy",
    [
        (["-c", "import chowpoly"], False),
        (["-m", "chowpoly", "compute", "--k", "10", "--n", "12"], False),
        (["-m", "chowpoly", "oracle", "--k", "4", "--n", "4"], False),
        (["-m", "chowpoly", "census", "--n", "3"], True),
    ],
)
def test_numpy_is_imported_only_by_census(args, loads_numpy):
    assert ("numpy" in _imported_top_level_modules(*args)) is loads_numpy


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
        assert UniPoly.from_json(coeffs) == UniPoly((1, 26, 66, 26, 1))


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


def test_oracle_resource_guard(capsys):
    code, _, err = run(capsys, "oracle", "--k", "2", "--n", "9")
    assert code == 2
    assert "resource guard" in err


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
    # the n <= 8 bound used to be raised by this environment variable
    monkeypatch.setenv("_".join(("CHOW", "MAX", "N")), "100")
    code, out, err = run(capsys, "oracle", "--k", "2", "--n", "9")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: oracle(n=9) exceeds the resource guard n <= 8"
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


@pytest.mark.parametrize(
    "extra",
    [[], ["--method", "gamma-eulerian"], ["--multivariate"]],
)
def test_compute_exponential_forms_refuse_large_rank(capsys, extra):
    code, out, err = run(capsys, "compute", "--k", "40", "--n", "40", *extra)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "use monomial, gamma_perm or convolution" in lines[0]


@pytest.mark.parametrize("method", ["monomial", "gamma-perm", "convolution"])
def test_compute_polynomial_forms_reach_large_rank(capsys, method):
    code, out, _ = run(capsys, "compute", "--k", "40", "--n", "40", "--method", method)
    assert code == 0
    assert out.startswith(f"{method.replace('-', '_')}: 1 + ")


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
def test_polynomial_forms_refuse_rank_above_bound(capsys, monkeypatch, argv, form):
    def no_work(*args):
        raise AssertionError("work started before the rank was checked")

    for name in forms.METHODS:
        monkeypatch.setitem(forms._FORMS, name, no_work)
    monkeypatch.setattr(forms, "comb", no_work)
    monkeypatch.setattr(forms, "multinomial", no_work)
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {form} is capped at rank k <= 256, got k=257"]
