"""Command-line interface.

Subcommands: ``compute`` (closed forms, univariate or multivariate),
``oracle`` (chain-counting cross-check), ``census`` (Schubert-matroid table,
optionally verified against the counting formula and the coefficient
identities), ``sequences`` (coefficient tables over a range of ground
sizes), and ``matroid`` (JSON import/export of explicit matroids).

All numeric output in json/csv formats uses decimal strings so big integers
survive downstream tools.  Exit status is 0 only when every requested
verification passes; domain, resource and I/O errors exit with status 2
with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from . import __version__
from .forms import (
    METHODS,
    MULTIVARIATE_BASES,
    checked_form,
    closed_form,
    coefficient_formula,
)
from .matroid import (
    INFINITY,
    chain_chow,
    matroid_from_json,
    matroid_to_json,
    uniform,
)
from .polynomial import SqfMultiPoly, UniPoly, _show_int
from .schubert import (
    census,
    census_matches_formula,
    verify_coefficient_counts,
)

FORMATS = ("text", "json", "csv")

# Longest range of n that ``sequences`` evaluates, checked before the first
# row.  A row costs well under 1 ms at small k and 7-30 ms for the
# coefficient of x^2 at k = 256 (n = 256 to 100000; 2 CPUs, Python 3.11.7),
# so the longest admitted range at k = 256 takes 12-14 s.
SEQUENCES_MAX_ROWS = 1000


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chowpoly",
        description="Exact Chow and augmented Chow polynomials of uniform matroids.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("compute", help="evaluate the closed forms")
    p.add_argument("--k", type=int, required=True, help="rank of the uniform matroid")
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument(
        "--method",
        default="all",
        choices=("all", "gamma") + tuple(m.replace("_", "-") for m in METHODS),
        help="expansion to use; 'all' runs every method and compares them, "
        "and exits 2 when any is out of its bound",
    )
    p.add_argument("--augmented", action="store_true")
    p.add_argument(
        "--multivariate",
        action="store_true",
        help="emit the multivariate refinement (methods: monomial, gamma, all)",
    )
    add_format(p)

    p = sub.add_parser("oracle", help="compare the chain oracle with the closed forms")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--augmented", action="store_true")
    add_format(p)

    p = sub.add_parser("census", help="census of Schubert matroids on {1..n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="check counting formula and coefficients")
    add_format(p)

    p = sub.add_parser("sequences", help="coefficient values over a range of n")
    p.add_argument("--coeff", type=int, choices=(1, 2), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--augmented", action="store_true")
    add_format(p)

    p = sub.add_parser("matroid", help="import/export matroids in the JSON exchange format")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--uniform", action="store_true", help="build a uniform matroid from --k/--n")
    group.add_argument("--input", help="read a matroid from a JSON file ('-' for stdin)")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--output", help="write the canonical JSON form to a file")
    add_format(p)

    return top


def _print_json(payload: dict) -> None:
    _write_json(payload)
    sys.stdout.write("\n")


def _write_json(value) -> None:
    """Write ``json.dumps`` of ``value`` to stdout, with a UniPoly in place of
    its ``to_json()`` and a SqfMultiPoly written term by term from its
    ``json_pieces()``, so that no string of all its terms is built.  Dict
    keys must be strings."""
    # no indent: the C encoder runs, several times faster on big payloads
    if isinstance(value, dict):
        sys.stdout.write("{")
        for i, (key, item) in enumerate(value.items()):
            sys.stdout.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(item)
        sys.stdout.write("}")
    elif isinstance(value, SqfMultiPoly):
        sys.stdout.writelines(value.json_pieces())
    else:
        sys.stdout.write(json.dumps(value.to_json() if isinstance(value, UniPoly) else value))


def _poly_terms_csv(label: str, poly: UniPoly) -> Iterator[str]:
    return (f"{label},{i},{c}\n" for i, c in enumerate(poly.coeffs))


def _multipoly_terms_csv(label: str, poly: SqfMultiPoly) -> Iterator[str]:
    return (f"{label},{' '.join(k) or '-'},{c}\n" for k, c in poly.labelled_terms(str))


def _cmd_compute(args) -> int:
    augmented = args.augmented
    table = MULTIVARIATE_BASES if args.multivariate else METHODS
    methods = table if args.method == "all" else (args.method.replace("-", "_"),)
    if methods[0] not in table:  # argparse admits only 'all', 'gamma' and METHODS
        raise ValueError(
            f"method {args.method!r} has no multivariate form "
            f"(choose from {MULTIVARIATE_BASES} or all)"
            if args.multivariate
            else "'gamma' is a multivariate basis; univariate gamma methods are "
            "gamma-eulerian and gamma-perm"
        )
    # every bound before any form runs: 'all' would otherwise finish
    # monomial before gamma_eulerian refuses the rank
    runs = [checked_form(args.k, args.n, m, augmented, args.multivariate) for m in methods]
    results = {m: run() for m, run in zip(methods, runs)}
    difference = _first_difference(results)

    if args.format == "json":
        payload = {
            "k": args.k,
            "n": args.n,
            "augmented": augmented,
            "multivariate": args.multivariate,
            "results": results,
        }
        if len(results) > 1:
            payload["agree"] = difference is None
        _print_json(payload)
    elif args.format == "csv":
        print(f"method,{'variables' if args.multivariate else 'power'},coefficient")
        rows = _multipoly_terms_csv if args.multivariate else _poly_terms_csv
        for m, p in results.items():
            sys.stdout.writelines(rows(m, p))
    else:
        for m, p in results.items():
            print(f"{m}: {p.render()}")
        if len(results) > 1:
            print("AGREE" if difference is None else f"DISAGREE: {difference}")
    return 0 if difference is None else 1


def _first_difference(results: dict) -> str | None:
    """None if every result equals the first; else the variables, or the first
    coefficient in ``monomials`` order, where the first that differs leaves it."""
    (ref_name, ref), *rest = results.items()
    for name, got in rest:
        if got == ref:
            continue
        if isinstance(ref, UniPoly):
            width = max(ref.degree, got.degree) + 1
            diffs = ((f"x^{i}", got[i], ref[i]) for i in range(width))
        elif got.var_range != ref.var_range:
            return f"{name} vs {ref_name}: variables {got.var_range} vs {ref.var_range}"
        else:
            diffs = ((k, got.coeffs[q], ref.coeffs[q]) for k, q in ref.monomials())
        for at, a, b in diffs:
            if a != b:
                return f"{name} vs {ref_name} at {at}: {a} vs {b}"
    return None


def _cmd_oracle(args) -> int:
    oracle_poly = chain_chow(uniform(args.k, args.n), augmented=args.augmented)
    closed = {m: closed_form(args.k, args.n, m, args.augmented) for m in METHODS}
    difference = _first_difference({"oracle": oracle_poly, **closed})
    if args.format == "json":
        _print_json(
            {
                "k": args.k,
                "n": args.n,
                "augmented": args.augmented,
                "oracle": oracle_poly.to_json(),
                "closed_forms": {m: p.to_json() for m, p in closed.items()},
                "equal": difference is None,
            }
        )
    elif args.format == "csv":
        # closed_form is the monomial form; equal covers every closed form
        print("power,oracle,closed_form,equal")
        width = max(p.degree for p in (oracle_poly, *closed.values())) + 1
        for i in range(width):
            equal = all(p[i] == oracle_poly[i] for p in closed.values())
            print(f"{i},{oracle_poly[i]},{closed['monomial'][i]},{str(equal).lower()}")
    else:
        print(f"oracle:      {oracle_poly.render()}")
        for m, p in closed.items():
            print(f"{m}: {p.render()}")
        print("EQUAL" if difference is None else f"MISMATCH: {difference}")
    return 0 if difference is None else 1


def _verification_report(n: int, table) -> tuple[bool, list[str]]:
    lines = []
    formula_ok = census_matches_formula(table)
    lines.append(f"counting formula cells: {'PASS' if formula_ok else 'FAIL'}")
    all_ok = formula_ok
    for k in range(1, n + 1):
        rep = verify_coefficient_counts(k, n, table)
        if rep.passed:
            lines.append(f"coefficient counts k={k}: PASS")
        else:
            bad = rep.first_mismatch()
            lines.append(
                f"coefficient counts k={k}: FAIL at "
                f"{'augmented ' if bad.augmented else ''}x^{bad.power}: "
                f"coefficient {bad.coefficient} vs census {bad.census_count}"
            )
            all_ok = False
    return all_ok, lines


def _cmd_census(args) -> int:
    table = census(args.n)
    ok = True
    report_lines: list[str] = []
    if args.verify:
        ok, report_lines = _verification_report(args.n, table)

    if args.format == "json":
        payload = table.to_json()
        if args.verify:
            payload["verification"] = {"passed": ok, "report": report_lines}
        _print_json(payload)
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
        for line in report_lines:
            print(line, file=sys.stderr)
    else:
        print(f"distinct Schubert matroids on 1..{args.n}: {table.total}")
        print("rank loops cogirth count")
        for r, l, g, c in table.rows():
            print(f"{r:4d} {l:5d} {g!s:>7} {c:5d}")
        for line in report_lines:
            print(line)
    return 0 if ok else 1


def _cmd_sequences(args) -> int:
    if args.k > args.n_from:
        raise ValueError("need k <= n-from")
    if args.n_to < args.n_from:
        raise ValueError("need n-from <= n-to")
    if args.n_to - args.n_from >= SEQUENCES_MAX_ROWS:
        raise ValueError(
            f"sequences is capped at {SEQUENCES_MAX_ROWS} values of n, "
            f"got {_show_int(args.n_to - args.n_from + 1)}"
        )
    rows = [
        (n, coefficient_formula(args.k, n, args.coeff, args.augmented))
        for n in range(args.n_from, args.n_to + 1)
    ]
    if args.format == "json":
        _print_json(
            {
                "k": args.k,
                "coeff": args.coeff,
                "augmented": args.augmented,
                "values": [{"n": n, "value": str(v)} for n, v in rows],
            }
        )
    elif args.format == "csv":
        print("n,value")
        for n, v in rows:
            print(f"{n},{v}")
    else:
        for n, v in rows:
            print(f"n={n}: {v}")
    return 0


def _cmd_matroid(args) -> int:
    if args.uniform:
        if args.k is None or args.n is None:
            raise ValueError("--uniform requires --k and --n")
        m = uniform(args.k, args.n)
    elif args.input == "-":
        m = matroid_from_json(json.load(sys.stdin))
    else:
        with open(args.input) as fh:
            m = matroid_from_json(json.load(fh))
    payload = matroid_to_json(m)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    loops, coloops = m.loops(), m.coloops()
    girth, cogirth = (
        "inf" if g == INFINITY else g for g in (m.girth(), m.cogirth())
    )
    if args.format == "json":
        _print_json(
            {
                **payload,
                "loops": list(loops),
                "coloops": list(coloops),
                "girth": girth,
                "cogirth": cogirth,
            }
        )
    elif args.format == "csv":
        print("n,rank,bases,loops,coloops,girth,cogirth")
        print(
            f"{m.n},{m.rank},{len(m.bases)},{len(loops)},{len(coloops)},"
            f"{girth},{cogirth}"
        )
    else:
        print(f"matroid on 1..{m.n}, rank {m.rank}, {len(m.bases)} bases")
        print(f"loops: {list(loops)}  coloops: {list(coloops)}")
        print(f"girth: {girth}  cogirth: {cogirth}")
    return 0


_DISPATCH = {
    "compute": _cmd_compute,
    "oracle": _cmd_oracle,
    "census": _cmd_census,
    "sequences": _cmd_sequences,
    "matroid": _cmd_matroid,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        # MatroidError, ResourceLimitError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
