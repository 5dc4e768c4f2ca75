"""One round of one benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 bench/rounds.py --workload forms --seed 1 [--trace]

A round calls chowpoly's public API (or, for ``cli``, its command line in
subprocesses), times only those calls, checks every output against the
witnesses in ``witnesses.py`` and prints one JSON object on its last line:
wall and CPU seconds of the program's calls, in total and per call, peak
RSS, operations attempted and failed, the problems found by the checks, and,
with ``--trace``, the per-layer metrics of the workload.  The seed only
shuffles the order in which the fixed inputs are visited, so every round of
one seed makes the same calls in the same order.
"""

import chowpoly  # first, so that nothing else is charged to the import

import argparse
import json
import random
import resource
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path
from time import perf_counter, process_time

import witnesses as w

METHODS = ("monomial", "gamma_eulerian", "gamma_perm", "convolution")
BASES = ("monomial", "gamma")
FORMS_TOP = 9  # grid 1 <= k <= n <= FORMS_TOP
WIDE_POINT = (16, 30)  # coefficients beyond 2^63; gamma_perm's k! scan is skipped
CENSUS_NS = (5, 6, 7, 8)
ORACLE_TOP = 8  # the default resource guard of the oracle and the census
CLI_TIMEOUT_S = 120


class Round:
    """Accounts for the program's calls and the problems the checks find."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.ops: list[tuple[str, float, float]] = []  # (label, wall, cpu) per call
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.scopes: dict[str, dict[str, float]] = {}
        self.enter("all")

    def enter(self, scope: str) -> None:
        """Direct later layer times and counts to the named scope."""
        self.current = self.scopes.setdefault(scope, {})

    def add(self, key: str, seconds: float) -> None:
        self.current[key] = self.current.get(key, 0.0) + seconds

    def count(self, key: str, n: int) -> None:
        self.current[key] = self.current.get(key, 0) + n

    def peak(self, key: str, value: float) -> None:
        self.current[key] = max(self.current.get(key, 0), value)

    def call(self, label: str, fn, *args):
        """Run one operation of the program; None when it raised."""
        self.attempted += 1
        c0 = process_time()
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.notes.append(f"{label}{args!r}: {type(exc).__name__}: {exc}")
            return None
        finally:
            dt = perf_counter() - t0
            self.account(label, dt, process_time() - c0)

    def account(self, label: str, wall: float, cpu: float) -> None:
        self.wall += wall
        self.cpu += cpu
        self.ops.append((label, wall, cpu))
        self.add(label, wall)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def check_chow(rnd: Round, k: int, n: int, augmented: bool, coeffs, where: str):
    """Properties, coefficient formulas and boundary identities of one value."""
    for problem in w.chow_properties(coeffs, k if augmented else k - 1):
        rnd.expect(False, f"{where}: {problem}")
    for m in (1, 2):
        got = coeffs[m] if m < len(coeffs) else 0
        want = chowpoly.coefficient_formula(k, n, m, augmented)
        rnd.expect(got == want, f"{where}: x^{m} is {got}, coefficient_formula {want}")
    if not augmented and k == n:
        rnd.expect(tuple(coeffs) == w.eulerian(n), f"{where}: not the Eulerian polynomial")
    if augmented and k == n - 1:
        rnd.expect(tuple(coeffs) == w.eulerian(n), f"{where}: not the Eulerian polynomial")
    if not augmented and k == n - 1:
        rnd.expect(
            (0, *coeffs) == w.derangement(n), f"{where}: x*chow is not the derangement polynomial"
        )


def _where(k: int, n: int, augmented: bool) -> str:
    return f"({k}, {n}{', augmented' if augmented else ''})"


# -- forms ---------------------------------------------------------------------


def forms(rnd: Round, rng: random.Random) -> None:
    points = [(k, n) for n in range(1, FORMS_TOP + 1) for k in range(1, n + 1)]
    jobs = [(k, n, aug) for k, n in points + [WIDE_POINT] for aug in (False, True)]
    rng.shuffle(jobs)
    for k, n, aug in jobs:
        methods = [m for m in METHODS if (k, n) != WIDE_POINT or m != "gamma_perm"]
        uni = {
            m: rnd.call(f"forms.{m}", chowpoly.closed_form, k, n, m, aug) for m in methods
        }
        multi = {
            b: rnd.call(f"forms.mv_{b}", chowpoly.multivariate_closed_form, k, n, b, aug)
            for b in BASES
        }
        if None in uni.values() or None in multi.values():
            continue  # a failed operation is counted; there is nothing to check
        where = _where(k, n, aug)
        ref = uni["monomial"]
        for m, p in uni.items():
            rnd.expect(p == ref, f"{where}: {m} differs from monomial")
        for b, q in multi.items():
            rnd.expect(
                w.specialize(q.terms) == tuple(ref),
                f"{where}: multivariate {b} does not specialise to the closed form",
            )
        rnd.expect(multi["monomial"] == multi["gamma"], f"{where}: bases differ")
        check_chow(rnd, k, n, aug, tuple(ref), where)


def forms_layers(rnd: Round) -> dict:
    s = rnd.scopes["all"]
    layers = {f"forms.{m}_s": (s.get(f"forms.{m}", 0.0), "s") for m in METHODS}
    layers.update({f"forms.mv_{b}_s": (s.get(f"forms.mv_{b}", 0.0), "s") for b in BASES})
    layers["forms.evaluations"] = (rnd.attempted, "count")
    for key in (
        "kernels.perm_scan",
        "combinat.derangement_poly",
        "combinat.eulerian_fixed_descents",
    ):
        layers[f"{key}_s"] = (s.get(key, 0.0), "s")
    return layers


# -- census --------------------------------------------------------------------


def census(rnd: Round, rng: random.Random) -> None:
    # ascending n: the order of the census calls moves the peak RSS by ~8%
    for n in CENSUS_NS:
        rnd.enter(f"n{n}")
        table = rnd.call("schubert.census", chowpoly.census, n)
        if table is None:
            continue
        ok = rnd.call("schubert.verify", chowpoly.census_matches_formula, table)
        rnd.expect(ok is True, f"census({n}) does not match the counting formula")
        ks = list(range(1, n + 1))
        rng.shuffle(ks)
        for k in ks:
            rep = rnd.call("schubert.verify", chowpoly.verify_coefficient_counts, k, n, table)
            rnd.expect(rep is not None and rep.passed, f"census({n}): coefficient counts k={k}")
        text = rnd.call("schubert.csv", table.to_csv)
        back = rnd.call("schubert.csv", type(table).from_csv, n, text)
        rnd.expect(back == table, f"census({n}): CSV round trip differs")
        data = json.loads(json.dumps(rnd.call("schubert.json", table.to_json)))
        back = rnd.call("schubert.json", type(table).from_json, data)
        rnd.expect(back == table, f"census({n}): JSON round trip differs")
        rows = table.rows()
        rnd.expect(
            w.loopless_by_rank(rows) == w.expected_loopless_by_rank(n),
            f"census({n}): loopless counts by rank are not Eulerian numbers",
        )
        rnd.expect(table.total == sum(r[3] for r in rows), f"census({n}): total")
        pairs = rnd.current.get("schubert.pairs")  # traced rounds only
        if pairs is not None:
            want = w.census_pairs(n)
            rnd.expect(pairs == want, f"census({n}) swept {pairs} pairs, not {want}")


CENSUS_STAGES = (
    "kernels.perm_table",
    "kernels.relabel_table",
    "kernels.fingerprint",
    "kernels.classify",
)


def census_layers(rnd: Round) -> dict:
    s = rnd.scopes[f"n{max(CENSUS_NS)}"]
    layers = {f"{key}_s": (s.get(key, 0.0), "s") for key in CENSUS_STAGES}
    total = s.get("schubert.census", 0.0)
    staged = sum(s.get(key, 0.0) for key in CENSUS_STAGES)
    layers["schubert.dedupe_residual_s"] = (total - staged, "s")
    layers["schubert.census_s"] = (total, "s")
    layers["schubert.verify_s"] = (s.get("schubert.verify", 0.0), "s")
    pairs = s.get("schubert.pairs", 0)
    layers["schubert.pairs"] = (pairs, "count")
    layers["schubert.distinct"] = (s.get("schubert.distinct", 0), "count")
    layers["schubert.pairs_per_s"] = (pairs / total if total else 0.0, "1/s")
    layers["schubert.fingerprint_mb"] = (s.get("schubert.fingerprint_bytes", 0) / 2**20, "MB")
    return layers


# -- oracle --------------------------------------------------------------------


def oracle(rnd: Round, rng: random.Random) -> None:
    points = [(k, n) for n in range(1, ORACLE_TOP + 1) for k in range(1, n + 1)]
    rng.shuffle(points)
    flats = chains = 0
    for k, n in points:
        m = rnd.call("matroid.uniform", chowpoly.uniform, k, n)
        if m is None:
            continue
        lattice = rnd.call("matroid.lattice_check", chowpoly.flats_lattice, m)
        if lattice is not None:
            got = len(lattice.flats)
            rnd.expect(got == w.uniform_flats(k, n), f"U({k},{n}) has {got} flats")
            got = rnd.call("matroid.lattice_check", lattice.maximal_chain_count)
            rnd.expect(
                got == w.uniform_maximal_chains(k, n), f"U({k},{n}) has {got} maximal chains"
            )
        flats += w.uniform_flats(k, n)
        chains += w.uniform_maximal_chains(k, n)
        for aug in (False, True):
            p = rnd.call("matroid.chain_chow", chowpoly.chain_chow, m, aug)
            q = rnd.call("matroid.chain_chow_multivariate", chowpoly.chain_chow_multivariate, m, aug)
            ref = rnd.call("forms.monomial", chowpoly.closed_form, k, n, "monomial", aug)
            mref = rnd.call(
                "forms.mv_monomial", chowpoly.multivariate_closed_form, k, n, "monomial", aug
            )
            if None in (p, q, ref, mref):
                continue
            where = _where(k, n, aug)
            rnd.expect(p == ref, f"{where}: chain oracle differs from the closed form")
            rnd.expect(q == mref, f"{where}: multivariate chain oracle differs")
            rnd.expect(w.specialize(q.terms) == tuple(p), f"{where}: oracles disagree")
            check_chow(rnd, k, n, aug, tuple(p), where)
    # traced rounds only: each oracle call builds one lattice and walks
    # every maximal chain of it
    s = rnd.scopes["all"]
    for key, want in (("matroid.flats", 4 * flats), ("matroid.maximal_chains", 4 * chains)):
        got = s.get(key)
        rnd.expect(got is None or got == want, f"oracle {key} {got}, not {want}")


def oracle_layers(rnd: Round) -> dict:
    s = rnd.scopes["all"]
    layers = {
        f"{key}_s": (s.get(key, 0.0), "s")
        for key in (
            "matroid.flats_lattice",
            "matroid.chain_walk",
            "matroid.chain_chow",
            "matroid.chain_chow_multivariate",
        )
    }
    walk = s.get("matroid.chain_walk", 0.0)
    chains = s.get("matroid.maximal_chains", 0)
    layers["matroid.flats"] = (s.get("matroid.flats", 0), "count")
    layers["matroid.maximal_chains"] = (chains, "count")
    layers["matroid.chains_per_s"] = (chains / walk if walk else 0.0, "1/s")
    return layers


# -- cli -----------------------------------------------------------------------

CLI_GROUPS = ("startup", "compute", "census", "oracle", "sequences", "matroid")


class Cli:
    """Runs ``python -m chowpoly`` commands and accounts for them in a round.

    CPU time and peak RSS are those of the reaped children, read from
    ``RUSAGE_CHILDREN``; this process starts no other children.
    """

    def __init__(self, rnd: Round, workdir: Path):
        self.rnd = rnd
        self.workdir = workdir

    def run(self, group: str, args: list[str]) -> subprocess.CompletedProcess:
        rnd = self.rnd
        rnd.attempted += 1
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "chowpoly", *args],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            cwd=self.workdir,
        )
        dt = perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        rnd.account(f"cli.{group}", dt, cpu)
        return proc

    def ok(self, group: str, args: list[str]):
        """Run a command that must succeed; None (a failed operation) if not."""
        proc = self.run(group, args)
        if proc.returncode != 0:
            self.rnd.failed += 1
            self.rnd.notes.append(f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr[-300:]}")
            return None
        return proc.stdout

    def refused(self, group: str, args: list[str]) -> None:
        """Run a command on bad input: it must exit 2 with one 'error:' line."""
        proc = self.run(group, args)
        lines = proc.stderr.strip().splitlines()
        if proc.returncode == 2 and len(lines) == 1 and lines[0].startswith("error:"):
            return
        self.rnd.failed += 1
        last = lines[-1] if lines else ""
        self.rnd.notes.append(f"{' '.join(args)}: exit {proc.returncode}, {last}")


def cli(rnd: Round, rng: random.Random, workdir: Path) -> None:
    run = Cli(rnd, workdir)
    expected = {
        aug: tuple(chowpoly.closed_form(10, 12, "monomial", aug)) for aug in (False, True)
    }

    def startup():
        out = run.ok("startup", ["--help"])
        rnd.expect(out is None or "compute" in out, "--help lists no compute command")

    def compute(aug: bool):
        flag = ["--augmented"] if aug else []
        out = run.ok("compute", ["compute", "--k", "10", "--n", "12", *flag, "--format", "json"])
        if out is None:
            return
        payload = json.loads(out)
        where = f"cli compute {_where(10, 12, aug)}"
        rnd.expect(payload.get("agree") is True, f"{where}: methods disagree")
        rnd.expect(set(payload["results"]) == set(METHODS), f"{where}: methods missing")
        for m, coeffs in payload["results"].items():
            rnd.expect(w.coefficients(coeffs) == expected[aug], f"{where}: {m} differs from the library")
        check_chow(rnd, 10, 12, aug, w.coefficients(payload["results"]["monomial"]), where)

    def compute_multivariate():
        args = ["compute", "--k", "10", "--n", "12", "--multivariate", "--format", "json"]
        out = run.ok("compute", args)
        if out is None:
            return
        results = json.loads(out)["results"]
        terms = {
            b: {tuple(t["vars"]): int(t["coeff"]) for t in results[b]["terms"]} for b in BASES
        }
        rnd.expect(terms["monomial"] == terms["gamma"], "cli multivariate bases differ")
        rnd.expect(
            w.specialize(terms["monomial"]) == expected[False],
            "cli multivariate does not specialise to the closed form",
        )

    def census7():
        out = run.ok("census", ["census", "--n", "7", "--verify", "--format", "json"])
        if out is None:
            return
        payload = json.loads(out)
        rnd.expect(payload["verification"]["passed"] is True, "cli census --verify failed")
        rows = [(e["rank"], e["loops"], e["cogirth"], int(e["count"])) for e in payload["entries"]]
        rnd.expect(
            w.loopless_by_rank(rows) == w.expected_loopless_by_rank(7),
            "cli census 7: loopless counts by rank are not Eulerian numbers",
        )
        rnd.expect(int(payload["total"]) == sum(r[3] for r in rows), "cli census 7: total")

    def oracle_plain():
        out = run.ok("oracle", ["oracle", "--k", "8", "--n", "8", "--format", "json"])
        if out is None:
            return
        payload = json.loads(out)
        rnd.expect(payload["equal"] is True, "cli oracle (8, 8) not equal")
        rnd.expect(w.coefficients(payload["oracle"]) == w.eulerian(8), "cli oracle (8, 8) is not A_8")
        for m, coeffs in payload["closed_forms"].items():
            rnd.expect(w.coefficients(coeffs) == w.eulerian(8), f"cli oracle (8, 8): {m} is not A_8")

    def oracle_augmented():
        args = ["oracle", "--k", "8", "--n", "8", "--augmented", "--format", "csv"]
        out = run.ok("oracle", args)
        if out is None:
            return
        lines = out.strip().splitlines()
        rnd.expect(lines[0] == "power,oracle,closed_form,equal", "cli oracle csv header")
        rows = [ln.split(",") for ln in lines[1:]]
        rnd.expect(all(r[1] == r[2] and r[3] == "true" for r in rows), "cli oracle csv unequal")
        check_chow(rnd, 8, 8, True, w.coefficients(r[1] for r in rows), "cli oracle (8, 8, augmented)")

    def sequences():
        args = ["sequences", "--coeff", "1", "--k", "3", "--n-from", "3", "--n-to", "12"]
        out = run.ok("sequences", [*args, "--format", "csv"])
        if out is None:
            return
        lines = out.strip().splitlines()
        want = [f"{n},{chowpoly.closed_form(3, n)[1]}" for n in range(3, 13)]
        rnd.expect(lines == ["n,value", *want], "cli sequences differ from the closed form")

    def matroid_round_trip():
        path = str(workdir / "u36.json")
        args = ["matroid", "--uniform", "--k", "3", "--n", "6", "--output", path]
        out = run.ok("matroid", [*args, "--format", "json"])
        if out is not None:
            payload = json.loads(out)
            with open(path) as fh:
                saved = json.load(fh)
            rnd.expect(saved["bases"] == payload["bases"], "cli matroid export differs")
            rnd.expect(len(saved["bases"]) == comb(6, 3), "cli U(3,6) basis count")
        out = run.ok("matroid", ["matroid", "--input", path, "--format", "csv"])
        if out is not None:
            # U(3, 6): no loops or coloops, girth k + 1, cogirth n - k + 1
            rnd.expect(out.strip().splitlines()[1] == "6,3,20,0,0,4,4", "cli matroid import")

    def malformed():
        for name, data in (
            ("missing_n.json", {"rank": 1, "bases": [[1]]}),
            ("non_integer.json", {"n": 2, "rank": 1, "bases": [["a"]]}),
        ):
            path = workdir / name
            path.write_text(json.dumps(data))
            run.refused("matroid", ["matroid", "--input", str(path)])

    jobs = [
        startup,
        lambda: compute(False),
        lambda: compute(True),
        compute_multivariate,
        census7,
        oracle_plain,
        oracle_augmented,
        sequences,
        matroid_round_trip,
        malformed,
    ]
    rng.shuffle(jobs)
    for job in jobs:
        job()


def cli_layers(rnd: Round) -> dict:
    s = rnd.scopes["all"]
    return {f"cli.{g}_s": (s.get(f"cli.{g}", 0.0), "s") for g in CLI_GROUPS}


# -- entry point ---------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("forms", "census", "oracle", "cli"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    rnd = Round()
    absent: list[str] = []
    if args.trace:
        import tracer

        absent = tracer.install(rnd)
    rng = random.Random(f"{args.workload}:{args.seed}")
    if args.workload == "forms":
        forms(rnd, rng)
        layers = forms_layers(rnd)
    elif args.workload == "census":
        census(rnd, rng)
        layers = census_layers(rnd)
    elif args.workload == "oracle":
        oracle(rnd, rng)
        layers = oracle_layers(rnd)
    else:
        scratch = Path(__file__).resolve().parent.parent / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            cli(rnd, rng, Path(tmp))
        layers = cli_layers(rnd)
    # the cli workload's memory is that of its largest command
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    for note in rnd.notes:
        print(f"failed: {note}", file=sys.stderr)
    for problem in rnd.problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    result = {
        "wall_s": rnd.wall,
        "cpu_s": rnd.cpu,
        "ops": rnd.ops,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "problems": len(rnd.problems),
        "absent": absent,
    }
    if args.trace:
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
