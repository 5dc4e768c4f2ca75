"""chowpoly benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a checkout:

    python3 bench/run.py --workload forms --seed 1 --seconds 15 --trace 0

Workloads: forms, census, oracle, cli (see bench/README.md).  Every round
runs in a fresh interpreter (``rounds.py``), so the package's caches start
cold, as they do for a user of the command line.

``--trace 0`` repeats whole rounds of the workload until ``--seconds`` have
passed and at least three rounds are done; a workload whose round alone
takes over 20 s runs once.  Every round of a run makes the same calls in the
same order, so ``wall_s`` and ``cpu_s`` are the sums over the calls of each
call's median over the rounds.  ``peak_rss_mb`` is the median over rounds, and ``setup_s``
the median, over fresh interpreters started between the rounds, of the time
from their start until ``import chowpoly`` returns.

``--trace 1`` runs one plain round of the workload, then one traced round of
every workload, and reports every per-layer metric together with the traced
round's ``trace.wall_s`` and its ``trace.overhead_s`` over the plain round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

WORKLOADS = ("forms", "census", "oracle", "cli")
SETUP_PROBES = 11  # at least this many per run
MIN_ROUNDS = 3  # so that every call has a median over rounds ...
LONG_ROUND_S = 20  # ... unless one round alone is this long
PROBES_PER_ROUND = 3
DEADLINE_S = 175  # a run must end within 180 s
ROUNDS = Path(__file__).resolve().parent / "rounds.py"
PROBE = "import chowpoly, time; print(time.monotonic(), chowpoly.__file__)"


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    """The caller's environment with the package source first on the path and
    the package's own switches removed, so every run uses its defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHOW_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def remaining(deadline: float) -> float:
    left = deadline - monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    return left


def setup_time(env: dict, root: Path, deadline: float) -> float:
    """Seconds from starting an interpreter until ``import chowpoly`` returns."""
    t0 = monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        cwd=root,
        capture_output=True,
        text=True,
        timeout=remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError(f"import chowpoly failed:\n{proc.stderr}")
    stamp, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(root / "src"):
        raise BenchError(f"imported chowpoly from {path.strip()}, not from {root / 'src'}")
    return float(stamp) - t0


def run_round(workload: str, seed: int, trace: bool, env, root, deadline) -> dict:
    cmd = [sys.executable, str(ROUNDS), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] if trace else []
    proc = subprocess.run(
        cmd, env=env, cwd=root, capture_output=True, text=True, timeout=remaining(deadline)
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round exited with {proc.returncode}")
    return json.loads(lines[-1])


def median_of_calls(rounds: list[dict], field: int) -> float:
    """Sum over the calls of a round of each call's median over the rounds.

    A slow stretch of a shared machine then only counts where it hit the same
    call in most rounds, while every call, the cold-cache ones too, is counted.
    """
    calls = [r["ops"] for r in rounds]
    labels = [op[0] for op in calls[0]]
    if any([op[0] for op in c] != labels for c in calls):
        raise BenchError("the rounds of one run made different calls")
    return sum(statistics.median(op[field] for op in ops) for ops in zip(*calls))


def versions() -> str:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    numba = importlib.util.find_spec("numba") is not None
    return (
        f"python {platform.python_version()}, numpy {version('numpy')}, "
        f"numba importable: {'yes' if numba else 'no'}, cpus {os.cpu_count()}"
    )


def measure(args, env: dict, root: Path) -> tuple[list[dict], dict]:
    deadline = monotonic() + DEADLINE_S
    if args.trace:
        plain = run_round(args.workload, args.seed, False, env, root, deadline)
        order = [args.workload] + [wl for wl in WORKLOADS if wl != args.workload]
        traced = {wl: run_round(wl, args.seed, True, env, root, deadline) for wl in order}
        metrics = {}
        for wl in WORKLOADS:
            metrics.update(traced[wl]["layers"])
        own = traced[args.workload]["wall_s"]
        metrics["trace.wall_s"] = (own, "s")
        metrics["trace.overhead_s"] = (own - plain["wall_s"], "s")
        return [plain, *traced.values()], metrics
    # set-up probes are spread over the run, so that they sample the same
    # stretch of machine time as the rounds they sit between
    start = monotonic()
    rounds, setup = [], []
    while (
        not rounds
        or monotonic() - start < args.seconds
        or (len(rounds) < MIN_ROUNDS and rounds[0]["wall_s"] < LONG_ROUND_S)
    ):
        setup += [setup_time(env, root, deadline) for _ in range(PROBES_PER_ROUND)]
        rounds.append(run_round(args.workload, args.seed, False, env, root, deadline))
    setup += [setup_time(env, root, deadline) for _ in range(SETUP_PROBES - len(setup))]
    metrics = {
        "wall_s": (median_of_calls(rounds, 1), "s"),
        "cpu_s": (median_of_calls(rounds, 2), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return rounds, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "chowpoly" / "__init__.py").is_file():
        print("error: run from the root of a chowpoly checkout (no src/chowpoly)", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        rounds, metrics = measure(args, env, root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name in sorted({name for r in rounds for name in r["absent"]}):
        print(f"trace: {name} not found; its layer metric reads 0", file=sys.stderr)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = not any(r["problems"] for r in rounds)
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
        f"{len(rounds)} rounds; {versions()}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print("  round wall_s: " + ", ".join(f"{r['wall_s']:.3f}" for r in rounds))
    print(f"  attempted {attempted}, failed {failed}, correct {str(correct).lower()}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
