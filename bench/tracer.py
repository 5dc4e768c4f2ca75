"""Per-layer timing from outside the program.

``install`` replaces module-internal functions of chowpoly with timing
wrappers, looking each one up by name.  A function that does not exist is
reported as absent rather than failing, so the same benchmark runs on
versions of the package that renamed or deleted a kernel.  Only the
outermost call of a wrapped function is timed, so recursion is not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter


def _wrap(rnd, target: str, key: str, on_call=None, on_result=None):
    module_name, attr = target.rsplit(".", 1)
    module = importlib.import_module(module_name)
    fn = getattr(module, attr, None)
    if fn is None:
        return target
    depth = 0

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        nonlocal depth
        if depth:
            return fn(*args, **kwargs)
        if on_call is not None:
            on_call(rnd, *args)
        depth += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rnd.add(key, perf_counter() - t0)
            depth -= 1
        if on_result is not None:
            on_result(rnd, result)
        return result

    setattr(module, attr, timed)
    return None


def _wrap_generator(rnd, target: str, key: str, count_key: str):
    """Time every step of a generator function and count what it yields."""
    module_name, attr = target.rsplit(".", 1)
    module = importlib.import_module(module_name)
    fn = getattr(module, attr, None)
    if fn is None:
        return target

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        busy = 0.0
        items = 0
        try:
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    busy += perf_counter() - t0
                    return
                busy += perf_counter() - t0
                items += 1
                yield item
        finally:
            rnd.add(key, busy)
            rnd.count(count_key, items)

    setattr(module, attr, timed)
    return None


def _fingerprints_out(rnd, rows):
    rnd.count("schubert.pairs", rows.shape[0])
    rnd.peak("schubert.fingerprint_bytes", rows.nbytes)


def _classify_in(rnd, rows, *_):
    rnd.count("schubert.distinct", rows.shape[0])


def _lattice_out(rnd, lattice):
    rnd.count("matroid.flats", len(lattice.flats))


def install(rnd) -> list[str]:
    """Wrap every traced internal; return the names that were not found.

    Functions that chowpoly.forms imported by name are wrapped in that
    namespace, where the closed forms look them up.
    """
    wraps = [
        _wrap(rnd, "chowpoly.kernels.perm_descent_aggregates", "kernels.perm_scan"),
        _wrap(rnd, "chowpoly.forms.derangement_poly", "combinat.derangement_poly"),
        _wrap(
            rnd,
            "chowpoly.forms.eulerian_fixed_descents",
            "combinat.eulerian_fixed_descents",
        ),
        _wrap(rnd, "chowpoly.kernels.perm_table", "kernels.perm_table"),
        _wrap(rnd, "chowpoly.kernels.relabel_table", "kernels.relabel_table"),
        _wrap(
            rnd,
            "chowpoly.kernels.census_fingerprints",
            "kernels.fingerprint",
            on_result=_fingerprints_out,
        ),
        _wrap(
            rnd,
            "chowpoly.kernels.classify_fingerprints",
            "kernels.classify",
            on_call=_classify_in,
        ),
        _wrap(
            rnd,
            "chowpoly.matroid.flats_lattice",
            "matroid.flats_lattice",
            on_result=_lattice_out,
        ),
        _wrap_generator(
            rnd,
            "chowpoly.matroid.chain_label_sequences",
            "matroid.chain_walk",
            "matroid.maximal_chains",
        ),
    ]
    return [name for name in wraps if name is not None]
