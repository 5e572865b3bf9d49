"""Run one `qtradeoff` operation with every layer's public functions traced.

    python3 perfbench/trace_child.py SPANS_JSON OP_ID SPAWN_MONOTONIC ARG...

Imports `qtradeoff.cli`, wraps the public functions of each layer, also under
the names other modules imported them as (`tomo.herm_eig`, `measures.herm_eig`,
...), then calls `qtradeoff.cli.main(ARG...)`.  The CSV goes to stdout as in an
untraced run; spans and counters go to SPANS_JSON when the operation ends.
"""

import importlib
import inspect
import sys
import time

import numpy as np

from spans import LAYERS, Recorder


def _count_herm_eig(counters, args, result, exc):
    counters[f"linalg.herm_eig.calls_dim{len(args[0])}"] += 1


def _points(key):
    def count(counters, args, result, exc):
        counters[key] += int(np.size(args[0]))
    return count


def _count_grid(counters, args, result, exc):
    if result is not None:
        counters["bound.simplex_grid.tuples"] += len(result)


def _count_oracle(counters, args, result, exc):
    if isinstance(exc, ValueError) and "no grid tuple" in str(exc):
        counters["bound.oracle_zeta.empty_band_failures"] += 1


def _count_emit(counters, args, result, exc):
    counters["cli.emit.bytes"] += len(("\n".join(args[1]) + "\n").encode())


COUNT_HOOKS = {
    "linalg.herm_eig": _count_herm_eig,
    "bound.zeta": _points("bound.zeta.points"),
    "bound.zeta_inv": _points("bound.zeta_inv.points"),
    "bound.simplex_grid": _count_grid,
    "bound.oracle_zeta": _count_oracle,
    "cli.emit": _count_emit,
}


def install(recorder):
    """Replace each layer's public functions by traced ones, everywhere the
    package binds them."""
    package = importlib.import_module("qtradeoff")
    modules = {name: importlib.import_module(f"qtradeoff.{name}") for name in LAYERS}
    traced = {}
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                traced[fn] = recorder.wrap(name, fn, COUNT_HOOKS.get(name))
    for mod in (package, *modules.values()):
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in traced:
                setattr(mod, attr, traced[val])
    # DensityMatrix validation runs in __post_init__ on every construction.
    dm = modules["linalg"].DensityMatrix
    dm.__post_init__ = recorder.wrap("linalg.DensityMatrix", dm.__post_init__)


def main():
    out, op_id, spawned, argv = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4:]
    import qtradeoff.cli
    import_s = time.monotonic() - spawned
    recorder = Recorder(op_id)
    install(recorder)
    code = qtradeoff.cli.main(argv)
    sys.stdout.flush()
    recorder.dump(out, op=op_id, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
