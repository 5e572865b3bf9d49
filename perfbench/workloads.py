"""Workload definitions: the seeded operation lists the benchmark feeds to
`qtradeoff`, and the per-operation work counts behind the throughput metric.

Every workload is a closed loop with one client: the next operation starts when
the previous one has exited.  Operations come in blocks, and a timed run ends
on a block boundary.  Parameters are drawn stratified: each block covers every
stratum of the parameter range once, at a seeded point in the middle half of
the stratum and in seeded order.  A run of a few dozen operations thus sees the
whole range, and its medians do not hinge on which seed was drawn.
"""

import random
from dataclasses import dataclass

DEFAULT_THETAS = ("0", "1/16", "1/8", "3/16", "1/4", "9/32", "11/32", "3/8",
                  "13/32", "7/16", "15/32", "1/2")
BOOTSTRAP = 32
SCAN_ANGLES = tuple(f"{k}/128" for k in range(65))  # k/128 of pi, 0..pi/2
SCAN_NOISE = (("1.0", "0"), ("1.0", "0.02"), ("0.96", "0"), ("0.96", "0.02"))


@dataclass(frozen=True)
class Operation:
    """One `qtradeoff` invocation: its argv and the facts the checker needs."""

    argv: tuple
    kind: str  # "experiment", "sweep", "bound" or "oracle"
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: str  # what the throughput metric counts
    generate: object  # rng -> endless iterator of blocks (lists of Operation)
    probes: tuple = ()  # known-defect probe operations, run once per invocation


def _strata(rng, lo, hi, k):
    """k values, one uniform draw from the middle half of each of k equal
    slices of [lo, hi], in seeded order."""
    vals = [lo + (i + 0.25 + 0.5 * rng.random()) * (hi - lo) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def _experiment(thetas, bootstrap, seed, noise):
    vis, dep = noise
    argv = ["--command", "experiment", "--shots", "10000", "--visibility", vis,
            "--depolarizing", dep, "--bootstrap", str(bootstrap), "--seed", str(seed)]
    for t in thetas:
        argv += ["--theta", t]
    return Operation(tuple(argv), "experiment",
                     {"thetas": tuple(thetas), "noise": noise, "bootstrap": bootstrap})


def gen_experiment_bootstrap(rng):
    while True:  # each pass over the 12 angles, in seeded order, is 3 blocks
        order = list(DEFAULT_THETAS)
        rng.shuffle(order)
        for i in range(0, len(order), 4):
            yield [_experiment([t], BOOTSTRAP, rng.randrange(1_000_000), ("0.96", "0"))
                   for t in order[i:i + 4]]


def gen_experiment_scan(rng):
    while True:
        noises = list(SCAN_NOISE)
        rng.shuffle(noises)
        block = []
        for noise in noises:
            drop = rng.randrange(len(SCAN_ANGLES))
            thetas = [t for i, t in enumerate(SCAN_ANGLES) if i != drop]
            block.append(_experiment(thetas, 0, rng.randrange(1_000_000), noise))
        yield block


def gen_bound_tables(rng):
    while True:
        block = []
        for step, size in zip(_strata(rng, 0.07, 0.125, 4), _strata(rng, 100, 300, 4)):
            s, n = f"{step:.4f}", round(size)
            block.append(Operation(("--command", "sweep", "--p-step", s, "--q-step", s),
                                   "sweep", {"step": float(s)}))
            block.append(Operation(("--command", "bound", "--resolution", str(n)),
                                   "bound", {"resolution": n}))
        yield block


def gen_oracle_convergence(rng):
    while True:
        yield [Operation(("--command", "oracle", "--resolution", str(r)), "oracle",
                         {"resolution": r})
               for r in map(round, _strata(rng, 200, 600, 4))]


WORKLOADS = {w.name: w for w in (
    Workload(
        "experiment_bootstrap",
        "32 bootstrap reconstructions per angle dominate: the tomo -> linalg Jacobi eigensolver -> measures path",
        "reconstructions", gen_experiment_bootstrap),
    Workload(
        "experiment_scan",
        "64 angles without bootstrap: the per-angle states, noise, Born probability and fidelity path the bootstrap never reaches",
        "angles", gen_experiment_scan),
    Workload(
        "bound_tables",
        "sweep and bound tables: scalar zeta bisection and the closed forms; linalg and tomo do no work",
        "rows", gen_bound_tables,
        # The README's own example; the oracle's band is empty at entropy 0.0139.
        probes=(Operation(("--command", "bound", "--resolution", "200", "--oracle"),
                          "bound", {"resolution": 200}),)),
    Workload(
        "oracle_convergence",
        "oracle at grid sizes 200-600: simplex grid enumeration and banded max, a different use of the bound layer",
        "grid_tuples", gen_oracle_convergence,
        # Every grid size from 100 to 161 hits the same empty-band error, which
        # is why the workload draws its sizes from 200 up.
        probes=(Operation(("--command", "oracle", "--resolution", "150"),
                          "oracle", {"resolution": 150}),)),
)}


def blocks(workload, seed):
    """Endless, seed-determined stream of a workload's operation blocks."""
    return WORKLOADS[workload].generate(random.Random(f"{workload}:{seed}"))


def grid_tuples(resolution):
    """Number of descending 4-tuples of non-negative integers summing to
    `resolution` (partitions into at most four parts), i.e. the length of
    `bound.simplex_grid(resolution)`; counted as partitions into parts of
    size at most four, its conjugate."""
    ways = [1] + [0] * resolution
    for part in range(1, 5):
        for v in range(part, resolution + 1):
            ways[v] += ways[v - part]
    return ways[resolution]


def work_items(op, rows):
    """Units of work one operation did, for the throughput metric."""
    if op.kind == "experiment":
        return (op.params["bootstrap"] + 1) * len(op.params["thetas"])
    if op.kind == "oracle":
        return grid_tuples(op.params["resolution"])
    return rows
