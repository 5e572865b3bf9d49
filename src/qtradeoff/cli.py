"""Command-line front end: parameter sweeps, bound tables, oracle verification,
simulated experiment runs, and an invariant suite.  All CSV output starts with
'#'-prefixed header comments echoing the resolved configuration; identical
configurations produce byte-identical files.

Each command returns its lines (column names, rows and trailing comments) and
whether its checks held; main alone writes the header and the lines and sets
the exit code: 0 success, 1 invariant failure, 2 usage error or oversized input.
A stdout whose reader has gone (`| head`) ends the command with exit 1 and
nothing on stderr.

Only the closed-form bound is imported at start-up; each command imports the
other modules it needs when it runs.  The grid oracles (qtradeoff.oracle) load
only in `oracle`, `bound --oracle` and `verify`, and `bound` and `oracle` never
load the tomography stack.  No command loads dataclasses, fractions or decimal,
or maps OpenSSL (tomo._default_rng).  test_process_contract in tests/test_cli.py
checks what each command loads, in a fresh interpreter.

Importing this module registers gc.freeze to run at interpreter exit, so the
collections of interpreter shutdown skip every object still alive, most of
them left tracked by the imports.  Those passes are otherwise most of a short
process's teardown.  A caller that runs main() in its own process is
unaffected until that process exits.
"""

import argparse
import atexit
import gc
import os
import sys

import numpy as np

from . import __version__, bound
from .bound import LN2SQRT3, TWO_LN2

atexit.register(gc.freeze)

DEFAULT_THETAS = ("0", "1/16", "1/8", "3/16", "1/4", "9/32", "11/32", "3/8",
                  "13/32", "7/16", "15/32", "1/2")
# Most angles measured at once.  A pass holds only its own arrays, freed before
# the next pass is built, so memory does not grow with the scan.
ANGLE_PASS = 16


def parse_theta(text):
    """Angle as a multiple of pi, given as a fraction ('9/32') or decimal, read
    as fractions.Fraction reads it: int division and float() round correctly."""
    num, slash, den = text.partition("/")
    # float() also reads nan and inf, which have no digit; digits flank a '/'.
    if not any(c.isdigit() for c in text) or slash and not (num[-1:] + den[:1]).isdigit():
        raise ValueError(text)
    try:
        turns = (int(num) / int(den) if slash else float(text)) + 0.0  # -0 reads as 0
    except (ZeroDivisionError, OverflowError):
        turns = np.inf
    if not np.isfinite(turns):
        raise argparse.ArgumentTypeError(f"theta {text} is not a finite number")
    theta = turns * np.pi
    if not 0.0 <= theta <= np.pi / 2 + 1e-12:
        raise argparse.ArgumentTypeError(f"theta {text} outside [0, pi/2]")
    return text, theta


def fmt(x):
    return format(float(x), ".17g")


def build_parser(commands):
    p = argparse.ArgumentParser(
        prog="qtradeoff",
        description="Monogamy tradeoff between internal concurrence and external "
        "mutual information: sweeps, bound tables, oracle checks, and a "
        "simulated tomography experiment.",
    )
    p.add_argument("--command", required=True, choices=commands)
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--theta", action="append", type=parse_theta, default=None,
                   help="angle as a multiple of pi, e.g. 9/32; repeatable")
    p.add_argument("--p-step", type=float, default=0.02)
    p.add_argument("--q-step", type=float, default=0.02)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--depolarizing", type=float, default=0.0)
    p.add_argument("--bootstrap", type=int, default=200)
    p.add_argument("--exact", action="store_true", help="infinite-shot mode")
    p.add_argument("--oracle", action="store_true", help="add oracle column to bound table")
    return p


def config_header(args):
    lines = [f"# version={__version__}", f"# command={args.command}"]
    for key in sorted(vars(args)):
        if key in ("command", "out"):
            continue
        val = getattr(args, key)
        if key == "theta":
            val = ",".join(t for t, _ in val) if val else ",".join(DEFAULT_THETAS)
        lines.append(f"# {key}={val}")
    return lines


def emit(args, lines):
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def table_rows(*columns):
    """One CSV line per row of the given float columns."""
    return [",".join(map(fmt, row)) for row in zip(*(np.asarray(c).tolist() for c in columns))]


def cmd_sweep(args):
    from . import measures

    for flag, step in (("--p-step", args.p_step), ("--q-step", args.q_step)):
        if not step > 0:  # a NaN step fails this too
            raise ValueError(f"{flag} {step} must be positive")
    ps = np.arange(0.0, 1.0 + 1e-12, args.p_step)
    qs = np.arange(0.0, 1.0 + 1e-12, args.q_step)
    red = np.arange(0.0, 0.5 + 1e-12, args.p_step)
    families = ["grid"] * (len(ps) * len(qs)) + ["red_line"] * len(red)
    p = np.concatenate([np.repeat(ps, len(qs)), red])
    q = np.concatenate([np.tile(qs, len(ps)), 1.0 - red])
    i_val = measures.closed_form_I(p, q)
    e_val = measures.closed_form_E(p, q)
    z = bound.zeta(i_val)
    margin = z - e_val
    rows = table_rows(p, q, i_val, e_val, z, margin)
    lines = ["family,p,q,I,E,zeta_of_I,margin", *map(",".join, zip(families, rows))]
    return lines, np.min(margin) >= -1e-9


def cmd_bound(args):
    try:
        cs = np.linspace(0.0, TWO_LN2, bound._integer(args.resolution, 2, "--resolution"))
    except IndexError:  # numpy reads a count near 2**63 as 2**63 and builds no samples
        raise ValueError(f"--resolution {args.resolution} is too large") from None
    cols = {"c": cs, "zeta_closed": bound.zeta(cs)}
    if args.oracle:
        from . import oracle

        cols["zeta_oracle"] = oracle.oracle_frontier(cs)
    sound = not args.oracle or np.all(cols["zeta_oracle"] <= cols["zeta_closed"] + 1e-12)
    return [",".join(cols)] + table_rows(*cols.values()), sound


def cmd_oracle(args):
    from . import oracle

    cs = np.linspace(0.0, TWO_LN2, 50)
    zs = bound.zeta(cs)
    frontier = oracle.oracle_frontier(cs, resolution=args.resolution)
    diffs = np.abs(zs - frontier)
    worst = np.max(diffs)
    lines = ["c,zeta_closed,zeta_oracle,abs_diff", *table_rows(cs, zs, frontier, diffs),
             f"# max_abs_diff={fmt(worst)}"]
    return lines, worst <= 0.02 and np.all(frontier <= zs + 1e-12)


def cmd_experiment(args):
    from . import tomo

    bound._integer(args.bootstrap, 0, "--bootstrap")
    thetas = args.theta if args.theta else [parse_theta(t) for t in DEFAULT_THETAS]
    noise = tomo.NoiseParams(args.visibility, args.depolarizing)
    angles = np.array([theta for _, theta in thetas])
    cols = np.zeros((6, len(angles)))  # p, I, E, I_err, E_err, fidelity
    cols[0] = np.cos(angles) ** 2
    for lo in range(0, len(angles), ANGLE_PASS):
        run = tomo.run_experiment(angles[lo:lo + ANGLE_PASS], args.shots, args.seed, noise,
                                  args.exact)
        m, fid = run.result.measures, run.result.fidelity_to_target
        cols[[1, 2, 5], lo:lo + len(fid)] = m.mutual_information, m.concurrence, fid
        if args.bootstrap > 0:
            for a, table in enumerate(run.counts, lo):
                boot = tomo.bootstrap_measures(table, run.shots, args.bootstrap, args.seed)
                cols[3:5, a] = boot.i_err, boot.e_err
            del table  # a view into run.counts, which would keep them alive
        # Free this pass's counts and estimates before the next pass is built.
        del run
    return ["theta,p,I_hat,E_hat,I_err,E_err,fidelity",
            *(f"{label},{row}" for (label, _), row in zip(thetas, table_rows(*cols)))], True


def family_points(p, q):
    """(I, E) points of the two-parameter family, one row per (p, q)."""
    from . import measures

    return np.stack([measures.closed_form_I(p, q), measures.closed_form_E(p, q)], axis=-1)


def invariant_suite(seed=0):
    """Named invariant checks, yielded as (name, ok, detail)."""
    from . import oracle, states, tomo

    z0 = bound.zeta(0.0)
    yield "zeta_at_zero", abs(z0 - 1.0) <= 1e-9, f"zeta(0)={fmt(z0)}"
    tail = bound.zeta(np.linspace(LN2SQRT3, TWO_LN2, 100))
    yield "zeta_vanishing_tail", np.max(np.abs(tail)) <= 1e-9, f"max={fmt(np.max(np.abs(tail)))}"
    es = np.linspace(0.0, 1.0, 1000)
    zi = bound.zeta_inv(es)
    yield "zeta_inv_strictly_decreasing", np.all(np.diff(zi) < 0), ""
    rt = bound.zeta(zi)
    yield "zeta_roundtrip", np.max(np.abs(rt - es)) <= 1e-9, f"max={fmt(np.max(np.abs(rt - es)))}"

    ps = np.arange(0.0, 0.5 + 1e-12, 0.01)
    verdicts = bound.region_check(family_points(ps, 1 - ps))
    yield ("red_curve_contained", all(v.inside_separable_region for v in verdicts),
           f"worst margin={fmt(min(v.margin for v in verdicts))}")

    rng = tomo._default_rng(seed)
    pq = rng.random((100, 2))
    verdicts = bound.region_check(family_points(pq[:, 0], pq[:, 1]))
    yield "two_parameter_family_contained", all(v.inside_separable_region for v in verdicts), ""

    cs = np.linspace(0.0, TWO_LN2, 200)
    for name, ok in bound.validate_bound_curve(cs, bound.zeta(cs)):
        yield name, ok, ""

    cs = np.linspace(0.0, TWO_LN2, 8)
    devs = np.abs(bound.zeta(cs) - oracle.oracle_zeta(cs, 150, 0.01))
    yield "oracle_matches_closed_form", np.max(devs) <= 0.03, f"max dev={fmt(np.max(devs))}"

    probs = np.full((len(tomo.SETTINGS), tomo.N_OUT), 1.0 / tomo.N_OUT)
    c1 = tomo.sample_counts(probs, 1000, seed, 0)
    c2 = tomo.sample_counts(probs, 1000, seed, 0)
    yield "sampling_deterministic", np.array_equal(c1, c2), ""

    p = rng.random(5)
    tb, cc = states.timebin_states(np.arccos(np.sqrt(p))), states.cc_family(p, 1.0 - p)
    yield "timebin_matches_cc_family", np.max(np.abs(tb.mat - cc.mat)) <= 1e-12, ""


def cmd_verify(args):
    lines = ["invariant,status,detail"]
    failed = 0
    for name, ok, detail in invariant_suite(args.seed):
        status = "pass" if ok else "FAIL"
        failed += not ok
        lines.append(f"{name},{status},{detail}")
        print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    print(f"{len(lines) - 1 - failed}/{len(lines) - 1} invariants passed")
    return (lines if args.out else None), failed == 0


def main(argv=None):
    # Built per call from the module's names, so a wrapper set on cli.cmd_<name>
    # (as perfbench/trace_child.py sets one) is the function that runs.
    commands = {"sweep": cmd_sweep, "bound": cmd_bound, "oracle": cmd_oracle,
                "experiment": cmd_experiment, "verify": cmd_verify}
    args = build_parser(commands).parse_args(argv)
    try:
        bound._integer(args.seed, 0, "--seed", None)
        bound._integer(args.shots, 1, "--shots")
        lines, ok = commands[args.command](args)
        if lines is not None:
            emit(args, config_header(args) + lines)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return 0 if ok else 1
    except BrokenPipeError:  # stdout's reader has gone, as under `| head`
        # The Python docs' pattern: stdout to devnull, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        # numpy's MemoryError names the size it could not allocate; Python's has no text.
        text = str(exc) or ("Unable to allocate the memory this input needs"
                            if isinstance(exc, MemoryError) else type(exc).__name__)
        print(f"error: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
