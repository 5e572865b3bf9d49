"""End-to-end benchmark of the `qtradeoff` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one fresh
`qtradeoff` process that receives only the generated argv, because a command
line user pays interpreter start, imports and table builds on every run.
Children run one at a time (a closed loop with one client) with BLAS pinned to
one thread.  With --trace 0 the benchmark times operations for S seconds and
reports end-to-end metrics; with --trace 1 it replays the same operations, each
once untraced and once under perfbench/trace_child.py, and reports per-layer
metrics and the tracing overhead.  Every output is checked; known-defect
probes and a determinism replay run once, outside the timed loop.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

from checks import check, parse_csv
from spans import LayerTotals, unit
from workloads import WORKLOADS, blocks, work_items

HERE = os.path.dirname(os.path.abspath(__file__))
ENTRY = "import sys; from qtradeoff.cli import main; sys.exit(main())"
SETUP_PROBE = "import time, qtradeoff.cli, numpy; print(time.monotonic(), numpy.__version__)"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7
OP_TIMEOUT_S = 30.0
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many samples above it


@dataclass
class Result:
    wall_s: float
    code: int
    stdout: bytes
    rss_mb: float
    stderr: str


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in BLAS_VARS})
    return env


def spawn(argv, env, tmp):
    """Run argv to completion; wall time from spawn to exit and peak RSS from
    wait4."""
    with open(os.path.join(tmp, "stderr"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        err.seek(0)
        return Result(wall, proc.returncode, out, usage.ru_maxrss / 1024.0,
                      err.read().decode(errors="replace").strip())


def run_op(op, env, tmp):
    return spawn([sys.executable, "-c", ENTRY, *op.argv], env, tmp)


def measure_setup(env, tmp):
    """Seconds from spawn until `qtradeoff.cli` is imported, SETUP_REPS times
    after one warm-up that also writes the bytecode cache; plus numpy's version."""
    times, version = [], "unknown"
    for rep in range(SETUP_REPS + 1):
        spawned = time.monotonic()
        res = spawn([sys.executable, "-c", SETUP_PROBE], env, tmp)
        if res.code != 0:
            raise RuntimeError(f"importing qtradeoff.cli failed: {res.stderr}")
        stamp, version = res.stdout.decode().split()
        if rep:
            times.append(float(stamp) - spawned)
    return times, version


def exact_references(ops, env, tmp):
    """Exact-mode (I, E) for every (noise, angle) the experiment operations
    used, from one `experiment --exact` run per noise setting."""
    angles = {}
    for op in ops:
        if op.kind == "experiment":
            angles.setdefault(op.params["noise"], {}).update(dict.fromkeys(op.params["thetas"]))
    exact = {}
    for (vis, dep), thetas in angles.items():
        argv = ["--command", "experiment", "--exact", "--visibility", vis, "--depolarizing", dep]
        for t in thetas:
            argv += ["--theta", t]
        res = spawn([sys.executable, "-c", ENTRY, *argv], env, tmp)
        if res.code == 0:
            for row in parse_csv(res.stdout.decode())[2]:
                exact[((vis, dep), row[0])] = (float(row[2]), float(row[3]))
    return exact


def tail(values):
    """(value, percentile) of the highest percentile with at least TAIL_BEYOND
    samples above it; the minimum when there are too few samples."""
    v = sorted(values)
    i = max(len(v) - 1 - TAIL_BEYOND, 0)
    return v[i], (100.0 * i / (len(v) - 1) if len(v) > 1 else 0.0)


def git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qtradeoff", "cli.py")):
        print("error: run from the root of a qtradeoff checkout (src/qtradeoff missing)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        setup, numpy_version = measure_setup(env, tmp)
        stream = blocks(workload.name, args.seed)
        block, ops, results, traced, totals = [], [], [], [], LayerTotals()
        deadline = time.perf_counter() + args.seconds
        # The timed run ends on a block boundary, unless operations hang; the
        # traced run ends at the deadline.
        while not ops or time.perf_counter() < deadline or (
                block and not args.trace and time.perf_counter() < deadline + args.seconds):
            if not block:
                block = list(next(stream))
            op = block.pop(0)
            ops.append(op)
            results.append(run_op(op, env, tmp))
            if args.trace:
                spans_path = os.path.join(tmp, "spans.json")
                spawned = time.monotonic()
                res = spawn([sys.executable, os.path.join(HERE, "trace_child.py"), spans_path,
                             str(len(ops) - 1), repr(spawned), *op.argv], env, tmp)
                traced.append(res)
                if res.code == 0:
                    with open(spans_path) as fh:
                        totals.add(json.load(fh))
                    os.remove(spans_path)

        # Everything below is outside the timed loop.
        exact = exact_references(ops, env, tmp)
        verdicts = [check(op, r.code, r.stdout, exact) for op, r in zip(ops, results)]
        verdicts += [check(op, r.code, r.stdout, exact) for op, r in zip(ops, traced)]
        replay = run_op(ops[0], env, tmp)
        verdicts.append(None if replay.code == 0 and replay.stdout == results[0].stdout
                        else "determinism: replay of operation 0 differs byte for byte")
        probe_failures = []
        for op in workload.probes:
            res = run_op(op, env, tmp)
            reason = check(op, res.code, res.stdout)
            if reason is not None:
                probe_failures.append((op, f"{reason}: {res.stderr}"))

    failures = [v for v in verdicts if v is not None]
    walls = [r.wall_s for r in results]
    if args.trace:
        overhead = sum(r.wall_s for r in traced) / sum(walls) - 1.0
        metrics = {k: (v, unit(k)) for k, v in totals.metrics(overhead).items()}
    else:
        items = sum(work_items(op, len(parse_csv(r.stdout.decode(errors="replace"))[2]))
                    for op, r in zip(ops, results))
        tail_s, tail_pct = tail(walls)
        metrics = {
            "op_p50_s": (statistics.median(walls), "s"),
            "op_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
            "work_per_s": (items / sum(walls), "1/s"),
        }

    print(f"workload {workload.name}: {workload.why}")
    print(f"  closed loop, 1 client, {len(ops)} operations in {args.seconds:g} s, "
          f"seed {args.seed}, trace {args.trace}")
    print(f"  machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy_version} " + " ".join(f"{v}={env[v]}" for v in BLAS_VARS)
          + f" commit={git_commit(root)}")
    if not args.trace:
        print(f"  op_tail_s is p{tail_pct:.0f} of {len(walls)} operations; "
              f"work_per_s counts {workload.items} ({workload.items}_per_s)")
    for name, (value, u) in metrics.items():
        print(f"  {name:<44} {value:.6g} {u}")
    print(f"  {'fail_ratio':<44} {len(failures) / len(verdicts):.6g} ratio"
          f"  ({len(failures)} of {len(verdicts)} operations)")
    print(f"  {'probe_failures':<44} {len(probe_failures)} count"
          f"  (of {len(workload.probes)} known-defect probes)")
    for reason in failures[:5]:
        print(f"  failed: {reason}")
    for op, reason in probe_failures:
        print(f"  probe still fails: qtradeoff {' '.join(op.argv)}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
