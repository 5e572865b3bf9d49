import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtradeoff
from qtradeoff import bound, cli, oracle, tomo
from qtradeoff.bound import TWO_LN2


def read_rows(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    return comments, rows


def test_parse_theta():
    label, theta = cli.parse_theta("9/32")
    assert label == "9/32"
    assert abs(theta - 9 * np.pi / 32) < 1e-15
    with pytest.raises(Exception):
        cli.parse_theta("3/4")  # beyond pi/2


def test_default_angles_are_the_default_thetas():
    parsed = [cli.parse_theta(t)[1] for t in cli.DEFAULT_THETAS]
    assert np.array(tomo.DEFAULT_ANGLES).tobytes() == np.array(parsed).tobytes()


THETA_ACCEPTED = ["0", "-0", "1/2", "9/32", "1/3", "+1/4", "1_000/4096", "0.25", ".5",
                  "2.5e-1", "1e-400"] + [f"{k}/128" for k in range(65)]
# Spaces around '/' are read by the Fraction of Python 3.12 on, not before; the
# CLI rejects them on every version.
THETA_REJECTED = ["1/0", "1e999", "nan", "inf", "-1/-4", "1/+4", "/4", "1/", "1/2/3", "0x1", "",
                  "1 /2", "1/ 2"]


@pytest.mark.parametrize("text", THETA_ACCEPTED)
def test_parse_theta_gives_the_float_of_the_fraction(text):
    label, theta = cli.parse_theta(text)
    expected = float(Fraction(text)) * np.pi
    assert label == text
    assert np.float64(theta).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("text", THETA_REJECTED)
def test_rejected_theta_exits_2(text):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--command", "experiment", "--exact", f"--theta={text}"])
    assert exc.value.code == 2


@pytest.mark.parametrize("theta", ["1/0", "1e999"])
def test_theta_not_finite_exits_2(theta, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--command", "experiment", "--exact", "--theta", theta])
    assert exc.value.code == 2
    assert f"theta {theta} is not a finite number" in capsys.readouterr().err


def test_sweep_single_point_row(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["--command", "sweep", "--p-step", "1.0", "--q-step", "1.0",
                     "--out", str(out)])
    assert code == 0
    comments, rows = read_rows(out)
    assert any(c.startswith("# command=sweep") for c in comments)
    # p=0, q=1 grid row: I = 0, E = 1, zeta(0) = 1, margin 0.
    row = next(r for r in rows if r["family"] == "grid"
               and float(r["p"]) == 0.0 and float(r["q"]) == 1.0)
    assert float(row["I"]) == 0.0
    assert abs(float(row["E"]) - 1.0) < 1e-12
    assert abs(float(row["zeta_of_I"]) - 1.0) < 1e-9
    assert abs(float(row["margin"])) < 1e-9
    # Red-line rows cover p in {0, ..., 0.5} only.
    red = [r for r in rows if r["family"] == "red_line"]
    assert all(float(r["p"]) <= 0.5 + 1e-12 for r in red)
    assert all(float(r["margin"]) >= -1e-9 for r in rows)


def test_default_sweep_has_no_negative_margin(tmp_path):
    # At I = 0, the rows (p, q) = (0, 0), (0, 1) and the red line's p = 0,
    # E = 1 meets zeta(0) = 1 exactly: margin 0, not -1.8e-15.
    out = tmp_path / "sweep.csv"
    assert cli.main(["--command", "sweep", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert min(float(r["margin"]) for r in rows) >= 0.0


def test_bound_table_endpoints(tmp_path):
    out = tmp_path / "bound.csv"
    assert cli.main(["--command", "bound", "--resolution", "10", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 10
    assert abs(float(rows[0]["c"])) < 1e-15
    assert abs(float(rows[0]["zeta_closed"]) - 1.0) < 1e-9
    assert abs(float(rows[-1]["c"]) - TWO_LN2) < 1e-12
    assert float(rows[-1]["zeta_closed"]) == 0.0


def test_bound_table_with_oracle_column(tmp_path):
    out = tmp_path / "bound.csv"
    assert cli.main(["--command", "bound", "--resolution", "5", "--oracle",
                     "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert "zeta_oracle" in rows[0]
    for r in rows:
        assert abs(float(r["zeta_closed"]) - float(r["zeta_oracle"])) <= 0.02


def test_oracle_command(tmp_path):
    out = tmp_path / "oracle.csv"
    assert cli.main(["--command", "oracle", "--out", str(out)]) == 0
    comments, rows = read_rows(out)
    assert len(rows) == 50
    worst = max(float(r["abs_diff"]) for r in rows)
    assert worst <= 0.02
    assert comments[-1] == f"# max_abs_diff={cli.fmt(worst)}"
    assert all(float(r["zeta_oracle"]) <= float(r["zeta_closed"]) + 1e-12 for r in rows)


def test_readme_bound_oracle_example(tmp_path):
    # The frontier at grid 200 lies at most 0.0052 below the curve, and never
    # above it.
    out = tmp_path / "bound.csv"
    assert cli.main(["--command", "bound", "--resolution", "200", "--oracle",
                     "--out", str(out)]) == 0
    comments, rows = read_rows(out)
    assert len(rows) == 200
    assert not any("widened_bands" in c for c in comments)
    gaps = [float(r["zeta_closed"]) - float(r["zeta_oracle"]) for r in rows]
    assert -1e-12 <= min(gaps) and max(gaps) <= 0.006


@pytest.mark.parametrize("n", [100, 150, 200, 400, 600])
def test_oracle_is_one_sided_at_every_grid_size(tmp_path, n):
    # The frontier never exceeds the curve, and it closes on it as about
    # 1/n: n (zeta - Z_n) stayed below 1.14 at every n from 100 to 600.
    out = tmp_path / "oracle.csv"
    assert cli.main(["--command", "oracle", "--resolution", str(n), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    gaps = [float(r["zeta_closed"]) - float(r["zeta_oracle"]) for r in rows]
    assert -1e-12 <= min(gaps) and n * max(gaps) <= 1.2


@pytest.mark.parametrize("argv", [["--command", "oracle"],
                                  ["--command", "bound", "--resolution", "200", "--oracle"],
                                  ["--command", "sweep"], ["--command", "verify"]])
def test_oracle_exits_1_when_zeta_is_lowered(tmp_path, monkeypatch, argv):
    # The grid's pure tuple and the tuples on the curve then rise above it, and
    # zeta(0) no longer meets E = 1 at p = 0, q = 1, so the sweep margin there
    # and verify's zeta_at_zero fail.  Each command still writes its table.
    zeta = bound.zeta
    monkeypatch.setattr(bound, "zeta", lambda c: np.maximum(zeta(c) - 1e-6, 0.0))
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 1
    comments, rows = read_rows(out)
    assert comments[1] == f"# command={argv[1]}" and rows


def test_bound_without_oracle_exits_0_when_zeta_is_lowered(monkeypatch):
    # Without the oracle column the bound table has nothing to check.
    zeta = bound.zeta
    monkeypatch.setattr(bound, "zeta", lambda c: np.maximum(zeta(c) - 1e-6, 0.0))
    assert cli.main(["--command", "bound", "--resolution", "200", "--out", os.devnull]) == 0


DISPATCH_ARGV = {
    "sweep": ["--p-step", "0.5", "--q-step", "0.5"],
    "bound": ["--resolution", "3"],
    "oracle": ["--resolution", "100"],
    "experiment": ["--exact", "--theta", "1/4"],
    "verify": [],
}


@pytest.mark.parametrize("name", list(DISPATCH_ARGV))
def test_main_runs_the_command_the_module_names(tmp_path, monkeypatch, name):
    # perfbench/trace_child.py times a command by replacing cli.cmd_<name>; a
    # command table bound at import would still call the function it replaced.
    calls = []
    command = getattr(cli, f"cmd_{name}")

    def counted(args):
        calls.append(args.command)
        return command(args)

    monkeypatch.setattr(cli, f"cmd_{name}", counted)
    argv = ["--command", name, *DISPATCH_ARGV[name], "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    assert calls == [name]


@pytest.mark.parametrize("argv, digest", [
    (["--command", "oracle", "--resolution", "150"],
     "6b0d758098f3536e69da7bfc4c1d23eb0d24363739b1fbf6275c24a46dd32fbf"),
    (["--command", "oracle", "--resolution", "200"],
     "e3a4682e70da68f0cedee5407203a633eaaca28b3847a61db9eeb0eab7ac1245"),
    (["--command", "oracle", "--resolution", "600"],
     "ba9d118da64abd108637a99257773fc4fc2fd69d05a58f80d2065c86317aa4bd"),
    (["--command", "bound", "--resolution", "200", "--oracle"],
     "a01d5b89c90e263a90eb1af796eb05b67b26c22f0b57b8860a6a42f8c321ad77"),
], ids=["oracle-150", "oracle-200", "oracle-600", "bound-200-oracle"])
def test_oracle_tables_keep_their_bytes(tmp_path, argv, digest):
    # Digests of the frontier tables; the grid built from integer partitions
    # and lookup tables gives the h and k of the float-lambda grid bit for
    # bit, so it must give the same bytes.
    out = tmp_path / "table.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_table_keeps_its_bytes(tmp_path):
    # Only closed-form and oracle floats reach this file, no LAPACK output, so
    # its bytes are pinned like the oracle tables'.  The details print floats
    # with fmt, not repr, which for numpy scalars differs between numpy 1 and 2.
    out = tmp_path / "verify.csv"
    assert cli.main(["--command", "verify", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c3ca0ab920f804b0b65fc0b4b1ec7ce817689fc4ffafb09cbb4b1497a557c014")


def _src_env():
    # The environment of a fresh interpreter that imports this package.
    src = os.path.dirname(os.path.dirname(qtradeoff.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# Runs a command under a small parent process and prints its exit code and
# peak RSS, because a child's peak RSS includes the peak of the process it was
# forked from, which for a direct child of the tests would be pytest.
_PEAK_SCRIPT = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(proc.returncode, usage.ru_maxrss)\n"
)
needs_maxrss_kib = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                      reason="ru_maxrss in KiB")


def peak_kib(*argv):
    """Peak RSS in KiB of a fresh `qtradeoff` process run with argv."""
    res = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, sys.executable, "-m",
                          "qtradeoff.cli", *argv],
                         capture_output=True, text=True, env=_src_env(), timeout=120)
    code, peak = map(int, res.stdout.split())
    assert code == 0, res.stderr
    return peak


@needs_maxrss_kib
def test_oracle_memory_does_not_grow_with_the_grid(tmp_path):
    # At resolution 1000 the grid has 7 049 112 tuples, 113 MB for h and k
    # alone; the oracle holds one chunk of at most 2^11 (l1, l2) pairs of the
    # pair plan, with its chains, and one maximum per query, and writes the
    # bytes the whole-grid frontier writes.  Against a `bound --resolution 2`
    # process, which pays the same interpreter and imports but for the oracle
    # module, it may add less than 3 MB: it adds 1.5 MB when every process
    # compiles its modules (29.7 against 28.2 MB) and 1.6 MB with a bytecode
    # cache (29.4 against 27.8 MB).  With each chunk held while the next was
    # built it added 1.7-1.9 MB, with the whole pair plan 6.6 MB, and with
    # blocks of about 2^16 tuples 15-17.5 MB.
    out = tmp_path / "oracle.csv"
    oracle = peak_kib("--command", "oracle", "--resolution", "1000", "--out", str(out))
    assert oracle < 100 * 1024
    bound_only = peak_kib("--command", "bound", "--resolution", "2",
                          "--out", str(tmp_path / "bound.csv"))
    assert oracle - bound_only < 3 * 1024
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "96b22b350409182406464f8172e6d488d0a72eaf394975bc6d2b629323303439")


@needs_maxrss_kib
@pytest.mark.parametrize("argv, baseline, limit_mib", [
    (["--theta", "1/4", "--bootstrap", "1000"], ["--theta", "1/4", "--bootstrap", "0"], 12),
    ([f"--theta={k}/512" for k in range(257)] + ["--bootstrap", "0"],
     ["--theta", "1/4", "--bootstrap", "0"], 6),
], ids=["bootstrap-1000", "scan-257"])
def test_experiment_memory_does_not_grow_with_the_stack(tmp_path, argv, baseline, limit_mib):
    # The experiment runs at most cli.ANGLE_PASS angles and tomo.RESAMPLE_PASS
    # resamples at once, and frees each pass before it builds the next.
    # Against one angle without error bars (38.6-38.7 MB, every module
    # compiled), 1000 resamples of one angle added 1.5-1.6 MB and a 257-angle
    # scan 0.9-1.0 MB; with each pass held while the next was built they
    # added 1.75 and 1.1 MB, and as one stack 40.6 and 11.0 MB.
    out = str(tmp_path / "exp.csv")
    base = ["--command", "experiment", "--out", out]
    assert peak_kib(*base, *argv) - peak_kib(*base, *baseline) < limit_mib * 1024


def _owner_ref(a):
    """A weak reference to the array that owns a's data: a view keeps its
    whole buffer alive, so its own death shows nothing."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return weakref.ref(a)


def test_experiment_holds_one_angle_pass(tmp_path, monkeypatch):
    # cmd_experiment frees each pass of cli.ANGLE_PASS angles, and every view
    # into its counts, before the next pass is measured: each call finds the
    # previous pass's counts and estimates gone.
    held, passes = [], []
    run_experiment = tomo.run_experiment

    def checked(*args):
        assert all(ref() is None for ref in held)
        run = run_experiment(*args)
        held[:] = [_owner_ref(run.counts), _owner_ref(run.result.rho_hat)]
        passes.append(len(run.counts))
        return run

    monkeypatch.setattr(tomo, "run_experiment", checked)
    argv = [f"--theta={k}/80" for k in range(40)] + ["--bootstrap", "2"]
    assert cli.main(["--command", "experiment", *argv, "--out", str(tmp_path / "exp.csv")]) == 0
    assert passes == [16, 16, 8]


def test_bootstrap_frees_each_resample_stack_before_its_estimate(monkeypatch):
    # The counts given to the pooled means, a reconstruction's float copy or a
    # bootstrap pass's resample stack, are gone when the 16x16 stage starts,
    # and each stage's expectations are gone when the next pass is pooled.
    pooled, estimated, sizes = [], [], []
    pooled_means, physical_estimate = tomo._pooled_means, tomo._physical_estimate

    def pool(counts):
        assert all(ref() is None for ref in estimated)
        pooled.append(_owner_ref(counts))
        return pooled_means(counts)

    def estimate(exps, shots):
        assert pooled[-1]() is None
        estimated.append(_owner_ref(exps))
        sizes.append(len(exps))
        return physical_estimate(exps, shots)

    monkeypatch.setattr(tomo, "_pooled_means", pool)
    monkeypatch.setattr(tomo, "_physical_estimate", estimate)
    run = tomo.run_experiment(np.pi / 4, 10000, 7, tomo.NoiseParams(0.96, 0.02))
    tomo.bootstrap_measures(run.counts, run.shots, 70, 7)
    assert sizes == [1, 24, 23, 23]


@pytest.mark.parametrize("n, queries", [(600, 50), (400, 200)])
def test_oracle_frontier_holds_one_chunk(monkeypatch, n, queries):
    # oracle_frontier frees each chunk's pair arrays and (chain, query) arrays
    # before _plan builds the next chunk: each _pairs call finds every array
    # the previous chunk's _pairs, _expand and _climb returned gone.  Where
    # queries are dense enough to scan, each run's tuples and (h, k) are
    # likewise gone when _tuples builds the next run.
    cs = np.linspace(0.0, TWO_LN2, queries)
    expected = oracle.oracle_frontier(cs, n).tolist()
    chunk, run, calls = [], [], {"_pairs": 0, "_tuples": 0}

    def recorded(f, held):
        def wrapper(*args):
            out = f(*args)
            held.extend(map(_owner_ref, out))
            return out
        return wrapper

    def checked(name, held):
        f = recorded(getattr(oracle, name), held)

        def wrapper(*args):
            assert all(ref() is None for ref in held)
            held.clear()
            calls[name] += 1
            return f(*args)
        return wrapper

    runs = oracle._runs

    def recorded_runs(*args):
        for hk in runs(*args):
            run.extend(map(_owner_ref, hk))
            yield hk
            del hk

    monkeypatch.setattr(oracle, "_pairs", checked("_pairs", chunk))
    monkeypatch.setattr(oracle, "_tuples", checked("_tuples", run))
    monkeypatch.setattr(oracle, "_runs", recorded_runs)
    for name in ("_expand", "_climb"):
        monkeypatch.setattr(oracle, name, recorded(getattr(oracle, name), chunk))
    assert oracle.oracle_frontier(cs, n).tolist() == expected
    assert calls["_pairs"] > 2 and (queries < 200 or calls["_tuples"] > 2)


def test_bound_layer_commands_skip_tomography_import():
    # A fresh interpreter, so that no other test's imports count.  No command
    # loads fractions, decimal or dataclasses (see the experiment guard below).
    # A plain bound table loads the closed form alone; the oracle commands add
    # the grid oracles and no other qtradeoff module.
    script = (
        "import os, sys\n"
        "import qtradeoff.cli\n"
        "loaded = [set(sys.modules)]\n"
        "for argv in (['--command', 'bound', '--resolution', '5'],\n"
        "             ['--command', 'oracle', '--resolution', '100'],\n"
        "             ['--command', 'bound', '--resolution', '5', '--oracle']):\n"
        "    assert qtradeoff.cli.main(argv + ['--out', os.devnull]) == 0\n"
        "    loaded.append(set(sys.modules))\n"
        "print(';'.join(' '.join(sorted(m for m in mods if m.startswith('qtradeoff')\n"
        "                               or m in ('fractions', 'decimal', 'dataclasses')))\n"
        "               for mods in loaded))\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_src_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    closed_form = ["qtradeoff", "qtradeoff.bound", "qtradeoff.cli"]
    assert [loaded.split() for loaded in res.stdout.strip().split(";")] == \
        [closed_form] * 2 + [closed_form + ["qtradeoff.oracle"]] * 2


@pytest.mark.parametrize("argv, loads", [
    (["--command", "experiment", "--exact", "--theta", "1/4"], False),
    (["--command", "verify"], True),
], ids=["experiment", "verify"])
def test_only_the_oracle_commands_load_the_oracle_module(argv, loads):
    # A fresh interpreter per command: the grid oracles are compiled only by
    # the commands that run them.  The tests above and below pin the modules
    # of bound, oracle and sweep.
    script = (
        "import os, sys\n"
        "from qtradeoff.cli import main\n"
        "assert main(sys.argv[1:] + ['--out', os.devnull]) == 0\n"
        "print('qtradeoff.oracle' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                         text=True, env=_src_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-1] == str(loads)


def test_bound_loads_the_oracle_module_on_first_use_of_a_forwarded_name():
    # A fresh interpreter: importing bound leaves the grid oracles unloaded, a
    # forwarded name loads them, and a name bound lacks loads nothing.
    script = (
        "import sys\n"
        "from qtradeoff import bound\n"
        "print('qtradeoff.oracle' in sys.modules)\n"
        "print(hasattr(bound, '_CHUNK'), 'qtradeoff.oracle' in sys.modules)\n"
        "from qtradeoff.bound import simplex_grid\n"
        "print(simplex_grid is sys.modules['qtradeoff.oracle'].simplex_grid)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_src_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False", "False", "True"]


def test_sweep_loads_measures_but_not_states():
    # A fresh interpreter: sweep needs only the closed forms of measures and
    # of the bound, not the grid oracles.  states imports measures for its
    # p, q check, never the reverse, so this fails if measures ever imports
    # states.
    script = (
        "import os, sys\n"
        "from qtradeoff.cli import main\n"
        "argv = ['--command', 'sweep', '--p-step', '0.5', '--q-step', '0.5', '--out', os.devnull]\n"
        "assert main(argv) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('qtradeoff'))))\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_src_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["qtradeoff", "qtradeoff.bound", "qtradeoff.cli",
                                  "qtradeoff.linalg", "qtradeoff.measures"]


def test_experiment_loads_neither_dataclasses_nor_fractions():
    # A fresh interpreter: an experiment builds its result types as named
    # tuples and parses its angles with int and float.
    script = (
        "import os, sys\n"
        "from qtradeoff.cli import main\n"
        "argv = ['--command', 'experiment', '--theta', '1/4', '--shots', '2000',\n"
        "        '--bootstrap', '4', '--out', os.devnull]\n"
        "assert main(argv) == 0\n"
        "print(' '.join(m for m in ('dataclasses', 'fractions', 'decimal') if m in sys.modules))\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_src_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


EXIT_FREEZE_ARGV = [
    ["--command", "oracle", "--resolution", "100"],
    ["--command", "experiment", "--theta", "1/4", "--shots", "2000", "--seed", "5",
     "--bootstrap", "10", "--visibility", "0.96"],
]


@pytest.mark.parametrize("argv", EXIT_FREEZE_ARGV)
def test_main_leaves_the_collector_unfrozen(tmp_path, argv):
    # The CLI freezes the collector at interpreter exit only; a caller's own
    # process goes on collecting every object.
    before = gc.get_freeze_count()
    assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", EXIT_FREEZE_ARGV)
def test_process_exit_freezes_the_collector(tmp_path, argv):
    # atexit handlers run last in, first out, so a handler registered before
    # the CLI's import runs after the CLI's gc.freeze and sees the objects it
    # moved to the permanent generation.  The frozen exit writes the same
    # bytes as a call in this process.
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count()))\n"
        "import qtradeoff.cli\n"
        "sys.exit(qtradeoff.cli.main(sys.argv[1:]))\n"
    )
    child = tmp_path / "child.csv"
    res = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(child)],
                         capture_output=True, text=True, env=_src_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) > 0
    own = tmp_path / "own.csv"
    assert cli.main(argv + ["--out", str(own)]) == 0
    assert child.read_bytes() == own.read_bytes()


# Public names that nothing loads yet, kept for the work that will.
UNCALLED_PUBLIC_NAMES = {
    "oracle.simplex_grid": "perfbench/test_perfbench.py counts grid tuples against it, "
    "spelled bound.simplex_grid, so bound forwards it too",
}


def _names_needing_a_caller(path):
    """`module.name` for each top-level def, class and assigned name of a file
    that has no leading underscore, and for each top-level function that has
    one: a private helper that nothing calls is dead code.  A module hook
    such as __getattr__, which the interpreter calls, does not count."""
    own = os.path.basename(path)[:-3]
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and not top.name.endswith("__"):
            names.add(top.name)
        elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
            names.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and not n.id.startswith("_"))
    return {f"{own}.{n}" for n in names}


def _references(path):
    """`module.name` for each name that the code of a file loads: a bare name
    as one of the file's own module, an attribute of a module name, or a name
    imported from a module.  Names an assignment stores, a definition's
    references to itself, docstrings and comments do not count."""
    own = os.path.basename(path)[:-3]
    found = set()
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs = [f"{own}.{node.id}"]
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)):
                refs = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.ImportFrom) and node.module:
                refs = [f"{node.module.rsplit('.', 1)[-1]}.{a.name}" for a in node.names]
            else:
                refs = []
            found.update(r for r in refs if r != f"{own}.{getattr(top, 'name', None)}")
    return found


def test_every_public_name_has_a_caller():
    # A public name of a module, and a private top-level function, must be
    # loaded by the package itself, outside its own definition, or by the
    # acceptance gate.
    package = os.path.dirname(qtradeoff.__file__)
    files = sorted(os.path.join(package, f) for f in os.listdir(package)
                   if f.endswith(".py") and f != "__init__.py")
    assert [os.path.basename(f) for f in files] == [
        "bound.py", "cli.py", "linalg.py", "measures.py", "oracle.py", "states.py", "tomo.py"]
    gate = os.path.join(os.path.dirname(__file__), "test_acceptance.py")
    used = set().union(*map(_references, files + [gate]))
    # bound forwards the oracles' public names: the gate's bound.grid_h_k is
    # oracle.grid_h_k.  A forward that nothing spells as bound.<name> is dead.
    spelled = {f"oracle.{n}" for n in bound._ORACLE_NAMES if f"bound.{n}" in used}
    unspelled = sorted({f"oracle.{n}" for n in bound._ORACLE_NAMES} - spelled
                       - set(UNCALLED_PUBLIC_NAMES))
    assert not unspelled, f"forwarded by bound but never spelled bound.<name>: {unspelled}"
    used |= spelled
    checked = set().union(*map(_names_needing_a_caller, files))
    assert set(UNCALLED_PUBLIC_NAMES) <= checked - used
    uncalled = sorted(checked - used - set(UNCALLED_PUBLIC_NAMES))
    assert not uncalled, f"defined but never loaded: {uncalled}"


def test_only_linalg_checks_states():
    # States are checked where a DensityMatrix is built; every other module
    # reads the decomposition that check keeps.
    package = os.path.dirname(qtradeoff.__file__)
    loaders = [f for f in sorted(os.listdir(package)) if f.endswith(".py")
               and "linalg.density_eig" in _references(os.path.join(package, f))]
    assert loaders == ["linalg.py"]


def _solver_users(path):
    """`module.name` of each top-level definition of a file whose code names
    an eigensolver (eig, eigh or eigvalsh) as an attribute, a bare name or an
    import."""
    own = os.path.basename(path)[:-3]
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            name = (node.attr if isinstance(node, ast.Attribute) else node.id
                    if isinstance(node, ast.Name) else node.name
                    if isinstance(node, ast.alias) else None)
            if name in ("eig", "eigh", "eigvalsh"):
                found.add(f"{own}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_herm_eig_calls_an_eigensolver():
    # Every decomposition goes through linalg.herm_eig, so that each state is
    # decomposed once and everything else reads what its DensityMatrix keeps.
    package = os.path.dirname(qtradeoff.__file__)
    files = [os.path.join(package, f) for f in sorted(os.listdir(package)) if f.endswith(".py")]
    assert set().union(*map(_solver_users, files)) == {"linalg.herm_eig"}


with open(os.path.join(os.path.dirname(__file__), "experiment_floats.json")) as fh:
    EXPERIMENT_FLOATS = json.load(fh)


@pytest.mark.parametrize("name", list(EXPERIMENT_FLOATS))
def test_experiment_floats_hold(tmp_path, name):
    # Experiment CSVs carry LAPACK output, whose last bits may move with the
    # rounding path, so they are pinned to 1e-12 rather than by bytes.  The
    # first three were recorded when every estimate was decomposed three
    # times.  `multipass` runs 40 angles and 70 resamples, three angle passes
    # and three resample passes, so its rows cross both pass boundaries.
    pin = EXPERIMENT_FLOATS[name]
    out = tmp_path / "exp.csv"
    assert cli.main(["--command", "experiment", *pin["argv"], "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert list(rows[0]) == pin["columns"]
    assert [r["theta"] for r in rows] == [r[0] for r in pin["rows"]]
    got = np.array([[float(r[c]) for c in pin["columns"][1:]] for r in rows])
    assert np.max(np.abs(got - np.array([r[1:] for r in pin["rows"]]))) <= 1e-12


def test_sweep_rows_match_per_point_evaluation(tmp_path):
    from qtradeoff.measures import closed_form_E, closed_form_I

    out = tmp_path / "sweep.csv"
    assert cli.main(["--command", "sweep", "--p-step", "0.25", "--q-step", "0.3",
                     "--out", str(out)]) == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    expected = [("grid", p, q) for p in np.arange(0.0, 1.0 + 1e-12, 0.25)
                for q in np.arange(0.0, 1.0 + 1e-12, 0.3)]
    expected += [("red_line", p, 1.0 - p) for p in np.arange(0.0, 0.5 + 1e-12, 0.25)]
    lines = []
    for family, p, q in expected:
        i_val, e_val = closed_form_I(p, q), closed_form_E(p, q)
        z = bound.zeta(min(i_val, TWO_LN2))
        lines.append(",".join([family] + [cli.fmt(x) for x in (p, q, i_val, e_val, z, z - e_val)]))
    assert body == lines


def test_experiment_exact_matches_closed_forms(tmp_path):
    from qtradeoff.measures import closed_form_E, closed_form_I

    out = tmp_path / "exp.csv"
    code = cli.main(["--command", "experiment", "--exact",
                     "--theta", "0", "--theta", "1/4", "--theta", "7/16",
                     "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert [r["theta"] for r in rows] == ["0", "1/4", "7/16"]
    for r in rows:
        p = float(r["p"])
        assert abs(float(r["I_hat"]) - closed_form_I(p, 1 - p)) < 1e-9
        assert abs(float(r["E_hat"]) - closed_form_E(p, 1 - p)) < 1e-9
        assert float(r["fidelity"]) >= 1.0 - 1e-9
        assert float(r["I_err"]) == 0.0 and float(r["E_err"]) == 0.0


def test_experiment_sampled_with_errors(tmp_path):
    out = tmp_path / "exp.csv"
    code = cli.main(["--command", "experiment", "--theta", "7/16",
                     "--shots", "2000", "--seed", "3", "--bootstrap", "25",
                     "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert float(rows[0]["I_err"]) > 0.0
    assert float(rows[0]["E_err"]) > 0.0
    assert 0.9 < float(rows[0]["fidelity"]) <= 1.0


@pytest.mark.parametrize("mode", [["--exact"], ["--shots", "10000", "--bootstrap", "5"]])
def test_mutual_information_nonnegative_at_half_pi(tmp_path, mode):
    out = tmp_path / "exp.csv"
    code = cli.main(["--command", "experiment", "--theta", "1/2", "--visibility", "0.96",
                     "--seed", "0", "--out", str(out)] + mode)
    assert code == 0
    _, rows = read_rows(out)
    assert float(rows[0]["I_hat"]) >= 0.0


def test_output_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["--command", "experiment", "--theta", "1/8", "--shots", "1500",
            "--seed", "7", "--bootstrap", "10"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("mode", [["--exact"], ["--bootstrap", "0"]])
def test_experiment_row_independent_of_other_angles(tmp_path, mode):
    # All angles run as one stack; each row equals the row of its angle alone.
    base = ["--command", "experiment", "--shots", "10000", "--seed", "9",
            "--visibility", "0.96", "--depolarizing", "0.02"] + mode
    thetas = [f"{k}/128" for k in range(65)]
    scan = tmp_path / "scan.csv"
    assert cli.main(base + [a for t in thetas for a in ("--theta", t)] + ["--out", str(scan)]) == 0
    rows = scan.read_text().splitlines()[-65:]
    alone = tmp_path / "alone.csv"
    for theta, row in zip(thetas, rows):
        assert cli.main(base + ["--theta", theta, "--out", str(alone)]) == 0
        assert alone.read_text().splitlines()[-1] == row


def test_different_seeds_change_data_not_schema(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["--command", "experiment", "--theta", "1/4", "--shots", "1000",
            "--bootstrap", "0"]
    assert cli.main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert cli.main(base + ["--seed", "2", "--out", str(b)]) == 0
    ca, ra = read_rows(a)
    cb, rb = read_rows(b)
    assert [c for c in ca if not c.startswith("# seed=")] == \
           [c for c in cb if not c.startswith("# seed=")]
    assert list(ra[0]) == list(rb[0])
    assert ra != rb


def test_verify_command_passes(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    code = cli.main(["--command", "verify", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[pass]" in captured
    assert "FAIL" not in captured
    comments, rows = read_rows(out)
    assert all(r["status"] == "pass" for r in rows)


def test_validate_bound_curve_names_failures():
    cs = np.linspace(0.0, TWO_LN2, 40)
    es = bound.zeta(cs)
    es[-1] = 0.2  # nonzero past ln(2 sqrt 3)
    results = dict(bound.validate_bound_curve(cs, es))
    assert not results["curve_vanishes_past_ln2sqrt3"]
    assert not results["curve_non_increasing"]
    assert results["curve_domain"]


def test_usage_errors_exit_2(capsys):
    assert cli.main(["--command", "sweep", "--p-step", "-0.1"]) == 2
    assert cli.main(["--command", "bound", "--resolution", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    # A NaN step fails the positivity check and the message names its flag.
    for flag in ("--p-step", "--q-step"):
        assert cli.main(["--command", "sweep", flag, "nan"]) == 2
        assert capsys.readouterr().err == f"error: {flag} nan must be positive\n"
    # 0 resamples means no error bars; a negative count is a usage error.
    assert cli.main(["--command", "experiment", "--theta", "1/4", "--bootstrap", "-5"]) == 2
    assert capsys.readouterr().err == "error: --bootstrap -5 must be at least 0\n"
    # Every count flag has the samplers' bound, and the message names the flag.
    for argv in (["--command", "experiment", "--theta", "1/4", "--bootstrap"],
                 ["--command", "bound", "--resolution"]):
        assert cli.main(argv + ["9223372036854775808"]) == 2
        assert capsys.readouterr().err == \
            f"error: {argv[-1]} 9223372036854775808 must be at most 9223372036854775807\n"
    # A shot count beyond a C long would overflow in the sampler.
    for shots in ("9223372036854775808", "99999999999999999999"):
        for mode in (["--exact"], ["--bootstrap", "0"]):
            assert cli.main(["--command", "experiment", "--shots", shots,
                             "--theta", "1/4"] + mode) == 2
            assert capsys.readouterr().err == \
                f"error: --shots {shots} must be at most 9223372036854775807\n"
    # A resample count that passes the rule but cannot be held fails its one
    # allocation at once, before any resample is drawn.
    for n, err in (("9223372036854775807", "error: array is too big; "),
                   ("1000000000000", "error: Unable to allocate 14.6 TiB ")):
        assert cli.main(["--command", "experiment", "--theta", "0", "--bootstrap", n]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(err)
    assert cli.main(["--command", "bound", "--shots", "9223372036854775808"]) == 2
    assert capsys.readouterr().err.startswith("error: --shots 9223372036854775808 must")
    assert cli.main(["--command", "experiment", "--shots", "9223372036854775807",
                     "--theta", "1/4", "--bootstrap", "0"]) == 0
    assert capsys.readouterr().err == ""
    # A seed is checked once for every command, whether it samples or not.
    for argv in (["--command", "experiment", "--seed", "-1"],
                 ["--command", "verify", "--seed", "-1"],
                 ["--command", "experiment", "--exact", "--seed", "-1"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: --seed -1 must be at least 0\n"
    # So is the shot count, which exact mode echoes but never samples with.
    for shots in ("0", "-5"):
        for mode in (["--exact"], []):
            assert cli.main(["--command", "experiment", "--shots", shots] + mode) == 2
            assert capsys.readouterr().err == f"error: --shots {shots} must be at least 1\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--command", "nonsense"])
    assert exc.value.code == 2


def _refuses_huge_allocations():
    # Linux refuses an allocation beyond its memory unless it is set to
    # overcommit always (mode 1), where the request would succeed and fill it.
    try:
        with open("/proc/sys/vm/overcommit_memory") as fh:
            return fh.read().strip() != "1"
    except OSError:
        return False


@pytest.mark.skipif(not _refuses_huge_allocations(), reason="allocations may overcommit")
@pytest.mark.parametrize("argv", [
    ["--command", "bound", "--resolution", "10000000000000"],
    ["--command", "sweep", "--p-step", "1e-14", "--q-step", "1e-14"],
    ["--command", "sweep", "--p-step", "1e-6", "--q-step", "1e-6"],
])
def test_input_too_large_to_allocate_exits_2(argv, capsys):
    # numpy asks for 72.8 TiB and 728 TiB at once, and the request fails
    # before anything is allocated.  The third sweep holds its 16 MB of p and
    # q steps, then asks Python for a 10**12-entry list of family labels,
    # whose MemoryError carries no text.
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


@pytest.mark.parametrize("resolution", [2**63 - 513, 2**63 - 512, 2**63 - 1, 2**63 + 1024,
                                        2**63 + 1025])
def test_bound_resolution_near_2_63_exits_2(resolution, capsys):
    # np.linspace reads a count from 2**63 - 512 to 2**63 + 1024 as 2**63,
    # builds an empty array and raises IndexError; the counts either side fail
    # its size checks.  Nothing is allocated.
    assert cli.main(["--command", "bound", "--resolution", str(resolution)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_verify_reports_before_an_unwritable_output_fails(tmp_path, capsys):
    # main writes the table once the command has returned, so the report and
    # its summary are printed before the write fails.
    assert cli.main(["--command", "verify", "--out", str(tmp_path / "missing" / "x.csv")]) == 2
    out, err = capsys.readouterr()
    report = out.splitlines()
    assert len(report) == 14 and all(ln.startswith("[pass] ") for ln in report[:-1])
    assert report[-1] == "13/13 invariants passed"
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--command", "verify"],
                                  ["--command", "bound", "--resolution", "3"]])
def test_closed_stdout_is_not_a_usage_error(argv, unbuffered):
    # stdout is a pipe whose reader has gone, as under `| head -n 1` once head
    # has read its line.  Unbuffered, verify's first report line raises; with
    # a buffer, the flush in main does.  Either way the command writes nothing
    # to stderr and exits 1; it used to print `error: [Errno 32] Broken pipe`
    # and exit 2, or, buffered, fail at interpreter exit.
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "qtradeoff.cli", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert res.stderr == ""
    assert res.returncode == 1


def test_unwritable_output_exits_2(tmp_path, capsys):
    assert cli.main(["--command", "bound", "--resolution", "3",
                     "--out", str(tmp_path / "missing" / "x.csv")]) == 2


def _option(flag, values):
    """No argument, or `flag=value` for a drawn value (the = keeps a value such
    as -inf from reading as an option)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


# Every value is small (resolution 400, 2 angles, 500 shots, 2 resamples at
# most), so no run allocates more than a few MB; valid angles and shot counts
# are drawn more often than invalid ones, so most commands run to their end.
_INVALID_FLOATS = st.sampled_from([0.0, -0.5, 1.5, np.nan, np.inf, -np.inf])
_ANGLES = st.one_of(
    st.builds("{}/32".format, st.integers(0, 16)),
    st.builds("{}/{}".format, st.integers(-2, 40), st.integers(-1, 64)),
    st.text(alphabet="0123456789/.-+eEinfa _", max_size=8))
_ARGV = st.tuples(
    st.sampled_from(["sweep", "bound", "oracle", "experiment", "verify"]).map(
        lambda c: ["--command", c]),
    _option("--resolution", st.integers(-3, 400)),
    _option("--p-step", st.one_of(st.floats(0.05, 1.5), _INVALID_FLOATS)),
    _option("--q-step", st.one_of(st.floats(0.05, 1.5), _INVALID_FLOATS)),
    st.lists(_ANGLES, max_size=2).map(lambda ts: [f"--theta={t}" for t in ts]),
    _option("--shots", st.one_of(st.integers(-3, 500), st.integers(1, 500),
                                 st.integers(2**63, 2**64))),
    _option("--seed", st.integers(-2, 5)),
    _option("--bootstrap", st.integers(-2, 2)),
    _option("--visibility", st.one_of(st.floats(0.0, 1.0), _INVALID_FLOATS)),
    _option("--depolarizing", st.one_of(st.floats(0.0, 1.0), _INVALID_FLOATS)),
    st.sampled_from([[], ["--exact"]]),
    st.sampled_from([[], ["--oracle"]]),
).map(lambda parts: sum(parts, []))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(argv=_ARGV)
def test_fuzzed_arguments_exit_0_1_or_2(argv):
    # Every small input ends in an exit code: 0 or 1 from a run, 2 from a
    # usage error (argparse's own exits included), never a traceback or an
    # escaped warning.
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv + ["--out", os.path.join(out, "out.csv")])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue()
