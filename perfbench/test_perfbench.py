"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qtradeoff import bound, cli  # noqa: E402

from checks import check  # noqa: E402
from run import tail  # noqa: E402
from spans import PER_LAYER, LayerTotals, self_times  # noqa: E402
from workloads import WORKLOADS, Operation, blocks, grid_tuples  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] that overlap, a grandchild
    # [2, 3] under the first, then the same tree again as a second operation.
    spans = [
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
        (1, 3.0, 6.0, 0, 0),
        (2, 2.0, 3.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    other_op = [(n, s + 20, e + 20, p + 4 if p >= 0 else p, 1) for n, s, e, p, _ in spans]
    assert self_times(spans + other_op) == pytest.approx([5.0, 2.0, 3.0, 1.0] * 2)


def test_layer_totals_sum_self_time_per_layer():
    names = ["cli.main", "bound.grid_h_k", "bound.simplex_grid", "linalg.herm_eig"]
    spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 5.0, 0, 0), (2, 2.0, 4.0, 1, 0),
             (1, 6.0, 7.0, 0, 0), (3, 8.0, 9.0, 0, 0)]
    totals = LayerTotals()
    totals.add({"names": names, "spans": spans, "import_s": 0.2,
                "counters": {"linalg.herm_eig.calls_dim16": 1}})
    m = totals.metrics(overhead_ratio=0.1)
    assert list(m) == list(PER_LAYER)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["bound.self_s"] == pytest.approx(5.0)
    assert m["bound.grid_h_k.self_s"] == pytest.approx(3.0)
    assert m["linalg.herm_eig.calls"] == 1
    assert m["linalg.herm_eig.calls_dim16"] == 1
    assert m["bound.grid_h_k.hit_ratio"] == pytest.approx(0.5)
    assert m["cli.import_s"] == pytest.approx(0.2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_operations(name):
    def first(seed):
        return [op.argv for block in itertools.islice(blocks(name, seed), 10) for op in block]

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(21))) == (10, 50.0)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


@pytest.mark.parametrize("r", range(1, 41))
def test_tuple_count_matches_simplex_grid(r):
    assert grid_tuples(r) == len(bound.simplex_grid(r))


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _doctor(text, line_no, column, value):
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    cells = lines[data[line_no]].split(",")
    cells[column] = value
    lines[data[line_no]] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def test_checker_accepts_real_and_rejects_doctored_experiment():
    thetas = ("1/8", "1/4")
    argv = ["--command", "experiment", "--exact", "--visibility", "0.96",
            "--depolarizing", "0", "--theta", thetas[0], "--theta", thetas[1]]
    code, text = _cli_output(argv)
    op = Operation(tuple(argv), "experiment",
                   {"thetas": thetas, "noise": ("0.96", "0"), "bootstrap": 0})
    rows = [ln.split(",") for ln in text.splitlines()[-2:]]
    exact = {(("0.96", "0"), r[0]): (float(r[2]), float(r[3])) for r in rows}
    assert check(op, code, text.encode(), exact) is None
    assert "E_hat" in check(op, code, _doctor(text, 1, 3, "0.9"), exact)
    assert "I_hat" in check(op, code, _doctor(text, 0, 2, "1.5"), exact)
    assert "exit code" in check(op, 1, text.encode(), exact)


def test_checker_rejects_doctored_bound_and_oracle_tables():
    argv = ["--command", "bound", "--resolution", "20"]
    code, text = _cli_output(argv)
    op = Operation(tuple(argv), "bound", {"resolution": 20})
    assert check(op, code, text.encode()) is None
    assert check(op, code, _doctor(text, 5, 1, "0.999")) is not None  # rises
    assert check(op, code, _doctor(text, 0, 1, "1.5")) is not None  # above 1
    oracle_csv = "\n".join(
        ["# max_abs_diff=0.5", "c,zeta_closed,zeta_oracle,abs_diff"]
        + [f"{i / 50},{1 - i / 50},{1 - i / 50},{0.5 if i == 3 else 0.0}" for i in range(50)])
    oracle = Operation(("--command", "oracle"), "oracle", {"resolution": 200})
    assert "max_abs_diff" in check(oracle, 0, oracle_csv.encode())


def test_checker_rejects_doctored_sweep():
    argv = ["--command", "sweep", "--p-step", "0.25", "--q-step", "0.25"]
    code, text = _cli_output(argv)
    op = Operation(tuple(argv), "sweep", {"step": 0.25})
    assert check(op, code, text.encode()) is None
    assert "margin" in check(op, code, _doctor(text, 2, 6, "-0.1"))


def test_trace_child_wraps_aliases_and_writes_spans(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    argv = ["--command", "experiment", "--exact", "--theta", "1/4"]
    res = subprocess.run([sys.executable, os.path.join(HERE, "trace_child.py"), str(out),
                          "3", "0", *argv], capture_output=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == _cli_output(argv)[1].encode()
    trace = json.loads(out.read_text())
    names = [trace["names"][s[0]] for s in trace["spans"]]
    assert names[0] == "cli.main" and trace["spans"][0][3] == -1
    assert all(s[4] == 3 for s in trace["spans"])
    # tomo and measures call herm_eig under their own imported names.
    parents = {trace["names"][trace["spans"][s[3]][0]]
               for s in trace["spans"] if trace["names"][s[0]] == "linalg.herm_eig"}
    assert {"tomo.reconstruct", "measures.von_neumann_entropy"} <= parents
    assert trace["counters"]["linalg.herm_eig.calls_dim16"] >= 1
