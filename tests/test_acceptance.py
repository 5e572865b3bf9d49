"""End-to-end acceptance gate: ten criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion report.
"""

import numpy as np
import pytest

from qtradeoff import bound, cli, measures, states, tomo
from qtradeoff.bound import LN2SQRT3, TWO_LN2
from qtradeoff.linalg import partial_trace
from qtradeoff.measures import closed_form_E, closed_form_I


def report(name, ok, detail=""):
    tag = "pass" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_bound_endpoints():
    z0 = bound.zeta(0.0)
    tail = np.asarray(bound.zeta(np.linspace(LN2SQRT3, TWO_LN2, 100)))
    ok = abs(z0 - 1.0) <= 1e-9 and np.max(np.abs(tail)) <= 1e-9
    report("bound_endpoints", ok,
           f"|zeta(0)-1|={abs(z0 - 1.0):.2e}, tail max={np.max(np.abs(tail)):.2e}")


def test_criterion_02_red_curve_containment():
    ps = np.arange(0.0, 0.5 + 1e-12, 0.005)
    worst_form = 0.0
    pts = []
    for p in ps:
        rho = states.cc_family(p, 1.0 - p)
        i_num = measures.mutual_information(rho, cut=[0, 1])
        e_num = measures.concurrence(partial_trace(rho, keep=[0, 1]))
        worst_form = max(worst_form,
                         abs(i_num - closed_form_I(p, 1 - p)),
                         abs(e_num - closed_form_E(p, 1 - p)))
        pts.append((i_num, e_num))
    verdicts = bound.region_check(pts, tolerance=1e-9)
    contained = all(v.inside_separable_region for v in verdicts)
    ok = contained and worst_form <= 1e-9
    report("red_curve_containment", ok,
           f"closed-form dev={worst_form:.2e}, worst margin={min(v.margin for v in verdicts):.2e}")


def test_criterion_03_concurrence_root():
    # Bisect the diagonal-family concurrence expression (monotone decreasing
    # in p before its zero) to locate where entanglement vanishes.
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if closed_form_E(mid, 1.0 - mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2.0
    ok = 0.3015 < root < 0.3020
    report("concurrence_root", ok, f"root={root:.6f}")


def test_criterion_04_oracle_agreement():
    cs = np.linspace(0.0, TWO_LN2, 50)
    diffs = [abs(bound.oracle_zeta(float(c), resolution=200, band=0.01)
                 - bound.zeta(float(c))) for c in cs]
    # Soundness: no grid tuple exceeds the bound at its own entropy.
    h, k = bound.grid_h_k(200)
    z = np.asarray(bound.zeta(np.clip(h, 0.0, TWO_LN2)))
    sound = bool(np.all(np.maximum(k, 0.0) <= z + 1e-9))
    ok = max(diffs) <= 0.02 and sound
    report("oracle_agreement", ok, f"max diff={max(diffs):.4f}, sound={sound}")


def test_criterion_05_two_parameter_sweep():
    grid = np.linspace(0.0, 1.0, 50)
    worst_form = 0.0
    pts = []
    for p in grid:
        for q in grid:
            rho = states.cc_family(p, q)
            i_num = measures.mutual_information(rho, cut=[0, 1])
            e_num = measures.concurrence(partial_trace(rho, keep=[0, 1]))
            worst_form = max(worst_form,
                             abs(i_num - closed_form_I(p, q)),
                             abs(e_num - closed_form_E(p, q)))
            pts.append((i_num, e_num))
    verdicts = bound.region_check(pts, tolerance=1e-9)
    contained = all(v.inside_separable_region for v in verdicts)
    ok = contained and worst_form <= 1e-9
    report("two_parameter_sweep", ok,
           f"closed-form dev={worst_form:.2e}, contained={contained}")


def test_criterion_06_eigenvalue_fixture():
    rng = np.random.default_rng(101)
    worst = 0.0
    for p, q in rng.random((200, 2)):
        rho_a = partial_trace(states.cc_family(p, q), keep=[0, 1])
        mu = np.sort(measures.spin_flip_eigenvalues(rho_a))
        qt = min(q, 1 - q)
        expected = np.sort([
            qt**2 * (1 - p) ** 2,
            (1 - qt) ** 2 * (1 - p) ** 2,
            p**2 * qt * (1 - qt),
            p**2 * qt * (1 - qt),
        ])
        worst = max(worst, float(np.max(np.abs(mu - expected))))
    report("eigenvalue_fixture", worst <= 1e-10, f"max multiset dev={worst:.2e}")


def test_criterion_07_tomography_exactness():
    fids = [tomo.run_experiment(theta, exact=True).result.fidelity_to_target
            for theta in tomo.DEFAULT_ANGLES]
    ok = all(f >= 1.0 - 1e-9 for f in fids)
    report("tomography_exactness", ok, f"min fidelity={min(fids):.12f}")


def test_criterion_08_tomography_at_scale():
    seeds = range(20)
    clean_medians = []
    noisy_all = []
    noise = tomo.NoiseParams(visibility=tomo.visibility_from_contrast(50.0))
    for theta in tomo.DEFAULT_ANGLES:
        clean = [tomo.run_experiment(theta, shots=10**4, seed=s).result.fidelity_to_target
                 for s in seeds]
        clean_medians.append(float(np.median(clean)))
        noisy_all.extend(
            tomo.run_experiment(theta, shots=10**4, seed=s, noise=noise)
            .result.fidelity_to_target
            for s in seeds
        )
    ok_clean = min(clean_medians) >= 0.99
    ok_noisy = min(noisy_all) >= 0.93 and max(noisy_all) <= 1.0
    report("tomography_at_scale", ok_clean and ok_noisy,
           f"worst clean median={min(clean_medians):.4f}, "
           f"noisy range=[{min(noisy_all):.4f}, {max(noisy_all):.4f}]")


def test_criterion_09_experimental_dot_emulation():
    worst_excess = -np.inf
    for theta in tomo.DEFAULT_ANGLES:
        run = tomo.run_experiment(theta, shots=10**4, seed=7)
        boot = tomo.bootstrap_measures(run.counts, run.shots, n_resamples=200, seed=7)
        m = run.result.measures
        (verdict,) = bound.region_check([(m.mutual_information, m.concurrence)],
                                        tolerance=3.0 * boot.e_err + 1e-9)
        excess = -verdict.margin - 3.0 * boot.e_err
        worst_excess = max(worst_excess, excess)
        if not verdict.inside_separable_region:
            report("experimental_dot_emulation", False,
                   f"theta={theta:.4f} margin={verdict.margin:.4f} 3sigma={3 * boot.e_err:.4f}")
    report("experimental_dot_emulation", True,
           f"worst (violation - 3 sigma)={worst_excess:.4f}")


def test_criterion_10_determinism(tmp_path):
    argv = ["--command", "experiment", "--theta", "1/4", "--theta", "7/16",
            "--shots", "2000", "--seed", "5", "--bootstrap", "20"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code_a = cli.main(argv + ["--out", str(a)])
    code_b = cli.main(argv + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    report("determinism", code_a == 0 and code_b == 0 and identical,
           f"byte-identical={identical}")
