import numpy as np
import pytest

from qtradeoff import measures, states
from qtradeoff.linalg import EIG_FLOOR, DensityMatrix, partial_trace
from qtradeoff.measures import (
    closed_form_E,
    closed_form_I,
    concurrence,
    cut_measures,
    fidelities,
    mutual_information,
    spin_flip_eigenvalues,
)
from reference_states import dephase, spdc_state, timebin_mix

LN2 = np.log(2.0)


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def entropy(rho):
    """S(rho) in nats as cut_measures reports it, for a state whose first two
    factors are qubits; a trivial factor appended as side B makes any such
    state cuttable."""
    return cut_measures(DensityMatrix(rho.mat, rho.dims + (1,)), cut=(0, 1)).entropy_AB


def diagonal(probs, dims=(2, 2)):
    """The state diag(probs), two qubits by default."""
    return DensityMatrix(np.diag(probs).astype(complex), dims)


def test_shannon_entropy_examples():
    # The entropy of a diagonal state is the Shannon entropy of its diagonal.
    assert entropy(diagonal([1, 0, 0, 0])) == 0.0
    assert abs(entropy(diagonal([0.25] * 4)) - 2 * LN2) < 1e-12
    assert abs(entropy(diagonal([0.5, 0.5, 0, 0])) - LN2) < 1e-12


def test_shannon_entropy_rejects_negative():
    with pytest.raises(ValueError):
        diagonal([1.1, -0.1, 0.0, 0.0])
    # A spectrum entry down to EIG_FLOOR is float noise and counts as 0 in
    # the entropies; anything below is rejected.
    top = 0.6 - EIG_FLOOR / 2
    noisy = cut_measures(diagonal([top, 0.4, EIG_FLOOR / 2, 0.0], (2, 2, 1)), cut=(0, 1))
    assert noisy.entropy_AB == noisy.entropy_A
    assert abs(noisy.entropy_AB + 0.4 * np.log(0.4) + top * np.log(top)) < 1e-15
    assert noisy.mutual_information == 0.0
    with pytest.raises(ValueError, match="below -1e-9"):
        diagonal([0.6 - 2 * EIG_FLOOR, 0.4, 2 * EIG_FLOOR, 0.0])


def test_von_neumann_pure_state():
    assert entropy(spdc_state(0.3)) < 1e-10


def test_von_neumann_maximally_mixed():
    assert abs(entropy(diagonal([0.25] * 4)) - 2 * LN2) < 1e-10


def test_von_neumann_timebin_state():
    # Spectrum of the p=0.3 time-bin state is {p^2, (1-p)^2, p(1-p), p(1-p)};
    # oracle: Shannon entropy of those weights evaluated directly.
    p = 0.3
    weights = np.array([p**2, (1 - p) ** 2, p * (1 - p), p * (1 - p)])
    expected = float(-np.sum(weights * np.log(weights)))
    theta = float(np.arccos(np.sqrt(p)))
    rho = timebin_mix(dephase(spdc_state(theta)), p)
    assert abs(entropy(rho) - expected) < 1e-10


def test_mutual_information_product_state():
    rho = DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex), (2, 2))
    assert abs(mutual_information(rho, cut=[0])) < 1e-10


def test_mutual_information_half_mix():
    rho = timebin_mix(dephase(spdc_state(np.pi / 4)), 0.5)
    assert abs(mutual_information(rho, cut=[0, 1]) - 2 * LN2) < 1e-10


def test_mutual_information_quarter():
    p = 0.25
    expected = -2 * (p * np.log(p) + (1 - p) * np.log(1 - p))
    theta = float(np.arccos(np.sqrt(p)))
    rho = timebin_mix(dephase(spdc_state(theta)), p)
    assert abs(mutual_information(rho, cut=[0, 1]) - expected) < 1e-9


def test_mutual_information_invalid_cut():
    rho = spdc_state(0.2)
    with pytest.raises(ValueError):
        mutual_information(rho, cut=[0, 1])


def test_mutual_information_local_unitary_invariance():
    rng = np.random.default_rng(31)
    rho = states.cc_family(0.3, 0.8)
    base = mutual_information(rho, cut=[0, 1])
    for _ in range(5):
        u = np.kron(random_unitary(rng, 4), random_unitary(rng, 4))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims)
        assert abs(mutual_information(rotated, cut=[0, 1]) - base) < 1e-9


def test_concurrence_bell():
    rho = DensityMatrix(np.outer(states.KET_PLUS, states.KET_PLUS), (2, 2))
    assert abs(concurrence(rho) - 1.0) < 1e-10


def test_concurrence_maximally_mixed():
    assert concurrence(DensityMatrix(np.eye(4) / 4, (2, 2))) == 0.0


def test_concurrence_family_point():
    rho_a = partial_trace(states.cc_family(0.2, 0.8), keep=[0, 1])
    assert abs(concurrence(rho_a) - 0.32) < 1e-9


def test_concurrence_pure_states_sin_2theta():
    for theta in np.linspace(0.0, np.pi / 2, 25):
        c = concurrence(spdc_state(theta))
        assert abs(c - abs(np.sin(2 * theta))) < 1e-10


def test_concurrence_wrong_dims():
    with pytest.raises(ValueError):
        concurrence(DensityMatrix(np.eye(4) / 4, (4,)))


def test_concurrence_equals_the_stack_path_bit_for_bit():
    rng = np.random.default_rng(43)
    cuts = [(states.cc_family(p, q), (0, 1)) for p, q in rng.random((100, 2))]
    for _ in range(100):
        # Rank-2 two-qubit states, most of them entangled.
        psi = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        rho = psi @ np.diag(rng.dirichlet([1.0, 1.0])) @ psi.conj().T
        rho = DensityMatrix(rho / np.trace(rho).real, (2, 2, 1))
        cuts.append((rho, (0, 1)))
    values = []
    for rho, cut in cuts:
        values.append(concurrence(partial_trace(rho, keep=cut)))
        assert values[-1] == cut_measures(rho, cut).concurrence
    assert sum(v > 0.0 for v in values) > 100


def test_spin_flip_eigenvalue_fixture():
    rng = np.random.default_rng(37)
    for p, q in rng.random((200, 2)):
        rho_a = partial_trace(states.cc_family(p, q), keep=[0, 1])
        mu = np.sort(spin_flip_eigenvalues(rho_a))[::-1]
        qt = min(q, 1 - q)
        expected = np.sort(
            [
                qt**2 * (1 - p) ** 2,
                (1 - qt) ** 2 * (1 - p) ** 2,
                p**2 * qt * (1 - qt),
                p**2 * qt * (1 - qt),
            ]
        )[::-1]
        assert np.max(np.abs(mu - expected)) < 1e-10


def test_closed_forms_match_numerics():
    rng = np.random.default_rng(41)
    for p, q in rng.random((200, 2)):
        rho = states.cc_family(p, q)
        i_num = mutual_information(rho, cut=[0, 1])
        e_num = concurrence(partial_trace(rho, keep=[0, 1]))
        assert abs(i_num - closed_form_I(p, q)) < 1e-9
        assert abs(e_num - closed_form_E(p, q)) < 1e-9


def test_closed_form_I_examples():
    assert closed_form_I(0.0, 1.0) == 0.0
    assert abs(closed_form_I(0.5, 0.5) - 2 * LN2) < 1e-12
    assert abs(closed_form_I(0.3, 0.8) - closed_form_I(0.7, 0.2)) < 1e-12


def test_closed_form_E_examples():
    assert abs(closed_form_E(0.0, 1.0) - 1.0) < 1e-12
    assert abs(closed_form_E(0.302, 0.698)) < 1e-3  # near the root of the red curve
    assert abs(closed_form_E(0.4, 0.2) - closed_form_E(0.4, 0.8)) < 1e-12


def _scalar_h2(p):
    # The per-point form the closed forms had before they took arrays.
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log(p) - (1 - p) * np.log(1 - p))


def _scalar_E(p, q):
    qt = min(q, 1.0 - q)
    return float(max(0.0, (1 - 2 * qt) * (1 - p) - 2 * p * np.sqrt(qt * (1 - qt))))


def test_closed_forms_broadcast_bit_for_bit():
    grid = np.arange(0.0, 1.0 + 1e-12, 0.02)
    p, q = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    i_arr, e_arr = closed_form_I(p, q), closed_form_E(p, q)
    assert i_arr.shape == e_arr.shape == p.shape
    for k in range(len(p)):
        assert i_arr[k] == _scalar_h2(p[k]) + _scalar_h2(q[k])
        assert e_arr[k] == _scalar_E(p[k], q[k])
    assert isinstance(closed_form_I(0.3, 0.4), float)
    assert isinstance(closed_form_E(0.3, 0.4), float)
    # p broadcasts against a column of q values.
    assert closed_form_E(np.array([0.1, 0.2]), np.array([[0.3], [0.9]])).shape == (2, 2)
    # One entry outside [0, 1] (or NaN) rejects the whole array.
    for bad in (np.array([0.2, 1.5]), np.array([-0.1, 0.5]), np.array([np.nan, 0.5])):
        with pytest.raises(ValueError):
            closed_form_I(bad, 0.5)
        with pytest.raises(ValueError):
            closed_form_E(0.5, bad)


def test_fidelity_self():
    rho = states.cc_family(0.3, 0.4)
    assert abs(fidelities(rho, rho) - 1.0) < 1e-9


def test_fidelity_orthogonal():
    r0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    r1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,))
    assert fidelities(r0, r1) < 1e-12


def test_fidelity_pure_vs_mixed():
    r0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    mix = DensityMatrix(np.eye(2) / 2, (2,))
    assert abs(fidelities(r0, mix) - 0.5) < 1e-10


def test_fidelity_symmetric_and_pure_overlap():
    rng = np.random.default_rng(43)
    for _ in range(5):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        ra = DensityMatrix(np.outer(a, a.conj()), (2, 2))
        rb = DensityMatrix(np.outer(b, b.conj()), (2, 2))
        f_ab = fidelities(ra, rb)
        f_ba = fidelities(rb, ra)
        assert abs(f_ab - f_ba) < 1e-10
        assert abs(f_ab - abs(np.vdot(a, b)) ** 2) < 1e-10


def test_fidelities_stack_matches_pairs():
    rng = np.random.default_rng(47)
    g = rng.normal(size=(2, 6, 4, 4)) + 1j * rng.normal(size=(2, 6, 4, 4))
    mats = g @ g.conj().swapaxes(-1, -2)
    mats /= np.trace(mats, axis1=-2, axis2=-1).real[..., None, None]
    rhos, sigmas = (DensityMatrix(m, (2, 2)) for m in mats)
    f = fidelities(rhos, sigmas)
    assert f.shape == (6,)
    for k in range(6):
        one = fidelities(DensityMatrix(mats[0, k], (2, 2)), DensityMatrix(mats[1, k], (2, 2)))
        assert abs(f[k] - one) < 1e-15
    # A state whose kept spectrum was altered after its check is caught.
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    heavy = rho._replace(spectrum=rho.spectrum * 1.2)
    with pytest.raises(ValueError, match="exceeds 1"):
        fidelities(heavy, heavy)


def test_fidelity_dim_mismatch():
    with pytest.raises(ValueError):
        fidelities(DensityMatrix(np.eye(2) / 2, (2,)), DensityMatrix(np.eye(4) / 4, (2, 2)))


def test_report_consistency():
    rho = states.cc_family(0.35, 0.55)
    rep = measures.cut_measures(rho, cut=(0, 1))
    assert abs(rep.mutual_information - (rep.entropy_A + rep.entropy_B - rep.entropy_AB)) < 1e-10
    assert 0.0 <= rep.concurrence <= 1.0


def test_cut_measures_on_a_stack_match_the_state_functions():
    # On a stack, mutual_information and concurrence return the arrays that
    # cut_measures reports, and each entry is the float of its own state.
    p, q = np.random.default_rng(37).random((2, 4))
    stack = states.cc_family(p, q)
    rep = measures.cut_measures(stack, cut=(0, 1))
    i_arr = mutual_information(stack, cut=[0, 1])
    e_arr = concurrence(partial_trace(stack, keep=[0, 1]))
    assert np.array_equal(i_arr, rep.mutual_information)
    assert np.array_equal(e_arr, rep.concurrence)
    for k in range(4):
        rho = states.cc_family(p[k], q[k])
        i_one, e_one = mutual_information(rho, cut=[0, 1]), concurrence(partial_trace(rho, [0, 1]))
        assert type(i_one) is float and type(e_one) is float
        assert abs(i_arr[k] - i_one) < 1e-14
        assert abs(e_arr[k] - e_one) < 1e-14
        assert abs(rep.entropy_AB[k] - cut_measures(rho, (0, 1)).entropy_AB) < 1e-14


def test_cut_measures_needs_a_two_qubit_side_a():
    rho = states.cc_family(0.3, 0.6)
    with pytest.raises(ValueError):
        measures.cut_measures(DensityMatrix(rho.mat[None], rho.dims), cut=(0,))


def test_concurrence_accurate_at_tiny_spin_flip_eigenvalues():
    # mu ~ p^3 here; square roots of eigenvalues carry an absolute error of
    # ~1e-16 / sqrt(mu), singular values do not.
    for p in (1e-5, 1e-4, 1e-3):
        rho_a = partial_trace(states.cc_family(p, 1.0 - p), keep=[0, 1])
        assert abs(concurrence(rho_a) - closed_form_E(p, 1.0 - p)) < 1e-13


def test_concurrence_exact_where_an_eigenvalue_of_rho_a_is_tiny():
    # The square root behind the concurrence clamps rho_A's spectrum at 0 and
    # keeps every positive eigenvalue, however small: with a relative floor of
    # 1e-14, eigenvalues p q~ near it lost their spin-flip roots (E was up to
    # 1.7e-7 off on these states).
    rng = np.random.default_rng(2024)
    p, t = rng.random(2000), 10.0 ** rng.uniform(-20.0, -6.0, 2000)
    q = np.where(rng.random(2000) < 0.5, t, 1.0 - t)
    rep = cut_measures(states.cc_family(p, q), (0, 1))
    assert np.max(np.abs(rep.concurrence - closed_form_E(p, q))) <= 1e-14


def test_fidelity_of_rank_deficient_commuting_states():
    # Null-space noise of one state must not pick up the other's support.
    u = random_unitary(np.random.default_rng(41), 16)
    p = np.zeros(16)
    p[:3] = (0.5, 0.3, 0.2)
    q = np.zeros(16)
    q[1:5] = (0.1, 0.2, 0.3, 0.4)
    rho = DensityMatrix((u * p) @ u.conj().T, (2, 2, 2, 2))
    sigma = DensityMatrix((u * q) @ u.conj().T, (2, 2, 2, 2))
    exact = np.sum(np.sqrt(p * q)) ** 2
    assert abs(fidelities(rho, sigma) - exact) < 1e-12
    assert abs(fidelities(sigma, rho) - exact) < 1e-12
