import numpy as np
import pytest

from qtradeoff import measures, states
from qtradeoff.linalg import DensityMatrix


def test_spdc_bell_state():
    rho = states.spdc_state(np.pi / 4)
    assert abs(measures.concurrence(rho) - 1.0) < 1e-10


def test_spdc_theta_zero():
    rho = states.spdc_state(0.0)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho.mat - expected)) < 1e-12


def test_spdc_concurrence_is_sin_2theta():
    rho = states.spdc_state(np.pi / 8)
    assert abs(measures.concurrence(rho) - np.sin(np.pi / 4)) < 1e-10


def test_spdc_rejects_out_of_range():
    with pytest.raises(ValueError):
        states.spdc_state(-0.1)


def test_dephase_bell():
    out = states.dephase(states.spdc_state(np.pi / 4))
    assert np.max(np.abs(out.mat - np.diag([0.5, 0, 0, 0.5]))) < 1e-12


def test_dephase_diagonal_fixed_point():
    rho = states.spdc_state(0.0)
    assert np.max(np.abs(states.dephase(rho).mat - rho.mat)) < 1e-12


def test_dephase_preserves_trace():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = DensityMatrix((a @ a.conj().T) / np.trace(a @ a.conj().T).real, (2, 2))
    assert abs(np.trace(states.dephase(rho).mat) - 1.0) < 1e-12


def test_isometry_images():
    u1 = states.isometry("U1")
    assert np.max(np.abs(u1 @ np.array([1, 0]) - states.KET11)) < 1e-12
    v2 = states.isometry("V2")
    assert np.max(np.abs(v2 @ np.array([0, 1]) - states.KET11)) < 1e-12
    u2 = states.isometry("U2")
    assert np.max(np.abs(u2 @ np.array([0, 1]) - states.KET_MINUS)) < 1e-12


def test_isometry_condition():
    for label in ("U1", "U2", "V1", "V2"):
        m = states.isometry(label)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


def test_isometry_unknown_label():
    with pytest.raises(ValueError):
        states.isometry("U3")


def test_timebin_endpoints():
    # p=0 (theta=pi/2): |+><+| (x) |10><10|
    rho = states.timebin_mix(states.dephase(states.spdc_state(np.pi / 2)), 0.0)
    beta = np.zeros(4)
    beta[states.BETA] = 1.0
    expected = np.kron(np.outer(states.KET_PLUS, states.KET_PLUS), np.outer(beta, beta))
    assert np.max(np.abs(rho.mat - expected)) < 1e-12
    # p=1 (theta=0): |00><00| (x) |01><01|
    rho = states.timebin_mix(states.dephase(states.spdc_state(0.0)), 1.0)
    alpha = np.zeros(4)
    alpha[states.ALPHA] = 1.0
    expected = np.kron(np.outer(states.KET00, states.KET00), np.outer(alpha, alpha))
    assert np.max(np.abs(rho.mat - expected)) < 1e-12


def test_timebin_half_matches_direct_assembly():
    rho = states.timebin_mix(states.dephase(states.spdc_state(np.pi / 4)), 0.5)
    eye4 = np.eye(4)
    direct = np.zeros((16, 16), dtype=complex)
    for w, a_vec, b_idx in [
        (0.25, states.KET00, states.ALPHA),
        (0.25, states.KET_PLUS, states.BETA),
        (0.25, states.KET11, states.GAMMA),
        (0.25, states.KET_MINUS, states.DELTA),
    ]:
        direct += w * np.kron(np.outer(a_vec, a_vec.conj()), np.outer(eye4[b_idx], eye4[b_idx]))
    assert np.max(np.abs(rho.mat - direct)) < 1e-12


def test_timebin_rejects_coherent_input():
    with pytest.raises(ValueError):
        states.timebin_mix(states.spdc_state(np.pi / 4), 0.5)


def test_timebin_matches_cc_family_random_p():
    rng = np.random.default_rng(21)
    for p in rng.random(50):
        theta = float(np.arccos(np.sqrt(p)))
        tb = states.timebin_mix(states.dephase(states.spdc_state(theta)), p)
        cc = states.cc_family(p, 1.0 - p)
        assert np.max(np.abs(tb.mat - cc.mat)) < 1e-12


def test_cc_family_single_weight():
    rho = states.cc_family(0.0, 1.0)
    beta = np.zeros(4)
    beta[states.BETA] = 1.0
    expected = np.kron(np.outer(states.KET_PLUS, states.KET_PLUS), np.outer(beta, beta))
    assert np.max(np.abs(rho.mat - expected)) < 1e-12


def test_cc_family_equal_weights():
    rho = states.cc_family(0.5, 0.5)
    w = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
    assert np.allclose(w[:4], 0.25, atol=1e-12)
    assert np.allclose(w[4:], 0.0, atol=1e-12)


def test_cc_family_diagonal_in_its_eigenbasis():
    # A-basis {|00>,|+>,|11>,|->} times the B basis diagonalizes the state.
    p, q = 0.3, 0.6
    rho = states.cc_family(p, q)
    a_basis = np.stack([states.KET00, states.KET_PLUS, states.KET11, states.KET_MINUS], axis=1)
    full = np.kron(a_basis, np.eye(4))
    rotated = full.conj().T @ rho.mat @ full
    off = rotated - np.diag(np.diag(rotated))
    assert np.max(np.abs(off)) < 1e-12
    assert np.sum(np.diag(rotated).real > 1e-12) <= 4


def test_cc_family_entropies_coincide():
    rng = np.random.default_rng(23)
    for p, q in rng.random((10, 2)):
        rho = states.cc_family(p, q)
        rep = measures.cut_measures(rho.mat, rho.dims, cut=(0, 1))
        s_ab, s_a, s_b = rep.entropy_AB, rep.entropy_A, rep.entropy_B
        assert abs(s_ab - s_a) < 1e-10
        assert abs(s_ab - s_b) < 1e-10


def test_classical_classical_product_state():
    w = np.zeros((2, 2))
    w[0, 0] = 1.0
    rho = states.classical_classical(w, np.eye(2), np.eye(2))
    assert abs(measures.mutual_information(rho, cut=[0])) < 1e-12


def test_classical_classical_uniform():
    w = np.full((2, 3), 1.0 / 6)
    rho = states.classical_classical(w, np.eye(2), np.eye(3))
    assert abs(measures.mutual_information(rho, cut=[0])) < 1e-10


def test_classical_classical_maximal_on_diagonal():
    w = np.diag([0.25] * 4)
    rho = states.classical_classical(w, np.eye(4), np.eye(4))
    i_val = measures.mutual_information(rho, cut=[0])
    assert abs(i_val - np.log(4)) < 1e-10
    assert i_val <= np.log(4) + 1e-10  # classical-classical ceiling ln d


def test_classical_classical_rejects_bad_input():
    with pytest.raises(ValueError):
        states.classical_classical(np.full((2, 2), 0.3), np.eye(2), np.eye(2))
    skewed = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError):
        states.classical_classical(np.full((2, 2), 0.25), skewed, np.eye(2))


def test_constructed_states_are_valid_density_matrices():
    # DensityMatrix construction enforces the invariants; construction succeeding
    # is the check.
    rng = np.random.default_rng(29)
    for p, q in rng.random((5, 2)):
        states.cc_family(p, q)
        theta = float(np.arccos(np.sqrt(p)))
        states.timebin_mix(states.dephase(states.spdc_state(theta)), p)


def test_state_params_from_theta():
    sp = states.StateParams.from_theta(np.pi / 3)
    assert abs(sp.p - 0.25) < 1e-12
    assert abs(sp.q - 0.75) < 1e-12
    with pytest.raises(ValueError):
        states.StateParams(theta=0.0, p=1.2, q=0.0)


def test_state_params_check_arrays_and_are_immutable():
    sp = states.StateParams.from_theta(np.array([0.0, np.pi / 4]))
    assert sp._fields == ("theta", "p", "q")
    with pytest.raises(AttributeError):
        sp.p = 0.5
    with pytest.raises(ValueError, match=r"p and q must lie in \[0,1\]"):
        states.StateParams(np.zeros(2), np.array([0.5, -0.1]), np.array([0.5, 1.1]))


def test_timebin_states_match_chain():
    # The stack has the floats of spdc -> dephase -> timebin_mix, signed zeros
    # included, whether an angle comes alone or in an array.
    thetas = np.concatenate([np.arange(65) * np.pi / 128,
                             np.random.default_rng(31).random(40) * np.pi / 2])
    stack = states.timebin_states(thetas)
    assert stack.shape == (len(thetas), 16, 16)
    for theta, mat in zip(thetas, stack):
        p = states.StateParams.from_theta(float(theta)).p
        chain = states.timebin_mix(states.dephase(states.spdc_state(float(theta))), p).mat
        for a, b in ((chain, mat), (chain, states.timebin_states(float(theta)))):
            assert np.array_equal(a, b)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))
    with pytest.raises(ValueError):
        states.timebin_states([0.1, 2.0])
