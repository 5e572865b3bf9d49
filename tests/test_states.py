import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtradeoff import measures, states
from qtradeoff.bound import zeta
from qtradeoff.linalg import DensityMatrix, density_eig, partial_trace
from reference_states import dephase, spdc_state, timebin_mix


def assert_checked(rho, dims, shape):
    """rho is a DensityMatrix of the given dims and matrix shape, and its
    spectrum and vectors are density_eig of its matrices, bit for bit."""
    assert isinstance(rho, DensityMatrix)
    assert rho.dims == dims and rho.mat.shape == shape
    w, v = density_eig(rho.mat)
    assert np.array_equal(rho.spectrum, w) and np.array_equal(rho.vectors, v)


def test_spdc_bell_state():
    rho = spdc_state(np.pi / 4)
    assert abs(measures.concurrence(rho) - 1.0) < 1e-10


def test_spdc_theta_zero():
    rho = spdc_state(0.0)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho.mat - expected)) < 1e-12


def test_spdc_concurrence_is_sin_2theta():
    rho = spdc_state(np.pi / 8)
    assert abs(measures.concurrence(rho) - np.sin(np.pi / 4)) < 1e-10


def test_spdc_rejects_out_of_range():
    with pytest.raises(ValueError):
        spdc_state(-0.1)


def test_dephase_bell():
    out = dephase(spdc_state(np.pi / 4))
    assert np.max(np.abs(out.mat - np.diag([0.5, 0, 0, 0.5]))) < 1e-12


def test_dephase_diagonal_fixed_point():
    rho = spdc_state(0.0)
    assert np.max(np.abs(dephase(rho).mat - rho.mat)) < 1e-12


def test_dephase_preserves_trace():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = DensityMatrix((a @ a.conj().T) / np.trace(a @ a.conj().T).real, (2, 2))
    assert abs(np.trace(dephase(rho).mat) - 1.0) < 1e-12


def test_isometry_images():
    # The eight column images of the mapping beside the constants.
    ket = np.eye(4, dtype=complex)
    plus, minus = (ket[1] + ket[2]) / np.sqrt(2.0), (ket[1] - ket[2]) / np.sqrt(2.0)
    images = {"U1": (ket[3], plus), "U2": (ket[0], minus),
              "V1": (ket[0], ket[2]), "V2": (ket[1], ket[3])}
    for name, cols in images.items():
        m = getattr(states, name)
        assert m.shape == (4, 2)
        for j, expected in enumerate(cols):
            assert np.max(np.abs(m @ np.eye(2)[j] - expected)) < 1e-12


def test_isometry_condition():
    for m in (states.U1, states.U2, states.V1, states.V2):
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


def test_mix_products_are_the_isometry_products():
    assert np.array_equal(states._W1, np.kron(states.U1, states.V1))
    assert np.array_equal(states._W2, np.kron(states.U2, states.V2))


def test_state_stacks_keep_their_bytes():
    # Pinned bytes, signed zeros included, that no change to how the stacks
    # are built may move.  Each entry sums at most one nonzero product, so its
    # value does not depend on the order in which a BLAS sums.
    stack = states.timebin_states(np.arange(65) * np.pi / 128)
    assert hashlib.sha256(stack.mat.tobytes()).hexdigest() == (
        "15876e56c5508472889ae1951b940cb84cce957a121e6ab79ac120960ce20950")
    p, q = np.random.default_rng(43).random((2, 2000))
    assert hashlib.sha256(states.cc_family(p, q).mat.tobytes()).hexdigest() == (
        "c5eac48403f37f03b5cf19bdadbb763528c40eb4547af4cbbf056b3058056e03")


@pytest.mark.parametrize("p, q", [(1.5, 0.5), (0.5, -0.1)])
@pytest.mark.parametrize("build", [states.cc_family, measures.closed_form_I,
                                   measures.closed_form_E],
                         ids=["cc_family", "closed_form_I", "closed_form_E"])
def test_family_parameters_out_of_range_raise(build, p, q):
    with pytest.raises(ValueError, match=r"p and q must lie in \[0,1\]"):
        build(p, q)


def test_timebin_endpoints():
    # p=0 (theta=pi/2): |+><+| (x) |10><10|
    rho = timebin_mix(dephase(spdc_state(np.pi / 2)), 0.0)
    beta = np.zeros(4)
    beta[states.BETA] = 1.0
    expected = np.kron(np.outer(states.KET_PLUS, states.KET_PLUS), np.outer(beta, beta))
    assert np.max(np.abs(rho.mat - expected)) < 1e-12
    # p=1 (theta=0): |00><00| (x) |01><01|
    rho = timebin_mix(dephase(spdc_state(0.0)), 1.0)
    alpha = np.zeros(4)
    alpha[states.ALPHA] = 1.0
    expected = np.kron(np.outer(states.KET_00, states.KET_00), np.outer(alpha, alpha))
    assert np.max(np.abs(rho.mat - expected)) < 1e-12


def test_timebin_half_matches_direct_assembly():
    rho = timebin_mix(dephase(spdc_state(np.pi / 4)), 0.5)
    eye4 = np.eye(4)
    direct = np.zeros((16, 16), dtype=complex)
    for w, a_vec, b_idx in [
        (0.25, states.KET_00, states.ALPHA),
        (0.25, states.KET_PLUS, states.BETA),
        (0.25, states.KET_11, states.GAMMA),
        (0.25, states.KET_MINUS, states.DELTA),
    ]:
        direct += w * np.kron(np.outer(a_vec, a_vec.conj()), np.outer(eye4[b_idx], eye4[b_idx]))
    assert np.max(np.abs(rho.mat - direct)) < 1e-12


def test_timebin_rejects_coherent_input():
    with pytest.raises(ValueError):
        timebin_mix(spdc_state(np.pi / 4), 0.5)


def test_timebin_matches_cc_family_random_p():
    rng = np.random.default_rng(21)
    for p in rng.random(50):
        theta = float(np.arccos(np.sqrt(p)))
        tb = timebin_mix(dephase(spdc_state(theta)), p)
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
    a_basis = np.stack([states.KET_00, states.KET_PLUS, states.KET_11, states.KET_MINUS], axis=1)
    full = np.kron(a_basis, np.eye(4))
    rotated = full.conj().T @ rho.mat @ full
    off = rotated - np.diag(np.diag(rotated))
    assert np.max(np.abs(off)) < 1e-12
    assert np.sum(np.diag(rotated).real > 1e-12) <= 4


def test_cc_family_entropies_coincide():
    rng = np.random.default_rng(23)
    for p, q in rng.random((10, 2)):
        rho = states.cc_family(p, q)
        rep = measures.cut_measures(rho, cut=(0, 1))
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
        timebin_mix(dephase(spdc_state(theta)), p)


def test_timebin_states_match_chain():
    # The stack has the floats of spdc -> dephase -> timebin_mix, signed zeros
    # included, whether an angle comes alone or in an array.
    thetas = np.concatenate([np.arange(65) * np.pi / 128,
                             np.random.default_rng(31).random(40) * np.pi / 2])
    stack = states.timebin_states(thetas)
    assert_checked(stack, (2, 2, 2, 2), (len(thetas), 16, 16))
    for theta, mat in zip(thetas, stack.mat):
        p = np.cos(float(theta)) ** 2
        chain = timebin_mix(dephase(spdc_state(float(theta))), p).mat
        one = states.timebin_states(float(theta))
        assert_checked(one, (2, 2, 2, 2), (16, 16))
        for a, b in ((chain, mat), (chain, one.mat)):
            assert np.array_equal(a, b)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))
    for bad in (-1e-3, np.pi / 2 + 1e-9, [0.1, 2.0], np.array([0.0, np.pi / 4, -0.0, -0.5])):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2\]"):
            states.timebin_states(bad)


def test_cc_family_stack_matches_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(37)
    p, q = rng.random((3, 1)), rng.random(4)
    p[0, 0], q[1] = 0.0, 1.0
    stack = states.cc_family(p, q)
    assert_checked(stack, (2, 2, 4), (3, 4, 16, 16))
    for i in range(3):
        for j in range(4):
            rho = states.cc_family(float(p[i, 0]), float(q[j]))
            assert_checked(rho, (2, 2, 4), (16, 16))
            assert np.array_equal(stack.mat[i, j], rho.mat)
    with pytest.raises(ValueError, match=r"p and q must lie in \[0,1\]"):
        states.cc_family(np.array([0.5, 1.5]), 0.5)


def test_classical_classical_stack_rejects_one_bad_table():
    good = np.full((3, 2, 2), 0.25)
    for bad in (np.array([[0.5, 0.5], [0.25, -0.25]]), np.full((2, 2), 0.26)):
        weights = good.copy()
        weights[1] = bad
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            states.classical_classical(weights, np.eye(2), np.eye(2))


def test_classical_classical_stack_matches_per_table_calls():
    rng = np.random.default_rng(41)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, r = np.linalg.qr(a)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    b = np.eye(4)[:, rng.permutation(4)]
    weights = rng.dirichlet(np.ones(16), size=20).reshape(20, 4, 4)
    stack = states.classical_classical(weights, u, b)
    assert_checked(stack, (4, 4), (20, 16, 16))
    for w, mat in zip(weights, stack.mat):
        rho = states.classical_classical(w, u, b)
        assert_checked(rho, (4, 4), (16, 16))
        assert np.max(np.abs(rho.mat - mat)) <= 1e-15


def test_timebin_states_match_stacked_cc_family():
    thetas = np.arange(65) * np.pi / 128
    family = states.cc_family(np.cos(thetas) ** 2, np.sin(thetas) ** 2)
    assert np.max(np.abs(states.timebin_states(thetas).mat - family.mat)) <= 1e-12


@settings(derandomize=True, max_examples=50, database=None, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8))
@example(pairs=[(0.5, 4.337639724760935e-15)])  # E was 6.6e-8 off under a 1e-14 floor
def test_stacked_cc_family_measures_match_closed_forms(pairs):
    p, q = np.array(pairs).T
    rep = measures.cut_measures(states.cc_family(p, q), cut=(0, 1))
    assert np.max(np.abs(rep.mutual_information - measures.closed_form_I(p, q))) <= 1e-9
    assert np.max(np.abs(rep.concurrence - measures.closed_form_E(p, q))) <= 1e-9


def _random_bases(rng):
    """A random unitary basis of two qubits, as (2, 2, 4) columns, and a
    random orthogonal basis of one 4-level system: the Q factors of a complex
    and of a real Gaussian matrix."""
    a = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    return a.reshape(2, 2, 4), np.linalg.qr(rng.normal(size=(4, 4)))[0]


def _k(spectrum):
    """k(lambda) = l1 - l3 - 2 sqrt(l2 l4) of ascending spectra, with
    float-noise negatives read as 0."""
    l4, l3, l2, l1 = np.maximum(np.moveaxis(spectrum, -1, 0), 0.0)
    return l1 - l3 - 2.0 * np.sqrt(l2 * l4)


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), alpha=st.sampled_from([0.05, 0.3, 1.0]),
       size=st.integers(1, 8), nonzero=st.integers(2, 4))
def test_bound_chain_holds_on_classical_classical_states(seed, alpha, size, nonzero):
    # The bound's chain E <= max(0, k(lambda_A)) <= zeta(S_A) <= zeta(I) on
    # general classical-classical states (A two qubits in a random basis, B a
    # 4-level system): the last link needs only S_A >= I, which a classical
    # side gives.  A pure state sum_i sqrt(lambda_i) |a_i>|b_i> with two or
    # more nonzero lambda_i has I = 2 S_A, so it fails that link.
    rng = np.random.default_rng(seed)
    a_basis, b_basis = _random_bases(rng)
    weights = rng.dirichlet(np.full(16, alpha), size=size).reshape(size, 4, 4)
    rho = states.classical_classical(weights, a_basis, b_basis)
    rep = measures.cut_measures(rho, (0, 1))
    e, i, s_a = rep.concurrence, rep.mutual_information, rep.entropy_A
    k = np.maximum(0.0, _k(partial_trace(rho, (0, 1)).spectrum))
    assert np.all(e <= k + 1e-9)
    assert np.all(k <= zeta(s_a) + 1e-9)
    assert np.all(s_a >= i - 1e-9)
    assert np.all(e <= zeta(i) + 1e-9)

    lam = np.zeros(4)
    lam[:nonzero] = rng.uniform(0.1, 1.0, nonzero)
    psi = ((a_basis.reshape(4, 4) * np.sqrt(lam / np.sum(lam))) @ b_basis.T).ravel()
    pure = measures.cut_measures(DensityMatrix(np.outer(psi, psi.conj()), (2, 2, 4)), (0, 1))
    assert abs(pure.mutual_information - 2.0 * pure.entropy_A) <= 1e-9
    assert not pure.entropy_A >= pure.mutual_information - 1e-9
