import numpy as np
import pytest

from qtradeoff.linalg import (
    DensityMatrix,
    density_spectrum,
    herm_eig,
    partial_trace,
    spectral_fn,
)
from qtradeoff import linalg, states
from reference_states import dephase, spdc_state, timebin_mix


def random_density(rng, dims):
    n = int(np.prod(dims))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho, dims)


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    rho = random_density(rng, (2,))
    sig = random_density(rng, (3,))
    joint = DensityMatrix(np.kron(rho.mat, sig.mat), (2, 3))
    red = partial_trace(joint, keep=[0])
    assert np.max(np.abs(red.mat - rho.mat)) < 1e-12


def test_partial_trace_bell_marginal():
    bell = spdc_state(np.pi / 4)
    red = partial_trace(bell, keep=[0])
    assert np.max(np.abs(red.mat - np.eye(2) / 2)) < 1e-12


def test_partial_trace_half_mix_is_maximally_mixed_on_A():
    rho = timebin_mix(dephase(spdc_state(np.pi / 4)), 0.5)
    red = partial_trace(rho, keep=[0, 1])
    assert np.max(np.abs(red.mat - np.eye(4) / 4)) < 1e-12


def test_partial_trace_composition():
    rng = np.random.default_rng(5)
    rhos = [random_density(rng, (2, 2, 3)) for _ in range(10)]
    for rho in rhos:
        direct = partial_trace(rho, keep=[0])
        staged = partial_trace(partial_trace(rho, keep=[0, 1]), keep=[0])
        assert np.max(np.abs(direct.mat - staged.mat)) < 1e-10
    # A stack's reduced states, matrices and spectra, are the per-state ones
    # bit for bit.
    stack = DensityMatrix(np.array([r.mat for r in rhos]).reshape(2, 5, 12, 12), (2, 2, 3))
    for keep, dims in (([0], (2,)), ([0, 2], (2, 3)), ([1, 2], (2, 3))):
        red = partial_trace(stack, keep)
        assert isinstance(red, DensityMatrix) and red.dims == dims
        for k, rho in enumerate(rhos):
            one = partial_trace(rho, keep)
            assert np.array_equal(red.mat[divmod(k, 5)], one.mat)
            assert np.array_equal(red.spectrum[divmod(k, 5)], one.spectrum)


def test_partial_trace_rejects_bad_indices():
    rng = np.random.default_rng(2)
    rho = random_density(rng, (2, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, keep=[])
    with pytest.raises(ValueError):
        partial_trace(rho, keep=[5])


def test_herm_eig_diagonal():
    w, _ = herm_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-12)


def test_herm_eig_pauli_x():
    w, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)


def test_herm_eig_reduced_family_spectrum():
    # Eigenvalues of the reduced A state of the two-parameter family are its
    # four mixture weights; cross-check each against the characteristic
    # polynomial evaluated directly.
    p, q = 0.37, 0.81
    rho_a = partial_trace(states.cc_family(p, q), keep=[0, 1])
    w, _ = herm_eig(rho_a.mat)
    weights = sorted([p * (1 - q), (1 - p) * q, p * q, (1 - p) * (1 - q)])
    assert np.allclose(w, weights, atol=1e-10)
    for lam in w:
        char = np.linalg.det(rho_a.mat - lam * np.eye(4))
        assert abs(char) < 1e-10


def test_herm_eig_matches_lapack_on_random_hermitian():
    rng = np.random.default_rng(11)
    for n in (2, 4, 8, 16):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (a + a.conj().T) / 2
        w, v = herm_eig(h)
        ref = np.sort(np.linalg.eigvalsh(h))
        assert np.max(np.abs(w - ref)) < 1e-10
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - h)) < 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-9


def _degenerate_4x4():
    u = random_unitary(np.random.default_rng(23), 4)
    return (u * np.array([0.4, 0.25, 0.25, 0.1])) @ u.conj().T


def _random_16x16():
    a = np.random.default_rng(29).normal(size=(16, 16, 2)) @ np.array([1.0, 1j])
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("make", [_degenerate_4x4, _random_16x16])
def test_herm_eig_reconstruction(make):
    m = make()
    w, v = herm_eig(m)
    assert np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) < 1e-12
    assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-12


def test_herm_eig_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(31)
    stack = np.array([random_density(rng, (2, 2)).mat for _ in range(3)])
    w, v = herm_eig(stack)
    for k in range(3):
        w_k, v_k = herm_eig(stack[k])
        assert np.max(np.abs(w[k] - w_k)) < 1e-15
        assert np.max(np.abs(v[k] - v_k)) < 1e-12


def test_density_spectrum_checks_every_matrix_of_a_stack():
    good = np.eye(4) / 4
    w = density_spectrum(np.array([good, np.diag([0.7, 0.1, 0.1, 0.1])]))
    assert w.shape == (2, 4) and np.allclose(np.sum(w, axis=-1), 1.0)
    not_hermitian = good + 0.1j * np.triu(np.ones((4, 4)), 1)
    for bad in (np.eye(4) / 2, np.diag([1.1, 0.0, 0.0, -0.1]), not_hermitian):
        with pytest.raises(ValueError):
            density_spectrum(np.array([good, bad]))


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_density_eigenvalues_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(5):
        rho = random_density(rng, (2, 2, 2))
        assert abs(np.sum(herm_eig(rho.mat)[0]) - 1.0) < 1e-10


def test_spectral_fn_sqrt_examples():
    out = spectral_fn(np.eye(2) / 2, np.sqrt)
    assert np.max(np.abs(out - np.eye(2) / np.sqrt(2))) < 1e-12
    out = spectral_fn(np.diag([4.0, 1.0]), np.sqrt)
    assert np.max(np.abs(out - np.diag([2.0, 1.0]))) < 1e-12


def test_spectral_fn_sqrt_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = random_density(rng, (2, 2))
        root = spectral_fn(rho.mat, np.sqrt)
        assert np.max(np.abs(root @ root - rho.mat)) < 1e-9


def test_spectral_fn_identity_function():
    rng = np.random.default_rng(19)
    rho = random_density(rng, (2, 2, 2, 2))
    out = spectral_fn(rho.mat, lambda x: x)
    assert np.max(np.abs(out - rho.mat)) < 1e-10


@pytest.mark.parametrize("make", [_degenerate_4x4, _random_16x16])
def test_spectral_fn_ignores_eigenvector_phases(make, monkeypatch):
    # Eigenvectors carry no phase contract: a spectral function rebuilds the
    # same matrix whatever unit phase each eigenvector column has.
    m = make()
    expected = spectral_fn(m, np.exp)
    rng = np.random.default_rng(37)
    eig = linalg.herm_eig

    def rephased(a):
        w, v = eig(a)
        return w, v * np.exp(2j * np.pi * rng.random(v.shape[-1]))

    monkeypatch.setattr(linalg, "herm_eig", rephased)
    for _ in range(5):
        assert np.max(np.abs(spectral_fn(m, np.exp) - expected)) < 1e-12


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (2,))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]), (2,))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, (2, 3))  # dims mismatch


def test_density_matrix_checks_in_new_and_is_immutable():
    rho = DensityMatrix(np.eye(2, dtype=int) / 2, [np.int64(2)])
    assert rho.mat.dtype == complex and rho.dims == (2,) and type(rho.dims[0]) is int
    with pytest.raises(AttributeError):
        rho.mat = np.eye(2) / 2
    with pytest.raises(AttributeError):
        rho.extra = 1
    with pytest.raises(ValueError, match="must be square"):
        DensityMatrix(np.full((2, 3), 1 / 3), (2,))
    with pytest.raises(ValueError, match=r"dims \(2, 3\) incompatible with matrix dimension 4"):
        DensityMatrix(np.eye(4) / 4, (2, 3))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.array([[np.nan, 0], [0, 1]]), (2,))
    # A stack holds one checked state per matrix, with its spectrum.
    stack = DensityMatrix(np.array([np.eye(4) / 4, np.diag([0.7, 0.1, 0.1, 0.1])]), (2, 2))
    assert stack._fields == ("mat", "dims", "spectrum")
    assert np.array_equal(stack.spectrum, density_spectrum(stack.mat))
    with pytest.raises(ValueError, match="must be square"):
        DensityMatrix(np.full((3, 2, 4), 1 / 8), (2,))
    with pytest.raises(ValueError, match=r"dims \(2, 3\) incompatible with matrix dimension 4"):
        DensityMatrix(np.array([np.eye(4) / 4] * 3), (2, 3))
