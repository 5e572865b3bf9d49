import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtradeoff.linalg import (
    DensityMatrix,
    density_eig,
    herm_eig,
    partial_trace,
    spectral_fn,
)
from qtradeoff import linalg, measures, states
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


def test_partial_trace_of_a_checked_state_passes_its_check():
    # Each entry of this state is Hermitian within 0.9e-10, so it passes the
    # 1e-10 check, but the reduced state sums four of those deviations.  The
    # reduced state is symmetrized before its own check, so it is accepted
    # and exactly Hermitian; a reduced state left as summed would read
    # 3.6e-10 from Hermitian and be rejected.
    m = np.eye(16, dtype=complex) / 16
    for k in range(4):
        m[k, 4 + k] = m[4 + k, k] = 0.45e-10j
    red = partial_trace(DensityMatrix(m, (2, 2, 2, 2)), keep=[0, 1])
    assert np.array_equal(red.mat, red.mat.conj().T)
    assert np.max(np.abs(red.spectrum - 0.25)) < 1e-9


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
    w, v = density_eig(np.array([good, np.diag([0.7, 0.1, 0.1, 0.1])]))
    assert w.shape == (2, 4) and np.allclose(np.sum(w, axis=-1), 1.0)
    assert v.shape == (2, 4, 4)
    not_hermitian = good + 0.1j * np.triu(np.ones((4, 4)), 1)
    for bad in (np.eye(4) / 2, np.diag([1.1, 0.0, 0.0, -0.1]), not_hermitian):
        with pytest.raises(ValueError):
            density_eig(np.array([good, bad]))


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_density_eigenvalues_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(5):
        rho = random_density(rng, (2, 2, 2))
        assert abs(np.sum(herm_eig(rho.mat)[0]) - 1.0) < 1e-10


def test_spectral_fn_sqrt_examples():
    out = spectral_fn(DensityMatrix(np.eye(2) / 2, (2,)), np.sqrt)
    assert np.max(np.abs(out - np.eye(2) / np.sqrt(2))) < 1e-12
    out = spectral_fn(DensityMatrix(np.diag([0.64, 0.36]), (2,)), np.sqrt)
    assert np.max(np.abs(out - np.diag([0.8, 0.6]))) < 1e-12


def test_spectral_fn_sqrt_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = random_density(rng, (2, 2))
        root = spectral_fn(rho, np.sqrt)
        assert np.max(np.abs(root @ root - rho.mat)) < 1e-9


def test_spectral_fn_identity_function():
    rng = np.random.default_rng(19)
    rho = random_density(rng, (2, 2, 2, 2))
    out = spectral_fn(rho, lambda x: x)
    assert np.max(np.abs(out - rho.mat)) < 1e-10


@pytest.mark.parametrize("make", [_degenerate_4x4, _random_16x16])
def test_spectral_fn_ignores_eigenvector_phases(make):
    # Eigenvectors carry no phase contract: a state and a spectral function
    # rebuild the same matrix whatever unit phase each eigenvector column has.
    m = make() @ make()  # Hermitian and PSD, with make()'s degeneracies
    rho = DensityMatrix(m / np.trace(m).real, (len(m),))
    expected = spectral_fn(rho, np.exp)
    rng = np.random.default_rng(37)
    for _ in range(5):
        v = rho.vectors * np.exp(2j * np.pi * rng.random(len(m)))
        rephased = DensityMatrix.from_eig(rho.spectrum, v, rho.dims)
        assert np.max(np.abs(rephased.mat - rho.mat)) < 1e-12
        assert np.max(np.abs(spectral_fn(rephased, np.exp) - expected)) < 1e-12


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
    assert stack._fields == ("mat", "dims", "spectrum", "vectors")
    w, v = density_eig(stack.mat)
    assert np.array_equal(stack.spectrum, w) and np.array_equal(stack.vectors, v)
    with pytest.raises(ValueError, match="must be square"):
        DensityMatrix(np.full((3, 2, 4), 1 / 8), (2,))
    with pytest.raises(ValueError, match=r"dims \(2, 3\) incompatible with matrix dimension 4"):
        DensityMatrix(np.array([np.eye(4) / 4] * 3), (2, 3))


def test_from_eig_checks_the_spectrum_and_runs_no_solver(monkeypatch):
    v = random_unitary(np.random.default_rng(41), 4)
    w = np.array([-1e-11, 0.0, 0.3, 0.7])
    monkeypatch.setattr(np.linalg, "eigh", None)
    rho = DensityMatrix.from_eig(w, v, [np.int64(2), 2])
    assert rho.dims == (2, 2) and type(rho.dims[0]) is int
    assert rho.spectrum is w and rho.vectors is v
    assert np.max(np.abs(rho.mat - (v * w) @ v.conj().T)) == 0.0
    for bad in ([-1e-8, 0.0, 0.3, 0.7 + 1e-8], [0.0, 0.0, 0.3, 0.71], [np.nan, 0.0, 0.3, 0.7]):
        with pytest.raises(ValueError, match="probability vector"):
            DensityMatrix.from_eig(np.array(bad), v, (2, 2))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix.from_eig(w, v * np.inf, (2, 2))


def _mixed(n, entry=None, value=0.0):
    """The maximally mixed n x n state, with value added at one entry."""
    m = np.eye(n, dtype=complex) / n
    if entry is not None:
        m[entry] += value
    return m


# Bad inputs, each with the message every check that sees it must raise, the
# matrix checks that must reject it (the others must accept it: herm_eig checks
# no trace or spectrum, and only DensityMatrix takes dims), and the (w, v)
# that carries the same fault into from_eig, where one can.
BAD_INPUTS = [
    pytest.param(_mixed(4, (1, 2), np.nan), (2, 2), "non-finite",
                 "DensityMatrix density_eig herm_eig", ([0.25] * 4, _mixed(4, (1, 2), np.nan)),
                 id="nan"),
    pytest.param(np.full((4, 3), 0.25), (2, 2), "must be square",
                 "DensityMatrix density_eig herm_eig", None, id="non-square"),
    pytest.param(_mixed(4), (2, 3), r"dims \(2, 3\) incompatible with matrix dimension 4",
                 "DensityMatrix", ([0.25] * 4, np.eye(4)), id="dims-mismatch"),
    pytest.param(_mixed(4, (0, 1), 1e-9), (2, 2), "not Hermitian within 1e-10",
                 "DensityMatrix density_eig herm_eig", None, id="off-hermitian-1e-9"),
    pytest.param(_mixed(4, (0, 0), 2e-10), (2, 2), "trace differs from 1 beyond 1e-10",
                 "DensityMatrix density_eig", ([0.25, 0.25, 0.25, 0.25 + 2e-10], np.eye(4)),
                 id="trace-real-2e-10"),
    # Spread over the diagonal, so the matrix is Hermitian within 5e-11.
    pytest.param(np.eye(8) / 8 + 2.5e-11j * np.eye(8), (2, 2, 2),
                 "trace differs from 1 beyond 1e-10", "DensityMatrix density_eig", None,
                 id="trace-imag-2e-10"),
    pytest.param(np.diag([-2e-9, 0.0, 0.5, 0.5 + 2e-9]), (2, 2), "below -1e-9",
                 "DensityMatrix density_eig", ([-2e-9, 0.0, 0.5, 0.5 + 2e-9], np.eye(4)),
                 id="eigenvalue-minus-2e-9"),
]


@pytest.mark.parametrize("mat, dims, message, rejecting, spectral", BAD_INPUTS)
def test_each_check_rejects_what_it_owns(mat, dims, message, rejecting, spectral):
    checks = {"DensityMatrix": lambda: DensityMatrix(mat, dims),
              "density_eig": lambda: density_eig(mat), "herm_eig": lambda: herm_eig(mat)}
    for name, check in checks.items():
        if name in rejecting.split():
            with pytest.raises(ValueError, match=message):
                check()
        else:
            check()
    if spectral is not None:
        w, v = spectral
        with pytest.raises(ValueError, match=message):
            DensityMatrix.from_eig(np.array(w), v, dims)


def test_a_checked_state_scans_its_input_once(monkeypatch):
    # One finiteness scan, one conjugate transpose (which herm_eig both
    # compares the matrix with and symmetrizes by) and one eigensolver call
    # per checked construction, for a state and for a stack.
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "isfinite", counted("finite", np.isfinite))
    monkeypatch.setattr(linalg, "_dagger", counted("dagger", linalg._dagger))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    for mat in (np.eye(4) / 4, np.array([np.eye(4) / 4, np.diag([0.7, 0.1, 0.1, 0.1])])):
        calls.clear()
        DensityMatrix(mat, (2, 2))
        assert calls == {"finite": 1, "dagger": 1, "eigh": 1}


@st.composite
def density_stacks(draw, dims=None, stack=None):
    """(matrices, dims) of a random stack of states: each state G G^dagger /
    Tr of a Gaussian G whose columns are scaled by 10^-k, so that ranks run
    from 1 (pure) to full and eigenvalues from 1 down to about 1e-20."""
    dims = dims or draw(st.sampled_from([(2, 2, 2), (2, 2, 4), (2, 2, 2, 2)]))
    stack = draw(st.sampled_from([(), (1,), (3,), (2, 2)])) if stack is None else stack
    n = int(np.prod(dims))
    rank = draw(st.integers(1, n))
    scales = 10.0 ** -np.array(draw(st.lists(st.integers(0, 10), min_size=rank,
                                             max_size=rank)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = (rng.normal(size=stack + (n, rank, 2)) @ np.array([1.0, 1j])) * scales
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None], dims


def _clamped_sqrt(w):
    return np.sqrt(np.maximum(w, 0.0))


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(st.data())
def test_kept_decomposition_serves_every_reader(data):
    rho = DensityMatrix(*data.draw(density_stacks()))
    w, v = rho.spectrum, rho.vectors
    assert np.max(np.abs((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2) - rho.mat)) <= 1e-12
    # Eigensolver noise leaves null eigenvalues down to about -1e-17, where a
    # bare np.sqrt is undefined, so the root clamps them at 0.
    root = spectral_fn(rho, _clamped_sqrt)
    assert np.max(np.abs(root @ root - rho.mat)) <= 1e-12
    # The same state built from its kept (w, v), which runs no solver, gives
    # the same measures, and the same fidelities to a state of its dims.
    rebuilt = DensityMatrix.from_eig(w, v, rho.dims)
    for a, b in zip(measures.cut_measures(rho, (0, 1)), measures.cut_measures(rebuilt, (0, 1))):
        assert np.max(np.abs(a - b)) <= 1e-12
    sigma = DensityMatrix(*data.draw(density_stacks(rho.dims, ())))
    assert np.max(np.abs(measures.fidelities(rho, sigma)
                         - measures.fidelities(rebuilt, sigma))) <= 1e-12
