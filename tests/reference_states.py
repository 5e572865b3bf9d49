"""The scalar construction of the paper's states, step by step: the SPDC pair
cos(theta)|00> + sin(theta)|11>, full dephasing, then the time-bin mixture;
and the experiment's noise model as a channel on 16x16 density matrices.

qtradeoff.states builds the same states as one stack (timebin_states) and as
members of the classical-classical family (cc_family); the tests check both
against this chain, one state at a time.  qtradeoff.tomo applies the noise
model to the Pauli expectations inside born_probabilities; the tests check it
against the Born probabilities of apply_noise's noisy states.
"""

import numpy as np

from qtradeoff.linalg import DensityMatrix, density_eig
from qtradeoff.states import _check_theta, _mix
from qtradeoff.tomo import N_OUT, N_QUBITS, PATH_QUBITS, NoiseParams

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def _proj(vec):
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def spdc_state(theta) -> DensityMatrix:
    """Pure state cos(theta)|00> + sin(theta)|11> of the photon pair."""
    _check_theta(theta)
    psi = np.cos(theta) * np.kron(KET0, KET0) + np.sin(theta) * np.kron(KET1, KET1)
    return DensityMatrix(_proj(psi), (2, 2))


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal entries in the computational basis."""
    if rho.dims != (2, 2):
        raise ValueError("dephase expects a two-qubit state")
    return DensityMatrix(np.diag(np.diag(rho.mat).real).astype(complex), rho.dims)


def timebin_mix(rho_d: DensityMatrix, p) -> DensityMatrix:
    """Time-bin mixture (1-p)(U1(x)V1) rho_d (.)^dag + p(U2(x)V2) rho_d (.)^dag.

    rho_d must be a diagonal two-qubit state (the construction presumes full
    dephasing).  Output is the 16x16 four-qubit state in the fixed basis order.
    """
    if rho_d.dims != (2, 2):
        raise ValueError("timebin_mix expects a two-qubit input state")
    if np.max(np.abs(rho_d.mat - np.diag(np.diag(rho_d.mat)))) > 1e-12:
        raise ValueError("timebin_mix requires a diagonal (fully dephased) input")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    return DensityMatrix(_mix(rho_d.mat, p), (2, 2, 2, 2))


def _depolarize_qubit(mat, i, p):
    t = mat.reshape(mat.shape[:-2] + (2,) * 8)
    row = list(range(4))
    col = list(range(4, 8))
    col_tr = list(col)
    col_tr[i] = row[i]
    out_row = [a for j, a in enumerate(row) if j != i]
    out_col = [a for j, a in enumerate(col) if j != i]
    # 3-qubit marginal, qubit i traced out
    traced = np.einsum(t, [Ellipsis] + row + col_tr, [Ellipsis] + out_row + out_col)
    eye = np.eye(2, dtype=complex) / 2.0
    full = np.einsum(traced, [Ellipsis] + out_row + out_col, eye, [row[i], col[i]],
                     [Ellipsis] + row + col)
    return (1.0 - p) * mat + p * full.reshape(mat.shape)


def apply_noise(mats, noise: NoiseParams):
    """Interferometer model on a four-qubit state or a (..., 16, 16) stack:
    path-qubit dephasing scaled by the visibility, plus optional isotropic
    per-qubit depolarizing.  The noisy stack is checked as density matrices."""
    m = np.asarray(mats, dtype=complex)
    if m.shape[-2:] != (N_OUT, N_OUT):
        raise ValueError("noise model expects four-qubit states")
    v = noise.visibility
    if v < 1.0:
        idx = np.arange(16)
        for qubit in PATH_QUBITS:
            bit = (idx >> (3 - qubit)) & 1
            differ = bit[:, None] != bit[None, :]
            m = np.where(differ, v * m, m)
    if noise.depolarizing > 0.0:
        for qubit in range(N_QUBITS):
            m = _depolarize_qubit(m, qubit, noise.depolarizing)
    density_eig(m)
    return m
