"""The scalar construction of the paper's states, step by step: the SPDC pair
cos(theta)|00> + sin(theta)|11>, full dephasing, then the time-bin mixture.

qtradeoff.states builds the same states as one stack (timebin_states) and as
members of the classical-classical family (cc_family); the tests check both
against this chain, one state at a time.
"""

import numpy as np

from qtradeoff.linalg import DensityMatrix
from qtradeoff.states import _check_theta, _mix

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
