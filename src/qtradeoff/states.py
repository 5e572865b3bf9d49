"""Constructors for the state families and isometries of the photonic setup.

Basis convention, fixed for the whole package: four qubits ordered
[A-polarization, A-path, B-polarization, B-path] with |H> = |0>,
|V> = |1>, up-path = |0>, down-path = |1>.  A 16x16 index is
8*a_pol + 4*a_path + 2*b_pol + b_path.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, density_spectrum

SQ2 = np.sqrt(2.0)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)

# Two-qubit states of A in the standard basis |00>,|01>,|10>,|11>.
KET00 = np.array([1, 0, 0, 0], dtype=complex)
KET11 = np.array([0, 0, 0, 1], dtype=complex)
KET_PLUS = np.array([0, 1, 1, 0], dtype=complex) / SQ2
KET_MINUS = np.array([0, 1, -1, 0], dtype=complex) / SQ2

# Four-level B states alpha, beta, gamma, delta = |01>, |10>, |00>, |11>.
ALPHA, BETA, GAMMA, DELTA = 1, 2, 0, 3


def _check_theta(theta):
    if not np.all((0.0 <= theta) & (theta <= np.pi / 2 + 1e-12)):
        raise ValueError("theta must lie in [0, pi/2]")


@dataclass(frozen=True)
class StateParams:
    """Parameters (theta, p, q) selecting a member of the state families; the
    fields are arrays when built from an array of angles."""

    theta: float
    p: float
    q: float

    @classmethod
    def from_theta(cls, theta):
        _check_theta(theta)
        p = np.cos(theta) ** 2
        return cls(theta=theta, p=p, q=1.0 - p)

    def __post_init__(self):
        if not np.all((0.0 <= self.p) & (self.p <= 1.0) & (0.0 <= self.q) & (self.q <= 1.0)):
            raise ValueError("p and q must lie in [0,1]")


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


def isometry(label):
    """One of the four experimental operations U1, U2, V1, V2 as a 4x2 matrix
    M embedding one qubit into two, with M^dag M = I.

    U1: (|0>,|1>) -> (|11>, |+>),  U2: (|0>,|1>) -> (|00>, |->),
    V1: (|0>,|1>) -> (|00>, |10>), V2: (|0>,|1>) -> (|01>, |11>).
    """
    cols = {
        "U1": (KET11, KET_PLUS),
        "U2": (KET00, KET_MINUS),
        "V1": (KET00, np.array([0, 0, 1, 0], dtype=complex)),
        "V2": (np.array([0, 1, 0, 0], dtype=complex), KET11),
    }
    if label not in cols:
        raise ValueError(f"unknown isometry label {label!r}")
    return np.stack(cols[label], axis=1)


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


def _mix(rho_d, p):
    """The time-bin mixture of each diagonal state of a (..., 4, 4) stack with
    its weight p (an array of the stack's shape, or a scalar)."""
    p = np.asarray(p)[..., None, None]
    w1 = np.kron(isometry("U1"), isometry("V1"))
    w2 = np.kron(isometry("U2"), isometry("V2"))
    return (1.0 - p) * w1 @ rho_d @ w1.conj().T + p * w2 @ rho_d @ w2.conj().T


def timebin_states(theta):
    """timebin_mix(dephase(spdc_state(theta)), cos^2 theta) for an angle or for
    each angle of an array, as one (..., 16, 16) stack of checked density
    matrices.  The floats are the chain's: the dephased SPDC state is
    diag(cos theta cos theta, 0, 0, sin theta sin theta)."""
    params = StateParams.from_theta(np.asarray(theta, dtype=float))
    c, s = np.cos(params.theta), np.sin(params.theta)
    rho_d = np.zeros(np.shape(c) + (4, 4), dtype=complex)
    rho_d[..., 0, 0] = c * c
    rho_d[..., 3, 3] = s * s
    out = _mix(rho_d, params.p)
    density_spectrum(out)
    return out


def cc_family(p, q) -> DensityMatrix:
    """Two-parameter classical-classical family on two qubits x one 4-level system.

    p(1-q)|00><00| (x) |a><a| + (1-p)q |+><+| (x) |b><b|
    + pq |11><11| (x) |c><c| + (1-p)(1-q) |-><-| (x) |d><d|
    with a,b,c,d = |01>,|10>,|00>,|11> of B.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("p and q must lie in [0,1]")
    weights = np.diag([p * (1 - q), (1 - p) * q, p * q, (1 - p) * (1 - q)])
    a_basis = np.stack([KET00, KET_PLUS, KET11, KET_MINUS], axis=1)
    b_basis = np.eye(4)[:, [ALPHA, BETA, GAMMA, DELTA]]
    return DensityMatrix(classical_classical(weights, a_basis, b_basis).mat, (2, 2, 4))


def classical_classical(weights, a_basis, b_basis) -> DensityMatrix:
    """Generic classical-classical state sum_ij p_ij |i><i| (x) |j><j|.

    weights is a (d_A, d_B) probability table summing to 1; a_basis and b_basis
    are matrices whose columns are orthonormal states.
    """
    w = np.asarray(weights, dtype=float)
    a = np.asarray(a_basis, dtype=complex)
    b = np.asarray(b_basis, dtype=complex)
    if np.min(w) < 0 or abs(np.sum(w) - 1.0) > 1e-10:
        raise ValueError("weights must be nonnegative and sum to 1")
    for name, m in (("a_basis", a), ("b_basis", b)):
        if np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))) > 1e-10:
            raise ValueError(f"{name} columns are not orthonormal within 1e-10")
    da, db = w.shape
    if a.shape[1] != da or b.shape[1] != db:
        raise ValueError("weight table shape does not match basis sizes")
    out = np.zeros((a.shape[0] * b.shape[0],) * 2, dtype=complex)
    for i in range(da):
        for j in range(db):
            if w[i, j] != 0.0:
                out += w[i, j] * np.kron(_proj(a[:, i]), _proj(b[:, j]))
    return DensityMatrix(out, (a.shape[0], b.shape[0]))
