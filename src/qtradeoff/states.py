"""State-family constructors, each returning one DensityMatrix (a state or a
stack), and the isometries of the photonic setup.

Basis convention, fixed for the whole package: four qubits ordered
[A-polarization, A-path, B-polarization, B-path] with |H> = |0>,
|V> = |1>, up-path = |0>, down-path = |1>.  A 16x16 index is
8*a_pol + 4*a_path + 2*b_pol + b_path.
"""

import numpy as np

from .linalg import DensityMatrix
from .measures import _family_args

SQ2 = np.sqrt(2.0)

# Two-qubit states of A in the standard basis |00>,|01>,|10>,|11>.
KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)
KET_PLUS = np.array([0, 1, 1, 0], dtype=complex) / SQ2
KET_MINUS = np.array([0, 1, -1, 0], dtype=complex) / SQ2

# Four-level B states alpha, beta, gamma, delta = |01>, |10>, |00>, |11>.
ALPHA, BETA, GAMMA, DELTA = 1, 2, 0, 3


def _check_theta(theta):
    if not np.all((0.0 <= theta) & (theta <= np.pi / 2 + 1e-12)):
        raise ValueError("theta must lie in [0, pi/2]")


# The four operations of the setup, each a 4x2 isometry M (M^dag M = I)
# embedding one qubit into two; U1 and U2 act on photon A, V1 and V2 on B.
# U1: (|0>,|1>) -> (|11>, |+>),  U2: (|0>,|1>) -> (|00>, |->),
# V1: (|0>,|1>) -> (|00>, |10>), V2: (|0>,|1>) -> (|01>, |11>).
U1 = np.stack((KET_11, KET_PLUS), axis=1)
U2 = np.stack((KET_00, KET_MINUS), axis=1)
V1 = np.stack((KET_00, np.array([0, 0, 1, 0], dtype=complex)), axis=1)
V2 = np.stack((np.array([0, 1, 0, 0], dtype=complex), KET_11), axis=1)
_W1, _W2 = np.kron(U1, V1), np.kron(U2, V2)


def _mix(rho_d, p):
    """Time-bin mixture (1-p)(U1(x)V1) rho_d (.)^dag + p(U2(x)V2) rho_d (.)^dag of
    each diagonal state of a (..., 4, 4) stack rho_d with its weight p (an
    array of the stack's shape, or a scalar), in the fixed 16x16 basis order."""
    p = np.asarray(p)[..., None, None]
    return (1.0 - p) * _W1 @ rho_d @ _W1.conj().T + p * _W2 @ rho_d @ _W2.conj().T


def timebin_states(theta):
    """The paper's time-bin states, for an angle or each angle of an array, as
    one DensityMatrix with dims (2, 2, 2, 2): _mix with weight p = cos^2 theta
    of the SPDC pair stripped of coherence, diag(cos theta cos theta, 0, 0,
    sin theta sin theta).  tests/reference_states.py builds the same floats
    step by step."""
    theta = np.asarray(theta, dtype=float)
    _check_theta(theta)
    c, s = np.cos(theta), np.sin(theta)
    rho_d = np.zeros(np.shape(c) + (4, 4), dtype=complex)
    rho_d[..., 0, 0] = c * c
    rho_d[..., 3, 3] = s * s
    return DensityMatrix(_mix(rho_d, c ** 2), (2, 2, 2, 2))


def cc_family(p, q):
    """Two-parameter classical-classical family on two qubits x one 4-level system.

    p(1-q)|00><00| (x) |a><a| + (1-p)q |+><+| (x) |b><b|
    + pq |11><11| (x) |c><c| + (1-p)(1-q) |-><-| (x) |d><d|
    with a,b,c,d = |01>,|10>,|00>,|11> of B, as a DensityMatrix with dims
    (2, 2, 4); arrays of p and q broadcast and give a stack.
    """
    p, q = np.broadcast_arrays(*_family_args(p, q))
    w = np.stack([p * (1 - q), (1 - p) * q, p * q, (1 - p) * (1 - q)], axis=-1)
    a_basis = np.stack([KET_00, KET_PLUS, KET_11, KET_MINUS], axis=1).reshape(2, 2, 4)
    b_basis = np.eye(4)[:, [ALPHA, BETA, GAMMA, DELTA]]
    return classical_classical(w[..., None] * np.eye(4), a_basis, b_basis)


def classical_classical(weights, a_basis, b_basis):
    """Generic classical-classical state sum_ij p_ij |i><i| (x) |j><j| for a
    (d_A, d_B) probability table summing to 1, or for each table of a
    (..., d_A, d_B) stack.  a_basis and b_basis hold orthonormal states along
    their last axis; their other axes are the tensor factors of each side.

    Returns a DensityMatrix: one state, or a (..., n, n) stack.  Every state
    is one row of a single product of the flattened tables with the
    (d_A d_B, n^2) table of projector products.
    """
    w = np.asarray(weights, dtype=float)
    a = np.asarray(a_basis, dtype=complex)
    b = np.asarray(b_basis, dtype=complex)
    dims = a.shape[:-1] + b.shape[:-1]
    a, b = a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1])
    if w.ndim < 2 or w.shape[-2:] != (a.shape[1], b.shape[1]):
        raise ValueError("weight table shape does not match basis sizes")
    if np.min(w) < 0 or np.max(np.abs(np.sum(w, axis=(-2, -1)) - 1.0)) > 1e-10:
        raise ValueError("weights must be nonnegative and sum to 1")
    for name, m in (("a_basis", a), ("b_basis", b)):
        if np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))) > 1e-10:
            raise ValueError(f"{name} columns are not orthonormal within 1e-10")
    kets = np.einsum("xi,uj->ijxu", a, b).reshape(w.shape[-2] * w.shape[-1], -1)
    products = (kets[:, :, None] * kets.conj()[:, None, :]).reshape(len(kets), -1)
    out = (w.reshape(-1, len(kets)) @ products).reshape(w.shape[:-2] + (kets.shape[1],) * 2)
    return DensityMatrix(out, dims)
