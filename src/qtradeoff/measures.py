"""Correlation and entanglement quantifiers.

All entropies are in natural log (nats).  Concurrence follows the spin-flip
construction with sigma = -|1><0| + |0><1|; the square roots of the eigenvalues
of the spin-flipped product are the singular values of
sqrt(rho) (sigma x sigma) sqrt(rho)*.  Mutual information, concurrence and
the entropies of a cut (cut_measures) take a DensityMatrix, one state or a
stack; the entropies read the spectra its checks computed.  Fidelity
(fidelities) takes two (..., d, d) stacks of matrices.
"""

from collections import namedtuple

import numpy as np

from .bound import _xlogx
from .linalg import DensityMatrix, partial_trace, spectral_fn

SPIN_FLIP = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_SS = np.kron(SPIN_FLIP, SPIN_FLIP)


# Measures of one state (floats) or of a stack of states (arrays).
MeasureReport = namedtuple("MeasureReport",
                           "mutual_information concurrence entropy_A entropy_B entropy_AB")


def _safe_sqrt(w):
    # Values below 1e-14 of the largest are float noise of a null eigenvalue,
    # which the square root would magnify (1e-17 -> 3e-9).
    return np.sqrt(np.where(w > np.max(w, axis=-1, keepdims=True) * 1e-14, w, 0.0))


def _entropy(w):
    """-sum p ln p in nats over the last axis of a DensityMatrix spectrum,
    with 0 ln 0 = 0; its float-noise negatives (down to EIG_FLOOR) add 0."""
    return -np.sum(_xlogx(w), axis=-1)


def _cut_entropies(rho: DensityMatrix, cut):
    """(I, S_A, S_B, S_AB, rho_A) for a state or each state of a stack, with
    both reduced states checked as density matrices."""
    side_a = tuple(sorted(set(int(i) for i in cut)))
    side_b = tuple(i for i in range(len(rho.dims)) if i not in side_a)
    if not side_a or not side_b:
        raise ValueError("cut must split the factors into two nonempty groups")
    rho_a = partial_trace(rho, side_a)
    s_a, s_b, s_ab = (_entropy(r.spectrum) for r in (rho_a, partial_trace(rho, side_b), rho))
    i = s_a + s_b - s_ab  # >= 0; values in [-1e-12, 0) are float noise
    if np.min(i) < -1e-12:
        raise ValueError(f"mutual information {np.min(i)} below -1e-12")
    return np.where(i < 0.0, 0.0, i), s_a, s_b, s_ab, rho_a


def mutual_information(rho: DensityMatrix, cut):
    """S(rho_A) + S(rho_B) - S(rho) across the bipartition given by the factor
    indices in `cut` (side A); the complement is side B.  A float for one
    state, an array for a stack."""
    out = _cut_entropies(rho, cut)[0]
    return out if out.ndim else float(out)


def cut_measures(rho: DensityMatrix, cut) -> MeasureReport:
    """Mutual information across `cut`, the concurrence of the reduced state
    on side A (which must consist of two qubit factors) and the three
    entropies, for a state or each state of a stack.  The report's fields are
    arrays of the stack's shape."""
    i, s_a, s_b, s_ab, rho_a = _cut_entropies(rho, cut)
    return MeasureReport(i, _concurrence(_spin_flip_roots(rho_a)), s_a, s_b, s_ab)


def _spin_flip_roots(rho: DensityMatrix):
    """sqrt(mu_i), descending, of a state or stack, whose dims must be two
    qubits.  rho (s x s) rho* (s x s) is similar to A A^dagger with
    A = sqrt(rho) (s x s) sqrt(rho)*, so these are the singular values of A,
    which an SVD gets to absolute accuracy even where mu_i is tiny."""
    if rho.dims != (2, 2):
        raise ValueError("concurrence is defined for two-qubit states")
    sq = spectral_fn(rho.mat, _safe_sqrt)
    return np.linalg.svd(sq @ _SS @ sq.conj(), compute_uv=False)


def _concurrence(r):
    return np.maximum(0.0, 2.0 * np.max(r, axis=-1) - np.sum(r, axis=-1))


def spin_flip_eigenvalues(rho_a: DensityMatrix):
    """Eigenvalues mu_i of rho (s x s) rho* (s x s), descending, clamped at 0."""
    return _spin_flip_roots(rho_a) ** 2


def concurrence(rho_a: DensityMatrix):
    """Wootters concurrence max{0, 2 max_i sqrt(mu_i) - sum_i sqrt(mu_i)}: a
    float for one state, an array for a stack."""
    out = _concurrence(_spin_flip_roots(rho_a))
    return out if out.ndim else float(out)


def _h2(p):
    """Binary entropy in nats, +0.0 at p = 0 and p = 1."""
    return 0.0 - (_xlogx(p) + _xlogx(1 - p))


def _family_args(p, q):
    """p and q as float arrays, checked to lie in [0, 1]; states uses it too."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if not np.all((0.0 <= p) & (p <= 1.0) & (0.0 <= q) & (q <= 1.0)):
        raise ValueError("p and q must lie in [0,1]")
    return p, q


def closed_form_I(p, q):
    """Mutual information of the two-parameter classical-classical family;
    broadcasts over arrays of p and q."""
    p, q = _family_args(p, q)
    out = _h2(p) + _h2(q)
    return out if out.ndim else float(out)


def closed_form_E(p, q):
    """Concurrence of the reduced A state of the two-parameter family:
    max{0, (1-2q~)(1-p) - 2p sqrt(q~(1-q~))} with q~ = min{q, 1-q};
    broadcasts over arrays of p and q."""
    p, q = _family_args(p, q)
    qt = np.minimum(q, 1.0 - q)
    out = np.maximum(0.0, (1 - 2 * qt) * (1 - p) - 2 * p * np.sqrt(qt * (1 - qt)))
    return out if out.ndim else float(out)


def fidelities(rhos, sigmas):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of each pair of
    two (..., d, d) stacks of density matrices, computed as the squared trace
    norm (sum of singular values) of sqrt(rho) sqrt(sigma)."""
    prod = spectral_fn(rhos, _safe_sqrt) @ spectral_fn(sigmas, _safe_sqrt)
    f = np.sum(np.linalg.svd(prod, compute_uv=False), axis=-1) ** 2
    if np.max(f) > 1.0 + 1e-9:
        raise ValueError(f"fidelity {np.max(f)} exceeds 1 beyond tolerance")
    return np.minimum(f, 1.0)

