"""Correlation and entanglement quantifiers.

All entropies are in natural log (nats).  Concurrence follows the spin-flip
construction with sigma = -|1><0| + |0><1|; the square roots of the eigenvalues
of the spin-flipped product are the singular values of
sqrt(rho) (sigma x sigma) sqrt(rho)*.  Mutual information, concurrence and
the entropies of a cut (cut_measures) and fidelity (fidelities) also run on
(..., d, d) stacks of states.
"""

from collections import namedtuple

import numpy as np

from .linalg import DensityMatrix, density_spectrum, partial_trace_stack, spectral_fn

SPIN_FLIP = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_SS = np.kron(SPIN_FLIP, SPIN_FLIP)


def spectrum_tuple(values):
    """Validate a descending 4-tuple of probabilities summing to 1."""
    lam = np.asarray(values, dtype=float)
    if lam.shape != (4,):
        raise ValueError("spectrum tuple must have exactly four entries")
    if np.min(lam) < 0 or abs(np.sum(lam) - 1.0) > 1e-12:
        raise ValueError("spectrum tuple must be nonnegative and sum to 1")
    if np.any(np.diff(lam) > 1e-12):
        raise ValueError("spectrum tuple must be in decreasing order")
    return lam


# Measures of one state (floats) or of a stack of states (arrays).
MeasureReport = namedtuple("MeasureReport",
                           "mutual_information concurrence entropy_A entropy_B entropy_AB")


def _safe_sqrt(w):
    # Values below 1e-14 of the largest are float noise of a null eigenvalue,
    # which the square root would magnify (1e-17 -> 3e-9).
    return np.sqrt(np.where(w > np.max(w, axis=-1, keepdims=True) * 1e-14, w, 0.0))


def _entropy(w):
    """-sum p ln p in nats over the last axis of a density_spectrum output,
    with 0 ln 0 = 0; its float-noise negatives (down to EIG_FLOOR) add 0."""
    return -np.sum(w * np.log(np.where(w > 0, w, 1.0)), axis=-1)


def _cut_entropies(mats, dims, cut):
    """(I, S_A, S_B, S_AB, (rho_A, dims_A)) for each state of a (..., d, d)
    stack, with every state and both reduced stacks checked as density
    matrices."""
    side_a = tuple(sorted(set(int(i) for i in cut)))
    side_b = tuple(i for i in range(len(dims)) if i not in side_a)
    if not side_a or not side_b:
        raise ValueError("cut must split the factors into two nonempty groups")
    rho_a, dims_a = partial_trace_stack(mats, dims, side_a)
    rho_b, _ = partial_trace_stack(mats, dims, side_b)
    s_a, s_b, s_ab = (_entropy(density_spectrum(m)) for m in (rho_a, rho_b, mats))
    i = s_a + s_b - s_ab  # >= 0; values in [-1e-12, 0) are float noise
    if np.min(i) < -1e-12:
        raise ValueError(f"mutual information {np.min(i)} below -1e-12")
    return np.where(i < 0.0, 0.0, i), s_a, s_b, s_ab, (rho_a, dims_a)


def mutual_information(rho: DensityMatrix, cut):
    """S(rho_A) + S(rho_B) - S(rho) across the bipartition given by the factor
    indices in `cut` (side A); the complement is side B."""
    return float(_cut_entropies(rho.mat, rho.dims, cut)[0])


def cut_measures(mats, dims, cut) -> MeasureReport:
    """Mutual information across `cut`, the concurrence of the reduced state
    on side A (which must consist of two qubit factors) and the three
    entropies, for each state of a (..., d, d) stack with factor dims `dims`.
    The report's fields are arrays of the stack's shape."""
    i, s_a, s_b, s_ab, (rho_a, dims_a) = _cut_entropies(mats, dims, cut)
    return MeasureReport(i, _concurrence(_spin_flip_roots(rho_a, dims_a)), s_a, s_b, s_ab)


def _spin_flip_roots(mats, dims):
    """sqrt(mu_i), descending, of states with factor dims `dims`, which must be
    two qubits.  rho (s x s) rho* (s x s) is similar to A A^dagger with
    A = sqrt(rho) (s x s) sqrt(rho)*, so these are the singular values of A,
    which an SVD gets to absolute accuracy even where mu_i is tiny."""
    if dims != (2, 2):
        raise ValueError("concurrence is defined for two-qubit states")
    sq = spectral_fn(mats, _safe_sqrt)
    return np.linalg.svd(sq @ _SS @ sq.conj(), compute_uv=False)


def _concurrence(r):
    return np.maximum(0.0, 2.0 * np.max(r, axis=-1) - np.sum(r, axis=-1))


def spin_flip_eigenvalues(rho_a: DensityMatrix):
    """Eigenvalues mu_i of rho (s x s) rho* (s x s), descending, clamped at 0."""
    return _spin_flip_roots(rho_a.mat, rho_a.dims) ** 2


def concurrence(rho_a: DensityMatrix):
    """Wootters concurrence max{0, 2 max_i sqrt(mu_i) - sum_i sqrt(mu_i)}."""
    return float(_concurrence(_spin_flip_roots(rho_a.mat, rho_a.dims)))


def _h2(p):
    """Binary entropy in nats, 0 at p = 0 and p = 1."""
    inside = (p > 0.0) & (p < 1.0)
    s = np.where(inside, p, 0.5)
    return np.where(inside, -s * np.log(s) - (1 - s) * np.log(1 - s), 0.0)


def _family_args(p, q):
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


def k_function(lam):
    """k(lambda) = lambda_1 - lambda_3 - 2 sqrt(lambda_2 lambda_4)."""
    lam = spectrum_tuple(lam)
    return float(lam[0] - lam[2] - 2.0 * np.sqrt(lam[1] * lam[3]))
