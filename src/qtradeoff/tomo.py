"""Shot-noise simulation of the four-qubit tomography experiment.

81 local Pauli settings (X/Y/Z per qubit) with 16 outcomes each, held as an
(81, 16) count table; reconstruction by unbiased linear inversion of Pauli
expectations followed by projection of the spectrum onto the probability
simplex.  The noise model (interferometer visibility on the path qubits and
per-qubit depolarizing) scales the 256 Pauli expectations of the target states
on their way to the Born probabilities; no noisy state is built.  An
experiment runs all its angles as one stack.  Each angle draws its whole count
table in one call from its own RNG stream, derived from the seed and the
float64 bits of the angle, so results do not depend on evaluation order or on
the other angles.
"""

import itertools
from collections import namedtuple

import numpy as np

from . import measures, states
from .linalg import DensityMatrix, spectral_fn
from .measures import MeasureReport

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

SETTINGS = tuple("".join(t) for t in itertools.product("XYZ", repeat=4))
N_QUBITS = 4
N_OUT = 16

PATH_QUBITS = (1, 3)  # A-path and B-path in the fixed basis convention


class NoiseParams(namedtuple("NoiseParams", "visibility depolarizing")):
    """Interferometer visibility and per-qubit depolarizing probability.  An
    immutable named tuple whose __new__ checks that both lie in [0, 1]."""

    __slots__ = ()

    def __new__(cls, visibility=1.0, depolarizing=0.0):
        if not (0.0 <= visibility <= 1.0 and 0.0 <= depolarizing <= 1.0):
            raise ValueError("noise parameters must lie in [0,1]")
        return super().__new__(cls, visibility, depolarizing)


def visibility_from_contrast(ratio):
    """Off-diagonal scale v = (r-1)/(r+1) for an interferometer contrast r:1."""
    if ratio < 1.0:
        raise ValueError("contrast ratio must be at least 1")
    return (ratio - 1.0) / (ratio + 1.0)


# Estimates from one (81, 16) count table (floats and a 16x16 matrix) or from a
# stack of tables (arrays with the stack's leading shape); rho_hat holds checked
# density matrices.
ReconstructionResult = namedtuple("ReconstructionResult",
                                  "rho_hat fidelity_to_target measures")


def _kron_table(factors):
    """Every 4-fold Kronecker product of the (n, 2, 2) factors as an
    (n^4, 16, 16) stack, row (a b c d) in base n being
    kron(kron(kron(F_a, F_b), F_c), F_d).  Built one factor at a time by
    broadcasting, so that every entry, signed zeros included, is the product
    the kron chain forms."""
    table = factors
    for _ in range(N_QUBITS - 1):
        m = table.shape[-1]
        table = (table[:, None, :, None, :, None]
                 * factors[None, :, None, :, None, :]).reshape(-1, 2 * m, 2 * m)
    return table


def _build_inversion_tables():
    place = np.arange(N_QUBITS - 1, -1, -1)  # qubit i is digit 3-i
    bits = (np.arange(16)[:, None] >> place) & 1  # outcome z or subset mask, per qubit
    # Sign of outcome z for each subset mask: -1 per selected qubit reading 1.
    signs = np.prod(1.0 - 2.0 * (bits[:, None, :] & bits[None, :, :]), axis=-1)
    # Pauli index (base 4 over I,X,Y,Z) estimated by (setting, subset): the
    # setting's letter on the subset's qubits, I elsewhere.  SETTINGS runs
    # over XYZ^4 in base-3 order.
    letters = (np.arange(len(SETTINGS))[:, None] // 3 ** place) % 3 + 1
    pauli_idx = (letters[:, None, :] * bits[None, :, :]) @ 4 ** place
    # Every string is estimated at least once, so grouping the flattened
    # (setting, subset) estimates by string gives 256 contiguous runs.
    flat_idx = pauli_idx.ravel()
    by_string = np.argsort(flat_idx, kind="stable")
    starts = np.searchsorted(flat_idx[by_string], np.arange(256))
    mult = np.bincount(flat_idx, minlength=256).astype(float)
    # Flattened 4-qubit Pauli matrices, for rho = (1/16) sum_k <P_k> P_k: row
    # k = (a b c d) in base 4 is kron(kron(kron(P_a, P_b), P_c), P_d) raveled.
    flat = _kron_table(np.stack([PAULI[ch] for ch in "IXYZ"])).reshape(256, 256)
    # Letters (0-3 for I, X, Y, Z) of each string per qubit.  The noise model
    # scales a string's expectation by the visibility per X or Y on a path
    # qubit and by 1 - depolarizing per non-identity letter.
    digits = (np.arange(256)[:, None] >> 2 * place) & 3
    on_path = digits[:, PATH_QUBITS]
    path_xy = np.count_nonzero((on_path == 1) | (on_path == 2), axis=-1)
    return signs, pauli_idx, by_string, starts, mult, flat, path_xy, np.count_nonzero(digits, -1)


(_SIGNS, _PAULI_IDX, _BY_STRING, _STRING_START, _PAULI_MULT,
 _PAULI_FLAT, _PATH_XY, _WEIGHT) = _build_inversion_tables()


def born_probabilities(mats, noise=NoiseParams()):
    """Probabilities of the 16 joint outcomes of every setting, (..., 81, 16),
    for a four-qubit state or a (..., 16, 16) stack of them under the noise
    model: p(z|s) = (1/16) sum_T sign(z, T) <P_{s,T}>, the inversion tables
    read forwards, with each <P> scaled by visibility^(X or Y factors of P on
    the path qubits) and (1 - depolarizing)^(non-identity factors of P); both
    channels are diagonal in the Pauli basis.  Each state takes its own
    (1, 256) product with the Pauli table, so its probabilities do not depend
    on the rest of the stack."""
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-2:] != (N_OUT, N_OUT):
        raise ValueError("tomography expects four-qubit states")
    # Tr(rho P) = sum_ij conj(rho_ij) P_ij for Hermitian rho and P.
    flat = np.conj(mats).reshape(mats.shape[:-2] + (1, N_OUT * N_OUT))
    exps = np.real(flat @ _PAULI_FLAT.T)[..., 0, :]
    exps *= noise.visibility ** _PATH_XY * (1.0 - noise.depolarizing) ** _WEIGHT
    p = exps[..., _PAULI_IDX] @ _SIGNS / N_OUT
    np.clip(p, 0.0, None, out=p)
    p /= np.sum(p, axis=-1, keepdims=True)
    return p


_MAX_SHOTS = 2**63 - 1  # the samplers draw counts as C longs


def sample_counts(probs, shots, seed, keys):
    """Seed-deterministic multinomial counts for a (..., S, K) stack of outcome
    probability tables, each row normalized to sum 1.  `keys` holds one
    non-negative integer per table (shape probs.shape[:-2]); table a draws all
    its rows in one call from the stream (seed, keys[a]), so its counts do not
    depend on the other tables."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be at most {_MAX_SHOTS}")
    p = np.asarray(probs, dtype=float)
    keys = np.asarray(keys)
    if keys.shape != p.shape[:-2]:
        raise ValueError(f"expected one key per table, shape {p.shape[:-2]}")
    flat = p.reshape((-1,) + p.shape[-2:])
    counts = np.empty(flat.shape, dtype=np.int64)
    for a, (table, key) in enumerate(zip(flat, keys.ravel().tolist())):
        rng = np.random.default_rng((seed, key))
        counts[a] = rng.multinomial(shots, table / np.sum(table, axis=-1, keepdims=True))
    return counts.reshape(p.shape)


def _count_table(counts, shots):
    """Counts checked to be an (81, 16) table in SETTINGS order or an
    (A, 81, 16) stack of them, with `shots` checked to be non-negative."""
    if shots < 0:
        raise ValueError("shots must be non-negative (0 for exact frequencies)")
    counts = np.asarray(counts)
    if counts.ndim not in (2, 3) or counts.shape[-2:] != (len(SETTINGS), N_OUT):
        raise ValueError(f"expected (81, 16) count tables, got shape {counts.shape}")
    return counts


def _correlators(counts):
    """Per-(setting, subset) correlators of a (..., 81, 16) count stack,
    grouped by the Pauli string they estimate: shape (..., 1296)."""
    total = np.sum(counts, axis=-1, keepdims=True)
    corr = (counts / np.where(total > 0, total, 1.0)) @ _SIGNS
    return corr.reshape(corr.shape[:-2] + (-1,))[..., _BY_STRING]


SPECTRUM_TIE_TOL = 1e-12


def physical_spectrum(w):
    """Noise-adaptive projection of a linear-inversion spectrum (or of each
    row of a stack of spectra) onto the probability simplex.

    The most negative eigenvalue of the unconstrained estimate is a pure noise
    sample, so its magnitude sets the noise floor; eigenvalues at or below the
    floor are zeroed and the remainder renormalized.  On exact data the floor
    is at machine precision and the spectrum passes through unchanged.
    Eigenvalues within SPECTRUM_TIE_TOL above the floor count as at it: the
    thresholded expansion often has exact +-x pairs, whose order is rounding.
    """
    w = np.asarray(w, dtype=float)
    floor = np.maximum(0.0, -np.min(w, axis=-1, keepdims=True))
    kept = np.where(w > floor + SPECTRUM_TIE_TOL, w, 0.0)
    total = np.sum(kept, axis=-1, keepdims=True)
    return np.where(total > 0.0, kept / np.where(total > 0.0, total, 1.0), 1.0 / w.shape[-1])


COEFF_THRESHOLD_SIGMAS = 3.0
FOUR_QUBITS = (2, 2, 2, 2)


def _invert(counts, shots):
    """(..., B, 81, 16) count stack, with `shots` per setting (0 for exact
    frequencies), -> (..., B, 16, 16) stack of physical estimates: linear
    inversion, sparse denoising of the Pauli coefficients, then
    physical_spectrum.

    Denoising: a coefficient estimated from m settings of N shots has standard
    error sqrt((1-e^2)/(N m)); estimates within 3 standard errors of zero are
    zeroed.  Most true coefficients of the target families are exactly zero,
    so this removes the bulk of the shot-noise power.  Exact frequencies are
    not thresholded, keeping noiseless inversion exact.
    """
    exps = np.add.reduceat(_correlators(counts), _STRING_START, axis=-1) / _PAULI_MULT
    if np.max(np.abs(exps[..., 0] - 1.0)) >= 1e-9:
        raise ValueError("identity expectation differs from 1: a setting has no counts")
    if shots > 0:
        sigma = np.sqrt(np.clip(1.0 - exps**2, 0.0, None) / (shots * _PAULI_MULT))
        small = np.abs(exps) < COEFF_THRESHOLD_SIGMAS * sigma
        small[..., 0] = False
        exps = np.where(small, 0.0, exps)
    rho_lin = (exps @ _PAULI_FLAT).reshape(exps.shape[:-1] + (16, 16)) / 16.0
    return spectral_fn(rho_lin, physical_spectrum)


def reconstruct(counts, shots, targets=None) -> ReconstructionResult:
    """Physical estimate (see _invert) from an (81, 16) count table of `shots`
    per setting (0 for exact frequencies), its measures, and its fidelity to the
    target state when one is given (NaN otherwise).  For an (A, 81, 16) stack,
    with A targets, every table is inverted on its own and the result holds
    arrays with a leading axis of length A."""
    counts = _count_table(counts, shots)
    stack = counts.reshape(-1, len(SETTINGS), N_OUT)
    rho_hat = _invert(stack[:, None], shots)[:, 0]
    rep = measures.cut_measures(DensityMatrix(rho_hat, FOUR_QUBITS), (0, 1))
    fid = (np.full(len(stack), np.nan) if targets is None
           else measures.fidelities(rho_hat, np.reshape(targets, rho_hat.shape)))
    if counts.ndim == 2:
        return ReconstructionResult(rho_hat[0], float(fid[0]),
                                    MeasureReport(*(float(v[0]) for v in rep)))
    return ReconstructionResult(rho_hat, fid, rep)


# The floats that cli.DEFAULT_THETAS parses to.
DEFAULT_ANGLES = tuple(k * np.pi / 32 for k in (0, 2, 4, 6, 8, 9, 11, 12, 13, 14, 15, 16))


# One experiment; for an array of A angles every array field holds a stack along
# a leading axis of length A.  counts holds (81, 16) counts, or exact
# (infinite-shot) frequencies when shots is 0.
ExperimentRun = namedtuple("ExperimentRun", "params counts shots result")


def run_experiment(theta, shots=10000, seed=0, noise=NoiseParams(), exact=False) -> ExperimentRun:
    """Full pipeline for one angle, or as one pass over a 1-d array of angles:
    prepare, add noise, measure every setting, reconstruct.  An angle draws its
    counts from the stream (seed, float64 bits of the angle), -0.0 counting as
    0.0, so its results do not depend on the other angles of the array and a
    repeated angle repeats its results (see sample_counts)."""
    params = states.StateParams.from_theta(np.asarray(theta, dtype=float))
    targets = states.timebin_states(params.theta)
    counts = born_probabilities(targets.mat, noise)
    if exact:
        shots = 0
    else:
        counts = sample_counts(counts, shots, seed, np.asarray(params.theta + 0.0).view(np.uint64))
    return ExperimentRun(params, counts, shots, reconstruct(counts, shots, targets.mat))


BootstrapResult = namedtuple("BootstrapResult", "i_values e_values i_err e_err")


def bootstrap_measures(counts, shots, n_resamples=200, seed=0) -> BootstrapResult:
    """Nonparametric bootstrap of (I, E) over resampled counts of one (81, 16)
    table, reconstructed as one stack.  Setting idx draws all its resamples
    from the stream (seed, 7_000_000, idx), so a run's values prefix those of
    a longer run.  Exact frequencies (shots = 0) have no resamples.

    The per-setting draw and `_invert`'s one product are kept on purpose: one
    call over all angles, draws through `sample_counts` and `reconstruct`'s
    per-table inversion were each measured slower (ROADMAP item 8)."""
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    counts = _count_table(counts, shots)
    if counts.ndim != 2:
        raise ValueError("the bootstrap takes one (81, 16) count table")
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be at most {_MAX_SHOTS}")
    if shots == 0:
        return BootstrapResult(np.zeros(0), np.zeros(0), 0.0, 0.0)
    totals = np.sum(counts, axis=-1, keepdims=True)
    if np.min(totals) <= 0:
        raise ValueError("a setting has no counts to resample")
    stack = np.stack([
        np.random.default_rng((seed, 7_000_000, idx)).multinomial(shots, p, size=n_resamples)
        for idx, p in enumerate(counts / totals)
    ], axis=1)
    rep = measures.cut_measures(DensityMatrix(_invert(stack, shots), FOUR_QUBITS), (0, 1))
    i_vals, e_vals = rep.mutual_information, rep.concurrence
    return BootstrapResult(i_vals, e_vals, float(np.std(i_vals)), float(np.std(e_vals)))
