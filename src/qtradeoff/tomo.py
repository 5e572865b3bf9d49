"""Shot-noise simulation of the four-qubit tomography experiment.

81 local Pauli settings (X/Y/Z per qubit) with 16 outcomes each, held as an
(81, 16) count table; reconstruction by unbiased linear inversion of Pauli
expectations followed by projection of the spectrum onto the probability
simplex.  The measurements are local, so every table of signs, Pauli indices,
Pauli matrices and noise exponents is a Kronecker product or sum of four
one-qubit tables (_fold).  The noise model (interferometer visibility on the
path qubits and per-qubit depolarizing) scales the 256 Pauli expectations of
the target states on their way to the Born probabilities; no noisy state is
built.  measure_states runs a state or a stack of states as one pass.  Each
state draws its whole count table in one call from its own RNG stream (seed,
key), so its results do not depend on evaluation order or on the other states;
run_experiment measures the time-bin states keyed by the float64 bits of their
angles.

Every stream is seeded, so no command maps OpenSSL: numpy.random is loaded on
the first draw (_default_rng) against a stand-in for the secrets module, whose
import would pull in hashlib and libcrypto only for numpy's unseeded default
entropy.  The stand-in's randbits is the one secrets.randbits is.
"""

import functools
import itertools
import random
import sys
import types
from collections import namedtuple

import numpy as np

from . import measures, states
from .bound import _float_or_array, _integer
from .linalg import DensityMatrix, herm_eig
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
    """Off-diagonal scale v = (r-1)/(r+1) for an interferometer contrast r:1,
    and v = 1 for an infinite contrast (a perfect interferometer)."""
    if not ratio >= 1.0:
        raise ValueError("contrast ratio must be at least 1")
    return 1.0 if ratio == np.inf else (ratio - 1.0) / (ratio + 1.0)


# Estimates from one (81, 16) count table (floats and a 16x16 matrix) or from a
# stack of tables (arrays with the stack's leading shape); rho_hat holds checked
# density matrices.
ReconstructionResult = namedtuple("ReconstructionResult",
                                  "rho_hat fidelity_to_target measures")


def _fold(ufunc, tables):
    """Kronecker product (np.multiply) or sum (np.add) of one-qubit tables,
    qubit 0 first: each step is the outer ufunc with the next table, its axes
    interleaved, so that qubit 0 is the most significant digit of every index.
    Entries chain ufunc left to right, as a kron chain does.  Broadcasting
    into the interleaved order skips the strided copy of a transpose."""
    def step(acc, table):
        odd, even = tuple(range(1, 2 * acc.ndim, 2)), tuple(range(0, 2 * acc.ndim, 2))
        pairs = ufunc(np.expand_dims(acc, odd), np.expand_dims(table, even))
        return pairs.reshape([m * n for m, n in zip(acc.shape, table.shape)])
    return functools.reduce(step, tables)


# Sign of outcome z (row) for each subset mask (column): -1 per selected
# qubit reading 1.
_SIGNS = _fold(np.multiply, [np.array([[1.0, 1.0], [1.0, -1.0]])] * N_QUBITS)
# Pauli index (base 4 over I,X,Y,Z) estimated by (setting, subset): the
# setting's letter (X, Y, Z in SETTINGS' base-3 order) on the subset's
# qubits, I elsewhere.
_PAULI_IDX = _fold(np.add, [np.array([[0, 1], [0, 2], [0, 3]]) * 4 ** (N_QUBITS - 1 - i)
                            for i in range(N_QUBITS)])
# Every string is estimated at least once, so grouping the flattened
# (setting, subset) estimates by string gives 256 contiguous runs.
_BY_STRING = np.argsort(_PAULI_IDX, axis=None, kind="stable")
_STRING_START = np.searchsorted(np.sort(_PAULI_IDX, axis=None), np.arange(256))
_PAULI_MULT = np.bincount(_PAULI_IDX.ravel(), minlength=256).astype(float)
# Flattened 4-qubit Pauli matrices, for rho = (1/16) sum_k <P_k> P_k: row
# k = (a b c d) in base 4 is kron(kron(kron(P_a, P_b), P_c), P_d) raveled.
_PAULI_FLAT = _fold(np.multiply, [np.stack([PAULI[ch] for ch in "IXYZ"])] * N_QUBITS
                    ).reshape(256, 256)
# The noise model scales a string's expectation by the visibility per X or Y
# on a path qubit and by 1 - depolarizing per non-identity letter.
_PATH_XY = _fold(np.add, [np.array([0, 1, 1, 0]) * (i in PATH_QUBITS) for i in range(N_QUBITS)])
_WEIGHT = _fold(np.add, [np.array([0, 1, 1, 1])] * N_QUBITS)


def born_probabilities(rho: DensityMatrix, noise=NoiseParams()):
    """Probabilities of the 16 joint outcomes of every setting, (..., 81, 16),
    for a four-qubit state or a (..., 16, 16) stack of them under the noise
    model: p(z|s) = (1/16) sum_T sign(z, T) <P_{s,T}>, the inversion tables
    read forwards, with each <P> scaled by visibility^(X or Y factors of P on
    the path qubits) and (1 - depolarizing)^(non-identity factors of P); both
    channels are diagonal in the Pauli basis.  Each state takes its own
    (1, 256) product with the Pauli table, so its probabilities do not depend
    on the rest of the stack."""
    mats = rho.mat
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


# What numpy.random.bit_generator takes from secrets: randbits, bound to the
# OS entropy source as secrets binds it.
_SECRETS = types.SimpleNamespace(randbits=random.SystemRandom().getrandbits)


def _default_rng(key):
    """np.random.default_rng(key).  The first call loads numpy.random with
    _SECRETS standing in for the secrets module, unless either is loaded
    already, and removes the stand-in after, so a later `import secrets` gets
    the real module.  A numpy that needs more of secrets fails that import and
    loads numpy.random with the real module instead."""
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        sys.modules["secrets"] = _SECRETS
        try:
            import numpy.random  # noqa: F401
        except ImportError:
            pass  # np.random below imports it again, with the real secrets
        finally:
            del sys.modules["secrets"]
    return np.random.default_rng(key)


def sample_counts(probs, shots, seed, keys):
    """Seed-deterministic multinomial counts for a (..., S, K) stack of outcome
    probability tables, each row normalized to sum 1.  `keys` holds one
    non-negative integer per table (shape probs.shape[:-2]); table a draws all
    its rows in one call from the stream (seed, keys[a]), so its counts do not
    depend on the other tables."""
    shots, seed = _integer(shots, 1, "shots"), _integer(seed, 0, "seed", None)
    p = np.asarray(probs, dtype=float)
    keys = np.asarray(keys)
    if keys.shape != p.shape[:-2]:
        raise ValueError(f"expected one key per table, shape {p.shape[:-2]}")
    flat = p.reshape((-1,) + p.shape[-2:])
    counts = np.empty(flat.shape, dtype=np.int64)
    for a, (table, key) in enumerate(zip(flat, keys.ravel().tolist())):
        rng = _default_rng((seed, key))
        counts[a] = rng.multinomial(shots, table / np.sum(table, axis=-1, keepdims=True))
    return counts.reshape(p.shape)


def _count_table(counts, shots):
    """The one check of a call's counts and shots: an (81, 16) table in SETTINGS
    order or an (A, 81, 16) stack, finite and non-negative, with a positive finite
    total per setting, returned as floats (whose sums cannot wrap); an integer
    0 <= shots < 2^63."""
    _integer(shots, 0, "shots")
    counts = np.asarray(counts, dtype=float)
    if counts.ndim not in (2, 3) or counts.shape[-2:] != (len(SETTINGS), N_OUT):
        raise ValueError(f"expected (81, 16) count tables, got shape {counts.shape}")
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ValueError("counts must be finite and non-negative")
    total = np.sum(counts, axis=-1)
    if not np.all((total > 0) & (total < np.inf)):
        raise ValueError("a setting has no counts, or a total past the float range")
    return counts


def _correlators(counts):
    """Per-(setting, subset) correlators of a (..., 81, 16) count stack,
    grouped by the Pauli string they estimate: shape (..., 1296)."""
    corr = (counts / np.sum(counts, axis=-1, keepdims=True)) @ _SIGNS
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


def _pooled_means(counts):
    """(..., B, 81, 16) stack of count tables or exact frequencies -> (..., B,
    256) Pauli expectations: each string's correlators pooled over the
    settings that estimate it, before any denoising.  The first half of linear
    inversion; it is given its counts by expression, so that the caller's
    float copy or resample stack is freed before _physical_estimate."""
    return np.add.reduceat(_correlators(counts), _STRING_START, axis=-1) / _PAULI_MULT


def _physical_estimate(exps, shots):
    """(..., B, 256) pooled Pauli expectations (_pooled_means) of tables of
    `shots` per setting (0 for exact frequencies) -> flat DensityMatrix stack of
    physical estimates: sparse denoising of the coefficients, then rho_lin's
    eigenvectors, kept with physical_spectrum of its eigenvalues.

    Denoising: a coefficient estimated from m settings of N shots has standard
    error sqrt((1-e^2)/(N m)); estimates within 3 standard errors of zero are
    zeroed.  Most true coefficients of the target families are exactly zero,
    so this removes the bulk of the shot-noise power.  Exact frequencies are
    not thresholded, keeping noiseless inversion exact.
    """
    if shots > 0:
        sigma = np.sqrt(np.clip(1.0 - exps**2, 0.0, None) / (shots * _PAULI_MULT))
        small = np.abs(exps) < COEFF_THRESHOLD_SIGMAS * sigma
        small[..., 0] = False
        exps = np.where(small, 0.0, exps)
    w, v = herm_eig((exps @ _PAULI_FLAT).reshape(-1, 16, 16) / 16.0)
    return DensityMatrix.from_eig(physical_spectrum(w), v, FOUR_QUBITS)


def reconstruct(counts, shots, targets: DensityMatrix = None) -> ReconstructionResult:
    """Physical estimate (see _physical_estimate) from an (81, 16) count table
    of `shots` per setting (0 for exact frequencies), its measures, and its
    fidelity to the target state when one is given (NaN otherwise), all read
    from that estimate.  For an (A, 81, 16) stack, with a stack of A targets,
    every table is inverted with a product of its own and the result holds
    arrays with a leading axis of length A.  The float copy of the counts and
    the pooled expectations are each freed once the next stage has read them."""
    shape = np.shape(counts)[:-2]
    rho_hat = _physical_estimate(
        _pooled_means(_count_table(counts, shots).reshape(-1, 1, len(SETTINGS), N_OUT)), shots)
    rep = measures.cut_measures(rho_hat, (0, 1))
    fid = (np.full(len(rho_hat.mat), np.nan) if targets is None
           else measures.fidelities(rho_hat, targets))
    return ReconstructionResult(rho_hat.mat.reshape(shape + (N_OUT, N_OUT)),
                                _float_or_array(fid.reshape(shape)),
                                MeasureReport(*(_float_or_array(v.reshape(shape)) for v in rep)))


# The floats that cli.DEFAULT_THETAS parses to.
DEFAULT_ANGLES = tuple(k * np.pi / 32 for k in (0, 2, 4, 6, 8, 9, 11, 12, 13, 14, 15, 16))


# One experiment; for a stack of A states every array field holds a stack along
# a leading axis of length A.  counts holds (81, 16) counts, or exact
# (infinite-shot) frequencies when shots is 0.
ExperimentRun = namedtuple("ExperimentRun", "counts shots result")


def measure_states(targets: DensityMatrix, keys, shots=10000, seed=0,
                   noise=NoiseParams()) -> ExperimentRun:
    """Full pipeline for a four-qubit state, or as one pass over an (A, 16, 16)
    stack of them: add noise, measure every setting, reconstruct.  State a
    draws its counts from the stream (seed, keys[a]) (see sample_counts), or
    takes exact frequencies when shots is 0, so its results do not depend on
    the other states of the stack."""
    counts = born_probabilities(targets, noise)
    if shots != 0:
        counts = sample_counts(counts, shots, seed, keys)
    return ExperimentRun(counts, shots, reconstruct(counts, shots, targets))


def run_experiment(theta, shots=10000, seed=0, noise=NoiseParams(), exact=False) -> ExperimentRun:
    """measure_states of the time-bin states of an angle or a 1-d array of
    angles.  An angle is keyed by its float64 bits, -0.0 counting as 0.0, so a
    repeated angle repeats its results."""
    theta = np.asarray(theta, dtype=float) + 0.0
    return measure_states(states.timebin_states(theta), theta.view(np.uint64),
                          0 if exact else shots, seed, noise)


BootstrapResult = namedtuple("BootstrapResult", "i_values e_values i_err e_err")

RESAMPLE_PASS = 32  # most resamples drawn and inverted at once


def _resamples(rngs, probs, shots, size):
    """`size` resampled (81, 16) count tables as one (size, 81, 16) stack:
    setting idx draws its rows of `shots` from rngs[idx] with the outcome
    probabilities probs[idx], straight into the stack."""
    stack = np.empty((size, len(SETTINGS), N_OUT), dtype=np.int64)
    for idx, (rng, p) in enumerate(zip(rngs, probs)):
        stack[:, idx] = rng.multinomial(shots, p, size=size)
    return stack


def bootstrap_measures(counts, shots, n_resamples=200, seed=0) -> BootstrapResult:
    """Nonparametric bootstrap of (I, E) over resampled counts of one (81, 16)
    table.  Setting idx draws all its resamples from the stream (seed,
    7_000_000, idx), so a run's values prefix those of a longer run.  Exact
    frequencies (shots = 0) have no resamples.

    The resamples run in ceil(n / RESAMPLE_PASS) passes of near-equal size, so
    the working set is one pass, besides the (2, n) values, whatever n is: a
    pass's resample stack is freed once its expectations are pooled, and its
    estimates before the next pass is drawn.
    Each pass draws from the same 81 streams, which continue, and inverts its
    stack with one product.  Passes of 2 to 64 rows were measured to give the
    bits of one pass over all n; a one-row pass runs as a matrix-vector
    product, whose last bits differ, so the split leaves no lone row unless
    n = 1.  Per-setting draws and one product per pass are kept on purpose:
    draws through `sample_counts` and `reconstruct`'s per-table inversion were
    each measured slower (ROADMAP item 16)."""
    n_resamples, seed = _integer(n_resamples, 1, "n_resamples"), _integer(seed, 0, "seed", None)
    counts = _count_table(counts, shots)
    if counts.ndim != 2:
        raise ValueError("the bootstrap takes one (81, 16) count table")
    if shots == 0:
        return BootstrapResult(np.zeros(0), np.zeros(0), 0.0, 0.0)
    # (I, E) of every resample, allocated first: a count too large to hold
    # fails here at once, not after passes that fill memory.
    i_vals, e_vals = values = np.empty((2, n_resamples))
    probs = counts / np.sum(counts, axis=-1, keepdims=True)
    rngs = [_default_rng((seed, 7_000_000, idx)) for idx in range(len(SETTINGS))]
    n_passes = -(-n_resamples // RESAMPLE_PASS)
    done = 0
    for k in range(n_passes):
        size = n_resamples // n_passes + (k < n_resamples % n_passes)
        # Each stage's input is passed by expression, so the stack is freed
        # before the 16x16 stage and the pass's estimates before the next pass.
        rep = measures.cut_measures(_physical_estimate(_pooled_means(
            _resamples(rngs, probs, shots, size)), shots), (0, 1))
        values[:, done:done + size] = rep.mutual_information, rep.concurrence
        done += size
    return BootstrapResult(i_vals, e_vals, float(np.std(i_vals)), float(np.std(e_vals)))
