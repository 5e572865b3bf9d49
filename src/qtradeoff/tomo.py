"""Shot-noise simulation of the four-qubit tomography experiment.

81 local Pauli settings (X/Y/Z per qubit) with 16 outcomes each; reconstruction
by unbiased linear inversion of Pauli expectations followed by projection of
the spectrum onto the probability simplex.  Every setting draws from its own
RNG stream derived from (seed, setting index), so results do not depend on
evaluation order.
"""

import itertools
from dataclasses import astuple, dataclass

import numpy as np

from . import measures, states
from .linalg import DensityMatrix, herm_eig
from .measures import MeasureReport, fidelity

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Columns are the +1 and -1 eigenvectors (outcome 0 and 1).
EIGVECS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}

SETTINGS = tuple("".join(t) for t in itertools.product("XYZ", repeat=4))
N_QUBITS = 4
N_OUT = 16

PATH_QUBITS = (1, 3)  # A-path and B-path in the fixed basis convention


@dataclass(frozen=True)
class NoiseParams:
    visibility: float = 1.0
    depolarizing: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.visibility <= 1.0 and 0.0 <= self.depolarizing <= 1.0):
            raise ValueError("noise parameters must lie in [0,1]")


def visibility_from_contrast(ratio):
    """Off-diagonal scale v = (r-1)/(r+1) for an interferometer contrast r:1."""
    if ratio < 1.0:
        raise ValueError("contrast ratio must be at least 1")
    return (ratio - 1.0) / (ratio + 1.0)


@dataclass(frozen=True)
class TomographyRecord:
    setting: str
    counts: np.ndarray  # ints for sampled data, frequencies in exact mode
    total_shots: int  # 0 marks exact (infinite-shot) frequencies
    seed: int
    noise: NoiseParams


@dataclass(frozen=True)
class ReconstructionResult:
    rho_hat: DensityMatrix
    fidelity_to_target: float
    measures: MeasureReport


def _setting_unitary():
    cache = {}

    def get(setting):
        if setting not in cache:
            w = EIGVECS[setting[0]]
            for ch in setting[1:]:
                w = np.kron(w, EIGVECS[ch])
            cache[setting] = w
        return cache[setting]

    return get


_setting_w = _setting_unitary()


def born_probabilities(rho: DensityMatrix, setting):
    """Probabilities of the 16 joint outcomes in the setting's product eigenbasis."""
    if rho.dims != (2, 2, 2, 2):
        raise ValueError("tomography expects a four-qubit state")
    if len(setting) != 4 or any(ch not in "XYZ" for ch in setting):
        raise ValueError(f"invalid setting {setting!r}")
    w = _setting_w(setting)
    p = np.real(np.sum(np.conj(w) * (rho.mat @ w), axis=0))
    p = np.clip(p, 0.0, None)
    return p / np.sum(p)


def sample_counts(probs, shots, seed, poisson=False):
    """Seed-deterministic multinomial draw (or independent Poisson per outcome)."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    p = np.asarray(probs, dtype=float)
    rng = np.random.default_rng(seed)
    if poisson:
        return rng.poisson(p * shots)
    return rng.multinomial(shots, p / np.sum(p))


def _depolarize_qubit(mat, i, p):
    t = mat.reshape([2] * 8)
    row = list(range(4))
    col = list(range(4, 8))
    col_tr = list(col)
    col_tr[i] = row[i]
    traced = np.einsum(t, row + col_tr)  # 3-qubit marginal, qubit i traced out
    out_row = [a for j, a in enumerate(row) if j != i]
    out_col = [a for j, a in enumerate(col) if j != i]
    eye = np.eye(2, dtype=complex) / 2.0
    full = np.einsum(traced, out_row + out_col, eye, [row[i], col[i]], row + col)
    return (1.0 - p) * mat + p * full.reshape(16, 16)


def apply_noise(rho: DensityMatrix, noise: NoiseParams) -> DensityMatrix:
    """Interferometer model: path-qubit dephasing scaled by the visibility,
    plus optional isotropic per-qubit depolarizing."""
    if rho.dims != (2, 2, 2, 2):
        raise ValueError("noise model expects a four-qubit state")
    m = rho.mat.copy()
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
    return DensityMatrix(m, (2, 2, 2, 2))


def simulate_records(rho, shots, seed, noise=NoiseParams(), poisson=False):
    """One full tomography run: 81 settings sampled from the noisy state."""
    noisy = apply_noise(rho, noise)
    records = []
    for idx, setting in enumerate(SETTINGS):
        probs = born_probabilities(noisy, setting)
        counts = sample_counts(probs, shots, (seed, idx), poisson=poisson)
        records.append(TomographyRecord(setting, counts, shots, seed, noise))
    return records


def exact_records(rho, noise=NoiseParams()):
    """Infinite-shot limit: exact Born probabilities as frequencies."""
    noisy = apply_noise(rho, noise)
    return [
        TomographyRecord(s, born_probabilities(noisy, s), 0, 0, noise) for s in SETTINGS
    ]


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
    # k = (a b c d) in base 4 is kron(kron(kron(P_a, P_b), P_c), P_d) raveled,
    # built one factor at a time by broadcasting, so that every entry, signed
    # zeros included, is the product the kron chain forms.
    p = np.stack([PAULI[ch] for ch in "IXYZ"])
    flat = p
    for _ in range(N_QUBITS - 1):
        m = flat.shape[-1]
        flat = (flat[:, None, :, None, :, None] * p[None, :, None, :, None, :]).reshape(
            -1, 2 * m, 2 * m)
    flat = flat.reshape(256, 256)
    return signs, by_string, starts, mult, flat


_SIGNS, _BY_STRING, _STRING_START, _PAULI_MULT, _PAULI_FLAT = _build_inversion_tables()


def _count_table(records):
    """(81, 16) counts and (81,) shot totals in SETTINGS order."""
    by_setting = {rec.setting: rec for rec in records}
    if unknown := set(by_setting) - set(SETTINGS):
        raise ValueError(f"unknown setting {min(unknown)!r}")
    if len(by_setting) != len(SETTINGS):
        raise ValueError(f"incomplete tomography: {len(by_setting)} of {len(SETTINGS)} settings")
    recs = [by_setting[s] for s in SETTINGS]
    return np.array([r.counts for r in recs], dtype=float), np.array([r.total_shots for r in recs])


def _correlators(counts):
    """Per-(setting, subset) correlators of a (..., 81, 16) count stack,
    grouped by the Pauli string they estimate: shape (..., 1296)."""
    total = np.sum(counts, axis=-1, keepdims=True)
    corr = (counts / np.where(total > 0, total, 1.0)) @ _SIGNS
    return corr.reshape(corr.shape[:-2] + (-1,))[..., _BY_STRING]


def pauli_expectations(records):
    """Averaged Pauli-string expectation estimates plus the maximum spread
    between the individual per-setting estimates of the same string."""
    corr = _correlators(_count_table(records)[0])
    exps = np.add.reduceat(corr, _STRING_START) / _PAULI_MULT
    spread = np.maximum.reduceat(corr, _STRING_START) - np.minimum.reduceat(corr, _STRING_START)
    return exps, float(np.max(spread))


def project_to_simplex(w):
    """Euclidean projection of a real vector onto the probability simplex:
    subtract a uniform shift and clip so the result sums to 1."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, len(w) + 1)
    rho = np.max(np.nonzero(u + (1.0 - css) / j > 0)[0]) + 1
    shift = (1.0 - css[rho - 1]) / rho
    return np.clip(w + shift, 0.0, None)


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
    """(B, 81, 16) count stack, with (81,) shot totals, -> (B, 16, 16) stack of
    physical estimates: linear inversion, sparse denoising of the Pauli
    coefficients, then physical_spectrum.

    Denoising: a coefficient estimated from m settings of N shots has standard
    error sqrt((1-e^2)/(N m)); estimates within 3 standard errors of zero are
    zeroed.  Most true coefficients of the target families are exactly zero,
    so this removes the bulk of the shot-noise power.  Only settings sharing
    one positive shot total are thresholded, keeping noiseless inversion exact.
    """
    exps = np.add.reduceat(_correlators(counts), _STRING_START, axis=-1) / _PAULI_MULT
    if np.max(np.abs(exps[:, 0] - 1.0)) >= 1e-9:
        raise ValueError("identity expectation differs from 1: a setting has no counts")
    if np.all(shots == shots[0]) and shots[0] > 0:
        sigma = np.sqrt(np.clip(1.0 - exps**2, 0.0, None) / (shots[0] * _PAULI_MULT))
        small = np.abs(exps) < COEFF_THRESHOLD_SIGMAS * sigma
        small[:, 0] = False
        exps = np.where(small, 0.0, exps)
    rho_lin = (exps @ _PAULI_FLAT).reshape(-1, 16, 16) / 16.0
    rho_lin = (rho_lin + rho_lin.conj().swapaxes(-1, -2)) / 2.0
    dec = herm_eig(rho_lin)
    v = dec.eigenvectors
    return (v * physical_spectrum(dec.eigenvalues)[:, None, :]) @ v.conj().swapaxes(-1, -2)


def reconstruct(records, target: DensityMatrix = None) -> ReconstructionResult:
    """Physical estimate from the complete 81-setting record set (see
    _invert), its measures, and its fidelity to the target."""
    counts, shots = _count_table(records)
    rho_hat = _invert(counts[None], shots)
    rep = measures.cut_measures(rho_hat, FOUR_QUBITS, (0, 1))
    rho_hat = DensityMatrix(rho_hat[0], FOUR_QUBITS)
    fid = fidelity(rho_hat, target) if target is not None else float("nan")
    return ReconstructionResult(rho_hat, fid, MeasureReport(*(float(v[0]) for v in astuple(rep))))


DEFAULT_ANGLES = (
    0.0,
    np.pi / 16,
    np.pi / 8,
    3 * np.pi / 16,
    np.pi / 4,
    9 * np.pi / 32,
    11 * np.pi / 32,
    3 * np.pi / 8,
    13 * np.pi / 32,
    7 * np.pi / 16,
    15 * np.pi / 32,
    np.pi / 2,
)


def target_state(theta) -> DensityMatrix:
    """Ideal prepared state for angle theta: spdc -> dephase -> time-bin mix
    with p = cos^2(theta)."""
    params = states.StateParams.from_theta(theta)
    return states.timebin_mix(states.dephase(states.spdc_state(theta)), params.p)


@dataclass(frozen=True)
class ExperimentRun:
    params: states.StateParams
    target: DensityMatrix
    records: list
    result: ReconstructionResult


def run_experiment(theta, shots=10000, seed=0, noise=NoiseParams(), exact=False,
                   poisson=False) -> ExperimentRun:
    """Full pipeline for one angle: prepare, add noise, measure, reconstruct."""
    params = states.StateParams.from_theta(theta)
    target = target_state(theta)
    if exact:
        records = exact_records(target, noise)
    else:
        records = simulate_records(target, shots, seed, noise, poisson=poisson)
    result = reconstruct(records, target)
    return ExperimentRun(params, target, records, result)


@dataclass(frozen=True)
class BootstrapResult:
    i_values: np.ndarray
    e_values: np.ndarray
    i_err: float
    e_err: float


def bootstrap_measures(records, n_resamples=200, seed=0) -> BootstrapResult:
    """Nonparametric bootstrap of (I, E) over resampled counts, reconstructed
    as one stack.  Setting idx draws all its resamples from the stream
    (seed, 7_000_000, idx), so a run's values prefix those of a longer run."""
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    counts, shots = _count_table(records)
    if np.any(shots <= 0):
        return BootstrapResult(np.zeros(0), np.zeros(0), 0.0, 0.0)
    totals = np.sum(counts, axis=-1, keepdims=True)
    if np.min(totals) <= 0:
        raise ValueError("a setting has no counts to resample")
    stack = np.stack([
        np.random.default_rng((seed, 7_000_000, idx)).multinomial(n, p, size=n_resamples)
        for idx, (n, p) in enumerate(zip(shots, counts / totals))
    ], axis=1)
    rep = measures.cut_measures(_invert(stack, shots), FOUR_QUBITS, (0, 1))
    i_vals, e_vals = rep.mutual_information, rep.concurrence
    return BootstrapResult(i_vals, e_vals, float(np.std(i_vals)), float(np.std(e_vals)))


def records_to_text(records, theta, p):
    """Line-oriented serialization: one header line, then 81 count lines."""
    if not records:
        raise ValueError("no records to serialize")
    r0 = records[0]
    head = (
        f"# theta={float(theta)!r} p={float(p)!r} shots={int(r0.total_shots)} "
        f"seed={int(r0.seed)} visibility={float(r0.noise.visibility)!r} "
        f"depolarizing={float(r0.noise.depolarizing)!r}"
    )
    lines = [head]
    for rec in records:
        counts = " ".join(str(int(c)) for c in rec.counts)
        lines.append(f"{rec.setting} {counts}")
    return "\n".join(lines) + "\n"


def records_from_text(text):
    """Inverse of records_to_text; returns (records, header dict)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing header line")
    meta = {}
    for tok in lines[0].lstrip("#").split():
        key, val = tok.split("=", 1)
        meta[key] = float(val) if key in ("theta", "p", "visibility", "depolarizing") else int(val)
    noise = NoiseParams(meta["visibility"], meta["depolarizing"])
    records = []
    for ln in lines[1:]:
        parts = ln.split()
        counts = np.array([int(x) for x in parts[1:]], dtype=int)
        if len(counts) != N_OUT:
            raise ValueError(f"expected 16 counts, got {len(counts)}")
        records.append(TomographyRecord(parts[0], counts, meta["shots"], meta["seed"], noise))
    return records, meta
