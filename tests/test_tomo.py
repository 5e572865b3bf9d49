import collections
import functools

import numpy as np
import pytest

from qtradeoff import states, tomo
from qtradeoff.linalg import DensityMatrix
from qtradeoff.measures import closed_form_E, closed_form_I, mutual_information
from qtradeoff.tomo import (
    NoiseParams,
    SETTINGS,
    bootstrap_measures,
    born_probabilities,
    physical_spectrum,
    reconstruct,
    run_experiment,
    sample_counts,
    visibility_from_contrast,
)
from qtradeoff.states import timebin_states
from reference_states import apply_noise

SCAN_THETAS = np.arange(65) * np.pi / 128
SCAN_NOISE = [NoiseParams(v, d) for v in (1.0, 0.96) for d in (0.0, 0.02)]
# The scan settings and the channels' extremes: no path coherence left, and
# every qubit replaced by I/2.
NOISE_CASES = SCAN_NOISE + [NoiseParams(0.0, 0.0), NoiseParams(1.0, 1.0)]

# Columns are the +1 and -1 eigenvectors (outcome 0 and 1) of each local
# measurement: the reference the Born probabilities are checked against.
EIGVECS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}


@functools.lru_cache(maxsize=None)
def _setting_w(setting):
    """The setting's product eigenbasis, built as a kron chain (once per
    setting; callers only read it)."""
    w = EIGVECS[setting[0]]
    for ch in setting[1:]:
        w = np.kron(w, EIGVECS[ch])
    return w


def _born_per_setting(rho, setting):
    """Reference: one setting's outcome probabilities as a 16x16 product."""
    w = _setting_w(setting)
    p = np.clip(np.real(np.sum(np.conj(w) * (rho @ w), axis=0)), 0.0, None)
    return p / np.sum(p)


def test_settings_enumeration():
    assert len(SETTINGS) == 81
    assert SETTINGS[0] == "XXXX"
    assert SETTINGS[-1] == "ZZZZ"
    assert len(set(SETTINGS)) == 81


def test_visibility_from_contrast():
    assert abs(visibility_from_contrast(50.0) - 49.0 / 51.0) < 1e-12
    assert visibility_from_contrast(1.0) == 0.0
    with pytest.raises(ValueError):
        visibility_from_contrast(0.5)


def test_born_probabilities_z_basis():
    rho = timebin_states(0.0).mat  # |00> (x) |01> in the fixed ordering
    p = born_probabilities(rho)[SETTINGS.index("ZZZZ")]
    expected = np.zeros(16)
    expected[0b0001] = 1.0
    assert np.max(np.abs(p - expected)) < 1e-12


def test_born_probabilities_pure_state_oracle():
    # Cross-check against direct projector overlaps for a pure product state.
    psi = np.zeros(16, dtype=complex)
    psi[0b0001] = 1.0
    rho = DensityMatrix(np.outer(psi, psi.conj()), (2, 2, 2, 2))
    probs = born_probabilities(rho.mat)
    for setting in ("XXXX", "XYZX", "ZZZZ"):
        p = probs[SETTINGS.index(setting)]
        w = _setting_w(setting)
        oracle = np.abs(w.conj().T @ psi) ** 2
        assert np.max(np.abs(p - oracle)) < 1e-12
        assert abs(np.sum(p) - 1.0) < 1e-12


def test_born_probabilities_rejects_non_four_qubit_state():
    with pytest.raises(ValueError):
        born_probabilities(np.eye(4) / 4)


def test_born_probabilities_match_per_setting_products():
    # The noise model acts on the Pauli expectations; the reference applies it
    # as a channel on the 16x16 states.  The probabilities agree with each
    # setting's own 16x16 product of the reference's noisy state, in the
    # kron-chain eigenbasis, for every scan angle and noise setting.  The sums
    # run in another order, so equality holds to 1e-15 absolute.
    targets = states.timebin_states(SCAN_THETAS).mat
    for noise in NOISE_CASES:
        noisy = apply_noise(targets, noise)
        probs = born_probabilities(targets, noise)
        assert probs.shape == (len(SCAN_THETAS), 81, 16)
        for a, rho in enumerate(noisy):
            assert np.array_equal(apply_noise(targets[a], noise), rho)
            ref = np.array([_born_per_setting(rho, s) for s in SETTINGS])
            assert np.max(np.abs(probs[a] - ref)) <= 1e-15


def test_born_probabilities_stack_rows_are_single_calls():
    # Row independence of the experiment rests on this: each state of a stack
    # gets bit for bit the probabilities of a call of its own.
    targets = states.timebin_states(SCAN_THETAS).mat
    for noise in NOISE_CASES:
        probs = born_probabilities(targets, noise)
        for a, rho in enumerate(targets):
            assert np.array_equal(probs[a], born_probabilities(rho, noise))


def test_sample_counts_deterministic():
    p = np.array([[0.1, 0.2, 0.3, 0.4]])
    a = sample_counts(p, 1000, 5, 0)
    b = sample_counts(p, 1000, 5, 0)
    c = sample_counts(p, 1000, 6, 0)
    d = sample_counts(p, 1000, 5, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert np.sum(a) == 1000


def test_shots_beyond_a_c_long_raise_value_error():
    probs = np.full((len(SETTINGS), 16), 1 / 16)
    msg = "shots must be at most 9223372036854775807"
    with pytest.raises(ValueError, match=msg):
        sample_counts(probs, 2**63, 0, 0)
    with pytest.raises(ValueError, match=msg):
        run_experiment(np.array([0.3]), shots=2**63)
    counts = sample_counts(probs, 100, 0, 0)
    with pytest.raises(ValueError, match=msg):
        bootstrap_measures(counts, 2**63, n_resamples=2)
    assert sample_counts(probs[:1], 2**63 - 1, 0, 0).sum() == 2**63 - 1


def test_sample_counts_converges():
    p = np.array([0.05, 0.15, 0.35, 0.45])
    counts = sample_counts(p[None], 10**6, 9, 0)[0]
    # 5-sigma band on each multinomial frequency
    err = np.abs(counts / 10**6 - p)
    assert np.all(err < 5 * np.sqrt(p * (1 - p) / 10**6))


def test_sample_counts_per_table_streams():
    # Table a draws its whole (81, 16) table in one call from the stream
    # (seed, keys[a]); the sampler normalizes each row once more.  A table
    # sampled alone gives its row of the stack.
    probs = born_probabilities(states.timebin_states(SCAN_THETAS[::8]).mat, SCAN_NOISE[3])
    keys = np.arange(len(probs)) * 1000 + 3
    counts = sample_counts(probs, 500, 11, keys)
    assert counts.shape == probs.shape
    for a, p in enumerate(probs):
        fresh = np.random.default_rng((11, int(keys[a]))).multinomial(
            500, p / np.sum(p, axis=-1, keepdims=True))
        assert np.array_equal(counts[a], fresh)
    assert np.array_equal(sample_counts(probs[3], 500, 11, keys[3]), counts[3])
    with pytest.raises(ValueError, match="one key per table"):
        sample_counts(probs, 500, 11, keys[:-1])


def test_run_experiment_streams_are_keyed_by_angle():
    # An angle's counts come from the stream (seed, float64 bits of theta),
    # with -0.0 keyed as 0.0, and a repeated angle repeats its counts.
    run = run_experiment(np.array([0.0, 0.3, -0.0, 0.3]), shots=700, seed=8)
    for a, theta in enumerate([0.0, 0.3]):
        p = born_probabilities(states.timebin_states(theta).mat)
        key = np.float64(theta).view(np.uint64)
        assert np.array_equal(run.counts[a], sample_counts(p, 700, 8, key))
    assert np.array_equal(run.counts[2:], run.counts[:2])


def test_apply_noise_identity():
    rho = timebin_states(0.4).mat
    out = apply_noise(rho, NoiseParams())
    assert np.max(np.abs(out - rho)) < 1e-12


def test_apply_noise_dephasing_scales_path_coherences():
    rho = timebin_states(np.pi / 4).mat
    v = 0.8
    out = apply_noise(rho, NoiseParams(visibility=v))
    idx = np.arange(16)
    path_bits = np.stack([(idx >> 2) & 1, idx & 1])
    same = np.all(path_bits[:, :, None] == path_bits[:, None, :], axis=0)
    assert np.max(np.abs(out[same] - rho[same])) < 1e-12
    # Coherences between path states differing on exactly one path qubit scale by v.
    one_diff = np.sum(path_bits[:, :, None] != path_bits[:, None, :], axis=0) == 1
    assert np.max(np.abs(out[one_diff] - v * rho[one_diff])) < 1e-12


def test_apply_noise_full_depolarizing_fixed_point():
    rho = timebin_states(0.7).mat
    out = apply_noise(rho, NoiseParams(depolarizing=1.0))
    assert np.max(np.abs(out - np.eye(16) / 16.0)) < 1e-12


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(visibility=1.5)
    with pytest.raises(ValueError):
        NoiseParams(depolarizing=-0.1)
    with pytest.raises(ValueError, match=r"noise parameters must lie in \[0,1\]"):
        NoiseParams(1.0, 1.5)
    noise = NoiseParams(depolarizing=0.02)
    assert noise == (1.0, 0.02) and noise._fields == ("visibility", "depolarizing")
    with pytest.raises(AttributeError):
        noise.visibility = 0.5


def test_result_types_keep_their_fields():
    run = run_experiment(np.array([0.3, 0.6]), shots=500, seed=2)
    assert run._fields == ("params", "counts", "shots", "result")
    assert run.result._fields == ("rho_hat", "fidelity_to_target", "measures")
    assert run.result.measures._fields == (
        "mutual_information", "concurrence", "entropy_A", "entropy_B", "entropy_AB")
    boot = bootstrap_measures(run.counts[0], run.shots, n_resamples=3)
    assert boot._fields == ("i_values", "e_values", "i_err", "e_err")
    one = reconstruct(run.counts[1], run.shots)
    assert all(type(v) is float for v in one.measures)
    assert one.measures == tuple(float(v[1]) for v in run.result.measures)


def test_correlators_agree_across_settings_on_exact_data():
    rho = timebin_states(np.pi / 8).mat
    corr = tomo._correlators(born_probabilities(rho))
    exps = np.add.reduceat(corr, tomo._STRING_START) / tomo._PAULI_MULT
    assert abs(exps[0] - 1.0) < 1e-12
    # On exact data every setting estimating the same Pauli string agrees.
    spread = (np.maximum.reduceat(corr, tomo._STRING_START)
              - np.minimum.reduceat(corr, tomo._STRING_START))
    assert np.max(spread) < 1e-10
    # Oracle: direct trace against the Pauli matrices for a few strings.
    for k in (0b00000011, 0b01010101, 0b11111111):
        p_mat = tomo._PAULI_FLAT[k].reshape(16, 16)
        assert abs(exps[k] - np.trace(rho @ p_mat).real) < 1e-10


def _loop_inversion_tables():
    # Reference: the per-entry loop construction the array code replaced.
    z = np.arange(16)
    signs = np.ones((16, 16))
    for mask in range(16):
        s = np.ones(16)
        for i in range(4):
            if (mask >> (3 - i)) & 1:
                s = s * (1.0 - 2.0 * ((z >> (3 - i)) & 1))
        signs[:, mask] = s
    code = {"I": 0, "X": 1, "Y": 2, "Z": 3}
    pauli_idx = np.zeros((81, 16), dtype=int)
    for s_i, setting in enumerate(SETTINGS):
        for mask in range(16):
            k = 0
            for i in range(4):
                k = 4 * k + code[setting[i] if (mask >> (3 - i)) & 1 else "I"]
            pauli_idx[s_i, mask] = k
    flat = np.zeros((256, 256), dtype=complex)
    for k in range(256):
        digits = [(k >> (2 * (3 - i))) & 3 for i in range(4)]
        m = tomo.PAULI["IXYZ"[digits[0]]]
        for d in digits[1:]:
            m = np.kron(m, tomo.PAULI["IXYZ"[d]])
        flat[k] = m.ravel()
    return signs, pauli_idx.ravel(), flat


def test_inversion_tables_match_loop_construction():
    signs, flat_idx, flat = _loop_inversion_tables()
    assert np.array_equal(tomo._SIGNS, signs)
    assert np.array_equal(tomo._BY_STRING, np.argsort(flat_idx, kind="stable"))
    assert np.array_equal(tomo._STRING_START,
                          np.searchsorted(np.sort(flat_idx), np.arange(256)))
    assert np.array_equal(tomo._PAULI_MULT, np.bincount(flat_idx, minlength=256))
    assert np.array_equal(tomo._PAULI_FLAT, flat)
    # Signed zeros too: the linear inversion multiplies through this table.
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(tomo._PAULI_FLAT)), np.signbit(part(flat)))


def test_incomplete_count_table_is_rejected():
    counts = sample_counts(born_probabilities(timebin_states(0.5).mat), 100, 0, 0)[:-1]
    with pytest.raises(ValueError, match=r"expected \(81, 16\) count tables"):
        reconstruct(counts, 100)
    with pytest.raises(ValueError, match=r"expected \(81, 16\) count tables"):
        bootstrap_measures(counts, 100, n_resamples=2)


def test_exact_reconstruction_is_faithful():
    for theta in (0.0, np.pi / 8, np.pi / 4, np.pi / 2):
        run = run_experiment(theta, exact=True)
        assert run.result.fidelity_to_target >= 1.0 - 1e-9
        assert abs(run.result.measures.mutual_information
                   - closed_form_I(run.params.p, run.params.q)) < 1e-9
        assert abs(run.result.measures.concurrence
                   - closed_form_E(run.params.p, run.params.q)) < 1e-9


def test_sampled_reconstruction_converges_with_shots():
    theta = np.pi / 4
    errs = []
    for shots in (10**3, 10**4, 10**5):
        run = run_experiment(theta, shots=shots, seed=17)
        errs.append(1.0 - run.result.fidelity_to_target)
    assert errs[0] > errs[-1]
    assert errs[-1] < 5e-3


def test_sampled_reconstruction_deterministic():
    a = run_experiment(0.9, shots=2000, seed=4)
    b = run_experiment(0.9, shots=2000, seed=4)
    assert np.array_equal(a.counts, b.counts)
    assert a.result.fidelity_to_target == b.result.fidelity_to_target


def test_invert_stack_matches_separate_calls():
    # Each angle of an (A, 1, 81, 16) stack is the same m = 1 inversion as a
    # call of its own.
    run = run_experiment(SCAN_THETAS[::4], shots=3000, seed=2, noise=SCAN_NOISE[3])
    stacked = tomo._invert(run.counts[:, None].astype(float), 3000)
    for a, counts in enumerate(run.counts):
        assert np.array_equal(stacked[a], tomo._invert(counts[None].astype(float), 3000))


def test_run_experiment_stack_matches_single_angles():
    thetas = SCAN_THETAS[::16]
    for exact in (False, True):
        run = run_experiment(thetas, shots=2000, seed=6, noise=SCAN_NOISE[3], exact=exact)
        assert run.counts.shape == (len(thetas), 81, 16)
        for a, theta in enumerate(thetas):
            one = run_experiment(theta, shots=2000, seed=6, noise=SCAN_NOISE[3], exact=exact)
            assert np.array_equal(one.counts, run.counts[a])
            assert one.params.p == run.params.p[a]
            assert one.result.measures.mutual_information == \
                run.result.measures.mutual_information[a]
            assert one.result.measures.concurrence == run.result.measures.concurrence[a]
            assert one.result.fidelity_to_target == run.result.fidelity_to_target[a]


def test_noise_lowers_fidelity_monotonically():
    theta = np.pi / 4
    meds = []
    for v in (1.0, 0.98, 0.96):
        fids = [
            run_experiment(theta, shots=10000, seed=s, noise=NoiseParams(visibility=v))
            .result.fidelity_to_target
            for s in range(10)
        ]
        meds.append(float(np.median(fids)))
    assert meds[0] > meds[1] > meds[2]
    assert meds[2] > 0.93


def test_physical_spectrum_examples():
    # No negative entries: passes through unchanged.
    w = np.array([0.7, 0.2, 0.1, 0.0])
    assert np.allclose(physical_spectrum(w), w, atol=1e-12)
    # Negative floor removes sub-floor weights and renormalizes the rest.
    w = np.array([0.8, 0.25, 0.005, -0.01])
    out = physical_spectrum(w)
    assert out[2] == 0.0 and out[3] == 0.0
    assert abs(np.sum(out) - 1.0) < 1e-12
    assert np.allclose(out[:2], np.array([0.8, 0.25]) / 1.05, atol=1e-12)


def test_physical_spectrum_ties_and_rows():
    # +x one ulp above the floor set by -x is the same noise sample: zeroed.
    w = np.array([0.6, 0.4, np.nextafter(0.001, 1.0), -0.001])
    assert np.array_equal(physical_spectrum(w), [0.6, 0.4, 0.0, 0.0])
    rows = np.array([[0.8, 0.25, 0.005, -0.01], [0.7, 0.2, 0.1, 0.0]])
    out = physical_spectrum(rows)
    for row, expected in zip(out, rows):
        assert np.array_equal(row, physical_spectrum(expected))


def test_reconstruction_spectrum_is_clean():
    run = run_experiment(np.pi / 4, shots=10000, seed=2)
    w = np.linalg.eigvalsh(run.result.rho_hat)
    assert np.min(w) > -1e-12
    assert abs(np.sum(w) - 1.0) < 1e-10


def test_bootstrap_errors_shrink_with_shots():
    theta = 7 * np.pi / 16  # both I and E nonzero here
    errs = []
    for shots in (10**3, 10**4):
        run = run_experiment(theta, shots=shots, seed=19)
        boot = bootstrap_measures(run.counts, run.shots, n_resamples=40, seed=19)
        errs.append((boot.i_err, boot.e_err))
    assert errs[1][0] < errs[0][0]
    assert errs[1][1] < errs[0][1]


def _resamples(counts, shots, n_resamples, seed):
    """The bootstrap's resampled count tables, drawn one setting at a time from
    the documented streams (seed, 7_000_000, setting index)."""
    draws = []
    for idx, row in enumerate(counts):
        rng = np.random.default_rng((seed, 7_000_000, idx))
        draws.append(rng.multinomial(shots, row / np.sum(row), size=n_resamples))
    return np.stack(draws, axis=1)


@pytest.mark.parametrize("theta", [np.pi / 8, 9 * np.pi / 32, 7 * np.pi / 16])
@pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams(visibility=0.96, depolarizing=0.02)])
def test_bootstrap_matches_reconstruct_per_resample(theta, noise):
    run = run_experiment(theta, shots=2000, seed=13, noise=noise)
    boot = bootstrap_measures(run.counts, run.shots, n_resamples=4, seed=13)
    for b, counts in enumerate(_resamples(run.counts, run.shots, 4, 13)):
        m = reconstruct(counts, run.shots).measures
        assert abs(boot.i_values[b] - m.mutual_information) < 1e-12
        assert abs(boot.e_values[b] - m.concurrence) < 1e-12


def test_bootstrap_streams_are_per_setting_prefixes():
    run = run_experiment(3 * np.pi / 16, shots=2000, seed=21)
    short = bootstrap_measures(run.counts, run.shots, n_resamples=10, seed=21)
    long = bootstrap_measures(run.counts, run.shots, n_resamples=25, seed=21)
    assert np.array_equal(short.i_values, long.i_values[:10])
    assert np.array_equal(short.e_values, long.e_values[:10])


def test_mixed_shot_totals_skip_thresholding():
    # The coefficients are thresholded for a positive shot total and not for
    # exact frequencies (shots = 0), so the same counts give different estimates.
    run = run_experiment(np.pi / 4, shots=2000, seed=5)
    unthresholded = reconstruct(run.counts, 0)
    assert np.max(np.abs(run.result.rho_hat - unthresholded.rho_hat)) > 1e-6


def test_reconstruct_rejects_setting_without_counts():
    run = run_experiment(np.pi / 8, shots=1000, seed=3)
    counts = run.counts.copy()
    counts[40] = 0
    with pytest.raises(ValueError, match="no counts"):
        reconstruct(counts, run.shots)
    with pytest.raises(ValueError, match="no counts"):
        bootstrap_measures(counts, run.shots, n_resamples=2)


def test_reconstruct_rejects_negative_shots():
    # A negative count used to run as exact frequencies, unthresholded.
    counts = np.full((len(SETTINGS), 16), 10)
    with pytest.raises(ValueError, match=r"must be non-negative \(0 for exact frequencies\)"):
        reconstruct(counts, -5)


def test_bootstrap_rejects_negative_shots():
    # A negative count used to return zero error bars and no resamples.
    counts = np.full((len(SETTINGS), 16), 10)
    with pytest.raises(ValueError, match=r"must be non-negative \(0 for exact frequencies\)"):
        bootstrap_measures(counts, -5, n_resamples=2)


def test_bootstrap_skips_exact_records():
    run = run_experiment(0.5, exact=True)
    assert run.shots == 0
    boot = bootstrap_measures(run.counts, run.shots)
    assert boot.i_err == 0.0 and boot.e_err == 0.0
    assert len(boot.i_values) == 0


def test_eigensolver_calls_per_step(monkeypatch):
    # Each state is checked once, and its check's spectrum is the one its
    # entropy reads: a second check or decomposition on the experiment path
    # raises these counts.
    calls = collections.Counter()
    for name in ("eigvalsh", "eigh", "svd"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def count(fn, *args):
        calls.clear()
        out = fn(*args)
        return out, dict(calls)

    # The experiment checks the targets, the estimates and both reduced
    # states (eigvalsh); it projects the estimates onto physical spectra and
    # takes the square roots for concurrence and fidelity (eigh); and one SVD
    # each gives concurrence and fidelity.  The bootstrap has no targets and
    # no fidelity.
    run, made = count(run_experiment, np.array([0.3, 0.6, 0.9]), 2000, 1)
    assert made == {"eigvalsh": 4, "eigh": 4, "svd": 2}
    assert count(bootstrap_measures, run.counts[0], run.shots, 8, 1)[1] == {
        "eigvalsh": 3, "eigh": 2, "svd": 1}
    rho = states.cc_family(0.3, 0.6)
    assert count(mutual_information, rho, (0, 1))[1] == {"eigvalsh": 2}


def test_target_state_matches_family():
    # The experiment's target states are the red line of the cc family.
    for theta in (0.2, 0.9, 1.4):
        p = float(np.cos(theta) ** 2)
        direct = states.cc_family(p, 1.0 - p)
        assert np.max(np.abs(timebin_states(theta).mat - direct.mat)) < 1e-12
