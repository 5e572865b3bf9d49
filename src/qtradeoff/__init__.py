"""Tradeoff between internal two-qubit nonseparability and external classical
correlations: closed-form monogamy bound, brute-force oracle, classical-classical
state families, and a shot-noise simulation of the photonic tomography experiment.

The public names below are re-exported lazily (PEP 562): `qtradeoff.zeta`
imports `qtradeoff.bound` on first use, so a caller that needs only the bound
layer does not load the tomography stack.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bound": ("RegionVerdict", "kappa_aux", "mu_aux", "oracle_zeta", "region_check", "zeta",
              "zeta_inv"),
    "linalg": ("DensityMatrix", "EigenDecomposition", "herm_eig", "kron", "partial_trace",
               "spectral_fn"),
    "measures": ("MeasureReport", "closed_form_E", "closed_form_I", "concurrence",
                 "k_function", "mutual_information"),
    "states": ("StateParams", "cc_family", "classical_classical", "dephase", "isometry",
               "spdc_state", "timebin_mix"),
    "tomo": ("NoiseParams", "born_probabilities", "reconstruct", "run_experiment",
             "sample_counts"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN) | set(_EXPORTS))
