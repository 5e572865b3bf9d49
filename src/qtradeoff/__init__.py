"""Tradeoff between internal two-qubit nonseparability and external classical
correlations: closed-form monogamy bound, brute-force oracle, classical-classical
state families, and a shot-noise simulation of the photonic tomography experiment.
"""

from .bound import (
    BoundCurve,
    RegionVerdict,
    chi,
    closed_form_curve,
    kappa_aux,
    mu_aux,
    oracle_curve,
    oracle_zeta,
    region_check,
    zeta,
    zeta_inv,
)
from .linalg import DensityMatrix, EigenDecomposition, herm_eig, kron, partial_trace, spectral_fn
from .measures import (
    MeasureReport,
    closed_form_E,
    closed_form_I,
    concurrence,
    fidelity,
    k_function,
    mutual_information,
    shannon_entropy,
    von_neumann_entropy,
)
from .states import (
    Isometry,
    StateParams,
    cc_family,
    classical_classical,
    dephase,
    isometry,
    spdc_state,
    timebin_mix,
)
from .tomo import (
    NoiseParams,
    born_probabilities,
    reconstruct,
    run_experiment,
    sample_counts,
)

__version__ = "0.1.0"
