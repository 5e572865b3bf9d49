"""Dense complex linear algebra on small Hilbert spaces (dimension <= 16).

DensityMatrix, the one container for a checked state or a (..., n, n) stack
of them, with its tensor-factor dims and the eigendecomposition (w, v) that its
check computes or that it was built from; partial traces of states and stacks;
herm_eig, the package's one (LAPACK) eigensolver call, which alone checks that a
matrix is finite, square and Hermitian; and spectral functions, read from a
state's kept (w, v).  A matrix is only rebuilt from its own (w, v), so
eigenvectors carry no order or phase contract.
"""

from collections import namedtuple

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9


def _as_complex(m):
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _dagger(a):
    return a.conj().swapaxes(-1, -2)


def _check_spectrum(w, trace):
    """Raise unless `trace` (of a matrix, or a spectrum's sum) is 1 within 1e-10
    in real and imaginary part and no w is below -1e-9; NaN fails both."""
    if not np.all((np.abs(trace.real - 1.0) <= TRACE_TOL) & (np.abs(trace.imag) <= TRACE_TOL)):
        raise ValueError("spectrum not a probability vector: trace differs from 1 beyond 1e-10")
    if not np.min(w) >= EIG_FLOOR:
        raise ValueError("spectrum not a probability vector: eigenvalue below -1e-9")


def _factor_dims(dims, n):
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != n:
        raise ValueError(f"dims {dims} incompatible with matrix dimension {n}")
    return dims


def density_eig(mats):
    """herm_eig (w, v) of a (..., n, n) stack, after which each matrix is checked
    for unit trace within 1e-10 and no eigenvalue below -1e-9."""
    a = np.asarray(mats, dtype=complex)
    w, v = herm_eig(a)
    _check_spectrum(w, np.trace(a, axis1=-2, axis2=-1))
    return w, v


class DensityMatrix(namedtuple("DensityMatrix", "mat dims spectrum vectors")):
    """Hermitian, PSD, unit-trace matrix, or (..., n, n) stack of them, with
    tensor-factor dimensions and the ascending eigenvalues (spectrum) and
    eigenvector columns (vectors) of each matrix: an immutable named tuple whose
    __new__ runs __post_init__'s checks (from_eig checks the spectrum and dims)."""

    __slots__ = ()

    def __new__(cls, mat, dims):
        a = np.asarray(mat, dtype=complex)
        return super().__new__(cls, a, *cls.__post_init__(a, dims))

    @staticmethod
    def __post_init__(a, dims):
        # A function of its own, so that perfbench/trace_child.py can time the checks.
        w, v = density_eig(a)
        return _factor_dims(dims, a.shape[-1]), w, v

    @classmethod
    def from_eig(cls, w, v, dims):
        """The state v diag(w) v^dagger, or a stack, from ascending spectra w (no
        entry below -1e-9, sum 1 within 1e-10) and orthonormal columns v."""
        w, v = np.asarray(w, dtype=float), _as_complex(v)
        _check_spectrum(w, np.sum(w, axis=-1))
        return super().__new__(cls, (v * w[..., None, :]) @ _dagger(v),
                               _factor_dims(dims, v.shape[-1]), w, v)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state, or stack of them, over the kept tensor factors (indices
    into rho.dims)."""
    dims, n, stack = rho.dims, len(rho.dims), rho.mat.shape[:-2]
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem index set {keep} for dims {dims}")
    col = [n + i if i in keep else i for i in range(n)]
    red = np.einsum(rho.mat.reshape(stack + dims + dims), [..., *range(n), *col],
                    [..., *keep, *(n + i for i in keep)])
    kept = tuple(dims[i] for i in keep)
    d = int(np.prod(kept))
    red = red.reshape(stack + (d, d))
    return DensityMatrix((red + _dagger(red)) / 2, kept)


def herm_eig(m):
    """Eigendecomposition (w, v) of a Hermitian matrix, or of each matrix of a
    (..., n, n) stack, by LAPACK: ascending eigenvalues w and orthonormal
    eigenvector columns v, with no fixed phase, after the package's one check
    that a matrix is finite, square and Hermitian within 1e-10."""
    a = _as_complex(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    d = _dagger(a)
    if np.max(np.abs(a - d)) > HERM_TOL:
        raise ValueError("matrix not Hermitian within 1e-10")
    return np.linalg.eigh((a + d) / 2)  # absorb float drift from products


def spectral_fn(rho: DensityMatrix, f):
    """Apply a real function to a checked state (or each state of a stack)
    through the decomposition it keeps; `f` is called once on the spectrum
    array, and no solver runs."""
    fw = np.asarray(f(rho.spectrum), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise ValueError("function undefined at an eigenvalue of the input")
    return (rho.vectors * fw[..., None, :]) @ _dagger(rho.vectors)
