"""Dense complex linear algebra on small Hilbert spaces (dimension <= 16).

Partial traces, a LAPACK-backed Hermitian eigensolver and spectral matrix
functions, plus DensityMatrix, the container for a single checked state.
Partial traces, eigendecompositions, spectral functions and density-matrix
checks also work on (..., n, n) stacks; a stack of states is a plain array
that density_spectrum has checked.  spectral_fn is the one place that rebuilds
a matrix from its eigendecomposition, so eigenvectors carry no order or phase
contract.
"""

from collections import namedtuple

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9


def _as_complex(m):
    a = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def _dagger(a):
    return a.conj().swapaxes(-1, -2)


def density_spectrum(mats):
    """Ascending eigenvalues of each matrix of a (..., n, n) stack, after
    checking that each is a density matrix: Hermitian within 1e-10, unit trace
    within 1e-10, and no eigenvalue below -1e-9."""
    a = _as_complex(mats)
    if np.max(np.abs(a - _dagger(a))) > HERM_TOL:
        raise ValueError("density matrix not Hermitian within 1e-10")
    tr = np.trace(a, axis1=-2, axis2=-1)
    if np.max(np.abs(tr.real - 1.0)) > TRACE_TOL or np.max(np.abs(tr.imag)) > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1 beyond 1e-10")
    w = np.linalg.eigvalsh((a + _dagger(a)) / 2)
    if np.min(w) < EIG_FLOOR:
        raise ValueError("density matrix has eigenvalue below -1e-9")
    return w


class DensityMatrix(namedtuple("DensityMatrix", "mat dims")):
    """Hermitian, PSD, unit-trace matrix with attached tensor-factor dimensions:
    an immutable named tuple whose __new__ runs the checks of __post_init__."""

    __slots__ = ()

    def __new__(cls, mat, dims):
        self = super().__new__(cls, _as_complex(mat), tuple(int(d) for d in dims))
        self.__post_init__()
        return self

    def __post_init__(self):
        # A method of its own, so that perfbench/trace_child.py can time the checks.
        a, dims = self
        n = a.shape[0]
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError("density matrix must be square")
        if int(np.prod(dims)) != n:
            raise ValueError(f"dims {dims} incompatible with matrix dimension {n}")
        density_spectrum(a)


def partial_trace_stack(mats, dims, keep):
    """Reduced states over the kept tensor factors (indices into dims) of each
    matrix in a (..., d, d) stack; returns the stack and the kept dims."""
    dims = tuple(dims)
    n = len(dims)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem index set {keep} for dims {dims}")
    t = mats.reshape(mats.shape[:-2] + dims + dims)
    row = list(range(n))
    col = [i if i not in keep else n + i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    red = np.einsum(t, [Ellipsis] + row + col, [Ellipsis] + out)
    kept = tuple(dims[i] for i in keep)
    d = int(np.prod(kept))
    red = red.reshape(red.shape[: red.ndim - 2 * len(keep)] + (d, d))
    return (red + _dagger(red)) / 2, kept


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept tensor factors (indices into rho.dims)."""
    return DensityMatrix(*partial_trace_stack(rho.mat, rho.dims, keep))


def herm_eig(m):
    """Eigendecomposition (w, v) of a Hermitian matrix, or of each matrix of a
    (..., n, n) stack, by LAPACK: ascending eigenvalues w and orthonormal
    eigenvector columns v, with no fixed phase."""
    a = _as_complex(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(a - _dagger(a))) > 1e-8:
        raise ValueError("matrix not Hermitian within 1e-8")
    return np.linalg.eigh((a + _dagger(a)) / 2)  # absorb float drift from products


def spectral_fn(m, f):
    """Apply a real function to a Hermitian matrix (or a stack of them)
    through its spectrum; `f` is called once on the eigenvalue array."""
    w, v = herm_eig(m)
    fw = np.asarray(f(w), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise ValueError("function undefined at an eigenvalue of the input")
    return (v * fw[..., None, :]) @ _dagger(v)
