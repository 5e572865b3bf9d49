"""Dense complex linear algebra on small Hilbert spaces (dimension <= 16).

DensityMatrix, the one container for a checked state or a (..., n, n) stack
of them, with its tensor-factor dims and the eigendecomposition (w, v) that its
check computes or that it was built from; partial traces of states and stacks;
herm_eig, the package's one (LAPACK) eigensolver call; and spectral functions,
read from a state's kept (w, v).  A matrix is only rebuilt from its own (w, v),
so eigenvectors carry no order or phase contract.
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


def density_eig(mats):
    """Eigendecomposition (w, v) of each matrix of a (..., n, n) stack (see
    herm_eig), after checking that each is a density matrix: Hermitian within
    1e-10, unit trace within 1e-10, and no eigenvalue below -1e-9."""
    a = _as_complex(mats)
    if np.max(np.abs(a - _dagger(a))) > HERM_TOL:
        raise ValueError("density matrix not Hermitian within 1e-10")
    tr = np.trace(a, axis1=-2, axis2=-1)
    if np.max(np.abs(tr.real - 1.0)) > TRACE_TOL or np.max(np.abs(tr.imag)) > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1 beyond 1e-10")
    w, v = herm_eig(a)
    if np.min(w) < EIG_FLOOR:
        raise ValueError("density matrix has eigenvalue below -1e-9")
    return w, v


class DensityMatrix(namedtuple("DensityMatrix", "mat dims spectrum vectors")):
    """Hermitian, PSD, unit-trace matrix, or (..., n, n) stack of them, with
    tensor-factor dimensions and the ascending eigenvalues (spectrum) and
    eigenvector columns (vectors) of each matrix: an immutable named tuple
    whose __new__ runs the checks of __post_init__ (from_eig runs none)."""

    __slots__ = ()

    def __new__(cls, mat, dims):
        a, dims = _as_complex(mat), tuple(int(d) for d in dims)
        return super().__new__(cls, a, dims, *cls.__post_init__(a, dims))

    @staticmethod
    def __post_init__(a, dims):
        # A function of its own, so that perfbench/trace_child.py can time the checks.
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise ValueError("density matrix must be square")
        n = a.shape[-1]
        if int(np.prod(dims)) != n:
            raise ValueError(f"dims {dims} incompatible with matrix dimension {n}")
        return density_eig(a)

    @classmethod
    def from_eig(cls, w, v, dims):
        """The state v diag(w) v^dagger, or a stack, from ascending spectra w (no
        entry below -1e-9, sum 1 within 1e-10) and orthonormal columns v."""
        w, v, dims = np.asarray(w, dtype=float), _as_complex(v), tuple(int(d) for d in dims)
        if not (np.min(w) >= EIG_FLOOR and np.max(np.abs(np.sum(w, axis=-1) - 1.0)) <= TRACE_TOL):
            raise ValueError("spectrum is not a probability vector within tolerance")
        return super().__new__(cls, (v * w[..., None, :]) @ _dagger(v), dims, w, v)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state, or stack of them, over the kept tensor factors (indices
    into rho.dims)."""
    mats, dims = rho.mat, rho.dims
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
    return DensityMatrix((red + _dagger(red)) / 2, kept)


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


def spectral_fn(rho: DensityMatrix, f):
    """Apply a real function to a checked state (or each state of a stack)
    through the decomposition it keeps; `f` is called once on the spectrum
    array, and no solver runs."""
    fw = np.asarray(f(rho.spectrum), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise ValueError("function undefined at an eigenvalue of the input")
    return (rho.vectors * fw[..., None, :]) @ _dagger(rho.vectors)
