"""The monogamy bound between internal concurrence and external mutual information.

zeta_inv is the closed-form inverse of the tradeoff curve; zeta recovers the
curve by bisection.  oracle_zeta is an independent brute-force check: an
exhaustive scan of the sorted probability 4-simplex maximizing
k(lambda) = lambda_1 - lambda_3 - 2 sqrt(lambda_2 lambda_4) at fixed Shannon
entropy.  All functions broadcast over numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

LN2SQRT3 = float(np.log(2.0 * np.sqrt(3.0)))
TWO_LN2 = float(2.0 * np.log(2.0))


def _xlogx(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
    return out


def mu_aux(e):
    """mu(e) = -e ln(e/2) / 2, extended by continuity with mu(0) = 0."""
    e = np.asarray(e, dtype=float)
    if np.any(e < -1e-12):
        raise ValueError("mu_aux requires a nonnegative argument")
    e = np.maximum(e, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(e > 0, -e * np.log(np.maximum(e, 1e-300) / 2.0) / 2.0, 0.0)
    return out if out.ndim else float(out)


def kappa_aux(e):
    """kappa(e) = (sqrt(4 - 3 e^2) - 1) / 3 on |e| <= 2/sqrt(3)."""
    e = np.asarray(e, dtype=float)
    if np.any(np.abs(e) > 2.0 / np.sqrt(3.0) + 1e-12):
        raise ValueError("kappa_aux argument outside |e| <= 2/sqrt(3)")
    out = (np.sqrt(np.maximum(4.0 - 3.0 * e * e, 0.0)) - 1.0) / 3.0
    return out if out.ndim else float(out)


def zeta_inv_branches(e):
    """The two candidate maxima whose pointwise max is zeta^{-1}(e)."""
    e = np.asarray(e, dtype=float)
    b1 = mu_aux(1.0 + e) + mu_aux(1.0 - e) + (1.0 - e) * np.log(3.0) / 2.0
    k = np.asarray(kappa_aux(e))
    b2 = mu_aux(1.0 + e - k) + mu_aux(1.0 - e - k) - _xlogx(k)
    return np.asarray(b1), np.asarray(b2)


def zeta_inv(e):
    """Closed-form inverse bound zeta^{-1}(e) on e in [0, 1]."""
    e = np.asarray(e, dtype=float)
    if np.any(e < -1e-12) or np.any(e > 1.0 + 1e-12):
        raise ValueError("zeta_inv requires e in [0,1]")
    e = np.clip(e, 0.0, 1.0)
    b1, b2 = zeta_inv_branches(e)
    out = np.maximum(b1, b2)
    return out if out.ndim else float(out)


def zeta(c):
    """The bound curve: 0 for c >= ln(2 sqrt(3)); otherwise the unique e in
    [0,1] with zeta_inv(e) = c, found by bisection to 1e-12 in e."""
    c = np.asarray(c, dtype=float)
    if np.any(c < -1e-9) or np.any(c > TWO_LN2 + 1e-9):
        raise ValueError("zeta requires c in [0, 2 ln 2]")
    cc = np.clip(c, 0.0, TWO_LN2)
    lo = np.zeros_like(cc)
    hi = np.ones_like(cc)
    for _ in range(48):  # 2^-48 < 1e-12
        mid = (lo + hi) / 2.0
        f = np.asarray(zeta_inv(mid))
        bigger = f > cc  # zeta_inv decreasing: value too large means e too small
        lo = np.where(bigger, mid, lo)
        hi = np.where(bigger, hi, mid)
    out = np.where(cc >= LN2SQRT3, 0.0, (lo + hi) / 2.0)
    return out if out.ndim else float(out)


def _expand(starts, counts):
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i, in
    order, with the index i of each entry."""
    owner = np.repeat(np.arange(len(counts)), counts)
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(out.size)
    return out, owner


def _partitions(resolution):
    """All descending integer partitions l1>=l2>=l3>=l4>=0 of `resolution`, in
    lexicographic order of (l1, l2, l3): l1 and l2 once per (l1, l2) pair,
    then l3, l4 and the index of the pair per partition."""
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    n = int(resolution)
    l1 = np.arange((n + 3) // 4, n + 1)
    r1 = n - l1
    l2, i1 = _expand((r1 + 2) // 3, np.minimum(l1, r1) - (r1 + 2) // 3 + 1)
    l1 = l1[i1]
    r2 = n - l1 - l2
    l3, pair = _expand((r2 + 1) // 2, np.minimum(l2, r2) - (r2 + 1) // 2 + 1)
    l4 = r2[pair]
    l4 -= l3
    return l1, l2, l3, l4, pair


def simplex_grid(resolution):
    """All descending integer partitions (l1>=l2>=l3>=l4>=0) of `resolution`,
    divided by `resolution`: exact coverage of the ordered 4-simplex.  Rows are
    in lexicographic order of (l1, l2, l3)."""
    l1, l2, l3, l4, pair = _partitions(resolution)
    grid = np.empty((l3.size, 4))
    grid[:, 0] = l1[pair]
    grid[:, 1] = l2[pair]
    grid[:, 2] = l3
    grid[:, 3] = l4
    grid /= int(resolution)
    return grid


# (h, k) of the two most recently used resolutions, least recent first; at
# resolution 600 the pair holds about 24.6 MB.
_GRID_CACHE = {}
_GRID_CACHE_SIZE = 2


def _sorted_h_k(resolution):
    """(h, k) of the simplex_grid tuples, ordered by ascending entropy h.

    Every coordinate is one of the n + 1 values l/n, so h and k index
    (n + 1)-entry tables of l/n and of x log x with the integer parts; the
    floats are those of the same formulas on the simplex_grid rows, bit for
    bit."""
    l1, l2, l3, l4, pair = _partitions(resolution)
    n = int(resolution)
    x = np.arange(n + 1) / n
    t = _xlogx(x)
    # h = -(((t1 + t2) + t3) + t4), the summation order of np.sum over a row.
    h = (t[l1] + t[l2])[pair]
    h += t[l3]
    h += t[l4]
    np.negative(h, out=h)
    k = x[l1][pair]
    k -= x[l3]
    root = x[l2][pair]
    del l3, pair  # at most six tuple-length arrays are alive at once
    root *= x[l4]
    np.sqrt(root, out=root)
    root *= 2.0
    k -= root
    order = np.argsort(h)
    h = h[order]
    return h, k[order]


def grid_h_k(resolution):
    """(h values, k values) of the simplex_grid tuples for the given
    resolution, cached, both ordered by ascending entropy h (tuples of equal
    entropy in no particular order)."""
    if resolution in _GRID_CACHE:
        _GRID_CACHE[resolution] = _GRID_CACHE.pop(resolution)
    else:
        _GRID_CACHE[resolution] = _sorted_h_k(resolution)
        while len(_GRID_CACHE) > _GRID_CACHE_SIZE:
            del _GRID_CACHE[next(iter(_GRID_CACHE))]
    return _GRID_CACHE[resolution]


def _band_edges(h, c, band):
    """[lo, hi) index ranges of sorted h holding exactly the entries with
    |h - c| <= band, per query.  The in-band entries are contiguous because
    the rounded |h - c| is monotone on either side of c; searchsorted on
    c -+ band can miss it by a few entries at each edge, which the loops fix."""
    n = len(h)

    def inside(i):
        j = np.clip(i, 0, n - 1)
        return (i >= 0) & (i < n) & (np.abs(h[j] - c) <= band)

    lo = np.searchsorted(h, c - band, side="left")
    hi = np.searchsorted(h, c + band, side="right")
    while np.any(step := inside(lo - 1)):
        lo = lo - step
    while np.any(step := (lo < hi) & ~inside(lo)):
        lo = lo + step
    while np.any(step := inside(hi)):
        hi = hi + step
    while np.any(step := (lo < hi) & ~inside(hi - 1)):
        hi = hi - step
    return lo, hi


def oracle_scan(c, resolution=200, band=0.01):
    """(oracle values, widened mask) for entropies c: the max of max{0,
    k(lambda)} over grid tuples with |h(lambda) - c| <= band.  A band that
    holds no grid tuple is widened to the nearest grid entropy (both
    neighbours on a tie), and the mask marks those queries."""
    if resolution < 100:
        raise ValueError("oracle resolution must be at least 100")
    if band <= 0:
        raise ValueError("band must be positive")
    c = np.asarray(c, dtype=float).ravel()
    if not np.all(np.isfinite(c)):
        raise ValueError("oracle entropies must be finite")
    h, k = grid_h_k(resolution)
    bands = np.full(c.shape, float(band))
    lo, hi = _band_edges(h, c, bands)
    widened = lo == hi
    if np.any(widened):
        below = np.where(lo > 0, np.abs(h[np.maximum(lo - 1, 0)] - c), np.inf)
        above = np.where(lo < len(h), np.abs(h[np.minimum(lo, len(h) - 1)] - c), np.inf)
        bands = np.where(widened, np.minimum(below, above), bands)
        lo, hi = _band_edges(h, c, bands)
    # reduceat over the pairs (lo, hi - 1) gives max k[lo:hi - 1] at the even
    # positions (k[lo] when hi - 1 == lo); k[hi - 1] completes the range.
    best = np.maximum(np.maximum.reduceat(k, np.stack([lo, hi - 1], axis=1).ravel())[::2],
                      k[hi - 1])
    return np.maximum(0.0, best), widened


def oracle_zeta(c, resolution=200, band=0.01):
    """Brute-force zeta: max over grid tuples with |h(lambda) - c| <= band of
    max{0, k(lambda)}; see oracle_scan for bands without a grid tuple."""
    shape = np.shape(c)
    out = oracle_scan(c, resolution, band)[0].reshape(shape)
    return out if out.ndim else float(out)


def chi(e, resolution=400, band=0.01):
    """Constrained entropy maximum at fixed k(lambda) = e.

    For e in [0,1] this is the closed form zeta_inv; for e in [-1/2, 0) the
    closed form is not available and the value is served by the grid oracle.
    """
    e = float(e)
    if e < -0.5 - 1e-12 or e > 1.0 + 1e-12:
        raise ValueError("chi requires e in [-1/2, 1]")
    if e >= 0.0:
        return float(zeta_inv(e))
    h, k = grid_h_k(resolution)
    mask = np.abs(k - e) <= band
    if not np.any(mask):
        raise ValueError(f"no grid tuple within band {band} of k = {e}")
    return float(np.max(h[mask]))


@dataclass(frozen=True)
class RegionVerdict:
    point: tuple
    inside_separable_region: bool
    margin: float


def region_check(points, tolerance=1e-9):
    """Verdict per (c, e) point: inside iff e <= zeta(c) + tolerance.

    c values outside [0, 2 ln 2] (e.g. from noisy estimates) are clamped into
    the domain before evaluating zeta.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    margins = np.asarray(zeta(np.clip(pts[:, 0], 0.0, TWO_LN2))) - pts[:, 1]
    return [RegionVerdict((c, e), m >= -tolerance, m)
            for (c, e), m in zip(pts.tolist(), margins.tolist())]


@dataclass(frozen=True)
class BoundCurve:
    """Sampled (c, e) pairs of the bound with provenance."""

    samples: tuple
    source: str  # "closed_form" or "oracle"
    grid_resolution: int = 0


def closed_form_curve(n_samples=200) -> BoundCurve:
    cs = np.linspace(0.0, TWO_LN2, n_samples)
    es = np.asarray(zeta(cs))
    return BoundCurve(tuple(zip(cs.tolist(), es.tolist())), "closed_form")


def oracle_curve(n_samples=50, resolution=200, band=0.01) -> BoundCurve:
    cs = np.linspace(0.0, TWO_LN2, n_samples)
    es = oracle_zeta(cs, resolution, band)
    return BoundCurve(tuple(zip(cs.tolist(), es.tolist())), "oracle", resolution)


def validate_bound_curve(curve: BoundCurve, tolerance=1e-9):
    """Named invariant checks on a sampled curve; list of (name, ok) pairs."""
    cs = np.array([c for c, _ in curve.samples])
    es = np.array([e for _, e in curve.samples])
    tol = tolerance if curve.source == "closed_form" else 0.05
    checks = [
        ("curve_domain", bool(np.all(cs >= -tol) and np.all(cs <= TWO_LN2 + tol))),
        ("curve_range", bool(np.all(es >= -tol) and np.all(es <= 1.0 + tol))),
        ("curve_non_increasing", bool(np.all(np.diff(es) <= tol))),
        ("curve_vanishes_past_ln2sqrt3", bool(np.all(es[cs >= LN2SQRT3] <= tol))),
    ]
    return checks
