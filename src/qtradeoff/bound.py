"""The monogamy bound between internal concurrence and external mutual information.

zeta_inv is the closed-form inverse of the tradeoff curve; zeta recovers the
curve by bisection.  oracle_zeta is an independent brute-force check: an
exhaustive scan of the sorted probability 4-simplex maximizing
k(lambda) = lambda_1 - lambda_3 - 2 sqrt(lambda_2 lambda_4) at fixed Shannon
entropy.  All functions broadcast over numpy arrays.
"""

import operator
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


def _pairs(n):
    """Per (l1, l2) pair of the descending partitions l1>=l2>=l3>=l4>=0 of n,
    in lexicographic order: l1, l2, n - l1 - l2 and the number of l3 values."""
    if n < 1:
        raise ValueError("resolution must be at least 1")
    largest = np.arange((n + 3) // 4, n + 1)
    r1 = n - largest
    l2, i1 = _expand((r1 + 2) // 3, np.minimum(largest, r1) - (r1 + 2) // 3 + 1)
    r2 = r1[i1] - l2
    return largest[i1], l2, r2, np.minimum(l2, r2) - (r2 + 1) // 2 + 1


def _tuples(r2, counts):
    """l3, l4 and the pair index of each tuple of the pairs (r2, counts)."""
    l3, pair = _expand((r2 + 1) // 2, counts)
    l4 = r2[pair]
    l4 -= l3
    return l3, l4, pair


def simplex_grid(resolution):
    """All descending integer partitions (l1>=l2>=l3>=l4>=0) of `resolution`,
    divided by `resolution`: exact coverage of the ordered 4-simplex.  Rows are
    in lexicographic order of (l1, l2, l3)."""
    l1, l2, r2, counts = _pairs(int(resolution))
    l3, l4, pair = _tuples(r2, counts)
    return np.stack([l1[pair], l2[pair], l3, l4], axis=1) / int(resolution)


# Tuples per block of a grid pass (64 KB per float64 array), and the uniform
# entropy bins on [0, 2 ln 2] that the band oracle folds k into.
_BLOCK = 2 ** 13
_BINS = 2 ** 14
_BIN_SCALE = _BINS / TWO_LN2


def _grid_blocks(resolution):
    """(h, k) of the simplex_grid tuples in simplex_grid order, in blocks of
    consecutive (l1, l2) pairs.  A block starts where the running tuple count
    crosses a multiple of _BLOCK, so it holds at most _BLOCK tuples plus its
    first pair (at most n/2 + 1).  h and k index (n + 1)-entry tables of l/n
    and of x log x with the integer parts, for the floats of the same formulas
    on the simplex_grid rows, bit for bit."""
    n = int(resolution)
    l1, l2, r2, counts = _pairs(n)
    cuts = [0, *(np.flatnonzero(np.diff(np.cumsum(counts) // _BLOCK)) + 1).tolist(), len(counts)]
    x = np.arange(n + 1) / n
    t = _xlogx(x)
    for a, b in zip(cuts, cuts[1:]):
        l3, l4, pair = _tuples(r2[a:b], counts[a:b])
        # h = -(((t1 + t2) + t3) + t4), the summation order of np.sum over a
        # row; in place, which is faster than the expression on a block.
        h = (t[l1[a:b]] + t[l2[a:b]])[pair]
        h += t[l3]
        h += t[l4]
        root = x[l2[a:b]][pair]
        root *= x[l4]
        k = x[l1[a:b]][pair]
        k -= x[l3]
        k -= 2.0 * np.sqrt(root, out=root)
        yield np.negative(h, out=h), k


def grid_h_k(resolution):
    """(h values, k values) of the simplex_grid tuples, in simplex_grid order."""
    return tuple(map(np.concatenate, zip(*_grid_blocks(resolution))))


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


def _range_max(a, lo, hi):
    """max(a[lo:hi]) per range of a non-empty a, -inf for an empty range."""
    first, last = np.minimum(lo, len(a) - 1), np.clip(hi - 1, 0, len(a) - 1)
    # reduceat over the pairs (lo, hi - 1) gives max a[lo:hi - 1] at the even
    # positions (a[lo] when hi - 1 <= lo); a[hi - 1] completes the range.
    best = np.maximum(np.maximum.reduceat(a, np.stack([first, last], 1).ravel())[::2], a[last])
    return np.where(lo < hi, best, -np.inf)


def _nearest_max(resolution, c):
    """max k over the grid tuples at the smallest |h - c| (all of them on a
    tie), per query, by one more pass over the blocks."""
    best, gap = np.full(c.shape, -np.inf), np.full(c.shape, np.inf)
    for h, k in _grid_blocks(resolution):
        order = np.argsort(h)
        h = h[order]
        at = np.searchsorted(h, c)
        near = np.minimum(np.abs(h[np.maximum(at - 1, 0)] - c),
                          np.abs(h[np.minimum(at, len(h) - 1)] - c))
        block = _range_max(k[order], *_band_edges(h, c, near))
        best = np.where(near < gap, block, np.where(near == gap, np.maximum(best, block), best))
        gap = np.minimum(gap, near)
    return best


def oracle_scan(c, resolution=200, band=0.01):
    """(oracle values, widened mask) for entropies c: the max of max{0,
    k(lambda)} over grid tuples with |h(lambda) - c| <= band.  A band that
    holds no grid tuple is widened to the nearest grid entropy (both
    neighbours on a tie), and the mask marks those queries.

    One pass over the grid blocks folds k into per-bin maxima and keeps the
    tuples of the bins within one bin of a band edge c -+ band, where float
    rounding decides membership; those are tested exactly, and every bin
    between them lies wholly inside the band."""
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise ValueError(f"oracle resolution {resolution!r} is not an integer") from None
    if resolution < 100:
        raise ValueError("oracle resolution must be at least 100")
    if not 0.0 < band < np.inf:
        raise ValueError("band must be positive and finite")
    c = np.asarray(c, dtype=float).ravel()
    if not np.all(np.isfinite(c)):
        raise ValueError("oracle entropies must be finite")
    lo, hi = np.floor(np.clip(np.stack([c - band, c + band]) * _BIN_SCALE, -2, _BINS + 1)
                      ).astype(np.int64)
    at_edge = np.isin(np.arange(_BINS), np.concatenate([lo, hi])[:, None] + [-1, 0, 1])
    bin_max, kept = np.full(_BINS, -np.inf), []
    for h, k in _grid_blocks(resolution):
        j = np.clip(h * _BIN_SCALE, 0, _BINS - 1).astype(np.int32)
        np.maximum.at(bin_max, j, k)
        keep = at_edge[j]
        kept.append((h[keep], k[keep]))
    h, k = (np.concatenate(a) for a in zip(*kept))
    best = _range_max(bin_max, np.minimum(lo + 2, _BINS), np.maximum(hi - 1, 0))
    if h.size:
        order = np.argsort(h)
        h = h[order]
        best = np.maximum(best, _range_max(k[order], *_band_edges(h, c, band)))
    widened = best == -np.inf
    if np.any(widened):
        best[widened] = _nearest_max(resolution, c[widened])
    return np.maximum(0.0, best), widened


def oracle_zeta(c, resolution=200, band=0.01):
    """Brute-force zeta: max over grid tuples with |h(lambda) - c| <= band of
    max{0, k(lambda)}; see oracle_scan for bands without a grid tuple."""
    shape = np.shape(c)
    out = oracle_scan(c, resolution, band)[0].reshape(shape)
    return out if out.ndim else float(out)


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


def validate_bound_curve(cs, es, tolerance=1e-9):
    """Named invariant checks on sampled curve points (cs[i], es[i]); list of
    (name, ok) pairs."""
    cs, es = np.asarray(cs, dtype=float), np.asarray(es, dtype=float)
    return [
        ("curve_domain", bool(np.all(cs >= -tolerance) and np.all(cs <= TWO_LN2 + tolerance))),
        ("curve_range", bool(np.all(es >= -tolerance) and np.all(es <= 1.0 + tolerance))),
        ("curve_non_increasing", bool(np.all(np.diff(es) <= tolerance))),
        ("curve_vanishes_past_ln2sqrt3", bool(np.all(es[cs >= LN2SQRT3] <= tolerance))),
    ]
