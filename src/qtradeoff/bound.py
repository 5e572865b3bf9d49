"""The monogamy bound between internal concurrence and external mutual information.

zeta_inv is the closed-form inverse of the tradeoff curve: the larger of two
branches, each the entropy of an explicit spectrum, written with the _xlogx
the oracles use.  zeta recovers the curve by bisection on the branches, one
domain check per step.  Two brute-force oracles check it on an exhaustive
grid of the sorted probability 4-simplex, through
k(lambda) = lambda_1 - lambda_3 - 2 sqrt(lambda_2 lambda_4): oracle_frontier
maximizes k over the tuples of entropy at least c, a one-sided check that
never exceeds zeta, and oracle_zeta over the tuples within a band of entropy
c, which must hold one.  oracle_frontier searches chains, the tuples of one
(l1, l2) pair with l3 from ceil(r/2) to min(l2, r) and l4 = r - l3.  As l3
rises, h strictly falls (x log x is strictly convex and (l3, l4) leave
balance) and k strictly rises (dk/dlambda_3 = sqrt(lambda_2/lambda_4) - 1 > 0),
so a chain's best tuple for c is its last with h >= c.  All functions
broadcast over numpy arrays.
"""

import operator
from collections import namedtuple

import numpy as np

LN2SQRT3 = float(np.log(2.0 * np.sqrt(3.0)))
TWO_LN2 = float(2.0 * np.log(2.0))


def _xlogx(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
    return out


def zeta_inv_branches(e):
    """The two candidate maxima whose pointwise max is zeta^{-1}(e), on e in
    [0, 1]: the entropies H(lambda) of the spectra
    lambda_1 = ((1+e)/2, (1-e)/6, (1-e)/6, (1-e)/6) and
    lambda_2 = ((1+e-kappa)/2, (1-e-kappa)/2, kappa, 0), where
    kappa = (sqrt(4 - 3 e^2) - 1) / 3.  The leading 0.0 keeps +0.0 at e = 1."""
    e = np.asarray(e, dtype=float)
    if not np.all((-1e-12 <= e) & (e <= 1.0 + 1e-12)):  # NaN fails too
        raise ValueError("zeta_inv requires e in [0,1]")
    e = np.clip(e, 0.0, 1.0)
    b1 = 0.0 - _xlogx((1.0 + e) / 2.0) - _xlogx((1.0 - e) / 2.0) + (1.0 - e) * np.log(3.0) / 2.0
    k = (np.sqrt(4.0 - 3.0 * e * e) - 1.0) / 3.0
    b2 = 0.0 - _xlogx((1.0 + e - k) / 2.0) - _xlogx((1.0 - e - k) / 2.0) - _xlogx(k)
    return np.asarray(b1), np.asarray(b2)


def zeta_inv(e):
    """Closed-form inverse bound zeta^{-1}(e) on e in [0, 1]."""
    out = np.maximum(*zeta_inv_branches(e))
    return out if out.ndim else float(out)


def zeta(c):
    """The bound curve: 1 at c = 0 and 0 for c >= ln(2 sqrt(3)); otherwise the
    unique e in [0,1] with zeta_inv(e) = c, found by bisection to 1e-12 in e."""
    c = np.asarray(c, dtype=float)
    if not np.all((-1e-9 <= c) & (c <= TWO_LN2 + 1e-9)):  # NaN fails too
        raise ValueError("zeta requires c in [0, 2 ln 2]")
    cc = np.clip(c, 0.0, TWO_LN2)
    lo = np.zeros_like(cc)
    hi = np.ones_like(cc)
    for _ in range(48):  # 2^-48 < 1e-12
        mid = (lo + hi) / 2.0
        # zeta_inv decreasing: value too large means e too small
        bigger = np.maximum(*zeta_inv_branches(mid)) > cc
        lo = np.where(bigger, mid, lo)
        hi = np.where(bigger, hi, mid)
    out = np.where(cc >= LN2SQRT3, 0.0, np.where(cc > 0.0, (lo + hi) / 2.0, 1.0))
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


# Tuples per block of a grid pass (64 KB per float64 array).
_BLOCK = 2 ** 13


def _h(t, t12, l3, l4):
    """h = -(((t1 + t2) + t3) + t4) from the table t of x log x at x = l/n:
    np.sum's order over a simplex_grid row, so h and k (_k) equal its floats."""
    h = t12 + t[l3]
    h += t[l4]
    return np.negative(h, out=h)


def _k(x, x1, x2, l3, l4):
    return (x1 - x[l3]) - 2.0 * np.sqrt(x2 * x[l4])


def _cuts(size, *pairs):
    """The pair arrays (l1, l2, r2, counts) in runs, cut where the running tuple
    count crosses a multiple of size: each holds at most size tuples plus its
    first pair (at most n/2 + 1)."""
    counts = pairs[-1]
    cuts = [0, *(np.flatnonzero(np.diff(np.cumsum(counts) // size)) + 1).tolist(), len(counts)]
    for a, b in zip(cuts, cuts[1:]):
        yield [p[a:b] for p in pairs]


def _runs(t, x, *pairs):
    """(h, k) of the pairs' tuples in order, in _cuts runs of _BLOCK tuples."""
    for l1, l2, r2, counts in _cuts(_BLOCK, *pairs):
        l3, l4, pair = _tuples(r2, counts)
        yield _h(t, (t[l1] + t[l2])[pair], l3, l4), _k(x, x[l1][pair], x[l2][pair], l3, l4)


def _grid_blocks(resolution):
    """(h, k) of the simplex_grid tuples in simplex_grid order, in _runs."""
    n = int(resolution)
    x = np.arange(n + 1) / n
    yield from _runs(_xlogx(x), x, *_pairs(n))


def grid_h_k(resolution):
    """(h values, k values) of the simplex_grid tuples, in simplex_grid order."""
    return tuple(map(np.concatenate, zip(*_grid_blocks(resolution))))


def _oracle_args(c, resolution):
    """The entropies c as a flat float array and the grid resolution, checked."""
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise ValueError(f"oracle resolution {resolution!r} is not an integer") from None
    if resolution < 100:
        raise ValueError("oracle resolution must be at least 100")
    c = np.asarray(c, dtype=float).ravel()
    if not np.all(np.isfinite(c)):
        raise ValueError("oracle entropies must be finite")
    return c, resolution


def oracle_frontier(c, resolution=200):
    """Grid frontier of zeta: Z_n(c) = max of max{0, k(lambda)} over the grid
    tuples with h(lambda) >= c, per entropy c, as a flat array.  Every tuple
    obeys k <= zeta(h) and zeta is non-increasing, so Z_n <= zeta(c).  A
    chain's end tuple serves each c up to its h; each c between that and the
    top tuple's h bisects l3 for its tuple, unless a scan costs less."""
    c, n = _oracle_args(c, resolution)
    order = np.argsort(c)
    sorted_c = c[order]
    # Slot j holds tuples with h at or above the j smallest queries, so the
    # j-th smallest query takes the max over slots j + 1 and up.
    best = np.full(len(c) + 1, -np.inf)
    x = np.arange(n + 1) / n
    t = _xlogx(x)
    # A block of 8 _BLOCK tuples has about as many chains and (chain, query)
    # pairs as a _BLOCK-tuple run has tuples.
    for p1, p2, r, count in _cuts(8 * _BLOCK, *_pairs(n)):
        t12, x1, x2, top, end = t[p1] + t[p2], x[p1], x[p2], (r + 1) // 2, np.minimum(p2, r)
        low = np.searchsorted(sorted_c, _h(t, t12, end, r - end), side="right")
        np.maximum.at(best, low, _k(x, x1, x2, end, r - end))
        m = np.searchsorted(sorted_c, _h(t, t12, top, r - top), side="right") - low
        # Bisection takes m ceil(log2 count) h evaluations; a scan takes count
        # tuples at about two each (h, k and a search of the queries).
        scan = m * np.ceil(np.log2(count)) > 2 * count
        if np.any(scan):
            for h, k in _runs(t, x, p1[scan], p2[scan], r[scan], count[scan]):
                np.maximum.at(best, np.searchsorted(sorted_c, h, side="right"), k)
        # lo climbs by falling powers of two while h >= c; h(end) < c stops it.
        q, chain = _expand(low, np.where(scan, 0, m))
        lo, end, r, t12, cq = top[chain], end[chain], r[chain], t12[chain], sorted_c[q]
        for step in 2 ** np.arange(int(np.max(end - lo, initial=0)).bit_length())[::-1]:
            mid = np.minimum(lo + step, end)
            lo = np.where(_h(t, t12, mid, r - mid) >= cq, mid, lo)
        np.maximum.at(best, q + 1, _k(x, x1[chain], x2[chain], lo, r - lo))
    out = np.empty_like(c)
    out[order] = np.maximum.accumulate(best[::-1])[::-1][1:]
    return np.maximum(0.0, out)


def oracle_zeta(c, resolution=200, band=0.01):
    """Brute-force zeta: max over grid tuples with |h(lambda) - c| <= band of
    max{0, k(lambda)}.  A band that holds no grid tuple raises ValueError."""
    shape = np.shape(c)
    c, resolution = _oracle_args(c, resolution)
    if not 0.0 < band < np.inf:
        raise ValueError("band must be positive and finite")
    best = np.full(c.shape, -np.inf)
    for h, k in _grid_blocks(resolution):
        # Queries in runs of 8, so that a (queries x block) temporary holds
        # at most 8 blocks' entries, whatever the number of queries.
        for q in range(0, len(c), 8):
            s = slice(q, q + 8)
            inside = np.abs(h - c[s, None]) <= band
            best[s] = np.maximum(best[s], np.max(np.where(inside, k, -np.inf), axis=1))
    if np.any(best == -np.inf):
        raise ValueError(f"the band of width {band} around c = {c[best == -np.inf][0]} "
                         f"holds no grid tuple at resolution {resolution}")
    out = np.maximum(0.0, best).reshape(shape)
    return out if out.ndim else float(out)


RegionVerdict = namedtuple("RegionVerdict", "point inside_separable_region margin")


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
