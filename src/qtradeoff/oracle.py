"""Brute-force grid oracles that check the bound curve zeta of qtradeoff.bound.

Both search an exhaustive grid of the sorted probability 4-simplex, through
k(lambda) = lambda_1 - lambda_3 - 2 sqrt(lambda_2 lambda_4): oracle_frontier
maximizes k over the tuples of entropy at least c, a one-sided check that
never exceeds zeta, and oracle_zeta over the tuples within a band of entropy
c, which must hold one.  oracle_frontier searches chains, the tuples of one
(l1, l2) pair of the plan (_plan), l3 from ceil(r/2) to min(l2, r) and
l4 = r - l3.  As l3 rises, h strictly falls (x log x is strictly convex and
(l3, l4) leave balance) and k strictly rises
(dk/dlambda_3 = sqrt(lambda_2/lambda_4) - 1 > 0), so a chain's best tuple for
c is its last with h >= c.  The oracles take the plan in chunks of
consecutive l1 values, so their working set does not grow with the grid.
All functions broadcast over numpy arrays.

Only the `oracle` command, `bound --oracle` and `verify` load this module;
the other commands need the closed form alone.
"""

import numpy as np

from .bound import _float_or_array, _integer, _xlogx


def _expand(starts, counts):
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i, in
    order, with the index i of each entry."""
    owner = np.repeat(np.arange(len(counts)), counts)
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(out.size)
    return out, owner


def _cuts(counts, size):
    """(a, b) of consecutive runs counts[a:b], each the longest from a whose
    sum is at most size, or the one entry counts[a] where that exceeds size."""
    ends = np.concatenate([[0], np.cumsum(counts)])
    a = 0
    while a < len(counts):
        b = max(a + 1, np.searchsorted(ends, ends[a] + size, side="right") - 1)
        yield a, b
        a = b


def _parts(r, cap, k):
    """The least next part ceil(r/k) of a remainder r left for k descending
    parts, and the number of values it takes, up to min(cap, r)."""
    least = (r + (k - 1)) // k
    return least, np.minimum(cap, r) - least + 1


def _pairs(n, largest):
    """Per (l1, l2) pair of the descending partitions l1>=l2>=l3>=l4>=0 of n
    with l1 in `largest`, in lexicographic order: l1, l2, r = n - l1 - l2 and
    its chain's first l3 and number of l3 values."""
    l2, i1 = _expand(*_parts(n - largest, largest, 3))
    l1 = largest[i1]
    r2 = n - l1 - l2
    return (l1, l2, r2, *_parts(r2, l2, 2))


# Pairs per chunk of the pair plan, which the oracles hold one at a time
# (oracle_frontier frees each chunk's arrays before it builds the next):
# 2^11 keeps the frontier's peak near 1 MiB at any n and its time that of the
# whole plan; 2^10 halves the peak but takes 10-25% longer at n = 200-575.
_CHUNK = 2 ** 11


def _plan(n):
    """The pairs of every l1 in chunks of consecutive l1 values, each of at
    most _CHUNK pairs unless one l1 has more (at most n/3 + 1), so the whole
    plan is never held: it is cut from the number of pairs of each l1."""
    least, count = _parts(n, n, 4)
    largest = np.arange(least, least + count)
    for a, b in _cuts(_parts(n - largest, largest, 3)[1], _CHUNK):
        yield _pairs(n, largest[a:b])


def _tuples(r2, top, counts):
    """l3, l4 and the pair index of each tuple of the pairs' chains."""
    l3, pair = _expand(top, counts)
    l4 = r2[pair]
    l4 -= l3
    return l3, l4, pair


def simplex_grid(resolution):
    """All descending integer partitions (l1>=l2>=l3>=l4>=0) of `resolution`,
    divided by `resolution`: exact coverage of the ordered 4-simplex.  Rows are
    in lexicographic order of (l1, l2, l3)."""
    n = _integer(resolution, 1, "resolution")
    l1, l2, r2, top, counts = map(np.concatenate, zip(*_plan(n)))
    l3, l4, pair = _tuples(r2, top, counts)
    return np.stack([l1[pair], l2[pair], l3, l4], axis=1) / n


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


def _runs(t, x, *pairs):
    """(h, k) of the pairs' tuples in order, in runs of at most _BLOCK tuples
    unless one pair has more (at most n/2 + 1)."""
    for a, b in _cuts(pairs[-1], _BLOCK):
        l1, l2, r2, top, counts = (p[a:b] for p in pairs)
        l3, l4, pair = _tuples(r2, top, counts)
        yield _h(t, (t[l1] + t[l2])[pair], l3, l4), _k(x, x[l1][pair], x[l2][pair], l3, l4)
        del l3, l4, pair  # freed before the next run is built


def _grid_blocks(n):
    """(h, k) of the simplex_grid tuples in simplex_grid order, in the _runs
    of each chunk of the pair plan."""
    x = np.arange(n + 1) / n
    t = _xlogx(x)
    for pairs in _plan(n):
        yield from _runs(t, x, *pairs)


def grid_h_k(resolution):
    """(h values, k values) of the simplex_grid tuples, in simplex_grid order."""
    return tuple(map(np.concatenate, zip(*_grid_blocks(_integer(resolution, 1, "resolution")))))


def _climb(t, t12, lo, end, r, c):
    """(l3, l4) of the last tuple with h >= c of each chain from l3 = lo to
    end, where h(lo) >= c > h(end): lo climbs by falling powers of two while
    h >= c.  Its (chain, query) arrays are freed on return."""
    for step in 2 ** np.arange(int(np.max(end - lo, initial=0)).bit_length())[::-1]:
        mid = np.minimum(lo + step, end)
        lo = np.where(_h(t, t12, mid, r - mid) >= c, mid, lo)
    return lo, r - lo


def _oracle_args(c, resolution):
    """The entropies c as a flat float array, their shape and the resolution, checked."""
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("oracle entropies must be finite")
    return c.ravel(), c.shape, _integer(resolution, 100, "oracle resolution")


def _frontier_chunk(best, sorted_c, t, x, p1, p2, r, top, count):
    """Raise `best` (see oracle_frontier) by the tuples of one chunk of the pair
    plan.  Its (chain, query) arrays are freed on return."""
    t12, x1, x2, end = t[p1] + t[p2], x[p1], x[p2], top + count - 1
    low = np.searchsorted(sorted_c, _h(t, t12, end, r - end), side="right")
    np.maximum.at(best, low, _k(x, x1, x2, end, r - end))
    m = np.searchsorted(sorted_c, _h(t, t12, top, r - top), side="right") - low
    # Bisection takes m ceil(log2 count) h evaluations; a scan takes count
    # tuples at about two each (h, k and a search of the queries).
    scan = m * np.ceil(np.log2(count)) > 2 * count
    if np.any(scan):
        for h, k in _runs(t, x, p1[scan], p2[scan], r[scan], top[scan], count[scan]):
            np.maximum.at(best, np.searchsorted(sorted_c, h, side="right"), k)
            del h, k  # freed before _runs builds the next run
    q, chain = _expand(low, np.where(scan, 0, m))
    l3, l4 = _climb(t, t12[chain], top[chain], end[chain], r[chain], sorted_c[q])
    np.maximum.at(best, q + 1, _k(x, x1[chain], x2[chain], l3, l4))


def oracle_frontier(c, resolution=200):
    """Grid frontier of zeta: Z_n(c) = max of max{0, k(lambda)} over the grid
    tuples with h(lambda) >= c, per entropy c.  Every tuple obeys k <= zeta(h)
    and zeta is non-increasing, so Z_n <= zeta(c).  A chain's end tuple serves
    each c up to its h; each c between that and the top tuple's h bisects l3
    for its tuple, unless a scan costs less."""
    c, shape, n = _oracle_args(c, resolution)
    order = np.argsort(c)
    sorted_c = c[order]
    # Slot j holds tuples with h at or above the j smallest queries, so the
    # j-th smallest query takes the max over slots j + 1 and up.
    best = np.full(len(c) + 1, -np.inf)
    x = np.arange(n + 1) / n
    t = _xlogx(x)
    for pairs in _plan(n):
        _frontier_chunk(best, sorted_c, t, x, *pairs)
        # The loop name would hold this chunk's pairs while _plan builds the next.
        del pairs
    out = np.empty_like(c)
    out[order] = np.maximum.accumulate(best[::-1])[::-1][1:]
    return _float_or_array(np.maximum(0.0, out).reshape(shape))


def oracle_zeta(c, resolution=200, band=0.01):
    """Brute-force zeta: max over grid tuples with |h(lambda) - c| <= band of
    max{0, k(lambda)}.  A band that holds no grid tuple raises ValueError."""
    c, shape, resolution = _oracle_args(c, resolution)
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
    return _float_or_array(np.maximum(0.0, best).reshape(shape))
