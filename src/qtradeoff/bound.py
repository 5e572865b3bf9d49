"""The monogamy bound between internal concurrence and external mutual information.

zeta_inv is the closed-form inverse of the tradeoff curve: the larger of two
branches, each the entropy of an explicit spectrum, written with the _xlogx
the oracles use.  zeta recovers the curve by bisection on the branches, with one
domain check per call.  region_check and validate_bound_curve test points and
sampled curves against it.  All functions broadcast over numpy arrays.  Three
helpers are shared with the other modules: _xlogx, _float_or_array, the one
rule for results, and _integer, the one rule for counts and seeds, at most a C
long (2^63 - 1) unless told otherwise.

Every command loads this module.  The brute-force grid oracles that check
zeta are in qtradeoff.oracle, which only the `oracle` command, `bound --oracle`
and `verify` load.  bound.oracle_zeta, grid_h_k and simplex_grid, the oracle
names that callers spell on bound, still resolve: a module __getattr__ loads
oracle on the first use of one of those three names, and only of those.
"""

from collections import namedtuple

import numpy as np

LN2SQRT3 = float(np.log(2.0 * np.sqrt(3.0)))
TWO_LN2 = float(2.0 * np.log(2.0))


def _xlogx(x):
    x = np.asarray(x, dtype=float)
    return x * np.log(np.where(x > 0, x, 1.0))


def _float_or_array(out):
    """The one rule for results: a float for one input, an array for a stack."""
    return out if out.ndim else float(out)


def _integer(n, least, name, most=2**63 - 1):
    """n as an int, if it is an int or numpy integer from least to most (None: any)."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} {n!r} must be an integer")
    if n < least:
        raise ValueError(f"{name} {n!r} must be at least {least}")
    if most is not None and n > most:
        raise ValueError(f"{name} {n!r} must be at most {most}")
    return int(n)


def _branches(e):
    """zeta_inv_branches of a float array e already in [0, 1], unchecked."""
    b1 = 0.0 - _xlogx((1.0 + e) / 2.0) - _xlogx((1.0 - e) / 2.0) + (1.0 - e) * np.log(3.0) / 2.0
    k = (np.sqrt(4.0 - 3.0 * e * e) - 1.0) / 3.0
    b2 = 0.0 - _xlogx((1.0 + e - k) / 2.0) - _xlogx((1.0 - e - k) / 2.0) - _xlogx(k)
    return np.asarray(b1), np.asarray(b2)


def zeta_inv_branches(e):
    """The two candidate maxima whose pointwise max is zeta^{-1}(e), on e in
    [0, 1]: the entropies H(lambda) of the spectra
    lambda_1 = ((1+e)/2, (1-e)/6, (1-e)/6, (1-e)/6) and
    lambda_2 = ((1+e-kappa)/2, (1-e-kappa)/2, kappa, 0), where
    kappa = (sqrt(4 - 3 e^2) - 1) / 3.  The leading 0.0 keeps +0.0 at e = 1."""
    e = np.asarray(e, dtype=float)
    if not np.all((-1e-12 <= e) & (e <= 1.0 + 1e-12)):  # NaN fails too
        raise ValueError("zeta_inv requires e in [0,1]")
    return _branches(np.clip(e, 0.0, 1.0))


def zeta_inv(e):
    """Closed-form inverse bound zeta^{-1}(e) on e in [0, 1]."""
    return _float_or_array(np.maximum(*zeta_inv_branches(e)))


def zeta(c):
    """The bound curve: 1 at c = 0 and 0 for c >= ln(2 sqrt(3)); otherwise the
    unique e in [0,1] with zeta_inv(e) = c, found by bisection to 1e-12 in e."""
    c = np.asarray(c, dtype=float)
    if not np.all((-1e-9 <= c) & (c <= TWO_LN2 + 1e-9)):  # NaN fails too
        raise ValueError("zeta requires c in [0, 2 ln 2]")
    cc = np.clip(c, 0.0, TWO_LN2)
    lo, hi = np.zeros_like(cc), np.ones_like(cc)
    for _ in range(48):  # 2^-48 < 1e-12
        mid = (lo + hi) / 2.0
        # zeta_inv decreasing: value too large means e too small
        bigger = np.maximum(*_branches(mid)) > cc
        lo = np.where(bigger, mid, lo)
        hi = np.where(bigger, hi, mid)
    return _float_or_array(np.where(cc >= LN2SQRT3, 0.0, np.where(cc > 0.0, (lo + hi) / 2, 1.0)))


RegionVerdict = namedtuple("RegionVerdict", "point inside_separable_region margin")


def region_check(points, tolerance=1e-9):
    """Verdict per (c, e) point: inside iff e <= zeta(c) + tolerance.

    c values outside [0, 2 ln 2] (e.g. from noisy estimates) are clamped into
    the domain before evaluating zeta.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    margins = zeta(np.clip(pts[:, 0], 0.0, TWO_LN2)) - pts[:, 1]
    return [RegionVerdict((c, e), m >= -tolerance, m)
            for (c, e), m in zip(pts.tolist(), margins.tolist())]


def validate_bound_curve(cs, es):
    """Named invariant checks on sampled curve points (cs[i], es[i]), each
    within 1e-9; list of (name, ok) pairs."""
    cs, es = np.asarray(cs, dtype=float), np.asarray(es, dtype=float)
    tolerance = 1e-9
    return [
        ("curve_domain", bool(np.all(cs >= -tolerance) and np.all(cs <= TWO_LN2 + tolerance))),
        ("curve_range", bool(np.all(es >= -tolerance) and np.all(es <= 1.0 + tolerance))),
        ("curve_non_increasing", bool(np.all(np.diff(es) <= tolerance))),
        ("curve_vanishes_past_ln2sqrt3", bool(np.all(es[cs >= LN2SQRT3] <= tolerance))),
    ]


_ORACLE_NAMES = ("oracle_zeta", "grid_h_k", "simplex_grid")


def __getattr__(name):
    """The grid oracles' public names, from qtradeoff.oracle on first use (PEP 562)."""
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
