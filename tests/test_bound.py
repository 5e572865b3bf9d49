import hashlib
import tracemalloc

import numpy as np
import pytest

from qtradeoff import bound, oracle
from qtradeoff.bound import (
    LN2SQRT3,
    TWO_LN2,
    region_check,
    validate_bound_curve,
    zeta,
    zeta_inv,
    zeta_inv_branches,
)
from qtradeoff.oracle import grid_h_k, oracle_zeta, simplex_grid


def test_zeta_inv_endpoints():
    assert abs(zeta_inv(0.0) - LN2SQRT3) < 1e-12
    assert abs(zeta_inv(1.0)) < 1e-12


def test_zeta_inv_branch_values_at_zero():
    b1, b2 = zeta_inv_branches(0.0)
    # branch 1 at e=0: H(1/2, 1/6, 1/6, 1/6) = ln2 + ln3/2 = ln(2 sqrt 3)
    assert abs(float(b1) - LN2SQRT3) < 1e-12
    # branch 2 at e=0 with kappa = 1/3: H(1/3, 1/3, 1/3, 0) = ln 3
    assert abs(float(b2) - np.log(3.0)) < 1e-12


def _spectra(e, kappa):
    """The spectra lambda_1 and lambda_2 whose entropies are the two branches."""
    third = (1.0 - e) / 6.0
    lam1 = np.stack([(1.0 + e) / 2.0, third, third, third])
    lam2 = np.stack([(1.0 + e - kappa) / 2.0, (1.0 - e - kappa) / 2.0, kappa, np.zeros_like(e)])
    return lam1, lam2


def test_zeta_inv_branches_are_spectrum_entropies():
    es = np.linspace(0.0, 1.0, 1001)
    lam1, lam2 = _spectra(es, (np.sqrt(4.0 - 3.0 * es * es) - 1.0) / 3.0)
    assert np.allclose(lam1.sum(axis=0), 1.0) and np.allclose(lam2.sum(axis=0), 1.0)
    b1, b2 = zeta_inv_branches(es)
    assert np.max(np.abs(b1 + bound._xlogx(lam1).sum(axis=0))) <= 1e-15
    assert np.max(np.abs(b2 + bound._xlogx(lam2).sum(axis=0))) <= 1e-15
    # kappa(0) = 1/3, kappa(1) = 0 and kappa(1/2) = (sqrt(13)/2 - 1)/3, written out.
    for e, kappa in [(0.0, 1.0 / 3.0), (1.0, 0.0), (0.5, (np.sqrt(13.0) / 2.0 - 1.0) / 3.0)]:
        _, lam2 = _spectra(e, kappa)
        assert abs(float(zeta_inv_branches(e)[1]) + float(bound._xlogx(lam2).sum())) <= 1e-15


@pytest.mark.parametrize("f", [zeta_inv_branches, zeta_inv])
def test_zeta_inv_domain(f):
    # NaN, alone or in an array, is outside the domain too.
    for e in (-0.5, 1.5, np.nan, np.array([0.5, np.nan, 0.25])):
        with pytest.raises(ValueError, match=r"zeta_inv requires e in \[0,1\]"):
            f(e)
    # Within 1e-12 of [0, 1] an argument is clipped into it.
    for e, edge in ((-1e-13, 0.0), (1.0 + 1e-13, 1.0)):
        assert np.array_equal(f(e), f(edge))


def _digest(*arrays):
    return hashlib.sha256(np.stack(arrays).astype("<f8").tobytes()).hexdigest()


def test_zeta_inv_branches_and_zeta_digests():
    # Every float bit, signed zeros included: no CSV prints a branch, so a
    # -0.0 at e = 1 would leave every CSV pin as it is.
    assert _digest(*zeta_inv_branches(np.linspace(0.0, 1.0, 10001))) == (
        "7865cee3bbb20b05aee9099650fdf76f0c6c97ba86b5625d378a1308f9069e68")
    assert _digest(zeta(np.linspace(0.0, TWO_LN2, 10001))) == (
        "5f8e7b6224a8f123bf6f1edca6550dce5f5833b797e50ff0935dddd749fb8ffd")
    assert _digest(zeta_inv(np.linspace(0.0, 1.0, 10001))) == (
        "4fdadd4cc74046914abd4722eec0ea3a364419d2e199bdd1d33a239244c0ca83")


def test_xlogx_bits():
    # +0.0 at 0 and at 1, the subnormal and tiny products to the bit; a
    # float-noise negative eigenvalue adds nothing to an entropy.
    for x, want in ((0.0, "0x0.0p+0"), (5e-324, "-0x0.00000000002e8p-1022"),
                    (1e-300, "-0x1.ce9b81ff759e1p-988"), (0.5, "-0x1.62e42fefa39efp-2"),
                    (1.0, "0x0.0p+0")):
        assert float(bound._xlogx(x)).hex() == want
    assert bound._xlogx(-1e-9) == 0


def test_zeta_inv_both_branches_active():
    es = np.linspace(0.0, 1.0, 2001)
    b1, b2 = zeta_inv_branches(es)
    assert np.any(b1 > b2 + 1e-12)
    assert np.any(b2 > b1 + 1e-12)


def test_zeta_inv_strictly_decreasing():
    es = np.linspace(0.0, 1.0, 1001)
    vals = np.asarray(zeta_inv(es))
    assert np.all(np.diff(vals) < 0)


def test_zeta_endpoints():
    assert abs(zeta(0.0) - 1.0) < 1e-9
    assert zeta(TWO_LN2) == 0.0
    assert zeta(LN2SQRT3) == 0.0
    assert zeta((LN2SQRT3 + TWO_LN2) / 2.0) == 0.0


def test_zeta_is_exactly_one_at_zero():
    # The bisection alone stops at 1 - 2^-49; c = 0 (clipped from c >= -1e-9)
    # returns 1.0 exactly, as c >= ln(2 sqrt 3) returns 0.0.
    assert zeta(0.0) == 1.0
    assert zeta(np.array([-1e-10, 0.0, 0.1])).tolist()[:2] == [1.0, 1.0]


def test_zeta_roundtrip():
    es = np.linspace(0.001, 0.999, 97)
    back = np.asarray(zeta(np.asarray(zeta_inv(es))))
    assert np.max(np.abs(back - es)) < 1e-10


def test_zeta_vectorized_matches_scalar():
    # Bit for bit: the CLI tables make one array call where they made one
    # scalar call per row, and their bytes must not change.
    rng = np.random.default_rng(59)
    cs = np.concatenate([np.linspace(0.0, TWO_LN2, 37), rng.random(40) * TWO_LN2])
    vec = np.asarray(zeta(cs))
    assert [zeta(float(c)) for c in cs] == vec.tolist()


def test_zeta_rejects_out_of_domain():
    # NaN, alone or in an array, would otherwise bisect to zeta = 1.
    for c in (-0.1, TWO_LN2 + 0.1, np.nan, np.array([0.5, np.nan, 1.0])):
        with pytest.raises(ValueError, match=r"zeta requires c in \[0, 2 ln 2\]"):
            zeta(c)


def test_zeta_checks_its_domain_once_per_call(monkeypatch):
    # zeta checks and clips c once; its 48 bisection steps evaluate the
    # branches at midpoints already in [0, 1], without zeta_inv_branches'
    # check and clip.
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "clip", counted("clip", np.clip))
    monkeypatch.setattr(bound, "zeta_inv_branches", counted("check", bound.zeta_inv_branches))
    for c in (0.3, np.linspace(0.0, TWO_LN2, 9)):
        calls.clear()
        zeta(c)
        assert calls == ["clip"]


def test_simplex_grid_small():
    grid = simplex_grid(4)
    rows = {tuple(r) for r in (grid * 4).astype(int).tolist()}
    expected = {
        (4, 0, 0, 0),
        (3, 1, 0, 0),
        (2, 2, 0, 0),
        (2, 1, 1, 0),
        (1, 1, 1, 1),
    }
    assert rows == expected


def _loop_simplex_grid(n):
    # Reference: the triple-loop enumeration the array code replaced.
    rows = []
    for l1 in range((n + 3) // 4, n + 1):
        r1 = n - l1
        for l2 in range((r1 + 2) // 3, min(l1, r1) + 1):
            r2 = r1 - l2
            for l3 in range((r2 + 1) // 2, min(l2, r2) + 1):
                rows.append((l1, l2, l3, r2 - l3))
    return np.array(rows, dtype=float) / n


def _partitions_into_four(n):
    # Partitions of n into at most four parts = partitions into parts <= 4.
    ways = [1] + [0] * n
    for part in range(1, 5):
        for v in range(part, n + 1):
            ways[v] += ways[v - part]
    return ways[n]


@pytest.mark.parametrize("n", list(range(1, 41)) + [200])
def test_simplex_grid_matches_loop_enumeration(n):
    grid = simplex_grid(n)
    assert np.array_equal(grid, _loop_simplex_grid(n))
    assert grid.shape == (_partitions_into_four(n), 4)


def test_simplex_grid_properties():
    grid = simplex_grid(30)
    assert np.allclose(np.sum(grid, axis=1), 1.0, atol=1e-12)
    assert np.all(np.diff(grid, axis=1) <= 1e-12)
    assert np.all(grid >= 0)
    # distinct rows only
    assert len({tuple(r) for r in grid.tolist()}) == len(grid)


def test_grid_h_k_consistency():
    # Every grid tuple's entropy, by the measures module's own function, and
    # its k appear in grid_h_k: the same values as a multiset.  The entropy of
    # the tuple is that of the diagonal state it is the spectrum of.
    from qtradeoff.linalg import DensityMatrix
    from qtradeoff.measures import cut_measures

    h, k = grid_h_k(50)
    lam = simplex_grid(50)
    assert len(h) == len(k) == len(lam)
    diagonal = lam[:, :, None] * np.eye(4)
    s = cut_measures(DensityMatrix(diagonal, (2, 2, 1)), cut=(0, 1)).entropy_AB
    assert np.allclose(np.sort(h), np.sort(s), rtol=0, atol=1e-12)
    k_ref = lam[:, 0] - lam[:, 2] - 2.0 * np.sqrt(lam[:, 1] * lam[:, 3])
    assert np.allclose(np.sort(k), np.sort(k_ref), rtol=0, atol=1e-12)


def _float_lambda_h_k(n):
    # Reference: the construction grid_h_k replaced, h and k of each row of
    # the float lambda grid, in simplex_grid order.
    lam = simplex_grid(n)
    h = -np.sum(bound._xlogx(lam), axis=1)
    k = lam[:, 0] - lam[:, 2] - 2.0 * np.sqrt(lam[:, 1] * lam[:, 3])
    return h, k


@pytest.mark.parametrize("n", list(range(100, 162)) + [200, 450, 600])
def test_grid_h_k_bit_identical_to_float_lambda_grid(n):
    for new, ref in zip(grid_h_k(n), _float_lambda_h_k(n)):
        assert np.array_equal(new, ref)
        assert np.array_equal(np.signbit(new), np.signbit(ref))


def _reference_rows(n):
    # Brute force, one largest part l1 at a time: the integer rows of the
    # descending partitions of n in lexicographic order, as int16.
    for l1 in range((n + 3) // 4, n + 1):
        m = min(l1, n - l1) + 1
        l2, l3 = np.divmod(np.arange(m * m), m)
        l4 = n - l1 - l2 - l3
        ok = (l3 <= l2) & (l4 <= l3) & (l4 >= 0)
        yield np.stack([np.full(np.count_nonzero(ok), l1), l2[ok], l3[ok], l4[ok]],
                       axis=1).astype(np.int16)


@pytest.mark.parametrize("n", [150, 600, 1000])
def test_grid_blocks_are_runs_of_pairs(n):
    # Concatenated, the blocks are the h and k of the float rows in
    # simplex_grid order, bit for bit; each block starts at a new (l1, l2)
    # pair; and past its first pair, which holds at most n/2 + 1 tuples, a
    # block holds fewer than _BLOCK tuples.
    rows = np.concatenate(list(_reference_rows(n)))
    assert len(rows) == _partitions_into_four(n)
    start = 0
    for h, k in oracle._grid_blocks(n):
        block = rows[start:start + len(h)]
        lam = block / n
        assert np.array_equal(h, -np.sum(bound._xlogx(lam), axis=1))
        assert np.array_equal(k, lam[:, 0] - lam[:, 2] - 2.0 * np.sqrt(lam[:, 1] * lam[:, 3]))
        assert start == 0 or np.any(block[0, :2] != rows[start - 1, :2])
        first = np.count_nonzero(np.all(block[:, :2] == block[0, :2], axis=1))
        assert first <= n // 2 + 1
        assert len(h) - first < oracle._BLOCK
        start += len(h)
    assert start == len(rows)


def _whole_plan(n):
    # The pairs of every l1 at once: the reference for _plan's chunks, built
    # from the l1 range itself, not from _plan's cuts.
    return oracle._pairs(n, np.arange((n + 3) // 4, n + 1))


@pytest.mark.parametrize("cap", [None, 64])
@pytest.mark.parametrize("n", [100, 257, 600, 1000, 1501])
def test_pair_plan_chunks_are_runs_of_l1_values(monkeypatch, n, cap):
    # Concatenated, the chunks of _plan are the whole plan, bit for bit.  Each
    # chunk starts at a new l1 and holds at most _CHUNK pairs, unless it is
    # one l1; and it is the longest such run, so no chunk could take the
    # next l1 too.
    if cap is not None:
        monkeypatch.setattr(oracle, "_CHUNK", cap)
    chunks = list(oracle._plan(n))
    for whole, parts in zip(_whole_plan(n), zip(*chunks)):
        joined = np.concatenate(parts)
        assert joined.dtype == whole.dtype and np.array_equal(joined, whole)
    for chunk, after in zip(chunks, chunks[1:] + [None]):
        l1 = chunk[0]
        assert len(l1) <= oracle._CHUNK or np.all(l1 == l1[0])
        if after is not None:
            assert after[0][0] > l1[-1]
            assert len(l1) + np.count_nonzero(after[0] == after[0][0]) > oracle._CHUNK


@pytest.mark.parametrize("n", [100, 257, 600, 1000])
def test_grid_chains_are_strictly_monotone(n):
    # The frontier's search rests on this: along the chain of one (l1, l2)
    # pair, as l3 rises, h strictly falls and k strictly rises, in floats too.
    # The smallest steps read 1.1e-5 in h and 8.4e-6 in k at n = 600, and
    # 4.0e-6 and 3.0e-6 at n = 1000.  The blocks of _grid_blocks are runs of
    # whole pairs, so the walk never holds the grid.
    ends = np.cumsum(_whole_plan(n)[-1])
    start, fall, rise = 0, np.inf, np.inf
    for h, k in oracle._grid_blocks(n):
        stop = start + len(h)
        assert stop in ends
        inner = np.ones(len(h) - 1, dtype=bool)
        inner[ends[(ends > start) & (ends < stop)] - start - 1] = False
        fall = min(fall, np.min(-np.diff(h)[inner], initial=np.inf))
        rise = min(rise, np.min(np.diff(k)[inner], initial=np.inf))
        start = stop
    assert start == ends[-1]
    assert fall > 1e-7 and rise > 1e-7


@pytest.mark.parametrize("n", [150, 257, 401])
def test_oracle_scan_does_not_depend_on_the_block_size(monkeypatch, n):
    # Both oracles' passes over the grid: the chunks of the pair plan, cut at
    # _CHUNK pairs, and the band oracle's blocks and the frontier's scans of
    # chains, cut at _BLOCK tuples.  A cap of 1 puts each l1 in its own chunk.
    # The band oracle runs at the size `verify` uses, where two of the 50
    # bands are empty and raise.
    queries = [np.linspace(0.0, TWO_LN2, 50), np.linspace(0.0, TWO_LN2, 200)]
    h, _ = grid_h_k(n)
    populated = np.any(np.abs(h - queries[0][:, None]) <= 0.01, axis=1)
    assert np.sum(~populated) == (2 if n == 150 else 0)

    def scan():
        for c in queries[0][~populated]:
            with pytest.raises(ValueError, match="no grid tuple"):
                oracle_zeta(c, n)
        band = [oracle_zeta(queries[0][populated], n)] if n == 150 else []
        return [oracle.oracle_frontier(cs, n) for cs in queries] + band

    default = scan()
    for name, size in [("_BLOCK", 2 ** 6), ("_BLOCK", 2 ** 16),
                       ("_CHUNK", 1), ("_CHUNK", 2 ** 6), ("_CHUNK", 2 ** 20)]:
        with monkeypatch.context() as m:
            m.setattr(oracle, name, size)
            for got, values in zip(scan(), default):
                assert np.array_equal(got, values)
                assert np.array_equal(np.signbit(got), np.signbit(values))


def test_oracle_zeta_examples():
    # Near c=0 only the near-pure tuples qualify and k approaches 1.
    assert oracle_zeta(0.0, resolution=200, band=0.01) > 0.97
    # Past ln(2 sqrt 3) the maximum of k at that entropy is not positive.
    assert oracle_zeta(1.30, resolution=200, band=0.01) == 0.0
    # Scalar in, float out; the same value as in an array query.
    assert isinstance(oracle_zeta(0.5), float)
    assert oracle_zeta(0.5) == oracle_zeta(np.array([0.5]))[0]


def test_oracle_zeta_validates_arguments():
    for band in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(ValueError):
            oracle_zeta(0.5, band=band)
    for search in (oracle_zeta, oracle.oracle_frontier):
        for c in (np.nan, [0.5, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                search(c)
        for resolution in (50, 99, 150.5, "150", None):
            with pytest.raises(ValueError, match="oracle resolution"):
                search(0.5, resolution=resolution)


def test_bound_forwards_the_three_oracle_names_and_no_other(monkeypatch):
    # bound.<name> is the oracle's own function for the three public names
    # that callers spell on bound.  Every other name bound lacks raises,
    # oracle_frontier and private ones included, so a test that patches
    # bound._CHUNK fails instead of patching what nothing reads.
    names = ("oracle_zeta", "grid_h_k", "simplex_grid")
    for name in names:
        assert getattr(bound, name) is getattr(oracle, name)
    assert bound._ORACLE_NAMES == names
    for name in ("oracle_frontier", "_CHUNK", "_BLOCK", "_plan", "_pairs", "_runs",
                 "_grid_blocks", "oracle", "zeta_oracle"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(bound, name)
    with pytest.raises(AttributeError):
        monkeypatch.setattr(bound, "_CHUNK", 1)


@pytest.mark.parametrize("resolution", [0, -1, 1.5, 2.7])
def test_grid_functions_check_the_resolution_before_dividing(resolution):
    # grid_h_k(0) used to divide by zero before rejecting n, and a fractional
    # resolution used to truncate to the integer below it.
    for grid in (simplex_grid, grid_h_k):
        with pytest.raises(ValueError, match="resolution"):
            grid(resolution)


def test_oracle_matches_closed_form():
    cs = np.linspace(0.0, TWO_LN2, 50)
    diffs = [abs(oracle_zeta(float(c)) - zeta(float(c))) for c in cs]
    assert max(diffs) <= 0.02


def test_grid_tuples_never_exceed_bound():
    # Soundness: every exact probability 4-tuple of the grid obeys
    # max{0,k} <= zeta(h).
    h, k = grid_h_k(200)
    assert len(h) == len(simplex_grid(200)) == 59_823
    verdicts = region_check(np.stack([h, np.maximum(k, 0.0)], axis=1), tolerance=1e-9)
    assert len(verdicts) == len(h)
    assert all(v.inside_separable_region for v in verdicts)


def _brute_force_oracle(h, k, c, band):
    # Reference: the exact band test over the whole grid; None for a band that
    # holds no tuple.
    mask = np.abs(h - c) <= band
    return max(0.0, float(np.max(k[mask]))) if np.any(mask) else None


def _check_band_oracle(h, k, cs, n, band):
    """oracle_zeta at the populated bands of cs, as one query, against the
    brute force, bit for bit; each empty band raises.  Returns the queries of
    the populated bands."""
    expected = [_brute_force_oracle(h, k, c, band) for c in cs]
    populated = np.array([v is not None for v in expected], dtype=bool)
    assert oracle_zeta(cs[populated], n, band).tolist() == [v for v in expected if v is not None]
    for c in cs[~populated]:
        with pytest.raises(ValueError, match="no grid tuple"):
            oracle_zeta(c, n, band)
    return cs[populated]


def test_oracle_zeta_array_matches_brute_force_mask():
    h, k = grid_h_k(200)
    rng = np.random.default_rng(61)
    # Queries a band's width away from grid entropies put tuples on the band
    # edges, where rounding decides membership.
    edges = h[rng.choice(len(h), 100)]
    cs = np.concatenate([rng.random(200) * TWO_LN2, edges - 0.01, edges + 0.01,
                         [0.0, 0.012, 0.015, 0.021, TWO_LN2]])
    populated = _check_band_oracle(h, k, cs, 200, 0.01)
    assert len(cs) - len(populated) == 7
    values = oracle_zeta(populated)
    assert oracle_zeta(populated.reshape(2, -1)).tolist() == values.reshape(2, -1).tolist()


def test_oracle_zeta_memory_does_not_grow_with_the_queries():
    # 400 queries, half of them one band from grid entropies: the band oracle
    # takes them in runs of 8, so its (queries x block) temporaries hold at
    # most 8 blocks' entries.  Its tracemalloc peak read 2.1 MB; with every
    # query in one temporary it read 79 MB.
    h, k = grid_h_k(200)
    rng = np.random.default_rng(400)
    edges = h[rng.choice(len(h), 100)]
    cs = np.concatenate([rng.random(200) * TWO_LN2, edges - 0.01, edges + 0.01])
    expected = [_brute_force_oracle(h, k, c, 0.01) for c in cs]
    populated = cs[[v is not None for v in expected]]
    assert len(cs) - len(populated) == 4
    tracemalloc.start()
    try:
        values = oracle_zeta(populated)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert values.tolist() == [v for v in expected if v is not None]
    for c in cs[[v is None for v in expected]]:
        with pytest.raises(ValueError, match="no grid tuple"):
            oracle_zeta(c)


def _brute_force_frontier(h, k, c):
    # Reference: the max of k over the whole grid's tuples of entropy c or
    # more, 0 when it is negative or no tuple qualifies.
    above = k[h >= c]
    return max(0.0, float(np.max(above))) if above.size else 0.0


def _band_query_sets(h, rng):
    # (entropies, band) pairs: the oracle command's points and the bound
    # table's overlapping linspace; queries one band from grid entropies;
    # band edges exactly on grid entropies, since in [0.5, 1) adding or
    # subtracting 2^-7 is exact; a band so narrow that most bands are empty;
    # and a band wider than half the entropy range.
    near = h[rng.choice(len(h), 60)]
    mid = rng.choice(h[(h > 0.51) & (h < 0.99)], 60)
    return [
        (np.linspace(0.0, TWO_LN2, 50), 0.01),
        (np.linspace(0.0, TWO_LN2, 200), 0.01),
        (np.concatenate([near - 0.01, near + 0.01]), 0.01),
        (np.concatenate([mid - 2.0 ** -7, mid + 2.0 ** -7]), 2.0 ** -7),
        (np.concatenate([near, near - 1e-6, near + 1e-6, rng.random(40) * TWO_LN2]), 1e-6),
        (np.concatenate([np.linspace(0.0, TWO_LN2, 30), rng.random(30) * TWO_LN2]), 0.5),
    ]


@pytest.mark.parametrize("n", [100, 150, 200, 257, 401])
def test_oracle_scan_matches_brute_force_at_grid_sizes(n):
    # The frontier at every size, at exact grid entropies (where the h >= c
    # ties decide) and the floats next to them, the oracle command's and the
    # bound table's points, and entropies outside [0, 2 ln 2]; the band
    # oracle at the sizes its callers use.
    h, k = grid_h_k(n)
    rng = np.random.default_rng(n)
    exact = np.concatenate([h[rng.choice(len(h), 100)], [np.min(h), np.max(h)]])
    cs = np.concatenate([exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf),
                         np.linspace(0.0, TWO_LN2, 50), np.linspace(0.0, TWO_LN2, 200),
                         [-1.0, -1e-300, TWO_LN2 + 1e-9, 3.0]])
    assert oracle.oracle_frontier(cs, n).tolist() == [_brute_force_frontier(h, k, c) for c in cs]
    if n not in (150, 200):
        return
    for cs, band in _band_query_sets(h, rng):
        populated = _check_band_oracle(h, k, cs, n, band)
        if band == 1e-6:  # the narrow bands around non-grid entropies are empty
            assert len(cs) - len(populated) >= 20


@pytest.mark.parametrize("n, spread, dense", [(600, 0, 0), (600, 30, 0), (200, 30, 2000)])
def test_oracle_frontier_search_matches_brute_force(monkeypatch, n, spread, dense):
    # The frontier bisects a chain for the queries within its entropy range,
    # or scans it where they are dense.  Queries on the h of chains' first
    # and last tuples, where a chain's range opens and closes, and on the
    # floats next to them: for the 10 longest chains, whose bisections take
    # the most steps, and for `spread` random ones; on as many grid
    # entropies and their neighbours; on the oracle command's points; and on
    # `dense` random entropies.  Each side takes some of the chains.
    h, k = grid_h_k(n)
    rng = np.random.default_rng(n + spread)
    counts = _whole_plan(n)[-1]
    chains = np.concatenate([np.argsort(counts)[-10:], rng.choice(len(counts), spread)])
    last = np.cumsum(counts)[chains] - 1
    edges = np.concatenate([h[rng.choice(len(h), spread)], h[last], h[last - counts[chains] + 1]])
    cs = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                         np.linspace(0.0, TWO_LN2, 50), rng.random(dense) * TWO_LN2])
    scanned, runs = [], oracle._runs
    monkeypatch.setattr(oracle, "_runs",
                        lambda t, x, *pairs: scanned.append(len(pairs[0])) or runs(t, x, *pairs))
    values = oracle.oracle_frontier(cs, n)
    assert values.tolist() == [_brute_force_frontier(h, k, c) for c in cs]
    assert not np.any(np.signbit(values))
    assert 0 < sum(scanned) < len(counts)
    empty = oracle.oracle_frontier(cs[:0], n)
    assert empty.shape == (0,) and empty.dtype == float


@pytest.mark.parametrize("n", [200, 600])
def test_oracle_frontier_finds_every_boundary_of_a_chain(monkeypatch, n):
    # On a pair plan cut down to one chunk of one chain, the frontier at c is
    # the k of the chain's last tuple with h >= c, so a search that stops
    # short shows.
    # Queries on each tuple's h and on the floats next to it put the boundary
    # at every position of the chain, for the longest chains, whose
    # bisections take the most steps, and for three random ones: one query
    # at a time, which the frontier bisects, and all at once, which it scans.
    h, k = grid_h_k(n)
    pairs = _whole_plan(n)
    counts = pairs[-1]
    starts = np.cumsum(counts) - counts
    for i in [*np.argsort(counts)[-3:], *np.random.default_rng(n).choice(len(counts), 3)]:
        chain = slice(starts[i], starts[i] + counts[i])
        monkeypatch.setattr(oracle, "_plan", lambda _, i=i: [[p[i:i + 1] for p in pairs]])
        cs = np.concatenate([h[chain], np.nextafter(h[chain], -np.inf),
                             np.nextafter(h[chain], np.inf)])
        expected = [_brute_force_frontier(h[chain], k[chain], c) for c in cs]
        assert [oracle.oracle_frontier(c, n) for c in cs] == expected
        assert oracle.oracle_frontier(cs, n).tolist() == expected


@pytest.mark.parametrize("n, queries", [(600, 50), (1000, 50), (1500, 50), (200, 10_000)])
def test_oracle_frontier_memory_does_not_grow(n, queries):
    # The frontier holds one chunk of the pair plan, of at most 2^11 pairs,
    # with its (chain, query) pairs and one scan run of at most 2^13 tuples,
    # and one maximum per query; each chunk and run is freed before the next
    # is built.  Its tracemalloc peak read 0.85, 0.89 and 0.90 MiB at n = 600,
    # 1000 and 1500, and 1.06 MiB for 10 000 queries at n = 200.  With each
    # chunk and run held while the next was built it read 0.95, 1.01, 1.02
    # and 1.19 MiB; with the whole pair plan 2.09, 5.8, 13.0 and 1.50 MiB.
    cs = np.linspace(0.0, TWO_LN2, queries)
    tracemalloc.start()
    try:
        oracle.oracle_frontier(cs, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20


def test_oracle_scan_with_no_tuple_near_a_band_edge():
    # Every band edge lies outside the entropy range: the wide bands hold the
    # pure tuple (k = 1), and the bands beyond either end of the range hold no
    # tuple and raise.  The frontier takes every tuple below the range and
    # none above it.
    assert oracle_zeta([0.0, 0.7, TWO_LN2], 100, 2.0).tolist() == [1.0] * 3
    for c in (-1.0, 3.0):
        with pytest.raises(ValueError, match="no grid tuple"):
            oracle_zeta([0.5, c], 100, 0.01)
    assert oracle.oracle_frontier([-1.0, 3.0], 100).tolist() == [1.0, 0.0]


def test_oracle_zeta_rejects_an_empty_band():
    # On the resolution-200 grid no entropy lies in (0, 0.0315): the band of
    # c = 0.015 holds no tuple.
    h, _ = grid_h_k(200)
    assert not np.any(np.abs(h - 0.015) <= 0.01)
    with pytest.raises(ValueError, match="band of width 0.01 around c = 0.015 holds no grid tuple"):
        oracle_zeta([0.5, 0.015], 200, 0.01)


@pytest.mark.parametrize("n, points", [(150, 8), (200, 50)])
def test_band_oracle_callers_query_populated_bands(n, points):
    # The band oracle's callers, `verify` (8 points at n = 150) and acceptance
    # criterion 04 (50 points at n = 200), both at band 0.01, never meet an
    # empty band.
    h, _ = grid_h_k(n)
    cs = np.linspace(0.0, TWO_LN2, points)
    assert np.all(np.any(np.abs(h - cs[:, None]) <= 0.01, axis=1))


@pytest.mark.parametrize("n, flagged", [(200, 25), (600, 135)])
def test_grid_tuples_obey_the_closed_form_inverse(n, flagged):
    # zeta_inv is strictly decreasing on [0, 1], so k <= zeta(h) holds for a
    # tuple with k > 0 exactly when h <= zeta_inv(k): one closed-form call
    # per tuple, no bisection.  The tuples (n - 3m, m, m, m)/n lie on the
    # curve, so the same check with zeta lowered by 1e-6 (k + 1e-6, capped at
    # the pure tuple's 1) flags tuples.
    h, k = grid_h_k(n)
    h, k = h[k > 0], k[k > 0]
    assert np.max(h - zeta_inv(k)) <= 1e-12
    lowered = np.asarray(zeta_inv(np.minimum(k + 1e-6, 1.0)))
    assert np.count_nonzero(h > lowered + 1e-12) == flagged


def test_zeta_inv_half_against_grid():
    # Independent cross-check of the closed form at e = 0.5: maximize entropy
    # over grid tuples whose k is within a narrow band of 0.5.
    h, k = grid_h_k(600)
    mask = np.abs(k - 0.5) <= 0.005
    assert np.any(mask)
    assert abs(np.max(h[mask]) - zeta_inv(0.5)) < 0.02


def test_region_check_examples():
    verdicts = region_check([(0.0, 1.0), (0.0, 1.1), (TWO_LN2, 0.0), (1.0, 0.5)])
    assert verdicts[0].inside_separable_region
    assert not verdicts[1].inside_separable_region
    assert verdicts[2].inside_separable_region
    assert verdicts[3].margin == pytest.approx(zeta(1.0) - 0.5, abs=1e-12)


def test_region_check_clamps_out_of_domain_entropy():
    verdicts = region_check([(-1e-12, 0.5), (TWO_LN2 + 1e-12, 0.0)])
    assert len(verdicts) == 2
    assert verdicts[1].inside_separable_region


def test_region_check_rejects_nonfinite():
    with pytest.raises(ValueError):
        region_check([(np.nan, 0.0)])


def test_closed_form_curve_valid():
    cs = np.linspace(0.0, TWO_LN2, 200)
    assert all(ok for _, ok in validate_bound_curve(cs, zeta(cs)))


def test_validate_bound_curve_flags_corruption():
    cs = np.linspace(0.0, TWO_LN2, 50)
    es = zeta(cs)
    es[10] = es[5] + 0.1  # break monotonicity
    results = dict(validate_bound_curve(cs, es))
    assert not results["curve_non_increasing"]


def test_red_line_contained():
    ps = np.arange(0.0, 0.5 + 1e-12, 0.005)
    from qtradeoff.measures import closed_form_E, closed_form_I

    pts = [(closed_form_I(p, 1 - p), closed_form_E(p, 1 - p)) for p in ps]
    assert all(v.inside_separable_region for v in region_check(pts, tolerance=1e-9))


def test_two_parameter_family_contained():
    from qtradeoff.measures import closed_form_E, closed_form_I

    rng = np.random.default_rng(53)
    pts = [(closed_form_I(p, q), closed_form_E(p, q)) for p, q in rng.random((300, 2))]
    assert all(v.inside_separable_region for v in region_check(pts, tolerance=1e-9))


def test_concurrence_root_location():
    # The diagonal family p -> (I, E) with q = 1 - p loses entanglement at a
    # unique p; bracket it by sign change of the concurrence expression.
    from qtradeoff.measures import closed_form_E

    lo, hi = 0.3015, 0.3020
    assert closed_form_E(lo, 1 - lo) > 0.0
    assert closed_form_E(hi, 1 - hi) == 0.0
