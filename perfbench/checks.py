"""Output checks for one `qtradeoff` operation.

They compare against tolerances, not bytes, so that a change to the RNG stream
layout does not count as a wrong answer.  Each checker returns None when the
output is acceptable and otherwise a one-line reason.
"""

import math
from fractions import Fraction

# Sampled (10 000 shots, 3-sigma coefficient denoising) against exact-mode
# estimates: the largest deviations seen over 65 angles, four noise settings and
# several seeds were 0.05 nats in I and 0.03 in E; the tolerances leave 3x room.
I_TOL = 0.15
E_TOL = 0.10
ORACLE_TOL = 0.02  # the CLI's own acceptance limit on max_abs_diff
MARGIN_TOL = 1e-9  # sweep: zeta(I) - E may undershoot zero by float noise only

HEADERS = {
    "experiment": "theta,p,I_hat,E_hat,I_err,E_err,fidelity",
    "sweep": "family,p,q,I,E,zeta_of_I,margin",
    "bound": "c,zeta_closed",
    "bound_oracle": "c,zeta_closed,zeta_oracle",
    "oracle": "c,zeta_closed,zeta_oracle,abs_diff",
}


def parse_csv(text):
    """(comment lines, header, data rows as lists of strings)."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        return comments, "", []
    return comments, body[0], [ln.split(",") for ln in body[1:]]


def _floats(rows, start=0):
    return [[float(x) for x in r[start:]] for r in rows]


def _arange_len(stop, step):
    """Length of numpy.arange(0, stop, step), computed the way numpy does."""
    return max(0, math.ceil(stop / step))


def check_experiment(params, rows, exact):
    if [r[0] for r in rows] != list(params["thetas"]):
        return "theta column differs from the requested angles"
    for theta, *values in rows:
        p, i_hat, e_hat, i_err, e_err, fid = map(float, values)
        if abs(p - math.cos(float(Fraction(theta)) * math.pi) ** 2) > 1e-12:
            return f"p at theta={theta} is not cos^2(theta)"
        i_ref, e_ref = exact[(params["noise"], theta)]
        if not abs(i_hat - i_ref) <= I_TOL:
            return f"I_hat={i_hat} at theta={theta} differs from exact {i_ref} by more than {I_TOL}"
        if not abs(e_hat - e_ref) <= E_TOL:
            return f"E_hat={e_hat} at theta={theta} differs from exact {e_ref} by more than {E_TOL}"
        if not (i_err >= 0 and e_err >= 0 and math.isfinite(i_err + e_err)):
            return f"bootstrap errors at theta={theta} are not finite and non-negative"
        if not 0.0 <= fid <= 1.0:
            return f"fidelity {fid} at theta={theta} outside [0, 1]"
    return None


def check_sweep(params, rows):
    s = params["step"]
    n_grid = _arange_len(1.0 + 1e-12, s) ** 2
    n_red = _arange_len(0.5 + 1e-12, s)
    if [r[0] for r in rows] != ["grid"] * n_grid + ["red_line"] * n_red:
        return f"expected {n_grid} grid and {n_red} red_line rows"
    for _, _, i_val, e_val, z, margin in _floats(rows, 1):
        if not (0.0 <= e_val <= 1.0 and 0.0 <= z <= 1.0 and i_val >= 0.0):
            return "I, E or zeta outside its range"
        if not margin >= -MARGIN_TOL or abs(margin - (z - e_val)) > 1e-12:
            return f"margin {margin} negative or inconsistent with zeta - E"
    return None


def check_bound(params, rows):
    if len(rows) != params["resolution"]:
        return f"expected {params['resolution']} rows, got {len(rows)}"
    vals = _floats(rows)
    cs = [v[0] for v in vals]
    zs = [v[1] for v in vals]
    if any(b <= a for a, b in zip(cs, cs[1:])):
        return "c column is not increasing"
    if any(b > a for a, b in zip(zs, zs[1:])):
        return "zeta_closed is not non-increasing"
    if not all(0.0 <= z <= 1.0 for v in vals for z in v[1:]):
        return "a zeta value lies outside [0, 1]"
    return None


def check_oracle(comments, rows):
    if len(rows) != 50:
        return f"expected 50 rows, got {len(rows)}"
    worst = [c for c in comments if c.startswith("# max_abs_diff=")]
    if len(worst) != 1:
        return "missing # max_abs_diff line"
    worst = float(worst[0].split("=", 1)[1])
    diffs = [v[3] for v in _floats(rows)]
    if not worst <= ORACLE_TOL:
        return f"max_abs_diff={worst} exceeds {ORACLE_TOL}"
    if abs(worst - max(diffs)) > 1e-12:
        return "max_abs_diff disagrees with the abs_diff column"
    return None


def check(op, returncode, stdout, exact=None):
    """None if operation `op` exited 0 with an acceptable CSV, else a reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        comments, header, rows = parse_csv(stdout.decode())
        kind = "bound_oracle" if op.kind == "bound" and "--oracle" in op.argv else op.kind
        if header != HEADERS[kind]:
            return f"unexpected header {header!r}"
        if any(len(r) != header.count(",") + 1 for r in rows):
            return "ragged CSV row"
        if op.kind == "experiment":
            return check_experiment(op.params, rows, exact)
        if op.kind == "sweep":
            return check_sweep(op.params, rows)
        if op.kind == "bound":
            return check_bound(op.params, rows)
        return check_oracle(comments, rows)
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return f"unparseable output: {exc!r}"
