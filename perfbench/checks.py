"""Correctness checks made apart from the program, with NumPy.

Every check reads the *inputs* (motion or curve coefficients) and the
program's *outputs* (pieces, labels, intervals, hull indices) and
recomputes what the output must satisfy with plain NumPy arithmetic.  No
check evaluates through ``repro.kinetics.Polynomial`` or calls a program
algorithm.  Each function returns ``None`` when the output passes and a
short note saying what failed otherwise.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for comparing a value the program computed with the
#: same quantity recomputed here in another order of float operations.
RTOL = 1e-7


def motion_coeffs(system, k: int) -> np.ndarray:
    """Ascending coordinate coefficients, shape ``(n, d, k + 1)``."""
    n, d = len(system.motions), len(system.motions[0].coords)
    out = np.zeros((n, d, k + 1))
    for i, m in enumerate(system.motions):
        for a, c in enumerate(m.coords):
            cl = [float(x) for x in c.coeffs]
            out[i, a, :len(cl)] = cl
    return out


def horner(coeffs: np.ndarray, t):
    """Evaluate ascending coefficients (last axis) at every ``t``.

    Result shape: ``coeffs.shape[:-1] + np.shape(t)``.
    """
    t = np.asarray(t, dtype=float)
    pick = (Ellipsis,) + (None,) * t.ndim
    acc = np.zeros(coeffs.shape[:-1] + t.shape)
    for i in range(coeffs.shape[-1] - 1, -1, -1):
        acc = acc * t + coeffs[..., i][pick]
    return acc


def polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of ascending coefficient arrays along the last axis."""
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (a.shape[-1] + b.shape[-1] - 1,))
    for i in range(a.shape[-1]):
        for j in range(b.shape[-1]):
            out[..., i + j] += a[..., i] * b[..., j]
    return out


def sign_at_infinity(c: np.ndarray, mag) -> np.ndarray:
    """Sign of each polynomial (last axis, ascending) for large ``t``.

    The highest coefficient above ``1e-9 * mag`` decides, where ``mag``
    bounds the magnitude of the terms the coefficients were summed from
    (so cancellation residue reads as zero); 0 for the zero polynomial.
    """
    live = np.abs(c) > 1e-9 * np.asarray(mag)[..., None]
    sign = np.zeros(c.shape[:-1], dtype=int)
    undecided = np.ones(c.shape[:-1], dtype=bool)
    for i in range(c.shape[-1] - 1, -1, -1):
        hit = undecided & live[..., i]
        sign[hit] = np.sign(c[..., i][hit]).astype(int)
        undecided &= ~hit
    return sign


def close(a, b) -> bool:
    """Equal up to :data:`RTOL`, relative to ``max(1, |b|)``."""
    return abs(a - b) <= RTOL * max(1.0, abs(b))


# ----------------------------------------------------------------------
# Envelopes (Theorem 4.1 and the service's envelope queries)
# ----------------------------------------------------------------------
def envelope_values(curves: np.ndarray, ts: np.ndarray, op: str):
    """All curve values at ``ts`` (``(m, T)``) and their min or max."""
    vals = horner(curves, ts)
    return vals, (vals.min(axis=0) if op == "min" else vals.max(axis=0))


def check_envelope(pieces, curves: np.ndarray, label_row, op: str,
                   extra_times) -> str | None:
    """``pieces``: ``(lo, hi, ascending coeffs, label)`` rows covering
    ``[0, inf)``.  At every piece midpoint and at ``extra_times`` the
    piece's value must equal the min/max over ``curves`` (rows of
    ascending coefficients) and the piece's label must attain it.
    ``label_row`` maps a label to its row in ``curves``."""
    if not pieces:
        return "empty envelope"
    los = np.array([p[0] for p in pieces])
    his = np.array([p[1] for p in pieces])
    if los[0] > 1e-9 or not math.isinf(his[-1]):
        return f"envelope covers [{los[0]}, {his[-1]}], not [0, inf)"
    if np.any(np.abs(his[:-1] - los[1:]) > 1e-9 * np.maximum(1, los[1:])):
        return "envelope pieces are not contiguous"
    mids = np.where(np.isinf(his), los + 1.0, 0.5 * (los + his))
    ts = np.concatenate([mids, np.asarray(extra_times, dtype=float),
                         near_ends(los[1:], his[:-1] - los[:-1],
                                   his[1:] - los[1:])])
    vals, best = envelope_values(curves, ts, op)
    where = np.searchsorted(los, ts, side="right") - 1
    for col, (t, i) in enumerate(zip(ts, where)):
        lo, hi, coeffs, label = pieces[i]
        v = float(horner(np.asarray(coeffs, dtype=float), t))
        if not close(v, best[col]):
            return (f"envelope value {v!r} at t={t!r} differs from the "
                    f"{op} {best[col]!r} over all curves")
        row = label_row(label)
        if row is None or not close(vals[row, col], best[col]):
            return f"label {label!r} does not attain the {op} at t={t!r}"
    return None


def near_ends(ends, before, after) -> np.ndarray:
    """Times just before and after each breakpoint in ``ends``.

    Offsets are ``1e-4 * max(1, |end|)``, kept only where the piece on
    that side (lengths ``before`` / ``after``) is more than twice as long,
    so a sample never crosses into a third piece.  A breakpoint computed
    wrongly by more than about the offset shows as a wrong value or label.
    """
    ends = np.asarray(ends, dtype=float)
    delta = 1e-4 * np.maximum(1.0, np.abs(ends))
    left = ends - delta
    right = ends + delta
    return np.concatenate([left[np.asarray(before) > 2 * delta],
                           right[np.asarray(after) > 2 * delta]])


def squared_distance_coeffs(C: np.ndarray, query: int) -> tuple:
    """Ascending coefficients of ``|P_query(t) - P_j(t)|^2`` for j != q."""
    diff = C[query][None] - C
    sq = polymul(diff, diff).sum(axis=1)
    rows = [j for j in range(len(C)) if j != query]
    return sq[rows], rows


def check_closest_sequence(system, k: int, env, extra_times,
                           query: int = 0) -> str | None:
    C = motion_coeffs(system, k)
    curves, rows = squared_distance_coeffs(C, query)
    row_of = {j: r for r, j in enumerate(rows)}
    pieces = [(p.lo, p.hi, [float(x) for x in p.fn.coeffs], p.label)
              for p in env.pieces]
    return check_envelope(pieces, curves, row_of.get, "min", extra_times)


# ----------------------------------------------------------------------
# Containment (Theorem 4.6)
# ----------------------------------------------------------------------
def check_containment(system, intervals, box, times) -> str | None:
    """At ``times`` away from interval ends, the swarm fits ``box`` on
    every axis exactly when ``t`` lies inside a reported interval."""
    C = motion_coeffs(system, 1)
    ends = np.array([e for iv in intervals for e in iv if math.isfinite(e)])
    ts = np.concatenate([
        np.asarray(times, dtype=float),
        [0.5 * (lo + hi) for lo, hi in intervals if math.isfinite(hi)],
        near_ends(ends, np.full(len(ends), np.inf), np.full(len(ends), np.inf)),
    ])
    checked = 0
    for t in ts:
        if ends.size and np.min(np.abs(ends - t)) <= 1e-6 * max(1.0, t):
            continue
        pos = horner(C, t)
        extent = pos.max(axis=0) - pos.min(axis=0)
        fits = bool(np.all(extent <= np.asarray(box)))
        inside = any(lo <= t <= hi for lo, hi in intervals)
        if fits != inside:
            return (f"at t={t!r} the extent {extent.tolist()} "
                    f"{'fits' if fits else 'exceeds'} the box but t is "
                    f"{'inside' if inside else 'outside'} the intervals")
        checked += 1
    if checked == 0:
        return "no containment sample time away from interval ends"
    return None


# ----------------------------------------------------------------------
# Steady state (Table 3)
# ----------------------------------------------------------------------
def _cross_sign(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eventual sign of the 2-D cross product of polynomial vectors
    (last two axes: axis, ascending coefficient)."""
    cross = (polymul(u[..., 0, :], v[..., 1, :])
             - polymul(u[..., 1, :], v[..., 0, :]))
    mag = (np.abs(u).max(axis=(-2, -1)) * np.abs(v).max(axis=(-2, -1))
           * 2 * u.shape[-1])
    return sign_at_infinity(cross, mag)


def check_steady_hull(C: np.ndarray, hull) -> str | None:
    """Hull vertices turn one way as t -> inf and no point lies outside
    any hull edge (leading-coefficient signs of cross products)."""
    h = [int(i) for i in hull]
    if len(h) < 3:
        return f"steady hull has only {len(h)} vertices"
    if len(set(h)) != len(h):
        return "steady hull repeats a vertex"
    a = C[h]
    b = C[np.roll(h, -1)]
    c = C[np.roll(h, -2)]
    turns = _cross_sign(b - a, c - b)
    if np.any(turns == 0) or len(set(turns.tolist())) != 1:
        return f"hull vertices do not turn one way: signs {turns.tolist()}"
    orient = int(turns[0])
    for e in range(len(h)):
        i, j = h[e], h[(e + 1) % len(h)]
        side = _cross_sign(np.broadcast_to(C[j] - C[i], C.shape), C - C[i])
        side[[i, j]] = 0
        if np.any(side == -orient):
            bad = int(np.flatnonzero(side == -orient)[0])
            return f"point {bad} lies outside hull edge {i}->{j}"
    return None


def check_steady_closest_pair(C: np.ndarray, pair, block: int = 64) -> str | None:
    """No pair's squared-distance polynomial is eventually below the
    reported pair's (all pairs, in row blocks to bound memory)."""
    i, j = (int(x) for x in pair)
    if i == j:
        return "closest pair repeats a point"
    d = C[i] - C[j]
    best = polymul(d, d).sum(axis=0)
    n = len(C)
    for start in range(0, n, block):
        rows = np.arange(start, min(n, start + block))
        diff = C[rows][:, None] - C[None]
        sq = polymul(diff, diff).sum(axis=2)
        mag = np.maximum(np.abs(sq).max(axis=-1), np.abs(best).max())
        sign = sign_at_infinity(sq - best, mag)
        sign[rows[:, None] >= np.arange(n)[None]] = 0
        if np.any(sign < 0):
            a, b = np.argwhere(sign < 0)[0]
            return (f"pair ({int(rows[a])}, {int(b)}) is eventually closer "
                    f"than the reported ({i}, {j})")
    return None


# ----------------------------------------------------------------------
# Hull membership at a time (service member_at queries)
# ----------------------------------------------------------------------
def extreme_margin(C: np.ndarray, q: int, t: float) -> float | None:
    """Largest angular gap around point ``q`` minus pi at time ``t``:
    positive when ``q`` is a hull vertex, negative when interior.
    ``None`` when another point coincides with ``q``."""
    pos = horner(C, t)
    vec = np.delete(pos - pos[q], q, axis=0)
    norms = np.hypot(vec[:, 0], vec[:, 1])
    if np.any(norms <= 1e-12 * max(1.0, float(np.abs(pos).max()))):
        return None
    ang = np.sort(np.arctan2(vec[:, 1], vec[:, 0]))
    gaps = np.diff(np.concatenate([ang, ang[:1] + 2 * np.pi]))
    return float(gaps.max() - np.pi)
