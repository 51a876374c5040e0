"""Maximizing the section volume over directions at a fixed tangency radius.

The objective on the unit sphere within the nonnegative orthant is the
vertex-sum section volume; its constrained stationary points are analyzed
through the Lagrangian L = V/||a|| + lambda (||a||^2 - 1).  Multistart
projected gradient ascent, from the diagonal and from random directions in
the cap sum(a)/2 > t around it, all from one Philox stream, locates the
maximizer, which in the shallow-cut radius regimes is the cube diagonal;
``closed_form_max`` gives its volume as one exact integer sum at any t.

All starts ascend together, as one fixed array, in one loop (``_ascend``);
the regime only chooses its objective, which gives value and gradient in
one call.  In the band t > sqrt(d-2)/2 the ball holds every square-face
center, so no vertex of weight 2 lies below any cut and the volume has the
O(d) star form of ``vertexsum.star_log_ratio``, evaluated in floats.
Below the band each row takes one exact grouped vertex walk.  Each pass
of the loop makes one objective call, at every moving row's trial point,
and backtracks: a row whose point passes moves there and tries its
spectral (Barzilai-Borwein) step next, and one whose point fails halves
its step.  A row stops once no step it may take can change log V by more
than log V's rounding, so rows already at the diagonal probe no steps.
The ascent and the choice of the best start run on log V, which stays
finite where V underflows a float.  The report's volume, multiplier and
residual come from one exact walk at the chosen direction; its direction
is a read-only copy of the chosen row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import quad_coeffs
from .errors import InvalidInputError, RegimeError
from .geometry import (
    CutKind,
    IntegerCut,
    SectionSpec,
    check_radius,
    classify_cut,
    integer_cut,
    vertex_terms,
)
from .vertexsum import star_log_ratio

MAX_ITERATIONS = 500
INITIAL_STEP = 0.25


@dataclass(frozen=True, slots=True)
class OptimizerReport:
    best_direction: np.ndarray
    best_volume: float
    diagonal_volume: float
    angle_to_diagonal: float
    multiplier: float
    residual_norm: float
    starts: int
    converged_starts: int
    infeasible_starts: int
    capped_starts: int
    iterations: int


def closed_form_max(d: int, t: float) -> float:
    """Section volume at the diagonal direction; 0 once the hyperplane
    clears the cube (t >= sqrt(d)/2).

    It is the vertex sum over the layers |v| = k < x, x = d/2 - t sqrt(d):
    sqrt(d)/(d-1)! sum_k (-1)^k C(d,k) (x - k)^(d-1), which is
    d^(d/2)/(d-1)! (sqrt(d)/2 - t)^(d-1) while only the origin lies below
    (x < 1).  The sum cancels about 0.6 d bits, so x is fixed to
    2^-(64+d) (it moves the value by about d 2^-(64+d) relative) and the
    sum runs exactly in integers, as the grouped vertex walk over one group
    of d unit coordinates, at every t.  At large d a shallow value
    underflows to 0 rather than overflowing.
    """
    if d < 2:
        raise InvalidInputError("d must be at least 2")
    t = check_radius(t)
    gap = math.sqrt(d) / 2.0 - t
    if gap <= 0.0:
        return 0.0
    p = 64 + d
    num, den = float(t).as_integer_ratio()
    # x 2^p, rounded up: t sqrt(d) 2^p = sqrt(t^2 d 2^(2p)) is floored
    x = (d << p - 1) - math.isqrt((num * num * d << 2 * p) // (den * den))
    cut = IntegerCut([1.0], [d], [1 << p], x, p)
    total = sum(w * g ** (d - 1) for w, g, _ in vertex_terms(cut))
    # sqrt(d) total / ((d-1)! 2^(p(d-1))), with sqrt(d) total = sqrt(d total^2)
    # floored at several hundred bits, so the division rounds it once
    return math.isqrt(d * total * total) / (math.factorial(d - 1) << p * (d - 1))


def _ratio_gradient(a: np.ndarray, b: float):
    """W(a) = (section volume)/||a|| and its gradient inside a fixed vertex
    cell, from one walk.

    W = S / ((d-1)! prod(a)) with S the signed sum of (b - a.v)^(d-1) over
    the near vertices; b = sum(a)/2 - t contributes d b/d a_i = 1/2, so
    dS/da_i = sum_v (-1)^|v| (d-1) (b - a.v)^(d-2) (1/2 - v_i).  A grouped
    term takes k_g of the m_g coordinates equal to a_i, so v_i = 1 on the
    share k_g/m_g of its vertices and it adds
    weight (d-1) gap^(d-2) (1/2 - k_g/m_g).  W is the exact sum divided
    once, as in ``vertexsum._vertex_sum``.
    """
    d = a.size
    cut = integer_cut(a, b)
    s_val = s_low = 0
    s_takes = [0] * len(cut.mults)
    for weight, gap, takes in vertex_terms(cut):
        low = weight * gap ** (d - 2)
        s_val += low * gap
        s_low += low
        for g, k in enumerate(takes):
            if k:
                s_takes[g] += low * k
    # with a = A / 2^E: S = s_val / 2^(E(d-1)), prod(a) = prod(A) / 2^(E d)
    # and dS/da_i = (d-1) (m_g s_low - 2 s_takes[g]) / (2 m_g 2^(E(d-2)))
    den = math.factorial(d - 2) * math.prod(map(pow, cut.values, cut.mults))
    w_val = (s_val << cut.exp) / ((d - 1) * den)
    by_coord = {
        x: ((m * s_low - 2 * sk) << 2 * cut.exp) / (2 * m * den)
        for x, m, sk in zip(cut.coords, cut.mults, s_takes)
    }
    grad = np.array([by_coord[x] for x in a.tolist()])
    return w_val, grad - w_val / a


def lagrangian_gradient(spec: SectionSpec, lam: float):
    """Gradient of L = V/||a|| + lam (||a||^2 - 1) at the spec's direction.

    Exact for every cut kind (``_ratio_gradient``); on a cell boundary,
    where a vertex lies on the hyperplane, it is the one-sided gradient
    that counts that vertex below.
    """
    a = spec.direction
    if np.any(a <= 0.0):
        raise RegimeError("all coordinates must be positive for the gradient")
    _, grad = _ratio_gradient(a, spec.offset)
    return grad + 2.0 * lam * a


def pair_condition_check(spec: SectionSpec) -> np.ndarray:
    """Residuals of the reduced pairwise stationarity conditions.

    Corner cut, pair (j,k):   -b (a_k/a_j - a_j/a_k) + (d-1)/2 (a_k - a_j).
    Edge cut, low index m paired with j: the stationarity quadratic
    c2 x^2 + c1 x + c0 at x = a_j/b with y = 1 - a_m/b; remaining pairs use
    the corner-style condition weighted by the edge cut's vertex sum.
    All residuals vanish exactly at a constrained critical point.
    """
    a = spec.direction
    b = spec.offset
    d = spec.dim
    cut = classify_cut(spec)
    if b <= 0.0 or cut.kind not in (CutKind.CORNER, CutKind.EDGE):
        raise RegimeError("pair conditions require a corner or edge cut with b > 0")
    m = int(np.argmin(a))
    y = 1.0 - a[m] / b
    if cut.kind is CutKind.CORNER or y <= 0.0:
        # at the tie a_min == b of an edge cut the edge term (b - a_min)^(d-1)
        # vanishes and the cut degenerates to the corner conditions
        return np.array([
            -b * (a[k] / a[j] - a[j] / a[k]) + (d - 1) / 2.0 * (a[k] - a[j])
            for j in range(d) for k in range(j + 1, d)
        ])
    coeffs = quad_coeffs(d, y)
    ypow1 = 1.0 - y ** (d - 1)
    ypow2 = 1.0 - y ** (d - 2)
    res = []
    for j in range(d):
        for k in range(j + 1, d):
            if m in (j, k):
                other = k if j == m else j
                x = a[other] / b
                res.append(coeffs.c2 * x * x + coeffs.c1 * x + coeffs.c0)
            else:
                res.append(
                    -ypow1 * (a[k] / a[j] - a[j] / a[k])
                    + (d - 1) / 2.0 * ypow2 * (a[k] - a[j]) / b
                )
    return np.array(res)


def _star_objective(a: np.ndarray, t: float):
    """log W and its gradient for unit rows a in the band."""
    return star_log_ratio(a, np.sum(a, axis=1) / 2.0 - t, grad=True)


def _walk_objective(a: np.ndarray, t: float):
    """log W and its gradient for rows a at any radius, from one exact walk
    per row; -inf, without a walk, for rows with a nonpositive (or NaN)
    coordinate or b <= 0."""
    b = np.sum(a, axis=1) / 2.0 - t
    log_w = np.full(a.shape[0], -np.inf)
    g = np.zeros(a.shape)
    for r in np.flatnonzero(np.all(a > 0.0, axis=1) & (b > 0.0)):
        w, g_w = _ratio_gradient(a[r], float(b[r]))
        if w > 0.0:
            log_w[r], g[r] = math.log(w), g_w / w
    return log_w, g


def _ascend(a0: np.ndarray, t: float, objective):
    """Projected gradient ascent on the unit sphere from every row of a0 at
    once; returns (rows, log values, converged flags, capped flags,
    iterations), the last the points at which the slowest row took a new
    step, counting the one at which it stopped.

    ``objective(a, t)`` gives log V for unit rows a (-inf where V vanishes)
    and its gradient, in one call.  The ascent direction is the tangential
    gradient of log V rather than of V itself: the two are parallel, but
    the log form makes the step size scale-free (V ranges over many orders
    of magnitude across (d, t)), and log V stays finite where V underflows
    a float.  At each new point a row tries the spectral (Barzilai-Borwein)
    step s.s / (-s.y), with s its last move and y the change of its
    tangential gradient over that move.  At the diagonal the Riemannian
    Hessian is a multiple of the identity on the tangent space (the
    symmetric group acts irreducibly on sum(x) = 0), so that step soon
    matches it.  At the start, and where -s.y <= 0 or the quotient is not
    finite, it tries INITIAL_STEP / max(1, ||grad||), a chord of at most
    INITIAL_STEP.

    Each pass of the loop makes one objective call, at every moving row's
    trial point; a finished row takes a NaN step, whose point fails every
    test (and which the walk skips).  A point passes if it lies in the open
    orthant, where the volume formulas are not singular, and gains at least
    1e-4 of its first-order gain step * ||grad||^2 (Armijo).  A row moves
    to a passing point and keeps its value and gradient; a row whose point
    fails halves its step for the next pass (backtracking, Nocedal & Wright,
    Alg. 3.1).  A row converges once that gain is below
    16 eps max(1, |log V|): near the diagonal a float step gains less than
    an ulp of log V, so an Armijo pass there would be a rounding lottery.
    A row still ascending after ``MAX_ITERATIONS`` iterations is capped,
    and a row that starts at log V = -inf does not move.
    """
    a = a0.copy()
    log_v, g = objective(a, t)
    live = np.isfinite(log_v)
    converged = np.zeros(a.shape[0], dtype=bool)
    capped = np.zeros(a.shape[0], dtype=bool)
    # rows that start at -inf never move; a zero gradient keeps their
    # arithmetic finite
    g[~live] = 0.0
    # rows at a new point, each row's iterations and trial step, and its
    # last point and tangential gradient (nan until the first move)
    fresh = live.copy()
    iterations = np.zeros(a.shape[0], dtype=int)
    step = np.zeros(a.shape[0])
    prev_a = np.full(a.shape, np.nan)
    prev_g = np.full(a.shape, np.nan)
    while live.any():
        tangent = g - (g * a).sum(axis=1)[:, None] * a
        gain = (tangent * tangent).sum(axis=1)
        s = a - prev_a
        curv = -(s * (tangent - prev_g)).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            spectral = (s * s).sum(axis=1) / curv
        first = INITIAL_STEP / np.maximum(1.0, np.sqrt(gain))
        spectral = np.where((curv > 0.0) & np.isfinite(spectral), spectral, first)
        # a row at a new point tries a new step; a failed trial, half its last
        step = np.where(fresh, spectral, 0.5 * step)
        prev_a = np.where(fresh[:, None], a, prev_a)
        prev_g = np.where(fresh[:, None], tangent, prev_g)
        iterations += fresh
        # a step's first-order gain step * ||grad||^2 below 16 ulps of log V
        # cannot be told from rounding
        floor = 16.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(log_v))
        flat = live & (step * gain < floor)
        converged |= flat
        live &= ~flat
        if not live.any():
            break
        cand = a + np.where(live, step, np.nan)[:, None] * tangent
        inside = (cand > 0.0).all(axis=1)
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        log_c, g_c = objective(cand, t)
        fresh = inside & (log_c > log_v + 1e-4 * step * gain)
        a = np.where(fresh[:, None], cand, a)
        log_v = np.where(fresh, log_c, log_v)
        g = np.where(fresh[:, None], g_c, g)
        capped |= fresh & (iterations == MAX_ITERATIONS)
        live &= ~capped
        fresh &= live
    return a, log_v, converged, capped, int(iterations.max())


def _draw_starts(d: int, t: float, seed: int, count: int) -> np.ndarray:
    """``count`` starts from one stream, Philox(key=seed).  Row i is its
    d exponentials g as x = sqrt(g / sum(g)), a sqrt(Dirichlet(1, ..., 1))
    draw, turned toward the diagonal e with its angle to e scaled by
    acos(2t/sqrt(d)) / acos(1/sqrt(d)): x lies within acos(1/sqrt(d)) of e,
    the angle of an axis, and the cap sum(a)/2 > t is acos(2t/sqrt(d)), so
    for t > 1/2 the start is in the cap and the open orthant.  Reductions
    are row sums, so row i has the same bits whatever ``count`` is."""
    root = math.sqrt(d)
    g = np.random.Generator(np.random.Philox(key=seed)).standard_exponential((count, d))
    x = np.sqrt(g / np.sum(g, axis=1, keepdims=True))
    along = np.sum(x, axis=1, keepdims=True) / root
    u = x - along / root
    u_norm = np.linalg.norm(u, axis=1, keepdims=True)
    theta = math.acos(2.0 * t / root) / math.acos(1.0 / root) * np.arctan2(u_norm, along)
    return np.cos(theta) / root + np.sin(theta) / u_norm * u


def maximize_section_volume(
    d: int, t: float, starts: int = 64, seed: int = 0
) -> OptimizerReport:
    """Multistart projected gradient ascent of the section volume on the
    sphere within the nonnegative orthant.

    Start 0 is the diagonal and the others are the rows of
    ``_draw_starts``, in the cap sum(a)/2 > t.  A start still
    ascending after ``MAX_ITERATIONS`` is capped, and one whose volume is
    0 from the start (rounding at t near sqrt(d)/2, and every start once
    t >= sqrt(d)/2) is infeasible, so the three counts add up to
    ``starts`` at every t.  All
    starts ascend together (``_ascend``), in the band t > sqrt(d-2)/2 on
    the star form (``_star_objective``) and below it on the exact walk
    (``_walk_objective``).  Start i depends on (d, t, seed, i) alone, and
    the best is selected in start order, so reports are reproducible.
    ``iterations`` is the number of ascent iterations the slowest start
    took, 0 when t >= sqrt(d)/2 and no start runs.
    """
    if d < 2:
        raise InvalidInputError("d must be at least 2")
    if starts < 1:
        raise InvalidInputError("need at least one start")
    if not 0 <= seed < 2**128:
        raise InvalidInputError("seed must lie in [0, 2^128), the Philox key range")
    t = check_radius(t)
    diag = np.full(d, 1.0 / math.sqrt(d))
    diag.setflags(write=False)
    if t >= math.sqrt(d) / 2.0:
        return OptimizerReport(
            best_direction=diag, best_volume=0.0, diagonal_volume=0.0,
            angle_to_diagonal=0.0, multiplier=0.0, residual_norm=0.0,
            starts=starts, converged_starts=0, infeasible_starts=starts,
            capped_starts=0, iterations=0,
        )
    # refused before closed_form_max, whose exact sum is slow for deep cuts
    if not t > 0.5:
        raise InvalidInputError(
            "the maximizer is defined for t > 1/2, where single-axis "
            "directions give empty sections"
        )
    closed = closed_form_max(d, t)

    a0 = np.vstack([diag, _draw_starts(d, t, seed, starts - 1)])
    objective = _star_objective if t > math.sqrt(d - 2) / 2.0 else _walk_objective
    finals, log_values, conv, capped, iterations = _ascend(a0, t, objective)

    # the first start with the largest value, as in start order; log V is
    # finite where the volume is positive but underflows a float
    best = int(np.argmax(log_values))
    n_conv, n_capped = int(np.count_nonzero(conv)), int(np.count_nonzero(capped))
    common = dict(diagonal_volume=closed, starts=starts, converged_starts=n_conv,
                  infeasible_starts=starts - n_conv - n_capped, capped_starts=n_capped,
                  iterations=iterations)
    if log_values[best] == -np.inf:
        return OptimizerReport(
            best_direction=diag, best_volume=0.0, angle_to_diagonal=0.0,
            multiplier=0.0, residual_norm=0.0, **common,
        )
    # a copy, so the report does not keep every start's row alive
    best_a = finals[best].copy()
    best_a.setflags(write=False)
    cosang = float(np.clip(best_a @ diag, -1.0, 1.0))
    w, grad = _ratio_gradient(best_a, float(np.sum(best_a)) / 2.0 - t)
    lam = -float(grad @ best_a) / 2.0
    residual = float(np.linalg.norm(grad + 2.0 * lam * best_a))
    return OptimizerReport(
        best_direction=best_a,
        best_volume=w,
        angle_to_diagonal=math.acos(cosang),
        multiplier=lam,
        residual_norm=residual,
        **common,
    )


def decay_inequality_check(d: int, t: float):
    """Compare the diagonal volumes of consecutive dimensions on the radius
    band [sqrt(d-2)/2, sqrt(d-1)/2], in the rewritten two-sided form
    d^(d/2)/(d-1)^((d+1)/2)  vs  2 (sqrt(d-1)-2t)^(d-2) / (sqrt(d)-2t)^(d-1).

    Returns (lhs, rhs, holds) with holds = lhs > rhs; both sides are
    evaluated in log space, so large d does not overflow.
    """
    if d < 5:
        raise InvalidInputError("the decay inequality is stated for d >= 5")
    lo = math.sqrt(d - 2) / 2.0
    hi = math.sqrt(d - 1) / 2.0
    slack = 1e-12
    if not (lo - slack <= t <= hi + slack):
        raise InvalidInputError(
            f"t={t} outside the band [{lo}, {hi}] for d={d}"
        )
    log_lhs = 0.5 * (d * math.log(d) - (d + 1) * math.log(d - 1))
    lhs = math.exp(log_lhs)
    base_num = math.sqrt(d - 1) - 2.0 * t
    base_den = math.sqrt(d) - 2.0 * t
    if base_num <= 0.0:
        return lhs, 0.0, True
    log_rhs = math.log(2.0) + (d - 2) * math.log(base_num) - (d - 1) * math.log(base_den)
    rhs = math.exp(log_rhs)
    return lhs, rhs, log_lhs > log_rhs

