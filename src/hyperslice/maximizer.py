"""Maximizing the section volume over directions at a fixed tangency radius.

The objective on the unit sphere within the nonnegative orthant is the
vertex-sum section volume; its constrained stationary points are analyzed
through the Lagrangian L = V/||a|| + lambda (||a||^2 - 1).  Multistart
projected gradient ascent, from the diagonal and from random directions
moved into the cap sum(a)/2 > t around it, locates the maximizer, which in
the shallow-cut radius regimes is the cube diagonal; ``closed_form_max``
gives the volume there as one exact integer sum for every radius.

All starts ascend together, as one array, in one loop (``_ascend``); the
regime only chooses its objective.  In the band t > sqrt(d-2)/2 the ball
holds every square-face center, so no vertex of weight 2 lies below any
cut and the volume has the O(d) star form of ``vertexsum.star_log_ratio``,
evaluated in floats.  Below the band each row takes one exact grouped
vertex walk.  Each row's line search starts from its spectral
(Barzilai-Borwein) step, the inverse of the curvature along its last move;
at the diagonal the Hessian is a multiple of the identity on the tangent
space, so most starts converge within a dozen iterations.  The ascent and
the choice of the best start run on log V, which stays finite where V
underflows a float.  The report's volume, multiplier and residual come
from one exact walk at the chosen direction.
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
    classify_cut,
    integer_cut,
    vertex_terms,
)
from .vertexsum import _vertex_sum, star_log_ratio

MAX_ITERATIONS = 500
INITIAL_STEP = 0.1
STEP_GRAD_TOL = 1e-12


@dataclass(frozen=True)
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
    if not t >= 0.0:
        raise InvalidInputError("radius t must be a nonnegative real")
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


def _star_objective(a: np.ndarray, t: float, grad: bool = False):
    """log W and, with ``grad``, its gradient for unit rows a in the band."""
    return star_log_ratio(a, np.sum(a, axis=1) / 2.0 - t, grad)


def _walk_objective(a: np.ndarray, t: float, grad: bool = False):
    """log W and, with ``grad``, its gradient for rows a at any radius, from
    one exact walk per row; -inf, without a walk, for rows with a
    nonpositive coordinate or b <= 0."""
    b = np.sum(a, axis=1) / 2.0 - t
    log_w = np.full(a.shape[0], -np.inf)
    g = np.zeros(a.shape)
    for r in np.flatnonzero(np.all(a > 0.0, axis=1) & (b > 0.0)):
        if grad:
            w, g_w = _ratio_gradient(a[r], float(b[r]))
            g[r] = g_w / w
        else:
            w = _vertex_sum(a[r], float(b[r]), 0)[1]
        if w > 0.0:
            log_w[r] = math.log(w)
    return (log_w, g) if grad else log_w


def _ascend(a0: np.ndarray, t: float, objective):
    """Projected gradient ascent on the unit sphere from every row of a0 at
    once; returns (rows, log values, converged flags, capped flags).

    ``objective(a, t, grad)`` gives log V for unit rows a (-inf where V
    vanishes) and, with ``grad``, its gradient.  The ascent direction is the
    tangential gradient of log V rather than of V itself: the two are
    parallel, but the log form makes the step size scale-free (V ranges
    over many orders of magnitude across (d, t)), and log V stays finite
    where V underflows a float.  Each row tries the spectral
    (Barzilai-Borwein) step s.s / (-s.y) first, with s its last move and y
    the change of its tangential gradient over that move: the inverse of
    the curvature the row last saw.  At the diagonal the Riemannian Hessian
    is a multiple of the identity on the tangent space (the symmetric group
    acts irreducibly on sum(x) = 0), so that step soon matches it.  On the
    first iteration, and where -s.y <= 0 or the quotient is not finite, the
    row tries 0.1.  It halves its own trial step until the Armijo test
    passes, and leaves the array once it converges: when 0.1 ||grad|| falls
    below tolerance, or no halving with step * ||grad|| above it improves.
    A row still ascending after ``MAX_ITERATIONS`` is capped, and a row
    that starts at log V = -inf does not move.  The volume formulas are
    singular on the boundary faces, so a step that leaves the open orthant
    fails and is halved.  A line search probes in array
    calls, the k-th trying the next 2^k halvings (1, 2, 4, ...) of the rows
    with no passing step yet; each row takes the first step that passes,
    as backtracking would.
    """
    a = a0.copy()
    log_v = objective(a, t)
    converged = np.zeros(a.shape[0], dtype=bool)
    active = np.flatnonzero(np.isfinite(log_v))
    # last iterate and tangential gradient per row; nan until the first move
    prev_a = np.full(a.shape, np.nan)
    prev_g = np.full(a.shape, np.nan)
    for _ in range(MAX_ITERATIONS):
        if active.size == 0:
            break
        _, g = objective(a[active], t, grad=True)
        x = a[active]
        tangent = g - np.sum(g * x, axis=1)[:, None] * x
        gnorm = np.linalg.norm(tangent, axis=1)
        s = x - prev_a[active]
        curv = -np.sum(s * (tangent - prev_g[active]), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            trial = np.sum(s * s, axis=1) / curv
        trial[~((curv > 0.0) & np.isfinite(trial))] = INITIAL_STEP
        prev_a[active], prev_g[active] = x, tangent
        flat = INITIAL_STEP * gnorm < STEP_GRAD_TOL
        converged[active[flat]] = True
        active, tangent = active[~flat], tangent[~flat]
        gnorm, trial = gnorm[~flat], trial[~flat]
        # steps[r, k] = trial[r] / 2^k while it keeps step * ||grad|| >= tolerance
        top = float(np.max(trial * gnorm, initial=0.0)) / STEP_GRAD_TOL
        halvings = int(math.log2(top)) + 2 if top >= 1.0 else 1
        steps = trial[:, None] * 0.5 ** np.arange(halvings)
        usable = steps * gnorm[:, None] >= STEP_GRAD_TOL
        chosen = np.full(active.size, -1)
        ks = slice(0, 1)
        while ks.start < halvings:
            # usable is a prefix of each row, so a row left without a
            # usable step here has none in later calls either
            rows = np.flatnonzero((chosen < 0) & usable[:, ks].any(axis=1))
            if rows.size == 0:
                break
            step = steps[rows, ks]
            cand = a[active[rows], None, :] + step[:, :, None] * tangent[rows, None, :]
            ok = usable[rows, ks] & np.all(cand > 0.0, axis=2)
            cand /= np.linalg.norm(cand, axis=2)[:, :, None]
            log_c = np.full(ok.shape, -np.inf)
            log_c[ok] = objective(cand[ok], t)
            win = ok & (log_c > log_v[active[rows], None] + 1e-4 * step * gnorm[rows, None] ** 2)
            hit = win.any(axis=1)
            first = np.argmax(win, axis=1)
            won = rows[hit]
            chosen[won] = first[hit] + ks.start
            a[active[won]] = cand[hit, first[hit]]
            log_v[active[won]] = log_c[hit, first[hit]]
            ks = slice(ks.stop, 2 * ks.stop + 1)
        converged[active[chosen < 0]] = True
        active = active[chosen >= 0]
    capped = np.zeros(a.shape[0], dtype=bool)
    capped[active] = True
    return a, log_v, converged, capped


def _draw_start(d: int, t: float, seed: int, i: int) -> np.ndarray:
    """Start i >= 1: one draw x = sqrt(Dirichlet(1, ..., 1)) of substream i
    (``Philox(key=seed).jumped(i)``), turned toward the diagonal e in the
    plane of e and x, its angle to e scaled by acos(2t/sqrt(d)) /
    acos(1/sqrt(d)).  The cap sum(a)/2 > t is the angle acos(2t/sqrt(d))
    around e, and x lies within acos(1/sqrt(d)), the angle of an axis; so
    for t > 1/2 the start lies in the cap, on the arc from e to x, inside
    the orthant."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, i, 0]))
    x = np.sqrt(rng.dirichlet(np.ones(d)))
    e = np.full(d, 1.0 / math.sqrt(d))
    u = x - (x @ e) * e
    scale = math.acos(2.0 * t / math.sqrt(d)) / math.acos(1.0 / math.sqrt(d))
    theta = scale * math.atan2(np.linalg.norm(u), x @ e)
    return math.cos(theta) * e + math.sin(theta) / np.linalg.norm(u) * u


def maximize_section_volume(
    d: int, t: float, starts: int = 64, seed: int = 0
) -> OptimizerReport:
    """Multistart projected gradient ascent of the section volume on the
    sphere within the nonnegative orthant.

    Start 0 is the diagonal and start i >= 1 one draw of its substream
    moved into the cap sum(a)/2 > t (``_draw_start``).  A start still
    ascending after ``MAX_ITERATIONS`` is capped, and one whose volume is
    0 from the start (rounding at t near sqrt(d)/2) is infeasible.  All
    starts ascend together (``_ascend``), in the band t > sqrt(d-2)/2 on
    the star form (``_star_objective``) and below it on the exact walk
    (``_walk_objective``).  Each start is pure given its substream, and the
    best result is selected in start order, so reports are reproducible.
    """
    if d < 2:
        raise InvalidInputError("d must be at least 2")
    if starts < 1:
        raise InvalidInputError("need at least one start")
    if not 0 <= seed < 2**128:
        raise InvalidInputError("seed must lie in [0, 2^128), the Philox key range")
    diag = np.full(d, 1.0 / math.sqrt(d))
    closed = closed_form_max(d, t)
    if t >= math.sqrt(d) / 2.0:
        return OptimizerReport(
            best_direction=diag, best_volume=0.0, diagonal_volume=0.0,
            angle_to_diagonal=0.0, multiplier=0.0, residual_norm=0.0,
            starts=starts, converged_starts=0, infeasible_starts=0,
            capped_starts=0,
        )
    if not t > 0.5:
        raise InvalidInputError(
            "the maximizer is defined for t > 1/2, where single-axis "
            "directions give empty sections"
        )

    a0 = np.array([diag] + [_draw_start(d, t, seed, i) for i in range(1, starts)])
    objective = _star_objective if t > math.sqrt(d - 2) / 2.0 else _walk_objective
    finals, log_values, conv, capped = _ascend(a0, t, objective)

    # the first start with the largest value, as in start order; log V is
    # finite where the volume is positive but underflows a float
    best = int(np.argmax(log_values))
    n_conv, n_capped = int(np.count_nonzero(conv)), int(np.count_nonzero(capped))
    common = dict(diagonal_volume=closed, starts=starts, converged_starts=n_conv,
                  infeasible_starts=starts - n_conv - n_capped, capped_starts=n_capped)
    if log_values[best] == -np.inf:
        return OptimizerReport(
            best_direction=diag, best_volume=0.0, angle_to_diagonal=0.0,
            multiplier=0.0, residual_norm=0.0, **common,
        )
    best_a = finals[best]
    cosang = float(np.clip(best_a @ diag, -1.0, 1.0))
    b = float(np.sum(best_a)) / 2.0 - t
    w, grad = _ratio_gradient(best_a, b)
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

