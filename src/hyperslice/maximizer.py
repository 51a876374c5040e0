"""Maximizing the section volume over directions at a fixed tangency radius.

The objective on the unit sphere within the nonnegative orthant is the
vertex-sum section volume; its constrained stationary points are analyzed
through the Lagrangian L = V/||a|| + lambda (||a||^2 - 1).  Multistart
projected gradient ascent locates the maximizer, which in the shallow-cut
radius regimes is the cube diagonal; the closed form at the diagonal is
d^(d/2)/(d-1)! (sqrt(d)/2 - t)^(d-1).

In the band t > sqrt(d-2)/2 the ball holds every square-face center, so no
vertex of weight 2 lies below any cut and the volume has the O(d) star form
of ``vertexsum.star_log_ratio``; there all starts ascend together, as one
array, in floats.  Below the band each start ascends on the exact grouped
vertex walk.  Either way the report's volume, multiplier and residual come
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
    classify_count,
    classify_cut,
    integer_cut,
    vertex_terms,
)
from .vertexsum import _vertex_sum, star_log_ratio

MAX_ITERATIONS = 500
INITIAL_STEP = 0.1
STEP_GRAD_TOL = 1e-12
FD_STEP = 1e-6


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


def closed_form_max(d: int, t: float) -> float:
    """Section volume at the diagonal direction; 0 once the hyperplane
    clears the cube (t >= sqrt(d)/2).

    With gap = sqrt(d)/2 - t, it is d^(d/2)/(d-1)! gap^(d-1) while only the
    origin lies below the cut (gap < 1/sqrt(d)), and otherwise the vertex
    sum over the layers |v| = k < x, x = gap sqrt(d) = d/2 - t sqrt(d):
    sqrt(d)/(d-1)! sum_k (-1)^k C(d,k) (x - k)^(d-1).  That sum cancels about
    0.6 d bits, so x is fixed to 2^-(64+d) (it moves the value by about
    d 2^-(64+d) relative) and the sum runs exactly in integers, as the
    grouped vertex walk over one group of d unit coordinates.
    """
    if d < 2:
        raise InvalidInputError("d must be at least 2")
    if not t >= 0.0:
        raise InvalidInputError("radius t must be a nonnegative real")
    gap = math.sqrt(d) / 2.0 - t
    if gap <= 0.0:
        return 0.0
    if gap < 1.0 / math.sqrt(d):
        return d ** (d / 2.0) / math.factorial(d - 1) * gap ** (d - 1)
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
    """Vertex count and gradient of W(a) = (section volume)/||a|| inside a
    fixed vertex cell, from one walk.

    W = S / ((d-1)! prod(a)) with S the signed sum of (b - a.v)^(d-1) over
    the near vertices; b = sum(a)/2 - t contributes d b/d a_i = 1/2, so
    dS/da_i = sum_v (-1)^|v| (d-1) (b - a.v)^(d-2) (1/2 - v_i).  A grouped
    term takes k_g of the m_g coordinates equal to a_i, so v_i = 1 on the
    share k_g/m_g of its vertices and it adds
    weight (d-1) gap^(d-2) (1/2 - k_g/m_g).
    """
    d = a.size
    cut = integer_cut(a, b)
    count = s_val = s_low = 0
    s_takes = [0] * len(cut.mults)
    for weight, gap, takes in vertex_terms(cut):
        count += abs(weight)
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
    return count, grad - w_val / a


def _ratio_value(a: np.ndarray, b: float) -> float:
    """W(a) = S / ((d-1)! prod(a)), the exact sum divided once."""
    return _vertex_sum(a, b, 0)[1]


def lagrangian_gradient(spec: SectionSpec, lam: float, allow_fd: bool = False):
    """Gradient of L = V/||a|| + lam (||a||^2 - 1) at the spec's direction.

    Analytic in the corner and edge regimes; other cut kinds fall back to
    central finite differences of the vertex-sum objective when allowed.
    Returns (gradient, analytic_flag).
    """
    a = spec.direction
    if np.any(a <= 0.0):
        raise RegimeError("all coordinates must be positive for the gradient")
    count, grad = _ratio_gradient(a, spec.offset)
    # one vertex below is a corner cut, two an edge cut
    if count in (1, 2) and spec.offset > 0.0:
        return grad + 2.0 * lam * a, True
    if not allow_fd:
        kind = classify_count(a, spec.offset, count).kind
        raise RegimeError(
            f"no analytic gradient for cut kind {kind.value}; "
            "pass allow_fd=True for the finite-difference fallback"
        )
    return _fd_lagrangian_gradient(a, spec.radius, lam), False


def _lagrangian_value(a_raw: np.ndarray, t: float, lam: float) -> float:
    """V/||a|| + lam (||a||^2 - 1) at a possibly non-unit direction."""
    b = float(np.sum(a_raw)) / 2.0 - t
    return _ratio_value(a_raw, b) + lam * (float(a_raw @ a_raw) - 1.0)


def _fd_lagrangian_gradient(a: np.ndarray, t: float, lam: float) -> np.ndarray:
    grad = np.zeros(a.size)
    for i in range(a.size):
        hi = a.copy()
        lo = a.copy()
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        grad[i] = (_lagrangian_value(hi, t, lam) - _lagrangian_value(lo, t, lam)) / (
            2.0 * FD_STEP
        )
    return grad


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


def _project(a: np.ndarray):
    """Renormalize a candidate iterate; reject ones leaving the open orthant.

    The volume formulas are singular on boundary faces, and boundary
    directions are never optimal in the covered radius regimes, so a step
    that would clamp a coordinate to zero is instead shortened by the
    caller's line search.
    """
    if np.any(a <= 0.0):
        return None
    return a / float(np.linalg.norm(a))


def _ascend(a0: np.ndarray, t: float):
    """Projected gradient ascent from one start on the exact vertex walk;
    returns (a, value, converged).

    The ascent direction is the tangential gradient of log V rather than of
    V itself: the two are parallel, but the log form makes the step size
    scale-free (V ranges over many orders of magnitude across (d, t)), so a
    fixed initial step works everywhere.  Armijo backtracking halves the
    step from 0.1; a start counts as converged once step * ||grad|| falls
    below tolerance without further improvement.
    """
    a = a0
    b = float(np.sum(a)) / 2.0 - t
    value = _ratio_value(a, b)
    converged = False
    for _ in range(MAX_ITERATIONS):
        if value <= 0.0:
            break
        _, grad = _ratio_gradient(a, b)
        tangent = (grad - float(grad @ a) * a) / value
        gnorm = float(np.linalg.norm(tangent))
        if INITIAL_STEP * gnorm < STEP_GRAD_TOL:
            converged = True
            break
        log_value = math.log(value)
        step = INITIAL_STEP
        accepted = False
        while step * gnorm >= STEP_GRAD_TOL:
            cand = _project(a + step * tangent)
            if cand is not None:
                b_c = float(np.sum(cand)) / 2.0 - t
                val_c = _ratio_value(cand, b_c)
                if val_c > 0.0 and math.log(val_c) > log_value + 1e-4 * step * gnorm * gnorm:
                    a, b, value = cand, b_c, val_c
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            converged = True
            break
    return a, value, converged


def _star_objective(a: np.ndarray, t: float, grad: bool = False):
    """log V and, with ``grad``, its gradient for unit rows a in the band."""
    return star_log_ratio(a, np.sum(a, axis=1) / 2.0 - t, grad)


def _ascend_star(a0: np.ndarray, t: float):
    """The ascent of ``_ascend`` for all rows of a0 at once, on the star
    form; returns (rows, values, converged flags).

    Each row keeps its own Armijo step from 0.1, its own log-value test
    and its own convergence flag, and leaves the array once it converges.
    A line search probes in up to three array calls: the step 0.1 of every
    row, then the next three halvings of the rows that failed it, then all
    remaining halvings down to tolerance; each row takes the first step
    that passes, as backtracking would.
    """
    a = a0.copy()
    log_v = _star_objective(a, t)
    converged = np.zeros(a.shape[0], dtype=bool)
    active = np.flatnonzero(np.isfinite(log_v))
    for _ in range(MAX_ITERATIONS):
        if active.size == 0:
            break
        _, g = _star_objective(a[active], t, grad=True)
        x = a[active]
        tangent = g - np.sum(g * x, axis=1)[:, None] * x
        gnorm = np.linalg.norm(tangent, axis=1)
        flat = INITIAL_STEP * gnorm < STEP_GRAD_TOL
        converged[active[flat]] = True
        active, tangent, gnorm = active[~flat], tangent[~flat], gnorm[~flat]
        # steps[r, k] = 0.1 / 2^k while it keeps step * ||grad|| >= tolerance
        top = INITIAL_STEP * float(np.max(gnorm, initial=0.0)) / STEP_GRAD_TOL
        halvings = int(math.log2(top)) + 2 if top >= 1.0 else 1
        steps = INITIAL_STEP * 0.5 ** np.arange(halvings)
        usable = steps[None, :] * gnorm[:, None] >= STEP_GRAD_TOL
        chosen = np.full(active.size, -1)
        for ks in (slice(0, 1), slice(1, 4), slice(4, halvings)):
            rows = np.flatnonzero((chosen < 0) & usable[:, ks].any(axis=1))
            if rows.size == 0:
                continue
            step = steps[ks]
            cand = a[active[rows], None, :] + step[None, :, None] * tangent[rows, None, :]
            inside = np.all(cand > 0.0, axis=2)
            cand /= np.linalg.norm(cand, axis=2)[:, :, None]
            log_c = _star_objective(cand.reshape(-1, cand.shape[2]), t).reshape(inside.shape)
            win = usable[rows, ks] & inside & (
                log_c > log_v[active[rows], None] + 1e-4 * step[None, :] * gnorm[rows, None] ** 2)
            hit = win.any(axis=1)
            first = np.argmax(win, axis=1)
            won = rows[hit]
            chosen[won] = first[hit] + ks.start
            a[active[won]] = cand[hit, first[hit]]
            log_v[active[won]] = log_c[hit, first[hit]]
        converged[active[chosen < 0]] = True
        active = active[chosen >= 0]
    return a, np.exp(log_v), converged


def _draw_start(d: int, t: float, seed: int, i: int):
    """Start i >= 1: the first of 100 draws sqrt(Dirichlet(1, ..., 1)) of
    substream i with sum(a)/2 > t, or None.  The last 99 come from one
    call, which yields the same values as 99 calls."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
    cand = np.sqrt(rng.dirichlet(np.ones(d)))
    if float(np.sum(cand)) / 2.0 - t > 0.0:
        return cand
    cands = np.sqrt(rng.dirichlet(np.ones(d), size=99))
    feasible = np.flatnonzero(np.sum(cands, axis=1) / 2.0 - t > 0.0)
    return cands[feasible[0]] if feasible.size else None


def maximize_section_volume(
    d: int, t: float, starts: int = 64, seed: int = 0
) -> OptimizerReport:
    """Multistart projected gradient ascent of the section volume on the
    sphere within the nonnegative orthant.

    Start directions are the diagonal plus square roots of flat-Dirichlet
    samples with sum(a)/2 > t, up to 100 draws per start; a start with no
    such draw is infeasible and does not run.  In the band
    t > sqrt(d-2)/2 the starts ascend together on the star form
    (``_ascend_star``), below it one by one on the exact walk (``_ascend``).
    Each start is pure given its substream, and the best result is
    selected in start order, so reports are reproducible.
    """
    if d < 2:
        raise InvalidInputError("d must be at least 2")
    if starts < 1:
        raise InvalidInputError("need at least one start")
    diag = np.full(d, 1.0 / math.sqrt(d))
    closed = closed_form_max(d, t)
    if t >= math.sqrt(d) / 2.0:
        return OptimizerReport(
            best_direction=diag, best_volume=0.0, diagonal_volume=0.0,
            angle_to_diagonal=0.0, multiplier=0.0, residual_norm=0.0,
            starts=starts, converged_starts=0, infeasible_starts=0,
        )
    if not t > 0.5:
        raise InvalidInputError(
            "the maximizer is defined for t > 1/2, where single-axis "
            "directions give empty sections"
        )

    drawn = [diag.copy()] + [_draw_start(d, t, seed, i) for i in range(1, starts)]
    ran = [a0 for a0 in drawn if a0 is not None]
    if t > math.sqrt(d - 2) / 2.0:
        finals, values, conv = _ascend_star(np.array(ran), t)
    else:
        finals, values, conv = map(np.array, zip(*(_ascend(a0, t) for a0 in ran)))

    # the first start with the largest value, as in start order
    best = int(np.argmax(values))
    common = dict(diagonal_volume=closed, starts=starts,
                  converged_starts=int(np.count_nonzero(conv)),
                  infeasible_starts=starts - len(ran))
    if not values[best] > 0.0:
        return OptimizerReport(
            best_direction=diag, best_volume=0.0, angle_to_diagonal=0.0,
            multiplier=0.0, residual_norm=0.0, **common,
        )
    best_a = finals[best]
    cosang = float(np.clip(best_a @ diag, -1.0, 1.0))
    b = float(np.sum(best_a)) / 2.0 - t
    _, grad = _ratio_gradient(best_a, b)
    lam = -float(grad @ best_a) / 2.0
    residual = float(np.linalg.norm(grad + 2.0 * lam * best_a))
    return OptimizerReport(
        best_direction=best_a,
        best_volume=_ratio_value(best_a, b),
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

