"""Maximizing the section volume over directions at a fixed tangency radius.

The objective on the unit sphere within the nonnegative orthant is the
vertex-sum section volume; its constrained stationary points are analyzed
through the Lagrangian L = V/||a|| + lambda (||a||^2 - 1).  Multistart
projected gradient ascent locates the maximizer, which in the shallow-cut
radius regimes is the cube diagonal; the closed form at the diagonal is
d^(d/2)/(d-1)! (sqrt(d)/2 - t)^(d-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .certificates import quad_coeffs
from .errors import InvalidInputError, RegimeError
from .geometry import CutKind, SectionSpec, classify_cut
from .vertexsum import _alternating_sum

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


def closed_form_max(d: int, t: float) -> float:
    """Section volume at the diagonal direction; 0 once the hyperplane
    clears the cube (t >= sqrt(d)/2).

    With gap = sqrt(d)/2 - t, it is d^(d/2)/(d-1)! gap^(d-1) while only the
    origin lies below the cut (gap < 1/sqrt(d)), and otherwise the vertex
    sum over the layers |v| = k < gap sqrt(d),
    d^(d/2)/(d-1)! sum_k (-1)^k C(d,k) (gap - k/sqrt(d))^(d-1).  That sum
    cancels about 0.6 d bits, so it runs in mpmath at 64 + d bits.
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
    with mpmath.workprec(64 + d):
        root = mpmath.sqrt(d)
        gap = root / 2 - mpmath.mpf(t)
        total = mpmath.fsum(
            (-1) ** k * math.comb(d, k) * (gap - k / root) ** (d - 1)
            for k in range(d + 1)
            if k < gap * root
        )
        return float(root ** d / math.factorial(d - 1) * total)


def _ratio_gradient(a: np.ndarray, b: float, verts) -> np.ndarray:
    """Gradient of W(a) = (section volume)/||a|| inside a fixed vertex cell.

    W = S / ((d-1)! prod(a)) with S the signed sum of (b - a.v)^(d-1) over
    the near vertices; b = sum(a)/2 - t contributes d b/d a_i = 1/2.
    """
    d = a.size
    prod_a = float(np.prod(a))
    fact = math.factorial(d - 1)
    s_val = 0.0
    s_grad = np.zeros(d)
    for v in verts:
        varr = np.asarray(v, dtype=float)
        gap = b - float(a @ varr)
        sign = -1.0 if (sum(v) & 1) else 1.0
        s_val += sign * gap ** (d - 1)
        s_grad += sign * (d - 1) * gap ** (d - 2) * (0.5 - varr)
    w_val = s_val / (fact * prod_a)
    return s_grad / (fact * prod_a) - w_val / a


def _ratio_value(a: np.ndarray, b: float, verts) -> float:
    d = a.size
    s_val = 0.0
    for v in verts:
        gap = b - float(a @ np.asarray(v, dtype=float))
        s_val += (-1.0 if (sum(v) & 1) else 1.0) * gap ** (d - 1)
    return s_val / (math.factorial(d - 1) * float(np.prod(a)))


def lagrangian_gradient(spec: SectionSpec, lam: float, allow_fd: bool = False):
    """Gradient of L = V/||a|| + lam (||a||^2 - 1) at the spec's direction.

    Analytic in the corner and edge regimes; other cut kinds fall back to
    central finite differences of the vertex-sum objective when allowed.
    Returns (gradient, analytic_flag).
    """
    a = spec.direction
    if np.any(a <= 0.0):
        raise RegimeError("all coordinates must be positive for the gradient")
    cut = classify_cut(spec)
    if cut.kind in (CutKind.CORNER, CutKind.EDGE) and spec.offset > 0.0:
        grad = _ratio_gradient(a, spec.offset, cut.vertices) + 2.0 * lam * a
        return grad, True
    if not allow_fd:
        raise RegimeError(
            f"no analytic gradient for cut kind {cut.kind.value}; "
            "pass allow_fd=True for the finite-difference fallback"
        )
    return _fd_lagrangian_gradient(a, spec.radius, lam), False


def _lagrangian_value(a_raw: np.ndarray, t: float, lam: float) -> float:
    """V/||a|| + lam (||a||^2 - 1) at a possibly non-unit direction."""
    b = float(np.sum(a_raw)) / 2.0 - t
    total, _ = _alternating_sum(a_raw, b, a_raw.size - 1)
    w = total / (math.factorial(a_raw.size - 1) * float(np.prod(a_raw)))
    return w + lam * (float(a_raw @ a_raw) - 1.0)


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
    res = []
    if cut.kind is CutKind.CORNER:
        for j in range(d):
            for k in range(j + 1, d):
                res.append(
                    -b * (a[k] / a[j] - a[j] / a[k]) + (d - 1) / 2.0 * (a[k] - a[j])
                )
        return np.array(res)
    m = int(np.argmin(a))
    y = 1.0 - a[m] / b
    if y <= 0.0:
        # tie a_min == b: the edge term (b - a_min)^(d-1) vanishes and the
        # cut degenerates to the corner conditions
        for j in range(d):
            for k in range(j + 1, d):
                res.append(
                    -b * (a[k] / a[j] - a[j] / a[k]) + (d - 1) / 2.0 * (a[k] - a[j])
                )
        return np.array(res)
    coeffs = quad_coeffs(d, y)
    ypow1 = 1.0 - y ** (d - 1)
    ypow2 = 1.0 - y ** (d - 2)
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


def _near_vertices(a: np.ndarray, b: float):
    """Vertex tuples below {a.x = b}; classification only reads (a, b)."""
    if b < 0.0:
        return []
    spec = SectionSpec(dim=a.size, direction=a, radius=0.0, offset=b)
    return classify_cut(spec).vertices


def _ascend(a0: np.ndarray, t: float):
    """Projected gradient ascent from one start; returns (a, value, converged).

    The ascent direction is the tangential gradient of log V rather than of
    V itself: the two are parallel, but the log form makes the step size
    scale-free (V ranges over many orders of magnitude across (d, t)), so a
    fixed initial step works everywhere.  Armijo backtracking halves the
    step from 0.1; a start counts as converged once step * ||grad|| falls
    below tolerance without further improvement.
    """
    a = a0
    b = float(np.sum(a)) / 2.0 - t
    verts = _near_vertices(a, b)
    value = _ratio_value(a, b, verts) if verts else 0.0
    converged = False
    for _ in range(MAX_ITERATIONS):
        if not verts or value <= 0.0:
            break
        grad = _ratio_gradient(a, b, verts)
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
                verts_c = _near_vertices(cand, b_c)
                val_c = _ratio_value(cand, b_c, verts_c) if verts_c else 0.0
                if val_c > 0.0 and math.log(val_c) > log_value + 1e-4 * step * gnorm * gnorm:
                    a, b, verts, value = cand, b_c, verts_c, val_c
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            converged = True
            break
    return a, value, converged


def maximize_section_volume(
    d: int, t: float, starts: int = 64, seed: int = 0
) -> OptimizerReport:
    """Multistart projected gradient ascent of the section volume on the
    sphere within the nonnegative orthant.

    Start directions are the diagonal plus square roots of flat-Dirichlet
    samples; each start is pure given its substream, and the best result is
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
            starts=starts, converged_starts=0,
        )
    if not t > 0.5:
        raise InvalidInputError(
            "the maximizer is defined for t > 1/2, where single-axis "
            "directions give empty sections"
        )

    def run_start(i: int):
        if i == 0:
            a0 = diag.copy()
        else:
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
            a0 = None
            for _ in range(100):
                cand = np.sqrt(rng.dirichlet(np.ones(d)))
                if float(np.sum(cand)) / 2.0 - t > 0.0:
                    a0 = cand
                    break
            if a0 is None:
                return None
        return _ascend(a0, t)

    outcomes = [run_start(i) for i in range(starts)]

    best_a, best_v = diag, 0.0
    n_conv = 0
    for outcome in outcomes:
        if outcome is None:
            continue
        a, v, conv = outcome
        n_conv += int(conv)
        if v > best_v:
            best_a, best_v = a, v

    if best_v <= 0.0:
        return OptimizerReport(
            best_direction=diag, best_volume=0.0, diagonal_volume=closed,
            angle_to_diagonal=0.0, multiplier=0.0, residual_norm=0.0,
            starts=starts, converged_starts=n_conv,
        )
    cosang = float(np.clip(best_a @ diag, -1.0, 1.0))
    b = float(np.sum(best_a)) / 2.0 - t
    verts = _near_vertices(best_a, b)
    grad = _ratio_gradient(best_a, b, verts)
    lam = -float(grad @ best_a) / 2.0
    residual = float(np.linalg.norm(grad + 2.0 * lam * best_a))
    return OptimizerReport(
        best_direction=best_a,
        best_volume=best_v,
        diagonal_volume=closed,
        angle_to_diagonal=math.acos(cosang),
        multiplier=lam,
        residual_norm=residual,
        starts=starts,
        converged_starts=n_conv,
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

