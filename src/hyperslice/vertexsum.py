"""Exact-formula volumes from alternating sums over near-side cube vertices.

The (d-1)-volume of the section {a.x = b} cut out of [0,1]^d is

    ||a|| * sum_v (-1)^{popcount(v)} (b - a.v)^(d-1) / ((d-1)! prod(a)),

summed over the vertices v with a.v <= b, and the d-volume of the near
half-space replaces the power d-1 by d and (d-1)! by d!.  Terms can exceed
the result by many orders of magnitude for deep cuts, so the sums are
formed exactly: every float is a dyadic rational, so the coordinates and
the offset become integers over one power of two, and the grouped vertex
walk of ``geometry.vertex_terms`` sums in Python integers.  The only
roundings are the one division that turns the exact sum into a float and
||a||, so ``err`` is a few ulps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CellCrossingError, InvalidInputError, RegimeError
from .geometry import (
    SectionSpec,
    VolumeResult,
    classify_count,
    integer_cut,
    vertex_terms,
)


def _vertex_sum(a, b, excess):
    """One walk over the cube vertices v with a.v <= b.

    Returns (count, value): count is the number of such vertices, every
    coordinate counted, and value is

        sum_v (-1)^|v| (b - a.v)^p / (p! prod(a)),   p = n - 1 + excess,

    with a, v and the product restricted to the n nonzero coordinates:
    excess 0 gives the section volume over ||a||, excess 1 the half-space
    volume.  A zero coordinate factors the section as a cartesian product
    with [0,1], so dropping it leaves the volume unchanged; a tiny nonzero
    one is kept, since the sum is exact at any scale.  value is its one
    correctly rounded division.
    """
    cut = integer_cut(a, b)
    dropped = int(cut.coords[0] == 0.0)
    n = sum(cut.mults[dropped:])
    if n == 0:
        raise InvalidInputError("direction reduces to dimension 0")
    power = n - 1 + excess
    count = total = 0
    for weight, gap, takes in vertex_terms(cut):
        count += abs(weight)
        if not any(takes[:dropped]):
            total += weight * gap**power
    den = math.factorial(power) * math.prod(
        map(pow, cut.values[dropped:], cut.mults[dropped:])
    )
    # with a = A / 2^E and b = B / 2^E the sum is total / 2^(E p) and
    # prod(a) = prod(A) / 2^(E n)
    return count, (total << cut.exp * (n - power)) / den


def section_volume_vertex_sum(spec: SectionSpec) -> VolumeResult:
    """(d-1)-volume of the section by the signed vertex sum.

    ``err`` covers the correctly rounded quotient, ||a|| (squares, their
    fsum and the square root) and the product: together under 2 eps
    relative, and 4 ulps of the value exceed that.
    """
    a, b = spec.direction, spec.offset
    count, ratio = _vertex_sum(a, b, 0)
    value = ratio * math.sqrt(math.fsum(a * a))
    return VolumeResult(
        value=value, method="vertex_sum", err=4.0 * math.ulp(value),
        cut=classify_count(a, b, count),
    )


def halfspace_volume(spec: SectionSpec) -> VolumeResult:
    """d-volume of the near half-space {x in [0,1]^d : a.x <= b}."""
    a, b = spec.direction, spec.offset
    count, value = _vertex_sum(a, b, 1)
    return VolumeResult(
        value=value, method="vertex_sum", err=math.ulp(value),
        cut=classify_count(a, b, count),
    )


def star_log_ratio(a, b, grad: bool = False):
    """log W for each row of a (rows, n) and its offset in b, and with
    ``grad`` also the gradient of log W, on the star form
    W = (b^(n-1) - sum_{a_i<b} (b - a_i)^(n-1)) / ((n-1)! prod(a)).

    The form is the vertex sum when the near side holds only the origin
    and unit vectors e_i (a_i < b): when no vertex of weight 2 lies below.
    W is the section volume over ||a||.  With x_i = a_i / b, p_i =
    (1 - x_i)^(n-1) and q_i = (1 - x_i)^(n-2) on the cut coordinates (0
    elsewhere), S = b^(n-1) (1 - sum p), taken as -expm1 of the largest
    log p less the other p, so a tiny cut coordinate keeps its digits.
    As b = sum(a)/2 - t moves by 1/2 with each a_j,
    d log W / d a_j = (n-1) ((1 - sum q)/2 + q_j) / (b (1 - sum p)) - 1/a_j.
    Rows with b <= 0 give log W = -inf.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    n = a.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(1 - x_i), -inf where a_i >= b and on rows with b <= 0
        x = np.divide(a, b[:, None], out=np.ones(a.shape), where=b[:, None] > 0.0)
        log_1mx = np.log1p(-np.minimum(x, 1.0))
        log_p = (n - 1) * log_1mx
        rest_p = _one_minus_sum_exp(log_p)
        log_w = ((n - 1) * np.log(b) + np.log(rest_p)
                 - math.lgamma(n) - np.sum(np.log(a), axis=1))
        log_w[~((b > 0.0) & (rest_p > 0.0))] = -np.inf
        if not grad:
            return log_w
        log_q = (n - 2) * log_1mx if n > 2 else np.where(log_p > -np.inf, 0.0, -np.inf)
        q = np.exp(log_q)
        coef = (n - 1) / (b * rest_p)
        return log_w, coef[:, None] * (0.5 * _one_minus_sum_exp(log_q)[:, None] + q) - 1.0 / a


def _one_minus_sum_exp(logs):
    """1 - sum_i exp(logs_i) per row, as -expm1 of the largest less the rest."""
    top = np.max(logs, axis=1)
    return -np.expm1(top) - (np.sum(np.exp(logs), axis=1) - np.exp(top))


def star_volume(spec: SectionSpec) -> float:
    """Section volume when the near side is a star: the origin and any set
    of its neighbours e_i (a_i <= b), and no vertex of weight 2.

    It is ||a|| (b^(d-1) - sum_{a_i<b} (b - a_i)^(d-1)) / ((d-1)! prod(a))
    over the nonzero coordinates (``star_log_ratio``), and covers the
    corner cut (origin alone) and the edge cut (one neighbour).  A zero
    coordinate factors the section as a product with [0, 1] and is
    dropped.  Raises RegimeError unless b > 0 and the two smallest nonzero
    coordinates sum to at least b.
    """
    a = spec.direction[spec.direction > 0.0]
    b = spec.offset
    low = np.sort(a)[:2]
    if not b > 0.0 or (low.size == 2 and float(low[0] + low[1]) < b):
        raise RegimeError(
            "star_volume requires b > 0 and no vertex of weight 2 below the cut"
        )
    norm = math.sqrt(math.fsum(a * a))
    return norm * math.exp(float(star_log_ratio(a, b)[0]))


def section_from_halfspace_derivative(spec: SectionSpec, h: float) -> float:
    """Section volume as a central difference of the half-space volume in t.

    Requires that no vertex changes side across [t-h, t+h]; otherwise the
    half-space volume has a kink there and the quotient is meaningless.
    """
    if not h > 0.0:
        raise InvalidInputError("step h must be positive")
    a = spec.direction
    norm = float(np.linalg.norm(a))
    b_lo = spec.offset - h * norm  # radius t + h
    b_hi = spec.offset + h * norm  # radius t - h
    n_lo, w_lo = _vertex_sum(a, b_lo, 1)
    n_hi, w_hi = _vertex_sum(a, b_hi, 1)
    if n_lo != n_hi:
        raise CellCrossingError(
            f"vertex count changes across the step ({n_lo} vs {n_hi}); shrink h"
        )
    return (w_hi - w_lo) / (2.0 * h)
