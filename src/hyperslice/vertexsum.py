"""Exact-formula volumes from alternating sums over near-side cube vertices.

The (d-1)-volume of the section {a.x = b} cut out of [0,1]^d is

    ||a|| * sum_v (-1)^{popcount(v)} (b - a.v)^(d-1) / ((d-1)! prod(a)),

summed over the vertices v with a.v <= b, and the d-volume of the near
half-space replaces the power d-1 by d and (d-1)! by d!.  Terms can exceed
the result by many orders of magnitude for deep cuts, so the sums are
formed exactly: every float is a dyadic rational, so the coordinates and
the offset become integers over one power of two, and
``geometry.vertex_sums`` sums in Python integers, by one grouped vertex
walk or, for many distinct coordinates, by joining two half-walks.  The
only roundings are the one division that turns the exact sum into a float
and ||a||, so ``err`` is a few ulps.
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
    vertex_sums,
)


def _vertex_sum(a, b, excess):
    """One exact sum over the cube vertices v with a.v <= b
    (``geometry.vertex_sums``).

    Returns (count, value): count is the number of such vertices, every
    coordinate counted, and value is

        sum_v (-1)^|v| (b - a.v)^p / (p! prod(a)),   p = n - 1 + excess,

    with a, v and the product restricted to the n positive coordinates:
    excess 0 gives the section volume over ||a||, excess 1 the half-space
    volume.  A zero coordinate factors the section as a cartesian product
    with [0,1], so it leaves the volume unchanged and only doubles the
    count; ``integer_cut`` leaves it out before the walk.  A tiny nonzero
    one is kept, since the sum is exact at any scale.  value is its one
    correctly rounded division.
    """
    cut = integer_cut(a, b)
    n = sum(cut.mults)
    if n == 0:
        raise InvalidInputError("direction reduces to dimension 0")
    power = n - 1 + excess
    count, total = vertex_sums(cut, power)
    den = math.factorial(power) * math.prod(map(pow, cut.values, cut.mults))
    # with a = A / 2^E and b = B / 2^E the sum is total / 2^(E p) and
    # prod(a) = prod(A) / 2^(E n)
    return count << a.size - n, (total << cut.exp * (n - power)) / den


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
    log p less the other p, so a tiny cut coordinate keeps its digits; 1 -
    sum q is taken the same way.  As b = sum(a)/2 - t moves by 1/2 with
    each a_j,
    d log W / d a_j = (n-1) ((1 - sum q)/2 + q_j) / (b (1 - sum p)) - 1/a_j.
    Rows with b <= 0 give log W = -inf.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    n = a.shape[1]
    cap = b > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(1 - x_i), -inf where a_i >= b and on rows with b <= 0
        x = np.divide(a, b[:, None], out=np.ones(a.shape), where=cap[:, None])
        log_1mx = np.log1p(-np.minimum(x, 1.0))
        top = log_1mx.max(axis=1)
        rest_p = _one_minus_sum_exp((n - 1) * log_1mx, (n - 1) * top)[0]
        log_w = ((n - 1) * np.log(b) + np.log(rest_p)
                 - math.lgamma(n) - np.log(a).sum(axis=1))
        log_w[~(cap & (rest_p > 0.0))] = -np.inf
        if not grad:
            return log_w
        if n > 2:
            rest_q, q = _one_minus_sum_exp((n - 2) * log_1mx, (n - 2) * top)
        else:  # q_i = (1 - x_i)^0: 1 on the cut coordinates, 0 elsewhere
            q = (log_1mx > -np.inf).astype(float)
            rest_q = 1.0 - q.sum(axis=1)
        coef = (n - 1) / (b * rest_p)
        return log_w, coef[:, None] * (0.5 * rest_q[:, None] + q) - 1.0 / a


def _one_minus_sum_exp(logs, top):
    """(1 - sum_i exp(logs_i), exp(logs)) per row, the first as -expm1 of
    the largest log, ``top``, less the other terms."""
    terms = np.exp(logs)
    return -np.expm1(top) - (terms.sum(axis=1) - np.exp(top)), terms


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
    if not 0.0 < h < math.inf:
        raise InvalidInputError("step h must be positive and finite")
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
