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
    ZERO_COORD_TOL,
    CutKind,
    SectionSpec,
    VolumeResult,
    classify_count,
    classify_cut,
    integer_cut,
    vertex_terms,
)

_FACTORIALS = [float(math.factorial(n)) for n in range(32)]


def _factorial(n: int) -> float:
    if n < len(_FACTORIALS):
        return _FACTORIALS[n]
    return float(math.factorial(n))


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


def _halfspace_value(a, b):
    """Half-space volume and err from raw (a, b); b may exceed sum(a)/2."""
    _, value = _vertex_sum(a, b, 1)
    return value, math.ulp(value)


def corner_volume(spec: SectionSpec) -> float:
    """Closed form b^(d-1)/((d-1)! prod(a)) for a corner cut (origin only below)."""
    cut = classify_cut(spec)
    if cut.kind is not CutKind.CORNER or spec.offset <= 0.0:
        raise RegimeError("corner_volume requires a corner cut with positive offset")
    a = spec.direction
    d = spec.dim
    return spec.offset ** (d - 1) / (_factorial(d - 1) * float(np.prod(a)))


def edge_volume(spec: SectionSpec) -> float:
    """Closed form for an edge cut: origin and one neighbor below.

    With a_low the unique coordinate not exceeding b, the volume is
    (b^(d-1) - (b - a_low)^(d-1)) / ((d-1)! prod(a)).  When a_low is a true
    zero the cut lives in the facet and the corner form of the reduced
    direction applies instead.
    """
    cut = classify_cut(spec)
    if cut.kind is not CutKind.EDGE or spec.offset <= 0.0:
        raise RegimeError("edge_volume requires an edge cut with positive offset")
    a = spec.direction
    b = spec.offset
    d = spec.dim
    i_low = int(np.argmin(a))
    a_low = float(a[i_low])
    if a_low <= ZERO_COORD_TOL:
        rest = np.delete(a, i_low)
        return b ** (d - 2) / (_factorial(d - 2) * float(np.prod(rest)))
    return (b ** (d - 1) - (b - a_low) ** (d - 1)) / (_factorial(d - 1) * float(np.prod(a)))


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
