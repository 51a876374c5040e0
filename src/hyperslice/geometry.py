"""Core geometry of hyperplane sections of the unit cube.

A section is described by a unit direction ``a`` in the closed nonnegative
orthant, a tangency radius ``t`` (distance from the hyperplane to the cube
center), and the derived offset ``b = sum(a)/2 - t`` of the hyperplane
``a . x = b``.  The hyperplane is tangent to the ball of radius ``t``
centered at ``(1/2, ..., 1/2)`` and cuts off the near half-space
``{x : a . x <= b}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InvalidInputError

#: Coordinates at or below this threshold are treated as exact zeros when a
#: formula requires strictly positive coordinates.
ZERO_COORD_TOL = 1e-14

#: Most grouped terms one vertex walk yields before it raises CapacityError.
#: Distinct coordinates give one term per vertex, so every cut fits up to
#: d = 18 (2^17 terms at t = 0).
MAX_TERMS = 1 << 18


class CutKind(str, Enum):
    """Combinatorial type of the vertex set on the near side of the hyperplane."""

    EMPTY = "empty"
    CORNER = "corner"          # one vertex
    EDGE = "edge"              # two adjacent vertices
    SQUARE3 = "square3"        # three of the four vertices of a square face
    SQUARE4 = "square4"        # all four vertices of a square face
    CLAW4 = "claw4"            # a vertex plus three of its neighbors
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class SectionSpec:
    """A hyperplane section of [0,1]^d, immutable after construction.

    Attributes:
        dim: ambient dimension d >= 2.
        direction: unit vector with nonnegative coordinates (read-only array).
        radius: distance t >= 0 from the hyperplane to the cube center.
        offset: b = sum(direction)/2 - radius; the hyperplane is a.x = b.
    """

    dim: int
    direction: np.ndarray
    radius: float
    offset: float

    def __post_init__(self):
        self.direction.setflags(write=False)


@dataclass(frozen=True, slots=True)
class CutClassification:
    count_below: int
    kind: CutKind


@dataclass(frozen=True, slots=True)
class VolumeResult:
    """A volume value together with how it was obtained.

    ``value`` is a (d-1)-volume for section methods and a d-volume for the
    half-space method; ``err`` is an estimated absolute error bound.
    """

    value: float
    method: str  # vertex_sum | integral
    err: float
    cut: CutClassification | None  # None: too many terms to count (countable_cut)


def coordinate_sum(x) -> float:
    """Sum of coordinates, correctly rounded."""
    return math.fsum(np.asarray(x, dtype=float))


def check_radius(t: float) -> float:
    """t as a float, or InvalidInputError unless it is finite and >= 0."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise InvalidInputError("radius t must be a nonnegative real")
    return float(t)


def make_section_spec(a_raw, t: float) -> SectionSpec:
    """Build a SectionSpec from a raw (unnormalized) direction and radius.

    The direction is normalized to unit Euclidean length; the offset is then
    b = sum(a)/2 - t, so the hyperplane a.x = b lies at distance exactly t
    from the cube center on the origin side.  The raw direction is first
    scaled by the power of two that brings its largest coordinate into
    [1/2, 1), so the norm neither overflows on huge coordinates nor
    underflows on subnormal ones; the scaling is exact for every coordinate
    it leaves a normal float.
    """
    a_raw = np.asarray(a_raw, dtype=float)
    if a_raw.ndim != 1 or a_raw.size < 2:
        raise InvalidInputError("direction must be a vector of dimension >= 2")
    if not np.all(np.isfinite(a_raw)):
        raise InvalidInputError("direction has non-finite coordinates")
    if np.any(a_raw < 0.0):
        raise InvalidInputError("direction coordinates must be nonnegative")
    largest = float(np.max(a_raw))
    if largest == 0.0:
        raise InvalidInputError("direction must be nonzero")
    a_raw = np.ldexp(a_raw, -math.frexp(largest)[1])
    norm = float(np.linalg.norm(a_raw))
    t = check_radius(t)
    a = a_raw / norm
    b = coordinate_sum(a) / 2.0 - t
    return SectionSpec(dim=a.size, direction=a, radius=t, offset=b)


def diagonal_section_spec(d: int, t: float) -> SectionSpec:
    """SectionSpec for the main-diagonal direction (1,...,1)/sqrt(d).

    The offset is computed as sqrt(d)/2 - t rather than by summing the
    rounded coordinates, so that values derived from it agree with closed
    forms written in terms of sqrt(d) to within one rounding.
    """
    if d < 2:
        raise InvalidInputError("dimension must be at least 2")
    t = check_radius(t)
    root = math.sqrt(d)
    a = np.full(d, 1.0 / root)
    return SectionSpec(dim=d, direction=a, radius=t, offset=root / 2.0 - t)


class IntegerCut(NamedTuple):
    """The cut {a.x <= b} written exactly in integers.

    ``coords`` are the distinct positive coordinates of a in ascending
    order and ``mults`` their multiplicities; ``values[g] == coords[g] *
    2**exp`` and ``offset == b * 2**exp`` are integers, with one common
    exponent.
    """

    coords: list
    mults: list
    values: list
    offset: int
    exp: int


def integer_cut(a, b: float) -> IntegerCut:
    """Group the equal positive coordinates of a and scale them and b to
    integers.

    A zero coordinate leaves the cut: the vertices below it come in pairs
    that differ only there and share their gap, so each zero doubles the
    count below and moves no gap, and the caller shifts its count left by
    the ``len(a) - sum(mults)`` zeros.  Every float is a dyadic rational,
    so ``float.as_integer_ratio`` gives it exactly as p / 2^k; the common
    denominator is the largest 2^k.
    """
    xs = [x for x in np.asarray(a, dtype=float).tolist() if x > 0.0]
    coords = sorted(set(xs))
    nums, dens = zip(*map(float.as_integer_ratio, coords + [float(b)]))
    den = max(dens)
    ints = [p * (den // q) for p, q in zip(nums, dens)]
    mults = list(map(xs.count, coords))
    return IntegerCut(coords, mults, ints[:-1], ints[-1], den.bit_length() - 1)


def vertex_terms(cut: IntegerCut):
    """Yield (weight, gap, takes) for the cube vertices v with a.v <= b.

    A term stands for the vertices that take ``takes[g]`` of the
    ``mults[g]`` coordinates equal to ``coords[g]``, for every group g:
    ``weight`` is their signed count, prod_g (-1)^k_g C(m_g, k_g), and
    ``gap`` the exact integer (b - a.v) * 2**exp >= 0 they share.

    The walk is depth-first in Python integers and visits only terms: a
    term's children each take one more coordinate from its last nonzero
    group or a later one, and the ascending values stop the scan at the
    first group that no longer fits.  A sum over the terms is exact, and
    its cost grows with the number of terms, not of vertices.  It raises
    CapacityError once more than MAX_TERMS terms are yielded, or before the
    first when the groups that fit below b whole give more: every choice
    of k_g <= m_g from them is a term, prod_g (m_g + 1) in all.
    """
    if cut.offset < 0:
        return
    values, mults = cut.values, cut.mults
    room, least = cut.offset, 1
    for value, m in zip(values, mults):
        room -= value * m
        if room < 0:
            break
        least *= m + 1
    stack = [(cut.offset, 1, (0,) * len(values), 0)]
    # past the cap the bound stands in for the count: refused before a term
    yielded = least - 1 if least > MAX_TERMS else 0
    while stack:
        gap, weight, takes, last = stack.pop()
        yielded += 1
        if yielded > MAX_TERMS:
            raise CapacityError(
                f"more than {MAX_TERMS} grouped vertex terms lie below the cut"
            )
        yield weight, gap, takes
        for g in range(last, len(values)):
            if values[g] > gap:
                break
            k = takes[g]
            if k < mults[g]:
                # (-1)^(k+1) C(m, k+1) = -(-1)^k C(m, k) (m - k) / (k + 1), exactly
                stack.append((gap - values[g], -weight * (mults[g] - k) // (k + 1),
                              takes[:g] + (k + 1,) + takes[g + 1:], g))


_KIND_BY_COUNT = {0: CutKind.EMPTY, 1: CutKind.CORNER, 2: CutKind.EDGE, 3: CutKind.SQUARE3}


def classify_count(a, b: float, count: int) -> CutClassification:
    """Classification of the cut {a.x <= b} with ``count`` vertices below.

    Since a >= 0 the near set is closed downward: it holds the origin
    whenever it is not empty, and a vertex only with every vertex below it.
    So 0, 1, 2 and 3 vertices are the empty set, the origin, an edge and
    three corners of a square face.  Four vertices are a whole square face
    when two unit vectors e_i lie below and a claw when three do.  Any
    larger set is OTHER.
    """
    if count == 4:
        singles = int(np.count_nonzero(np.asarray(a, dtype=float) <= b))
        kind = CutKind.SQUARE4 if singles == 2 else CutKind.CLAW4
    else:
        kind = _KIND_BY_COUNT.get(count, CutKind.OTHER)
    return CutClassification(count, kind)


def classify_cut(spec: SectionSpec) -> CutClassification:
    """Count and classify the cube vertices on the near side of the hyperplane.

    Tie vertices (a.v == b) count as below.  The count is exact and comes
    from one grouped walk (``vertex_terms``) over the positive coordinates,
    which never lists vertices: a cut with few distinct positive
    coordinates costs few terms at any dimension, and each zero coordinate
    doubles the count without a walk.
    """
    a, b = spec.direction, spec.offset
    cut = integer_cut(a, b)
    count = sum(abs(weight) for weight, _, _ in vertex_terms(cut))
    return classify_count(a, b, count << a.size - sum(cut.mults))


def countable_cut(spec: SectionSpec) -> CutClassification | None:
    """``classify_cut(spec)``, or None when the walk would exceed
    ``MAX_TERMS`` grouped terms: for routes whose value does not rest on
    the count."""
    try:
        return classify_cut(spec)
    except CapacityError:
        return None
