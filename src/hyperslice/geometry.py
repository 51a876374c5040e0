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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CapacityError, InvalidInputError

#: Coordinates at or below this threshold are treated as exact zeros when a
#: formula requires strictly positive coordinates.
ZERO_COORD_TOL = 1e-14

#: Default cap on the dimension for explicit vertex enumeration (2^d worst case).
DEFAULT_DIM_LIMIT = 30


class CutKind(str, Enum):
    """Combinatorial type of the vertex set on the near side of the hyperplane."""

    EMPTY = "empty"
    CORNER = "corner"          # one vertex
    EDGE = "edge"              # two adjacent vertices
    SQUARE3 = "square3"        # three of the four vertices of a square face
    SQUARE4 = "square4"        # all four vertices of a square face
    CLAW4 = "claw4"            # a vertex plus three of its neighbors
    OTHER = "other"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CutClassification:
    count_below: int
    kind: CutKind
    vertices: tuple = field(repr=False)


@dataclass(frozen=True)
class VolumeResult:
    """A volume value together with how it was obtained.

    ``value`` is a (d-1)-volume for section methods and a d-volume for the
    half-space method; ``err`` is an estimated absolute error bound.
    """

    value: float
    method: str  # vertex_sum | integral | monte_carlo | closed_form
    err: float
    cut: CutClassification


def coordinate_sum(x) -> float:
    """Sum of coordinates, correctly rounded."""
    return math.fsum(np.asarray(x, dtype=float))


def coordinate_product(x) -> float:
    """Product of coordinates."""
    x = np.asarray(x, dtype=float)
    out = 1.0
    for v in x:
        out *= v
    return out


def make_section_spec(a_raw, t: float) -> SectionSpec:
    """Build a SectionSpec from a raw (unnormalized) direction and radius.

    The direction is normalized to unit Euclidean length; the offset is then
    b = sum(a)/2 - t, so the hyperplane a.x = b lies at distance exactly t
    from the cube center on the origin side.
    """
    a_raw = np.asarray(a_raw, dtype=float)
    if a_raw.ndim != 1 or a_raw.size < 2:
        raise InvalidInputError("direction must be a vector of dimension >= 2")
    if not np.all(np.isfinite(a_raw)):
        raise InvalidInputError("direction has non-finite coordinates")
    if np.any(a_raw < 0.0):
        raise InvalidInputError("direction coordinates must be nonnegative")
    norm = float(np.linalg.norm(a_raw))
    if norm == 0.0:
        raise InvalidInputError("direction must be nonzero")
    if not (t >= 0.0 and math.isfinite(t)):
        raise InvalidInputError("radius t must be a nonnegative real")
    a = a_raw / norm
    b = coordinate_sum(a) / 2.0 - t
    return SectionSpec(dim=a.size, direction=a, radius=float(t), offset=b)


def diagonal_section_spec(d: int, t: float) -> SectionSpec:
    """SectionSpec for the main-diagonal direction (1,...,1)/sqrt(d).

    The offset is computed as sqrt(d)/2 - t rather than by summing the
    rounded coordinates, so that values derived from it agree with closed
    forms written in terms of sqrt(d) to within one rounding.
    """
    if d < 2:
        raise InvalidInputError("dimension must be at least 2")
    if not (t >= 0.0 and math.isfinite(t)):
        raise InvalidInputError("radius t must be a nonnegative real")
    root = math.sqrt(d)
    a = np.full(d, 1.0 / root)
    return SectionSpec(dim=d, direction=a, radius=float(t), offset=root / 2.0 - t)


def canonicalize(a) -> np.ndarray:
    """Sort coordinates in descending order.

    Quotients out the coordinate permutations of the cube's symmetry group;
    every volume function here is invariant under this map.
    """
    a = np.asarray(a, dtype=float)
    return np.sort(a)[::-1].copy()


def vertices_below(spec: SectionSpec, dim_limit: int = DEFAULT_DIM_LIMIT):
    """All cube vertices v with a.v <= b, in lexicographic order.

    Enumeration is depth-first over coordinates sorted descending, pruning a
    branch as soon as its partial dot product exceeds b (completions only add
    nonnegative terms).  Shallow cuts therefore cost O(d) rather than O(2^d).
    """
    if spec.dim > dim_limit:
        raise CapacityError(
            f"dimension {spec.dim} exceeds enumeration limit {dim_limit}; "
            "pass a larger dim_limit to override"
        )
    b = spec.offset
    if b < 0.0:
        return []
    d = spec.dim
    order = np.argsort(-spec.direction, kind="stable")
    asorted = spec.direction[order]
    found = []

    def descend(i, partial, bits):
        if i == d:
            found.append(bits)
            return
        descend(i + 1, partial, bits)
        s1 = partial + asorted[i]
        if s1 <= b:
            descend(i + 1, s1, bits | (1 << i))

    descend(0, 0.0, 0)

    verts = []
    for bits in found:
        v = [0] * d
        for i in range(d):
            if bits & (1 << i):
                v[order[i]] = 1
        verts.append(tuple(v))
    verts.sort()
    return verts


def classify_cut(spec: SectionSpec, dim_limit: int = DEFAULT_DIM_LIMIT) -> CutClassification:
    """Count and classify the cube vertices on the near side of the hyperplane.

    Tie vertices (a.v == b) count as below; shallow cuts classify in O(d)
    because the enumeration prunes.
    """
    if spec.offset < 0.0:
        return CutClassification(0, CutKind.EMPTY, ())
    verts = vertices_below(spec, dim_limit=dim_limit)
    return CutClassification(len(verts), _kind_of(verts), tuple(verts))


def _kind_of(verts) -> CutKind:
    n = len(verts)
    if n == 0:
        return CutKind.EMPTY
    if n == 1:
        return CutKind.CORNER
    if n == 2:
        if _hamming(verts[0], verts[1]) == 1:
            return CutKind.EDGE
        return CutKind.OTHER
    if n == 3:
        return CutKind.SQUARE3 if _spanning_coords(verts) == 2 else CutKind.OTHER
    if n == 4:
        if _spanning_coords(verts) == 2:
            return CutKind.SQUARE4
        for center in verts:
            if all(v == center or _hamming(v, center) == 1 for v in verts):
                return CutKind.CLAW4
        return CutKind.OTHER
    return CutKind.OTHER


def _hamming(u, v) -> int:
    return sum(x != y for x, y in zip(u, v))


def _spanning_coords(verts) -> int:
    """Number of coordinates in which the vertices are not all equal."""
    first = verts[0]
    return sum(any(v[i] != first[i] for v in verts) for i in range(len(first)))

