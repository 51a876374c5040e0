"""Brute-force Monte Carlo oracles for half-space and section volumes.

These estimators share no code with the formula-based routes and exist to
ground them.  Both sample only the smallest coordinate box that holds the
cut: a point with a.x <= b has a_i x_i <= b, so x_i <= min(1, b/a_i).  The
section estimator projects the section onto the coordinates other than
k = argmax a_i, where it becomes the slab b - a_k <= a'.x' <= b of that box,
and scales the hit fraction by vol(box) * ||a|| / a_k (the area factor of
the projection).

Randomness comes from PCG64 streams seeded by the seed, one stream per batch
jumped by the batch index; batches may run in parallel but are reduced as
exact integer hit counts in a fixed order, so estimates are bit-identical
for a given (spec, n, seed) whatever HYPERSLICE_THREADS is.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .geometry import SectionSpec
from .parallel import ordered_map

_BATCH = 1 << 16


def _batches(seed: int, n: int):
    base = np.random.PCG64(seed)
    out, offset, index = [], 0, 0
    while offset < n:
        size = min(_BATCH, n - offset)
        out.append((base.jumped(index), size))
        offset += size
        index += 1
    return out


def _box_widths(a: np.ndarray, b: float) -> np.ndarray:
    """Side lengths min(1, b/a_i) of the box holding {x in cube : a.x <= b}
    for b >= 0; a zero coordinate gets width 1."""
    w = np.ones(a.size)
    long = a > b
    w[long] = b / a[long]
    return w


def _count_hits(coef: np.ndarray, lo: float, hi: float, n: int, seed: int) -> int:
    """Number of u uniform in [0,1)^m, n draws, with lo <= coef.u <= hi."""

    def count(batch):
        bits, size = batch
        u = np.empty((coef.size, size))
        np.random.Generator(bits).random(out=u)
        y = coef @ u
        return int(np.count_nonzero((y >= lo) & (y <= hi)))

    return sum(ordered_map(count, _batches(seed, n)))


def _scaled(hits: int, n: int, scale: float):
    """Estimate p * scale for the hit fraction p = hits/n, and its stderr.

    The stderr takes p clamped to [1/n, 1 - 1/n]: with every draw a hit (or
    none), sqrt(p(1-p)/n) would read 0 although the set's share of the box
    is only known to about 1/n.
    """
    q = min(max(hits, 1), n - 1) / n
    return hits / n * scale, scale * math.sqrt(q * (1.0 - q) / n)


def _check_sampling(n: int, seed: int):
    if n < 2:
        raise InvalidInputError("n must be at least 2")
    if seed < 0:
        raise InvalidInputError("seed must be nonnegative")


def mc_halfspace_volume(spec: SectionSpec, n: int, seed: int = 0):
    """Estimate of the d-volume of {x in [0,1]^d : a.x <= b} from n uniform
    points of the box that holds it, n >= 2.

    Returns (estimate, stderr) with stderr = vol(box) * sqrt(q(1-q)/n) for
    the hit fraction p clamped to q in [1/n, 1 - 1/n].  It is exactly
    (0.0, 0.0) when b < 0, and exactly (vol(box), 0.0), without sampling,
    when the far corner of the box satisfies a.x <= b, so that every box
    point does.
    """
    _check_sampling(n, seed)
    b = spec.offset
    if b < 0.0:
        return 0.0, 0.0
    a = spec.direction
    w = _box_widths(a, b)
    if math.fsum(a * w) <= b:
        return math.prod(w), 0.0
    hits = _count_hits(a * w, -math.inf, b, n, seed)
    return _scaled(hits, n, math.prod(w))


def mc_section_volume(spec: SectionSpec, n: int, seed: int = 0):
    """Estimate of the (d-1)-volume of the section a.x = b from n uniform
    points of the box that holds its projection along e_k, k = argmax a_i,
    n >= 2.

    Returns (estimate, stderr) with stderr = scale * sqrt(q(1-q)/n) for the
    hit fraction p clamped to q in [1/n, 1 - 1/n], and
    scale = vol(box) * ||a|| / a_k.  It is exactly (0.0, 0.0) when b < 0,
    and exactly (scale, 0.0), without sampling, when every box point hits:
    b - a_k <= 0 and the far corner has a'.x' <= b.  That covers b == 0,
    where the box is empty (scale 0) when every a_i > 0 and is the face of
    the zero coordinates otherwise.
    """
    _check_sampling(n, seed)
    b = spec.offset
    if b < 0.0:
        return 0.0, 0.0
    a = spec.direction
    k = int(np.argmax(a))
    rest = np.delete(a, k)
    w = _box_widths(rest, b)
    scale = math.prod(w) * float(np.linalg.norm(a)) / a[k]
    if b - a[k] <= 0.0 and math.fsum(rest * w) <= b:
        return scale, 0.0
    hits = _count_hits(rest * w, b - a[k], b, n, seed)
    return _scaled(hits, n, scale)
