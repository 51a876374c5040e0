"""Brute-force Monte Carlo oracles for half-space and section volumes.

These estimators share no code with the formula-based routes and exist to
ground them.  Both sample only the smallest coordinate box that holds the
cut: a point with a.x <= b has a_i x_i <= b, so x_i <= min(1, b/a_i).  The
section estimator projects the section onto the coordinates other than
k = argmax a_i, where it becomes the slab b - a_k <= a'.x' <= b of that box,
and scales the hit fraction by vol(box) * ||a|| / a_k (the area factor of
the projection).

Points are drawn in batches of 2^16, batch i from the PCG64 stream of the
seed jumped i times.  Each coordinate is a 32-bit word of that stream, two
words per 64-bit output, read as the midpoint u = (k + 1/2) 2^-32 of one of
2^32 equal cells; the kernel sums coef_i 2^-32 k_i row by row onto
2^-33 sum(coef) and never holds the batch as floats.  The lattice moves
c.u by at most delta = 2^-33 sum(c) from the continuous point of its cell,
and c.u has density at most 1/max(c), so the hit probability of a slab
(two faces) moves by at most 4 delta / max(c) <= m 2^-31 for m sampled
coordinates; every sampled stderr includes scale * m * 2^-31 for it.
Batches may run in parallel but are reduced as exact integer hit counts in
a fixed order, so estimates are bit-identical for a given (spec, n, seed)
whatever HYPERSLICE_THREADS is.
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
    """Number of lattice points u, n draws, with lo <= coef.u <= hi.

    Each u_i = (k_i + 1/2) 2^-32 for a uniform 32-bit k_i.  A batch of `size`
    draws takes ceil(m * size / 2) raw 64-bit outputs of its stream, splits
    each into its low and then its high 32-bit word, and reads the first
    m * size words as an (m, size) array: row i holds k_i of every draw.
    """
    m = coef.size
    step = coef * 2.0**-32
    mid = math.fsum(coef) * 2.0**-33

    def count(batch):
        bits, size = batch
        raw = bits.random_raw((m * size + 1) // 2).astype("<u8", copy=False)
        k = raw.view("<u4")[: m * size].reshape(m, size)
        y = np.full(size, mid)
        term = np.empty(size)
        for i in range(m):
            np.multiply(k[i], step[i], out=term)
            y += term
        return int(np.count_nonzero((y >= lo) & (y <= hi)))

    return sum(ordered_map(count, _batches(seed, n)))


def _scaled(hits: int, n: int, scale: float, m: int):
    """Estimate p * scale for the hit fraction p = hits/n of n draws in m
    coordinates, and its stderr.

    The stderr takes p clamped to [1/n, 1 - 1/n]: with every draw a hit (or
    none), sqrt(p(1-p)/n) would read 0 although the set's share of the box
    is only known to about 1/n.  It adds the lattice bias bound m 2^-31.
    """
    q = min(max(hits, 1), n - 1) / n
    return hits / n * scale, scale * (math.sqrt(q * (1.0 - q) / n) + m * 2.0**-31)


def _check_sampling(n: int, seed: int):
    if n < 2:
        raise InvalidInputError("n must be at least 2")
    if seed < 0:
        raise InvalidInputError("seed must be nonnegative")


def mc_halfspace_volume(spec: SectionSpec, n: int, seed: int = 0):
    """Estimate of the d-volume of {x in [0,1]^d : a.x <= b} from n uniform
    points of the box that holds it, n >= 2.

    Returns (estimate, stderr) with
    stderr = vol(box) * (sqrt(q(1-q)/n) + d 2^-31) for the hit fraction p
    clamped to q in [1/n, 1 - 1/n], the second term bounding the bias of
    the 2^-32 lattice the points lie on.  It is exactly
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
    return _scaled(hits, n, math.prod(w), a.size)


def mc_section_volume(spec: SectionSpec, n: int, seed: int = 0):
    """Estimate of the (d-1)-volume of the section a.x = b from n uniform
    points of the box that holds its projection along e_k, k = argmax a_i,
    n >= 2.

    Returns (estimate, stderr) with
    stderr = scale * (sqrt(q(1-q)/n) + (d-1) 2^-31) for the hit fraction p
    clamped to q in [1/n, 1 - 1/n], the second term bounding the bias of
    the 2^-32 lattice the points lie on, and
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
    return _scaled(hits, n, scale, rest.size)
