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
2^32 equal cells; the slab value c.u of a point is its float64 sum
2^-33 sum(c) + c_1 2^-32 k_1 + ... + c_m 2^-32 k_m, added one coordinate
after another in that order.  The lattice moves c.u by at most
e = 2^-33 sum(c) from the continuous point of its cell, and c.u has density
at most 1/max(c), so the hit probability of a slab (two faces) moves by at
most 4 e / max(c) <= m 2^-31 for m sampled coordinates; every sampled
stderr includes scale * m * 2^-31 for it.

The kernel first screens each batch in float32, on two fixed-size buffers
per thread, and computes the float64 sum above only for the few points the
screen leaves within its error bound of a slab face (see _count_hits), so
every hit count is the one the float64 sum alone gives.  Batches may run in
parallel but are reduced as exact integer hit counts in a fixed order, so
estimates are bit-identical for a given (spec, n, seed) whatever
HYPERSLICE_THREADS is.  A batch makes no BLAS call.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import InvalidInputError
from .geometry import SectionSpec
from .parallel import ordered_map

_BATCH = 1 << 16
# PCG64.jumped(i) is advance(i * _JUMP) from the same state: numpy's jump
# step, (golden ratio - 1) 2^128 rounded to an odd integer
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
_U32 = 2.0**-24  # unit roundoff of float32
_local = threading.local()


def _thread_scratch():
    """This thread's generator and two float32 rows of _BATCH, made on its
    first batch and overwritten by every later one."""
    try:
        return _local.bits, _local.z, _local.term
    except AttributeError:
        _local.bits = np.random.PCG64(0)
        _local.z = np.empty(_BATCH, np.float32)
        _local.term = np.empty(_BATCH, np.float32)
        return _local.bits, _local.z, _local.term


def _float32_below(x: float) -> np.float32:
    v = np.float32(x)
    return np.nextafter(v, np.float32(-np.inf)) if float(v) > x else v


def _float32_above(x: float) -> np.float32:
    v = np.float32(x)
    return np.nextafter(v, np.float32(np.inf)) if float(v) < x else v


def _box_widths(a: np.ndarray, b: float) -> np.ndarray:
    """Side lengths min(1, b/a_i) of the box holding {x in cube : a.x <= b}
    for b >= 0; a zero coordinate gets width 1."""
    w = np.ones(a.size)
    long = a > b
    w[long] = b / a[long]
    return w


def _count_hits(coef: np.ndarray, lo: float, hi: float, n: int, seed: int) -> int:
    """Number of lattice points u, n draws, whose float64 slab value y (the
    sum in the module docstring) has lo <= y <= hi; lo may be -inf.

    Each u_i = (k_i + 1/2) 2^-32 for a uniform 32-bit k_i.  Batch i sets a
    per-thread PCG64 to the state of PCG64(seed) and advances it by
    i * _JUMP, which is PCG64(seed).jumped(i).  A batch of `size` draws takes
    ceil(m * size / 2) raw 64-bit outputs of that stream, splits each into
    its low and then its high 32-bit word, and reads the first m * size
    words as an (m, size) array: row i holds k_i of every draw.

    The float32 screen.  Let S be the power of two with S/2 <= sum(c) < S
    (S = 1 when sum(c) = 0), c = coef.  Every y lies in [0, sum(c)],
    strictly inside (-S, 2S), so clamping both faces to [-S, 2S] changes no
    hit; this also makes a half-space a slab.  In units of S, let the
    clamped slab have center mu and half-width h, so y hits exactly when
    |y - mu| <= h, and y - mu = s + sum_i t_i with s = 2^-33 sum(c) - mu and
    t_i = c_i 2^-32 k_i (up to the float64 rounding of y).  The screen value
    z is the absolute value of that sum in float32: s rounded to float32,
    then row after row the float32 cast of k_i times q_i = c_i 2^-32 / S
    rounded to float32, added in row order.
    The cast, q_i, the product and the m additions each add a relative error
    of at most u = 2^-24, so with gamma_j = j u / (1 - j u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 4.2)
        |z - |s + sum_i t_i|| <= gamma_{m+3} (|s| + t) + (m + 1) 2^-116,
    where t = sum(c) / S bounds sum_i t_i and the last term covers float32
    underflow (at most 2^-150 a rounding, times k_i < 2^32 for q_i), which
    only a coefficient below 2^-94 S meets.  Scaling by S keeps every other
    value near 1, so the screen reads the same at any scale of c.  The
    float64 side adds less than u (|s| + t + |h|): the sum y, all of whose
    terms are nonnegative, is within (m + 1) 2^-52 sum(c) of its exact
    value, and mu, s and h are rounded once each.  One more u covers the
    float64 evaluation of delta and of h -+ delta.  So with
        delta = gamma_{m+5} (|s| + t + |h|) + (m + 1) 2^-116
    a point with z < h - delta hits and a point with z > h + delta misses;
    both thresholds are rounded outward to float32.  Only the points between
    them are summed again in float64, with the same operations in the same
    order as y, and tested against lo and hi, so the count equals that of
    the float64 sum over every point.
    """
    m = coef.size
    step = coef * 2.0**-32
    total = math.fsum(coef)
    mid = total * 2.0**-33
    unit = 2.0 ** math.frexp(total)[1]
    lo_s, hi_s = (min(max(face, -unit), 2.0 * unit) for face in (lo, hi))
    shift = (mid - (lo_s + hi_s) / 2.0) / unit
    half = (hi_s - lo_s) / 2.0 / unit
    gamma = (m + 5) * _U32 / (1.0 - (m + 5) * _U32)
    delta = gamma * (abs(shift) + total / unit + abs(half)) + (m + 1) * 2.0**-116
    inner, outer = _float32_below(half - delta), _float32_above(half + delta)
    shift32 = np.float32(shift)
    q = (step / unit).astype(np.float32)
    state = np.random.PCG64(seed).state

    def count(batch):
        index, size = batch
        bits, z, term = _thread_scratch()
        bits.state = state
        bits.advance(index * _JUMP)
        raw = bits.random_raw((m * size + 1) // 2).astype("<u8", copy=False)
        k = raw.view("<u4")[: m * size].reshape(m, size)
        z, term = z[:size], term[:size]
        z.fill(shift32)
        for i in range(m):
            term[...] = k[i]
            term *= q[i]
            z += term
        np.abs(z, out=z)
        hits = int(np.count_nonzero(z < inner))
        if int(np.count_nonzero(z <= outer)) == hits:
            return hits
        near = np.flatnonzero((z >= inner) & (z <= outer))
        y = np.full(near.size, mid)
        for i in range(m):
            y += k[i, near] * step[i]
        return hits + int(np.count_nonzero((y >= lo) & (y <= hi)))

    batches = [(index, min(_BATCH, n - offset))
               for index, offset in enumerate(range(0, n, _BATCH))]
    return sum(ordered_map(count, batches))


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
