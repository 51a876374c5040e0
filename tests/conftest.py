"""Shared seeded generators for test specs in known cut regimes, exact
reference volumes and a finite-difference reference gradient."""

import itertools
import math
from fractions import Fraction

import numpy as np

from hyperslice.geometry import make_section_spec
from hyperslice.vertexsum import section_volume_vertex_sum


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def random_unit_direction(rng, d):
    """Uniform direction on the sphere restricted to the open orthant."""
    while True:
        x = np.abs(rng.standard_normal(d))
        if np.all(x > 1e-9):
            return x / np.linalg.norm(x)


def corner_spec(rng, d, min_coord=0.05, margin=0.25):
    """Spec whose near side holds only the origin, with comfortable slack."""
    while True:
        a = np.sqrt(rng.dirichlet(np.ones(d)))
        if a.min() < min_coord:
            continue
        b = float(rng.uniform(margin, 1.0 - margin)) * float(a.min())
        t = float(np.sum(a)) / 2.0 - b
        return make_section_spec(a, t)


def edge_spec(rng, d, min_gap=0.05, margin=0.25):
    """Spec whose near side holds the origin plus one neighbor."""
    while True:
        a = np.sqrt(rng.dirichlet(np.ones(d)))
        srt = np.sort(a)
        if srt[0] < 0.03 or srt[1] - srt[0] < min_gap:
            continue
        b = float(srt[0]) + float(rng.uniform(margin, 1.0 - margin)) * float(srt[1] - srt[0])
        t = float(np.sum(a)) / 2.0 - b
        return make_section_spec(a, t)


def smooth_cell_spec(rng, d, clearance=5e-4):
    """Spec whose hyperplane stays clear of every vertex by `clearance`."""
    while True:
        a = random_unit_direction(rng, d)
        t = float(rng.uniform(0.05, 0.95)) * float(np.sum(a)) / 2.0
        spec = make_section_spec(a, t)
        dots = _all_vertex_dots(spec.direction)
        if np.min(np.abs(dots - spec.offset)) > clearance:
            return spec


def _all_vertex_dots(a):
    d = a.size
    verts = ((np.arange(2**d)[:, None] >> np.arange(d)) & 1).astype(float)
    return verts @ a


def _exact_volumes(a, b):
    """(section / ||a||, half-space) as Fractions, summed over all 2^n vertices
    of the positive coordinates; a zero coordinate changes neither volume."""
    pos = [Fraction(float(x)) for x in a if x > 0.0]
    n, bb = len(pos), Fraction(b)
    sec = half = Fraction(0)
    for v in itertools.product((0, 1), repeat=n):
        gap = bb - sum(x for x, vi in zip(pos, v) if vi)
        if gap >= 0:
            sign = -1 if sum(v) & 1 else 1
            sec += sign * gap ** (n - 1)
            half += sign * gap**n
    prod = math.prod(pos)
    return sec / (math.factorial(n - 1) * prod), half / (math.factorial(n) * prod)


def _sqrt_bounds(x: Fraction, bits=200):
    """Rationals lo <= sqrt(x) <= hi with hi - lo = 2^-bits / x.denominator."""
    num = x.numerator * x.denominator << (2 * bits)
    root = math.isqrt(num)
    den = x.denominator << bits
    return Fraction(root, den), Fraction(root + 1, den)


def exact_section_bounds(spec):
    """Rationals lo <= (section volume) <= hi for a spec, from the exact sum
    over all vertices and 200-bit bounds on ||a||."""
    ratio, _ = _exact_volumes(spec.direction, spec.offset)
    lo, hi = _sqrt_bounds(sum(Fraction(float(x)) ** 2 for x in spec.direction if x > 0.0))
    return ratio * lo, ratio * hi


def lagrangian_fd(spec, lam, h=1e-6):
    """Central differences, step h, of L(a) = V(a)/||a|| + lam (||a||^2 - 1)
    at the spec's direction, where V(a) is the vertex-sum section at the
    spec's radius of the unnormalized direction a.  The spec must keep
    every vertex more than about h from its hyperplane."""
    t = spec.radius

    def value(vec):
        norm = float(np.linalg.norm(vec))
        unit = section_volume_vertex_sum(make_section_spec(vec, t / norm)).value
        return unit / norm + lam * (norm * norm - 1.0)

    a = spec.direction
    grad = np.zeros(a.size)
    for i in range(a.size):
        hi, lo = a.copy(), a.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (value(hi) - value(lo)) / (2 * h)
    return grad
