"""Exact reference volumes for the benchmark's output checks.

Every float is a dyadic rational, so with a common exponent E each input
coordinate is a_i = A_i / 2^E and the offset is b = B / 2^E for integers
A_i and B.  The signed vertex sum

    S = sum over vertices v with a.v <= b of (-1)^|v| (b - a.v)^p

is then an integer over 2^(E p), evaluated here exactly with Python
integers.  Equal coordinates are grouped by multiplicity (a binomial weight
per group), so diagonal and near-diagonal directions cost a few thousand
terms even at d = 20.  Only ||a|| is irrational; it is applied as an exact
integer square root carrying 200 extra bits (about 60 digits).

This module is independent of the library: it imports nothing from
``hyperslice``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

_NORM_BITS = 200


def _dyadic(values):
    """Integers M_i and exponent E with values[i] == M_i / 2^E exactly."""
    fracs = [Fraction(float(v)) for v in values]
    exp = max(f.denominator.bit_length() - 1 for f in fracs)
    return [f.numerator << (exp - (f.denominator.bit_length() - 1)) for f in fracs], exp


def signed_power_sum(coords, offset, power):
    """Exact sum of (-1)^|v| (B - A.v)^power over vertices with A.v <= B.

    ``coords`` and ``offset`` are integers; coordinates must be positive.
    """
    groups = sorted(Counter(coords).items(), reverse=True)
    total = 0

    def walk(i, partial, weight):
        nonlocal total
        if i == len(groups):
            total += weight * (offset - partial) ** power
            return
        value, mult = groups[i]
        for k in range(mult + 1):
            reached = partial + k * value
            if reached > offset:
                break
            walk(i + 1, reached, weight * (-1) ** k * math.comb(mult, k))

    if offset >= 0:
        walk(0, 0, 1)
    return total


def _check_direction(direction):
    if len(direction) < 2:
        raise ValueError("direction needs at least two coordinates")
    if any(not (float(x) > 0.0) for x in direction):
        raise ValueError("reference needs strictly positive coordinates")


def section_volume(direction, offset) -> Fraction:
    """(d-1)-volume of {x in [0,1]^d : a.x = b}, exact up to the norm's
    200-bit rounding."""
    _check_direction(direction)
    ints, exp = _dyadic(list(direction) + [offset])
    coords, b = ints[:-1], ints[-1]
    d = len(coords)
    s = signed_power_sum(coords, b, d - 1)
    norm_sq = sum(c * c for c in coords)
    norm = Fraction(math.isqrt(norm_sq << (2 * _NORM_BITS)), 1 << (exp + _NORM_BITS))
    # value = ||a|| S / (2^(E(d-1)) (d-1)! prod(A) / 2^(E d))
    return norm * Fraction(s << exp, math.factorial(d - 1) * math.prod(coords))


def halfspace_volume(direction, offset) -> Fraction:
    """d-volume of {x in [0,1]^d : a.x <= b}, exact."""
    _check_direction(direction)
    ints, _ = _dyadic(list(direction) + [offset])
    coords, b = ints[:-1], ints[-1]
    d = len(coords)
    if b >= sum(coords):
        return Fraction(1)
    return Fraction(signed_power_sum(coords, b, d), math.factorial(d) * math.prod(coords))


def violates(value: float, err: float, ref: Fraction) -> bool:
    """True when |value - ref| exceeds err plus four ulps of the reference."""
    if not (math.isfinite(value) and math.isfinite(err)):
        return True
    slack = Fraction(err) + 4 * Fraction(math.ulp(float(ref)))
    return abs(Fraction(value) - ref) > slack
