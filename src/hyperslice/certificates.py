"""Sign certificates for the edge-cut stationarity quadratic.

The stationarity conditions of an edge cut reduce to a quadratic
c2*x^2 + c1*x + c0 = 0 in x = a_j/b, whose coefficients depend on d and on
y = 1 - a_low/b in (0,1):

    c2 = 2 - 2 y^(d-1) - (d-1)(1-y)(1 + y^(d-2))
    c1 = (d-1)(1-y)^2 (1 - y^(d-2))
    c0 = -2 (1-y)^2 (1 - y^(d-1))

Ruling out roots in [1, inf) needs three sign conditions on (0,1): the
leading coefficient c2, the slope 2*c2 + c1 of the quadratic at x = 1, and
its value c2 + c1 + c0 at x = 1 must all be negative.  This module evaluates
those quantities accurately over dense grids (all three vanish to high order
as y -> 1, so they are also expanded exactly in powers of s = 1 - y), and can
certify their signs rigorously from the exact Bernstein form of those
integer expansions on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError

#: Hypothesis thresholds: the dimension from which each sign condition holds.
CLAIM_THRESHOLDS = {"lead_coeff": 4, "slope_at_one": 6, "value_at_one": 6}

#: Sub-boxes of [0, 1] the Bernstein test may examine per claim before it
#: gives up.  Every claim of d = 6..200 certifies in one box.
MAX_BOXES = 1024


@dataclass(frozen=True)
class QuadCoeffs:
    d: int
    y: float
    c2: float
    c1: float
    c0: float


@dataclass(frozen=True)
class CertificateReport:
    d: int
    grid_size: int
    max_lead_coeff: float
    max_slope_at_one: float
    max_value_at_one: float
    roots_excluded: bool


def _binomial_poly(k: int) -> list[int]:
    """Integer coefficients of (1-s)^k in s."""
    return [(-1) ** j * math.comb(k, j) for j in range(k + 1)]


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _poly_scale(p, c):
    return [c * x for x in p]


def _poly_shift(p, k):
    """Multiply by s^k."""
    return [0] * k + list(p)


@lru_cache(maxsize=None)
def _shifted_polys(d: int):
    """Exact integer expansions of c2, c1, c0 in powers of s = 1 - y."""
    bd1 = _binomial_poly(d - 1)  # (1-s)^(d-1) = y^(d-1)
    bd2 = _binomial_poly(d - 2)
    one = [1]
    # c2 = 2 - 2 y^(d-1) - (d-1) s (1 + y^(d-2))
    c2 = _poly_add(_poly_add([2], _poly_scale(bd1, -2)),
                   _poly_shift(_poly_scale(_poly_add(one, bd2), -(d - 1)), 1))
    # c1 = (d-1) s^2 (1 - y^(d-2))
    c1 = _poly_shift(_poly_scale(_poly_add(one, _poly_scale(bd2, -1)), d - 1), 2)
    # c0 = -2 s^2 (1 - y^(d-1))
    c0 = _poly_shift(_poly_scale(_poly_add(one, _poly_scale(bd1, -1)), -2), 2)
    return tuple(map(tuple, (c2, c1, c0)))


@lru_cache(maxsize=None)
def _claim_polys(d: int):
    """Exact integer s-expansions of the three certified quantities."""
    c2, c1, c0 = map(list, _shifted_polys(d))
    return {
        "lead_coeff": tuple(c2),
        "slope_at_one": tuple(_poly_add(_poly_scale(c2, 2), c1)),
        "value_at_one": tuple(_poly_add(_poly_add(c2, c1), c0)),
    }


def _horner_float(coeffs, s: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def quad_coeffs(d: int, y: float) -> QuadCoeffs:
    """Coefficients of the stationarity quadratic at (d, y).

    For y above 1/2 the direct formulas lose all significance (everything
    vanishes to third order or higher at y = 1), so the exact shifted
    expansions in s = 1 - y are used there instead.
    """
    if d < 2:
        raise InvalidInputError("d must be at least 2")
    if not 0.0 < y < 1.0:
        raise InvalidInputError("y must lie strictly between 0 and 1")
    if y > 0.5:
        s = 1.0 - y
        p2, p1, p0 = _shifted_polys(d)
        return QuadCoeffs(d, y, _horner_float(p2, s), _horner_float(p1, s),
                          _horner_float(p0, s))
    omy = 1.0 - y
    c2 = math.fsum([2.0, -2.0 * y ** (d - 1), -(d - 1) * omy,
                    -(d - 1) * omy * y ** (d - 2)])
    c1 = (d - 1) * omy * omy * (1.0 - y ** (d - 2))
    c0 = -2.0 * omy * omy * (1.0 - y ** (d - 1))
    return QuadCoeffs(d, y, c2, c1, c0)


def _claim_values(d: int, y_grid: np.ndarray):
    """Vectorized values of the three certified quantities over the grid."""
    out = {}
    low = y_grid <= 0.5
    y_lo = y_grid[low]
    s_hi = 1.0 - y_grid[~low]
    polys = _claim_polys(d)
    direct = {
        "lead_coeff": lambda y: (2.0 - 2.0 * y ** (d - 1)
                                 - (d - 1) * (1.0 - y) * (1.0 + y ** (d - 2))),
        "slope_at_one": lambda y: (4.0 * (1.0 - y ** (d - 1))
                                   - (d - 1) * (1.0 - y)
                                   * (1.0 + y + (3.0 - y) * y ** (d - 2))),
        "value_at_one": lambda y: (2.0 - 2.0 * y ** (d - 1)
                                   - (d - 1) * (1.0 - y) * (1.0 + y ** (d - 2))
                                   + (d - 1) * (1.0 - y) ** 2 * (1.0 - y ** (d - 2))
                                   - 2.0 * (1.0 - y) ** 2 * (1.0 - y ** (d - 1))),
    }
    for name, poly in polys.items():
        vals = np.empty(y_grid.size)
        vals[low] = direct[name](y_lo)
        coef = np.array(poly, dtype=float)
        vals[~low] = np.polynomial.polynomial.polyval(s_hi, coef)
        out[name] = vals
    return out


def default_y_grid(n: int = 10_000) -> np.ndarray:
    """Uniform grid on (1e-6, 1-1e-6) plus log-spaced points near each endpoint."""
    if n < 0:
        raise InvalidInputError("grid size must be nonnegative")
    uniform = np.linspace(1e-6, 1.0 - 1e-6, n)
    near0 = np.logspace(-7, -3, 100)
    near1 = 1.0 - np.logspace(-7, -3, 100)
    return np.unique(np.concatenate([uniform, near0, near1]))


def sign_certificates(d: int, y_grid) -> CertificateReport:
    """Most-positive observed values of the three sign conditions over a grid.

    All three maxima negative rules out roots of the quadratic in [1, inf):
    the quadratic is then negative at x = 1 and decreasing beyond it.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.size == 0:
        raise InvalidInputError("y grid must be nonempty")
    if np.any((y_grid <= 0.0) | (y_grid >= 1.0)):
        raise InvalidInputError("y grid must lie strictly inside (0, 1)")
    vals = _claim_values(d, y_grid)
    maxima = {name: float(np.max(v)) for name, v in vals.items()}
    return CertificateReport(
        d=d,
        grid_size=int(y_grid.size),
        max_lead_coeff=maxima["lead_coeff"],
        max_slope_at_one=maxima["slope_at_one"],
        max_value_at_one=maxima["value_at_one"],
        roots_excluded=all(m < 0.0 for m in maxima.values()),
    )


def quad_roots(c: QuadCoeffs) -> list[float]:
    """Real roots of c2 x^2 + c1 x + c0, by the sign-aware quadratic formula."""
    c2, c1, c0 = c.c2, c.c1, c.c0
    if c2 == 0.0 and c1 == 0.0 and c0 == 0.0:
        raise InvalidInputError("all coefficients vanish; roots undefined")
    if c2 == 0.0:
        return [] if c1 == 0.0 else [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    q = -0.5 * (c1 + math.copysign(root, c1)) if c1 != 0.0 else -0.5 * root
    if q == 0.0:
        return [0.0]
    return sorted((q / c2, c0 / q))


def certify_signs_rigorous(d: int):
    """Exact certificate that each claimed quantity is negative on all of
    y in (0,1).

    Each quantity is an exact integer polynomial in s = 1 - y vanishing at
    s = 0; dividing out the endpoint roots leaves a polynomial that must be
    negative on the closed box [0,1].  Its Bernstein coefficients on a box
    bound it there (the polynomial is their convex combination), so all of
    them negative certifies the box; otherwise the box is halved by exact
    de Casteljau steps, in integers throughout.

    Returns {claim: bool}; a claim is only certified when every box is
    certified within MAX_BOXES boxes.
    """
    return {name: _certify_negative(poly) for name, poly in _claim_polys(d).items()}


def _strip_endpoint_roots(coeffs):
    """Divide out exact s^k and (1-s)^m factors from an integer polynomial.

    The sign on the open interval (0,1) is unchanged, and the quotient no
    longer vanishes at either endpoint, so subdivision of the closed box
    [0,1] can terminate.
    """
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    reduced = coeffs[k:]
    while reduced and sum(reduced) == 0:
        # exact division by (1-s): quotient coefficients are prefix sums
        prefix = []
        acc = 0
        for c in reduced[:-1]:
            acc += c
            prefix.append(acc)
        reduced = prefix
    return reduced


def _bernstein_integers(coeffs):
    """Positive integer multiples, one common factor, of the Bernstein
    coefficients b_j of sum_k coeffs[k] s^k on [0, 1].

    S_j = sum_{k<=j} coeffs[k] C(n-k, j-k) equals C(n, j) b_j; scaling each
    by lcm_j C(n, j) / C(n, j) gives the common factor.
    """
    n = len(coeffs) - 1
    binoms = [math.comb(n, j) for j in range(n + 1)]
    scale = math.lcm(*binoms)
    return [
        sum(c * math.comb(n - k, j - k) for k, c in enumerate(coeffs[: j + 1]))
        * (scale // binoms[j])
        for j in range(n + 1)
    ]


def _halves(b):
    """Bernstein coefficients of the two halves of a box, by de Casteljau
    at 1/2 on integers: pairwise sums instead of means, so row r carries a
    factor 2^r, which the shift by n - r evens out to 2^n for both halves."""
    n = len(b) - 1
    left, right = [b[0] << n], [b[-1] << n]
    row = b
    for r in range(1, n + 1):
        row = [x + y for x, y in zip(row, row[1:])]
        left.append(row[0] << (n - r))
        right.append(row[-1] << (n - r))
    return left, right[::-1]


def _certify_negative(poly) -> bool:
    """True when the integer polynomial is negative on all of (0,1)."""
    reduced = _strip_endpoint_roots(list(poly))
    if not reduced:
        return False  # identically zero: not strictly negative
    if reduced[0] >= 0 or sum(reduced) >= 0:
        # nonnegative value at s = 0 or s = 1 (exact integer checks)
        return False
    stack = [_bernstein_integers(reduced)]
    boxes = 0
    while stack:
        b = stack.pop()
        boxes += 1
        if boxes > MAX_BOXES:
            return False
        if b[0] >= 0 or b[-1] >= 0:
            return False  # the end coefficients are values at the box ends
        if max(b) < 0:
            continue
        stack.extend(_halves(b))
    return True
