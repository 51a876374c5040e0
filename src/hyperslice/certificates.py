"""Sign certificates for the edge-cut stationarity quadratic.

The stationarity conditions of an edge cut reduce to a quadratic
c2*x^2 + c1*x + c0 = 0 in x = a_j/b, whose coefficients depend on d and on
y = 1 - a_low/b in (0,1).  Ruling out roots in [1, inf) needs three sign
conditions on (0,1): the leading coefficient c2, the slope 2*c2 + c1 of the
quadratic at x = 1, and its value c2 + c1 + c0 at x = 1 must all be negative.

`_forms` writes c2, c1 and c0 once, in integers, as A + y^(d-2) B with A and
B forms of degree at most 3 in y and s = 1 - y; each sign condition is an
integer weight row over them.  Floats come from these forms where s >= 2/d.
Nearer y = 1, where A and y^(d-2) B cancel, they come from the exact integer
expansion in powers of s, whose Bernstein form on [0, 1] also certifies the
signs rigorously.
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
#: gives up.  Every claim of d = 6..320 certifies in one box.
MAX_BOXES = 1024

#: The three sign conditions as integer weight rows over (c2, c1, c0).
_CLAIMS = {"lead_coeff": (1, 0, 0), "slope_at_one": (2, 1, 0), "value_at_one": (1, 1, 1)}


@dataclass(frozen=True, slots=True)
class QuadCoeffs:
    d: int
    y: float
    c2: float
    c1: float
    c0: float


@dataclass(frozen=True, slots=True)
class CertificateReport:
    d: int
    grid_size: int
    max_lead_coeff: float
    max_slope_at_one: float
    max_value_at_one: float
    roots_excluded: bool


def _cubic(form):
    """A form in (y, s) of degree n, given by its coefficients of y^k s^(n-k),
    as a cubic: multiplied by (y + s)^(3-n) = 1."""
    while len(form) < 4:
        form = [p + q for p, q in zip([0, *form], [*form, 0])]
    return form


@lru_cache(maxsize=None)
def _forms(d: int, rows):
    """(A, B, n) for each weight row w over (c2, c1, c0): the cubic integer
    forms with sum_i w_i c_i = A + y^(d-2) B, as coefficients of y^k s^(3-k),
    k = 0..3, and the degree n of the highest form B that the row sums.

    A quantity that vanishes at y = 0 has a zero coefficient of s^3 here, so
    its forms do not cancel there.
    """
    m = d - 1
    quad = (((3 - d, 2), (-m, -2)),       # c2 = 2y - (d-3)s + y^(d-2) (-2y - (d-1)s)
            ((m, 0, 0), (-m, 0, 0)),      # c1 = (d-1)s^2 (1 - y^(d-2))
            ((-2, 0, 0), (0, 2, 0, 0)))   # c0 = -2s^2 (1 - y^(d-1))
    out = []
    for row in rows:
        a, b = (tuple(sum(w * _cubic(q[j])[k] for w, q in zip(row, quad)) for k in range(4))
                for j in (0, 1))
        out.append((a, b, max(len(q[1]) - 1 for w, q in zip(row, quad) if w)))
    return tuple(out)


@lru_cache(maxsize=None)
def _s_expansions(d: int, rows):
    """Exact integer coefficients, ascending in s, of A + y^(d-2) B for each
    weight row, through its degree d - 2 + n: y^(d-2) and each y^k s^(3-k)
    of the forms are expanded by binomials, with y = 1 - s."""
    power = [(-1) ** q * math.comb(d - 2, q) for q in range(d - 1)]
    out = []
    for a, b, n in _forms(d, rows):
        poly = [0] * (d + 2)
        for form, factor in ((a, [1]), (b, power)):
            for k, c in enumerate(form):
                for r in range(k + 1):
                    term = (-1) ** r * math.comb(k, r) * c
                    for q, p in enumerate(factor):
                        poly[3 - k + r + q] += term * p
        out.append(tuple(poly[: d - 1 + n]))
    return tuple(out)


@lru_cache(maxsize=None)
def _float_forms(d: int, rows):
    """The cubic forms as floats, shape (rows, 2, 4), and the s-expansions as
    polynomials in v = d*s/2, zero-padded to shape (d + 2, rows): the k-th
    coefficient is multiplied by (2/d)^k, so none overflows at any d."""
    scaled = np.zeros((d + 2, len(rows)))
    for j, poly in enumerate(_s_expansions(d, rows)):
        scaled[: len(poly), j] = [(c << k) / d ** k for k, c in enumerate(poly)]
    forms = np.array([(a, b) for a, b, _ in _forms(d, rows)], dtype=float)
    forms.flags.writeable = scaled.flags.writeable = False  # shared by the cache
    return forms, scaled


def _values(d: int, rows, y: np.ndarray) -> list[np.ndarray]:
    """sum_i w_i c_i over y for each weight row w.  The cubic forms give it
    as s^3 times a cubic in t = y/s where s = 1 - y >= 2/d.  Below, where A
    and y^(d-2) B cancel, Horner in v = d*s/2 on the exact s-expansion."""
    if d < 2:
        raise InvalidInputError("d must be at least 2")
    forms, scaled = _float_forms(d, rows)
    s = 1.0 - y
    near = s < 2.0 / d
    v = s[near] * (d / 2)
    tails = np.zeros((len(rows), v.size))
    for c in scaled[::-1] if v.size else ():
        tails *= v
        tails += c[:, None]
    t, p, s3 = y / s, y ** (d - 2), s * s * s
    out = []
    for (a, b), tail in zip(forms, tails):
        val = a[3] + p * b[3]
        for k in (2, 1, 0):
            val *= t
            val += a[k] + p * b[k]
        val *= s3
        val[near] = tail
        out.append(val)
    return out


def quad_coeffs(d: int, y: float) -> QuadCoeffs:
    """Coefficients of the stationarity quadratic at (d, y)."""
    if not 0.0 < y < 1.0:
        raise InvalidInputError("y must lie strictly between 0 and 1")
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    c2, c1, c0 = (float(v[0]) for v in _values(d, rows, np.array([y], dtype=float)))
    return QuadCoeffs(d, y, c2, c1, c0)


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
    if not np.all((y_grid > 0.0) & (y_grid < 1.0)):
        raise InvalidInputError("y grid must lie strictly inside (0, 1)")
    maxima = [float(v.max()) for v in _values(d, tuple(_CLAIMS.values()), y_grid)]
    return CertificateReport(d, int(y_grid.size), *maxima, all(m < 0.0 for m in maxima))


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
    if d < 2:
        raise InvalidInputError("d must be at least 2")
    polys = _s_expansions(d, tuple(_CLAIMS.values()))
    return {name: _certify_negative(poly) for name, poly in zip(_CLAIMS, polys)}


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
