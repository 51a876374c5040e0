"""Section volume as an oscillatory sinc-product integral.

The (d-1)-volume of the section {a.x = b} of [0,1]^d equals

    (||a||/pi) * Integral_{-inf}^{inf}  prod_i sinc(a_i u) * cos(2 t ||a|| u) du,

with sinc(x) = sin(x)/x, sinc(0) = 1, and t the distance from the hyperplane
to the cube center.  The integrand is even, so twice the [0, N] integral is
computed with adaptive Gauss-Kronrod 7/15 panels, error |K15 - G7|.  The
discarded tail obeys |integrand| <= 1/(m2 u^2), m2 the product of the two
smallest positive coordinates, and with n >= 4 of them 1/(m u^(n-1)), m the
product of the n-1 largest; the smaller N of the two is the truncation
point.  When it is impractically large, integration stops at a moderate N
and the remaining tail is evaluated in closed form through sine/cosine-
integral recurrences applied to the product-to-sum expansion of the
integrand.  Coordinates up to TINY_COORD stay out of that expansion, whose
scale 1/prod(a) would amplify the roundoff of nearly cancelling
frequencies: sinc(e u) is the average of cos(s u) over s in [-e, e], so
the tail is the closed form of the other coordinates averaged over shifted
frequencies, which a few Gauss points evaluate.  Si and Ci are evaluated
here (``_sici``) from their power series, their asymptotic series and, in
between, one continued fraction of E1(ix) per distinct argument (Abramowitz
& Stegun 5.2), so the module needs numpy alone.

The panels evaluate the integrand one coordinate at a time as
sin(a_i u)/(a_i u), with node-length scratch at any d.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError, InvalidInputError, NonintegrableTailError
from .geometry import MAX_TERMS, SectionSpec, VolumeResult, ZERO_COORD_TOL, countable_cut

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: Largest truncation point integrated entirely with panels; bounds requiring
#: more are handled by the closed-form tail.
TRUNC_CAP = 4096.0

#: Truncation point used when the closed-form tail takes over.
ANALYTIC_TAIL_N = 256.0

#: Panels the integral route may refine to before it gives up.
MAX_PANELS = 200_000

#: Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK's QK15): columns are the
#: 15 Kronrod nodes, their Kronrod weights, and the 7-point Gauss weights,
#: which sit on every second node and are zero elsewhere.
_QK15 = np.array([
    [-0.99145537112081263921, 0.02293532201052922496, 0.0],
    [-0.94910791234275852453, 0.06309209262997855329, 0.12948496616886969327],
    [-0.86486442335976907279, 0.10479001032225018384, 0.0],
    [-0.74153118559939443986, 0.14065325971552591875, 0.27970539148927666790],
    [-0.58608723546769113029, 0.16900472663926790283, 0.0],
    [-0.40584515137739716691, 0.19035057806478540991, 0.38183005050511894495],
    [-0.20778495500789846760, 0.20443294007529889241, 0.0],
    [0.0, 0.20948214108472782801, 0.41795918367346938776],
    [0.20778495500789846760, 0.20443294007529889241, 0.0],
    [0.40584515137739716691, 0.19035057806478540991, 0.38183005050511894495],
    [0.58608723546769113029, 0.16900472663926790283, 0.0],
    [0.74153118559939443986, 0.14065325971552591875, 0.27970539148927666790],
    [0.86486442335976907279, 0.10479001032225018384, 0.0],
    [0.94910791234275852453, 0.06309209262997855329, 0.12948496616886969327],
    [0.99145537112081263921, 0.02293532201052922496, 0.0],
])

_EULER_GAMMA = 0.5772156649015329

#: Power series in x^2 of Si(x)/x and of (Ci(x) - gamma - ln x)/x^2; at
#: x = 4 the last terms are below 1e-17.
_SI_SERIES = [(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(17)]
_CI_SERIES = [(-1) ** k / (2 * k * math.factorial(2 * k)) for k in range(1, 18)]

#: Asymptotic series in 1/x^2 of x f(x) and x^2 g(x), the auxiliary functions
#: with Si = pi/2 - f cos x - g sin x and Ci = f sin x - g cos x; the terms
#: (2k)!/x^(2k) fall until 2k ~ x, so twenty of them reach 1e-16 at x = 40.
_AUX_SERIES = np.array(
    [[(-1) ** k * math.factorial(2 * k), (-1) ** k * math.factorial(2 * k + 1)]
     for k in range(20)], dtype=float)


@dataclass(frozen=True, slots=True)
class QuadratureConfig:
    abs_tol: float
    trunc_N: float
    m2: float
    analytic_tail: bool
    n_pos: int
    log_m_tail: float
    norm: float


def make_quadrature_config(spec: SectionSpec, abs_tol: float = 1e-9) -> QuadratureConfig:
    """Derive truncation data for a spec from the integrand's tail bounds.

    Two rigorous bounds are available: 1/(m2 u^2) from the two smallest
    positive coordinates, and for n >= 4 positive coordinates the faster
    1/(m u^(n-1)) decay, m the product of the n-1 largest; the smaller
    resulting N wins.  |sinc(x)| <= min(1, 1/|x|) bounds the product by
    1/(prod_J a_i u^|J|) for any subset J, so leaving out the smallest
    coordinate keeps one tiny coordinate from forcing the closed-form tail.
    That bound is taken in logs, since m underflows from d of about 280 up.
    The config belongs to its spec (``section_volume_integral`` checks it).
    """
    if not abs_tol > 0.0:
        raise InvalidInputError("abs_tol must be positive")
    a_pos = np.sort(spec.direction[spec.direction > ZERO_COORD_TOL])
    n_pos = a_pos.size
    if n_pos < 2:
        raise NonintegrableTailError(
            "the sinc-product integral needs at least two positive coordinates"
        )
    # what np.linalg.norm computes, without its call overhead
    norm = math.sqrt(spec.direction.dot(spec.direction))
    m2 = float(a_pos[0] * a_pos[1])
    n_from_m2 = 4.0 * norm / (math.pi * m2 * abs_tol)
    candidates = [n_from_m2]
    log_m_tail = math.log(m2)
    if n_pos >= 4:
        j = n_pos - 1
        log_m_tail = float(np.log(a_pos[-j:]).sum())
        candidates.append(math.exp(
            (math.log(4.0 * norm / (math.pi * (j - 1) * abs_tol)) - log_m_tail) / (j - 1)))
    trunc = max(min(candidates), 1.0)
    analytic = trunc > TRUNC_CAP
    if analytic:
        trunc = ANALYTIC_TAIL_N
    return QuadratureConfig(
        abs_tol=abs_tol,
        trunc_N=trunc,
        m2=m2,
        analytic_tail=analytic,
        n_pos=n_pos,
        log_m_tail=log_m_tail,
        norm=norm,
    )


def sinc_product_integrand(a, omega: float, u):
    """prod_i sinc(a_i u) * cos(omega u), with sinc(0) = 1; even in u.

    The product is taken one coordinate at a time as sin(y)/y, y = |a_i u|,
    in two reused node-length buffers beside the result, so the scratch is
    three node-length vectors at any d.  Taking |omega u| and |a_i u| makes
    the result exactly even.  y below the smallest normal float is raised
    to it, where sin(y)/y is exactly 1 as sinc is at y = 0, so u = 0,
    a_i = 0 and an underflowing a_i u divide by no zero.
    """
    u_arr = np.asarray(u, dtype=float)
    x = u_arr.reshape(-1)
    y = np.multiply(x, omega)
    out = np.cos(np.absolute(y, out=y))
    s = np.empty_like(y)
    for a_i in np.asarray(a, dtype=float).tolist():
        np.multiply(x, a_i, out=y)
        np.absolute(y, out=y)
        np.maximum(y, _TINY, out=y)
        np.sin(y, out=s)
        s /= y
        out *= s
    return float(out[0]) if u_arr.ndim == 0 else out.reshape(u_arr.shape)


def tail_bound(cfg: QuadratureConfig, N: float) -> float:
    """Bound on the magnitude of the discarded |u| > N part of the volume
    integral: 2 (||a||/pi) * Integral_N^inf du/(m2 u^2), or for n >= 4
    positive coordinates the u^-(n-1) decay of the n-1 largest if smaller,
    taken in logs since N^(n-2) and their product leave the float range."""
    if not N > 0.0:
        raise InvalidInputError("N must be positive")
    bound = 2.0 * cfg.norm / (math.pi * cfg.m2 * N)
    if cfg.n_pos >= 4:
        j = cfg.n_pos - 1
        log_sharp = (math.log(2.0 * cfg.norm / (math.pi * (j - 1)))
                     - cfg.log_m_tail - (j - 1) * math.log(N))
        if log_sharp < math.log(bound):
            bound = math.exp(log_sharp)
    return bound


def adaptive_panel_integral(f, lo, hi, abs_budget, max_panels=MAX_PANELS, max_width=None):
    """Integrate f over [lo, hi] by bisection-refined Gauss-Kronrod 7/15
    panels, error |K15 - G7|.

    f must accept a 1-d node array; each refinement round calls it once, on
    the 15 Kronrod nodes of every new panel, which contain the 7 Gauss
    nodes.  A panel's value is its 15-point Kronrod value K15 and its error
    estimate |K15 - G7|, G7 the 7-point Gauss value; panels are bisected
    until the estimates sum below abs_budget.  Returns
    (value, err_estimate, n_panels); the final summation order is fixed by
    panel position, so results are reproducible.
    """
    span = hi - lo
    if span <= 0.0:
        return 0.0, 0.0, 0
    width = span if max_width is None else min(span, max_width)
    n0 = max(int(math.ceil(span / width)), 1)
    if n0 > max_panels:
        raise ConvergenceError("initial panel count exceeds max_panels")
    edges = np.linspace(lo, hi, n0 + 1)
    los, his = edges[:-1], edges[1:]
    vals, errs = _panel_rule(f, los, his)
    while float(np.sum(errs)) > abs_budget:
        if los.size >= max_panels:
            raise ConvergenceError(
                f"panel budget {max_panels} exhausted at error {np.sum(errs):.3e}"
            )
        thresh = abs_budget / max(los.size, 1)
        split = errs > thresh
        if not np.any(split):
            split = errs >= np.partition(errs, -1)[-1]  # at least the worst one
        keep = ~split
        mids = 0.5 * (los[split] + his[split])
        add_lo = np.concatenate([los[split], mids])
        add_hi = np.concatenate([mids, his[split]])
        add_vals, add_errs = _panel_rule(f, add_lo, add_hi)
        los = np.concatenate([los[keep], add_lo])
        his = np.concatenate([his[keep], add_hi])
        vals = np.concatenate([vals[keep], add_vals])
        errs = np.concatenate([errs[keep], add_errs])
    order = np.argsort(los, kind="stable")
    value = math.fsum(vals[order])
    err = math.fsum(errs[order])
    return value, err, int(los.size)


def _panel_rule(f, los, his):
    """15-point Kronrod values and |K15 - G7| estimates for a batch of
    panels, from one call of f on all their nodes."""
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    nodes = mid[:, None] + half[:, None] * _QK15[:, 0]
    f15 = f(nodes.ravel()).reshape(nodes.shape)
    k15 = half * (f15 @ _QK15[:, 1])
    g7 = half * (f15 @ _QK15[:, 2])
    return k15, np.abs(k15 - g7)


def _horner(coeffs, z):
    out = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out


def _e1_lentz(x: float) -> complex:
    """e^(ix) E1(ix) = 1/(1+ix- 1^2/(3+ix- 2^2/(5+ix- ...))) for one x > 4,
    by the modified Lentz method, stopped once a step moves it by 4 eps."""
    b = complex(1.0, x)
    c = 1e300  # 1/tiny: the leading term has no a/c part
    d = h = 1.0 / b
    for i in range(1, 100):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 4.0 * _EPS:
            break
    return h


def _sici(x):
    """(Si(x), Ci(x)) elementwise for an array of x > 0.

    x <= 4 sums the power series (its alternating terms stay below 4, so
    Horner keeps the error near eps); x >= 40 sums the asymptotic series
    of f and g, whose terms fall from 1; in between, E1(ix) = -Ci(x) +
    i (Si(x) - pi/2) comes from its continued fraction, once per distinct
    x: it takes about 50 steps at x = 4 and 10 at x = 40, and the tail
    passes few such x (the nearly cancelling frequencies), so a Python loop
    beats an array loop that runs until the slowest x converges.
    """
    x = np.asarray(x, dtype=float)
    si = np.empty_like(x)
    ci = np.empty_like(x)
    small = x <= 4.0
    large = x >= 40.0
    mid = ~(small | large)
    if np.any(small):
        xs = x[small]
        z = xs * xs
        si[small] = xs * _horner(_SI_SERIES, z)
        ci[small] = _EULER_GAMMA + np.log(xs) + z * _horner(_CI_SERIES, z)
    if np.any(large):
        xl = x[large]
        z = 1.0 / (xl * xl)
        # the terms shrink from 1 without cancellation, so explicit powers
        # lose nothing against Horner and take two array operations
        aux = (z[:, None] ** np.arange(len(_AUX_SERIES))) @ _AUX_SERIES
        f = aux[:, 0] / xl
        g = aux[:, 1] * z
        sin, cos = np.sin(xl), np.cos(xl)
        si[large] = 0.5 * math.pi - f * cos - g * sin
        ci[large] = f * sin - g * cos
    if np.any(mid):
        xm = x[mid]
        e1 = _e1_scaled(xm) * np.exp(-1j * xm)
        si[mid] = 0.5 * math.pi + e1.imag
        ci[mid] = -e1.real
    return si, ci


def _e1_scaled(xs):
    """e^(ix) E1(ix) for an array of x in (4, 40), by one continued fraction
    (``_e1_lentz``) per distinct x: equal x recur in every tail, since
    |nu| and |-nu| are the same argument."""
    uniq, inverse = np.unique(xs, return_inverse=True)
    return np.array([_e1_lentz(x) for x in uniq.tolist()], dtype=complex)[inverse]


def _tail_integrals(nus, N, k):
    """Componentwise C(nu) = Int_N^inf cos(nu u)/u^k du and the sine analog.

    Built by the integration-by-parts recurrence from Si/Ci at power one.
    """
    nus = np.asarray(nus, dtype=float)
    sgn = np.sign(nus)
    x_freq = np.abs(nus)
    zero = x_freq == 0.0
    xf = np.where(zero, 1.0, x_freq)
    arg = xf * N
    si, ci = _sici(arg)
    ic = -ci
    isn = 0.5 * math.pi - si
    cosv = np.cos(arg)
    sinv = np.sin(arg)
    for p in range(2, k + 1):
        inv = 1.0 / ((p - 1) * N ** (p - 1))
        ic, isn = cosv * inv - xf / (p - 1) * isn, sinv * inv + xf / (p - 1) * ic
    if k >= 2:
        ic = np.where(zero, 1.0 / ((k - 1) * N ** (k - 1)), ic)
        isn = np.where(zero, 0.0, isn)
    return ic, sgn * isn


@functools.lru_cache(maxsize=None)
def _sign_patterns(k):
    """All 2^k sign vectors (rows) and the product of each row's signs."""
    eps = np.array(list(itertools.product((1.0, -1.0), repeat=k))).reshape(-1, k)
    return eps, np.prod(eps, axis=1)


def _kept_tails(a_kept, nus, N):
    """Int_N^inf prod sinc(a_i u) cos(w u) du for each column of ``nus``,
    with an absolute roundoff bound for each.

    The sine product expands into the combination frequencies
    nu = +-a_1 +- ... +-a_k +- w; a column holds them for one w, the 2^k
    sign rows of ``_sign_patterns`` with + w and then with - w.  Each term
    reduces to a cosine/sine tail integral of a pure power k.  The
    recurrence that builds it from Si/Ci multiplies their error by
    |nu|^(k-1)/(k-1)!, and its p-th step adds an eps share of
    cos(nu N)/N^(p-1), multiplied in turn by |nu|^(k-p)/(k-p)!: in all
    N^(1-k) sum_q (|nu| N)^q / q! over q < k for each term.
    """
    k = a_kept.size
    half = nus.shape[0] // 2
    c_int, s_int = _tail_integrals(nus.ravel(), N, k)
    g = (s_int if k % 2 else c_int).reshape(nus.shape)
    # the expansion takes C, S, -C, -S for k = 0, 1, 2, 3 mod 4
    scale = (-1.0 if k % 4 >= 2 else 1.0) / (2.0 ** (k + 1) * float(np.prod(a_kept)))
    values = (_sign_patterns(k)[1] @ (g[:half] + g[half:])) * scale
    # the bound grows with |nu|, so the largest |nu| of each column bounds
    # every term
    y = np.max(np.abs(nus), axis=0) * N
    growth = 1.0
    for q in range(k - 1, 0, -1):
        growth = 1.0 + growth * y / q
    # Si and Ci carry up to 16 eps absolute; the final sum adds one eps of
    # each term per term
    errs = 16.0 * _EPS * abs(scale) * nus.shape[0] * (
        growth / N ** (k - 1) + np.abs(g).sum(axis=0))
    return values, errs


@functools.lru_cache(maxsize=None)
def _gauss_rule(m):
    """m-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(m)


#: Coordinates up to this size leave the closed-form tail: expanding one of
#: size e makes nearly cancelling frequency pairs nu +- e scaled by 1/e.
TINY_COORD = 1e-4


def _tiny_average_rule(tiny, cuts, k, N, tol):
    """Shifts s and weights w with sum w f(s) the average of
    f(s_1 + ... + s_j) over independent s_i uniform on [-tiny_i, tiny_i],
    and a bound on the rule's error in units of the scale of f.

    f is the tail of k kept coordinates: smooth on the scale 1/N except at
    the shifts ``cuts``, where a term |s - c|^(k-1) (times a sign or a log)
    makes a jump (k = 1), a kink (k = 2) or a milder break.  Each s_i,
    largest first, gets the midpoint if its error bound stays below ``tol``
    and two Gauss points otherwise.  With cuts in reach, an interval of s_i
    is split wherever the span of the smaller s can reach a cut: between
    those points the average over the n smaller s is a smooth function plus
    a polynomial of degree k - 1 + n (up to logs once k >= 3), and s_i gets
    enough points to integrate it exactly.
    """
    tiny = np.sort(tiny)[::-1]
    shifts, weights, err = np.zeros(1), np.ones(1), 0.0
    for i, e in enumerate(tiny.tolist()):
        # an m-point Gauss average over a width-h interval errs by less than
        # (h N)^(2m) / ((2m)! (2m+1)) in units of the scale of f
        mid_err = (2.0 * e * N) ** 2 / 6.0
        m = 1 if mid_err <= tol else 2
        err += mid_err if m == 1 else (2.0 * e * N) ** 4 / 120.0
        if cuts.size == 0:
            if m == 2:  # the midpoint leaves shifts and weights as they are
                x, w = _gauss_rule(2)
                shifts = np.add.outer(shifts, e * x).ravel()
                weights = np.multiply.outer(weights, 0.5 * w).ravel()
            continue
        inner = np.zeros(1)
        for r in tiny[i + 1:]:
            inner = np.concatenate([inner - r, inner + r])
        x, w = _gauss_rule(max(m, (min(k, 3) + tiny.size - i) // 2))
        new_s, new_w = [], []
        for s0, w0 in zip(shifts.tolist(), weights.tolist()):
            stops = np.subtract.outer(cuts - s0, inner).ravel()
            edges = np.concatenate([[-e], np.sort(stops[np.abs(stops) < e]), [e]])
            half = 0.5 * np.diff(edges)
            mid = 0.5 * (edges[1:] + edges[:-1])
            new_s.append(s0 + (mid[:, None] + half[:, None] * x).ravel())
            new_w.append(w0 / (2.0 * e) * (half[:, None] * w).ravel())
        shifts, weights = np.concatenate(new_s), np.concatenate(new_w)
    return shifts, weights, err


def _tail_closed_form(a_pos, omega, N, tol=0.0):
    """(value, err_estimate) of Int_N^inf prod sinc(a_i u) cos(omega u) du.

    ``omega`` is a float or a sequence of floats whose exact sum it is; the
    frequencies nu = +-a_1 +- ... +- omega that nearly cancel are summed
    exactly from those parts, since a vanishing nu is where the tail jumps.

    Coordinates above TINY_COORD are expanded in closed form
    (``_kept_tails``).  A tiny coordinate e enters through
    sinc(e u) = (1/2e) Int_{-e}^{e} cos(s u) ds: folding the product of
    cosines into cos((omega + s_1 + ... + s_j) u) makes the tail the kept
    tail averaged over the shifts s_i, each uniform on [-e_i, e_i], which
    ``_tiny_average_rule`` evaluates at a few points, the fewer the larger
    the allowed rule error ``tol``.  The err adds the roundoff of every
    evaluation and the rule's error, in units of the kept tail's derivative
    scale 4 N^n / (N^(k-1) prod a).  The expansion has 2^(k+1)
    frequencies, and raises CapacityError before building them when that
    exceeds ``geometry.MAX_TERMS``.
    """
    parts = np.atleast_1d(np.asarray(omega, dtype=float))
    omega = math.fsum(parts)
    tiny = a_pos[a_pos <= TINY_COORD]
    kept = a_pos[a_pos > TINY_COORD]
    k = kept.size
    if 2 ** (k + 1) > MAX_TERMS:
        raise CapacityError(
            f"the closed-form tail of {k} coordinates has 2^{k + 1} frequencies, "
            f"more than {MAX_TERMS}")
    signs = _sign_patterns(k)[0]
    base = signs @ kept
    nu0 = np.concatenate([base + omega, base - omega])
    # a frequency within reach of the shifts places a jump or kink inside
    # the averaged window; its rounding would move that point
    reach = float(np.sum(tiny))
    for i in np.flatnonzero(np.abs(nu0) < 1e-6 + 2.0 * reach).tolist():
        row = signs[i % base.size] * kept
        nu0[i] = math.fsum(np.concatenate([row, parts if i < base.size else -parts]))
    # the kept tail has a kink or jump at every shift s that zeroes a
    # frequency: s = base - omega (a frequency -base - omega - s is the same)
    cuts = nu0[base.size:]
    cuts = cuts[np.abs(cuts) < reach]
    if cuts.size:  # skip np.unique when empty: its first call imports numpy.ma
        cuts = np.unique(cuts)
    unit = 4.0 / (float(np.prod(kept)) * N ** (k - 1))
    shifts, weights, rule_err = _tiny_average_rule(tiny, cuts, k, N, tol / unit)
    half = base.size
    nus = np.concatenate([nu0[:half, None] + shifts, nu0[half:, None] - shifts])
    values, errs = _kept_tails(kept, nus, N)
    return float(weights @ values), float(weights @ errs) + rule_err * unit


def section_volume_integral(spec: SectionSpec, cfg: QuadratureConfig | None = None) -> VolumeResult:
    """(d-1)-volume of the section via the sinc-product integral.

    ``cfg`` must be ``make_quadrature_config(spec, cfg.abs_tol)``: another
    spec's truncation leaves err no bound.  The quadrature never reads the
    vertex count: ``cut`` is None on a cut with more grouped terms than
    ``classify_cut`` counts, and the value and err are returned all the same.
    A closed-form tail past its term cap raises CapacityError before any
    panel is evaluated."""
    if cfg is None:
        cfg = make_quadrature_config(spec)
    elif cfg != make_quadrature_config(spec, cfg.abs_tol):
        raise InvalidInputError("the quadrature config was made for another spec")
    a = spec.direction
    a_pos = np.sort(a[a > 0.0])
    norm = cfg.norm
    # omega = 2 t ||a|| = sum(a) - 2 b (negative for b > sum(a)/2), taken from
    # the offset as the vertex sum does; its exact parts also go to the tail
    omega_parts = np.append(a_pos, -2.0 * spec.offset)
    omega = math.fsum(omega_parts)
    prefactor = norm / math.pi
    half_period = math.pi / (float(a_pos[-1]) + abs(omega))

    def f(u):
        return sinc_product_integrand(a_pos, omega, u)

    budget = cfg.abs_tol * math.pi / (4.0 * norm)
    tail_val = tail_err = 0.0
    if cfg.analytic_tail:  # before the panels, so a tail past its cap fails fast
        # the tail may spend a thousandth of the budget on its tiny coordinates
        tail_val, tail_err = _tail_closed_form(a_pos, omega_parts, cfg.trunc_N, 1e-3 * budget)
    part, qerr, _ = adaptive_panel_integral(
        f, 0.0, cfg.trunc_N, budget, max_panels=MAX_PANELS, max_width=half_period
    )
    value = 2.0 * prefactor * part + 2.0 * prefactor * tail_val
    err = 2.0 * prefactor * qerr + 2.0 * prefactor * tail_err
    if not cfg.analytic_tail:
        err += tail_bound(cfg, cfg.trunc_N)
    return VolumeResult(value=max(value, 0.0), method="integral", err=err,
                        cut=countable_cut(spec))
