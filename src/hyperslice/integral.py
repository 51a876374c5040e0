"""Section volume as an oscillatory sinc-product integral.

The (d-1)-volume of the section {a.x = b} of [0,1]^d equals

    (||a||/pi) * Integral_{-inf}^{inf}  prod_i sinc(a_i u) * cos(2 t ||a|| u) du,

with sinc(x) = sin(x)/x, sinc(0) = 1, and t the distance from the hyperplane
to the cube center.  The integrand is even, so twice the [0, N] integral is
computed with adaptive Gauss panels.  The discarded tail obeys
|integrand| <= min(1, 1/(m2 u^2)) where m2 is the product of the two smallest
positive coordinates, which fixes the truncation point N; when that N is
impractically large, integration stops at a moderate N and the remaining tail
is evaluated in closed form through sine/cosine-integral recurrences applied
to the product-to-sum expansion of the integrand.  Si and Ci are evaluated
here (``_sici``) from their power series, their asymptotic series and the
continued fraction of E1(ix) (Abramowitz & Stegun 5.2), so the module needs
numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NonintegrableTailError
from .geometry import SectionSpec, VolumeResult, ZERO_COORD_TOL, classify_cut

_EPS = float(np.finfo(float).eps)

#: Largest truncation point integrated entirely with panels; bounds requiring
#: more are handled by the closed-form tail.
TRUNC_CAP = 4096.0

#: Truncation point used when the closed-form tail takes over.
ANALYTIC_TAIL_N = 256.0

_GAUSS_LO = np.polynomial.legendre.leggauss(7)
_GAUSS_HI = np.polynomial.legendre.leggauss(15)

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


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float
    max_panels: int
    trunc_N: float
    m2: float
    analytic_tail: bool
    n_pos: int
    m_tail: float
    norm: float


def make_quadrature_config(
    spec: SectionSpec, abs_tol: float = 1e-9, max_panels: int = 200_000
) -> QuadratureConfig:
    """Derive truncation data for a spec from the integrand's tail bounds.

    Two rigorous bounds are available: 1/(m2 u^2) from the two smallest
    positive coordinates, and for n >= 4 positive coordinates the faster
    1/(m u^(n-1)) decay, m the product of the n-1 largest; the smaller
    resulting N wins.  |sinc(x)| <= min(1, 1/|x|) bounds the product by
    1/(prod_J a_i u^|J|) for any subset J, so leaving out the smallest
    coordinate keeps one tiny coordinate from forcing the closed-form tail.
    """
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be positive")
    a_pos = np.sort(spec.direction[spec.direction > ZERO_COORD_TOL])
    n_pos = a_pos.size
    if n_pos < 2:
        raise NonintegrableTailError(
            "the sinc-product integral needs at least two positive coordinates"
        )
    norm = float(np.linalg.norm(spec.direction))
    m2 = float(a_pos[0] * a_pos[1])
    n_from_m2 = 4.0 * norm / (math.pi * m2 * abs_tol)
    candidates = [n_from_m2]
    m_tail = m2
    if n_pos >= 4:
        j = n_pos - 1
        m_tail = float(np.prod(a_pos[-j:]))
        candidates.append(
            (4.0 * norm / (math.pi * m_tail * (j - 1) * abs_tol)) ** (1.0 / (j - 1))
        )
    trunc = max(min(candidates), 1.0)
    analytic = trunc > TRUNC_CAP
    if analytic:
        trunc = ANALYTIC_TAIL_N
    return QuadratureConfig(
        abs_tol=abs_tol,
        max_panels=max_panels,
        trunc_N=trunc,
        m2=m2,
        analytic_tail=analytic,
        n_pos=n_pos,
        m_tail=m_tail,
        norm=norm,
    )


def sinc_product_integrand(a, omega: float, u):
    """prod_i sinc(a_i u) * cos(omega u), with sinc(0) = 1; even in u."""
    a = np.asarray(a, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    prods = np.prod(np.sinc(np.multiply.outer(u_arr, a) / np.pi), axis=-1)
    out = prods * np.cos(omega * u_arr)
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def tail_bound(cfg: QuadratureConfig, N: float) -> float:
    """Bound on the magnitude of the discarded |u| > N part of the volume
    integral: 2 (||a||/pi) * Integral_N^inf du/(m2 u^2)."""
    if not N > 0.0:
        raise ValueError("N must be positive")
    return 2.0 * cfg.norm / (math.pi * cfg.m2 * N)


def tail_bound_sharp(cfg: QuadratureConfig, N: float) -> float:
    """Tail bound from the u^-(n-1) decay of the n-1 largest of n >= 4
    positive coordinates."""
    if not N > 0.0:
        raise ValueError("N must be positive")
    if cfg.n_pos < 4:
        return math.inf
    j = cfg.n_pos - 1
    return 2.0 * cfg.norm / (math.pi * cfg.m_tail * (j - 1) * N ** (j - 1))


def adaptive_panel_integral(f, lo, hi, abs_budget, max_panels=200_000, max_width=None):
    """Integrate f over [lo, hi] by bisection-refined Gauss panels.

    f must accept a 1-d node array.  A panel's error is estimated as the
    difference between its 15-point and 7-point Gauss values; panels are
    bisected until the estimates sum below abs_budget.  Returns
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
    """15-point Gauss values and |G15 - G7| estimates for a batch of panels."""
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    x15, w15 = _GAUSS_HI
    x7, w7 = _GAUSS_LO
    nodes15 = mid[:, None] + half[:, None] * x15[None, :]
    nodes7 = mid[:, None] + half[:, None] * x7[None, :]
    f15 = f(nodes15.ravel()).reshape(nodes15.shape)
    f7 = f(nodes7.ravel()).reshape(nodes7.shape)
    g15 = half * (f15 @ w15)
    g7 = half * (f7 @ w7)
    return g15, np.abs(g15 - g7)


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
    i (Si(x) - pi/2) comes from its continued fraction, element by element:
    it takes about 50 steps at x = 4 and 10 at x = 40, and the tail passes
    few such x (the nearly cancelling frequencies), so a Python loop per
    element beats an array loop that runs until the slowest one converges.
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
        e1 = np.array([_e1_lentz(v) for v in xm.tolist()]) * np.exp(-1j * xm)
        si[mid] = 0.5 * math.pi + e1.imag
        ci[mid] = -e1.real
    return si, ci


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


def _tail_closed_form(a_pos, omega, N):
    """(value, err_estimate) of Int_N^inf prod sinc(a_i u) cos(omega u) du.

    Expands the sine product into combination frequencies; each term reduces
    to a cosine/sine tail integral of a pure power.
    """
    k = a_pos.size
    eps = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
    sgn = np.prod(eps, axis=1)
    base = eps @ a_pos
    nus = np.concatenate([base + omega, base - omega])
    coefs = np.concatenate([sgn, sgn])
    c_int, s_int = _tail_integrals(nus, N, k)
    r = k % 4
    if r == 0:
        g = c_int
    elif r == 1:
        g = s_int
    elif r == 2:
        g = -c_int
    else:
        g = -s_int
    scale = 1.0 / (2.0 ** (k + 1) * float(np.prod(a_pos)))
    value = float(np.dot(coefs, g)) * scale
    # recurrence roundoff grows roughly with the frequency powers involved
    growth = max(1.0, float(np.max(np.abs(nus))) ** (k - 1) / math.factorial(k - 1))
    err = _EPS * growth * float(np.sum(np.abs(g))) * scale * 8.0
    return value, err


def section_volume_integral(spec: SectionSpec, cfg: QuadratureConfig | None = None) -> VolumeResult:
    """(d-1)-volume of the section via the sinc-product integral."""
    if cfg is None:
        cfg = make_quadrature_config(spec)
    a = spec.direction
    a_pos = np.sort(a[a > ZERO_COORD_TOL])
    if a_pos.size < 2:
        raise NonintegrableTailError(
            "the sinc-product integral needs at least two positive coordinates"
        )
    norm = cfg.norm
    omega = 2.0 * spec.radius * norm
    prefactor = norm / math.pi
    half_period = math.pi / (float(a_pos[-1]) + omega)

    def f(u):
        return sinc_product_integrand(a_pos, omega, u)

    budget = cfg.abs_tol * math.pi / (4.0 * norm)
    part, qerr, _ = adaptive_panel_integral(
        f, 0.0, cfg.trunc_N, budget, max_panels=cfg.max_panels, max_width=half_period
    )
    value = 2.0 * prefactor * part
    err = 2.0 * prefactor * qerr
    if cfg.analytic_tail:
        tail_val, tail_err = _tail_closed_form(a_pos, omega, cfg.trunc_N)
        value += 2.0 * prefactor * tail_val
        err += 2.0 * prefactor * tail_err
    else:
        err += min(tail_bound(cfg, cfg.trunc_N), tail_bound_sharp(cfg, cfg.trunc_N))
    return VolumeResult(
        value=max(value, 0.0),
        method="integral",
        err=err,
        cut=classify_cut(spec),
    )
