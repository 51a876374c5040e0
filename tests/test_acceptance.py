"""End-to-end acceptance suite.

Each test checks one advertised guarantee at its stated tolerance and prints
a PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from hyperslice.certificates import (
    certify_signs_rigorous,
    default_y_grid,
    quad_coeffs,
    quad_roots,
    sign_certificates,
)
from hyperslice.geometry import diagonal_section_spec, make_section_spec
from hyperslice.integral import make_quadrature_config, section_volume_integral
from hyperslice.maximizer import (
    closed_form_max,
    decay_inequality_check,
    lagrangian_gradient,
    maximize_section_volume,
)
from hyperslice.montecarlo import mc_section_volume
from hyperslice.vertexsum import (
    section_from_halfspace_derivative,
    section_volume_vertex_sum,
)

from conftest import corner_spec, edge_spec, rng_for, random_unit_direction, smooth_cell_spec


_C1_MC_SAMPLES = 10**6


def _c1_run_one(params):
    d, coords, t, mc_seed = params
    spec = make_section_spec(np.array(coords), t)
    vs = section_volume_vertex_sum(spec).value
    cfg = make_quadrature_config(spec, abs_tol=1e-7)
    integral = section_volume_integral(spec, cfg).value
    est, se = mc_section_volume(spec, _C1_MC_SAMPLES, seed=mc_seed)
    return d, vs, integral, est, se


def test_01_cross_method_agreement():
    """Vertex sum, integral, and Monte Carlo agree on random specs.

    The integral must match within 1e-6 * max(1, value).  The Monte Carlo
    estimate carries sampling noise: a 3-sigma band (widened by the Poisson
    counting floor 6*area/n that a zero-hit run cannot beat) must cover at
    least 99% of trials, the estimator's guaranteed consistency rate, and a
    6-sigma band must cover every trial.  The workload is process-parallel;
    every seed is fixed up front, so results do not depend on scheduling.
    """
    t_start = time.time()
    rng = rng_for(2024)
    jobs = []
    for d in range(3, 9):
        for _ in range(100):
            a = random_unit_direction(rng, d)
            t = float(rng.uniform(0.0, 1.0)) * float(np.sum(a)) / 2
            jobs.append((d, tuple(map(float, a)), t, int(rng.integers(2**31))))
    workers = min(4, os.cpu_count() or 1)
    if workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(_c1_run_one, jobs, chunksize=16)
    else:
        results = [_c1_run_one(job) for job in jobs]
    mc_soft_misses = 0
    for d, vs, integral, est, se in results:
        assert abs(integral - vs) <= 1e-6 * max(1.0, vs)
        disk = math.pi ** ((d - 1) / 2) / math.gamma((d + 1) / 2) * (math.sqrt(d) / 2) ** (d - 1)
        floor = 6.0 * disk / _C1_MC_SAMPLES
        diff = abs(est - vs)
        mc_soft_misses += diff > 3 * se + floor
        assert diff <= 6 * se + floor
    assert mc_soft_misses <= len(results) // 100
    elapsed = time.time() - t_start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 01 cross-method agreement: PASS "
          f"({len(results)} specs, {mc_soft_misses} outside 3-sigma, {elapsed:.1f}s)")


def _check_maximizer_band(d_values, band, label, budget_s):
    t_start = time.time()
    for d in d_values:
        lo, hi = band(d)
        for t in np.linspace(lo, hi, 12)[1:-1]:
            rep = maximize_section_volume(d, float(t), starts=64, seed=0)
            assert rep.angle_to_diagonal < 1e-4, (d, t)
            assert abs(rep.best_volume - rep.diagonal_volume) < 1e-9 * rep.diagonal_volume, (d, t)
    elapsed = time.time() - t_start
    assert elapsed < budget_s
    print(f"\nACCEPTANCE {label}: PASS ({elapsed:.1f}s)")


def test_02_corner_regime_maximizer():
    """For d in {3,4} and radii between the edge-midpoint and vertex
    distances, the optimizer lands on the diagonal every time."""
    _check_maximizer_band(
        (3, 4),
        lambda d: (math.sqrt(d - 1) / 2, math.sqrt(d) / 2),
        "02 corner-regime maximizer",
        budget_s=600,
    )


def test_03_edge_regime_maximizer():
    """For d in {5,6,7} and radii down to the square-face-center distance,
    the optimizer still lands on the diagonal."""
    _check_maximizer_band(
        (5, 6, 7),
        lambda d: (math.sqrt(d - 2) / 2, math.sqrt(d) / 2),
        "03 main-regime maximizer",
        budget_s=600,
    )


def test_04_diagonal_closed_form():
    """Vertex sums at the diagonal match the closed form to 1e-12 relative."""
    for d in range(3, 13):
        lo, hi = math.sqrt(d - 1) / 2, math.sqrt(d) / 2
        for k in range(20):
            t = lo + (k + 0.5) * (hi - lo) / 20
            value = section_volume_vertex_sum(diagonal_section_spec(d, t)).value
            expect = closed_form_max(d, t)
            assert abs(value - expect) <= 1e-12 * expect, (d, t)
    print("\nACCEPTANCE 04 diagonal closed form: PASS")


def test_05_decay_inequality():
    """Consecutive-dimension diagonal volumes decay across the whole band,
    and the rewritten d=5 comparison splits at 0.7."""
    for d in range(5, 61):
        lo, hi = math.sqrt(d - 2) / 2, math.sqrt(d - 1) / 2
        for t in np.linspace(lo, hi, 100):
            lhs, rhs, holds = decay_inequality_check(d, float(t))
            assert holds, (d, t, lhs, rhs)
    lhs, rhs, _ = decay_inequality_check(5, math.sqrt(3) / 2)
    assert lhs > 0.7 > rhs
    print("\nACCEPTANCE 05 decay inequality: PASS (d=5..60)")


def test_06_sign_certificates():
    """All three sign conditions hold on dense grids for d in {6..40}; the
    leading coefficient alone already for d in {4,5}; the exact Bernstein
    form certifies d in {6..12} and {24, 30, 40, 60, 120} rigorously."""
    grid = default_y_grid(10_000)
    for d in range(6, 41):
        rep = sign_certificates(d, grid)
        assert rep.max_lead_coeff < 0, d
        assert rep.max_slope_at_one < 0, d
        assert rep.max_value_at_one < 0, d
    for d in (4, 5):
        assert sign_certificates(d, grid).max_lead_coeff < 0, d
    for d in (*range(6, 13), 24, 30, 40, 60, 120):
        assert all(certify_signs_rigorous(d).values()), d
    print("\nACCEPTANCE 06 sign certificates: PASS "
          "(grids d=6..40, rigorous d=6..12, 24, 30, 40, 60, 120)")


def test_07_d5_quadratic_roots():
    """The d=5 stationarity quadratic factors through y+1 and (y^2+1)/(y+1)."""
    ys = np.arange(1, 1001) / 1001.0
    for y in ys:
        roots = quad_roots(quad_coeffs(5, float(y)))
        expect = sorted([(y * y + 1) / (y + 1), y + 1.0])
        assert len(roots) == 2
        assert abs(roots[0] - expect[0]) <= 1e-10
        assert abs(roots[1] - expect[1]) <= 1e-10
    print("\nACCEPTANCE 07 d=5 quadratic roots: PASS (1000 grid points)")


def test_08_gradient_correctness():
    """Analytic corner/edge Lagrangian gradients match central differences
    of the volume objective to 1e-5 relative."""

    def lagrangian_fd(spec, lam, h=1e-6):
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

    rng = rng_for(88)
    for d in (5, 8):
        for make in (corner_spec, edge_spec):
            for _ in range(50):
                spec = make(rng, d)
                lam = float(rng.uniform(-1, 1))
                grad, analytic = lagrangian_gradient(spec, lam)
                assert analytic
                fd = lagrangian_fd(spec, lam)
                rel = np.linalg.norm(grad - fd) / np.linalg.norm(grad)
                assert rel <= 1e-5, (d, make.__name__, rel)
    print("\nACCEPTANCE 08 gradient correctness: PASS (50 specs x 2 regimes x d=5,8)")


def test_09_eulerian_sections():
    """Diagonal sections at integer lattice offsets are Eulerian-number
    multiples of sqrt(d)/(d-1)!.  Offsets past the center are reached by the
    x -> 1-x symmetry of the cube, matching the palindromic table."""
    eulerian = {2: (1, 1), 3: (1, 4, 1), 4: (1, 11, 11, 1)}
    for d in (3, 4, 5):
        for s in range(1, d):
            t = max(math.sqrt(d) / 2 - min(s, d - s) / math.sqrt(d), 0.0)
            value = section_volume_vertex_sum(diagonal_section_spec(d, t)).value
            expect = math.sqrt(d) * eulerian[d - 1][s - 1] / math.factorial(d - 1)
            assert abs(value - expect) <= 1e-12 * expect, (d, s)
    print("\nACCEPTANCE 09 Eulerian sections: PASS (d=3,4,5)")


def test_10_derivative_identity():
    """Differencing the half-space volume in the radius reproduces the
    section volume inside smooth cells."""
    rng = rng_for(99)
    count = 0
    for d in (3, 4, 5, 6):
        for _ in range(25):
            spec = smooth_cell_spec(rng, d)
            fd = section_from_halfspace_derivative(spec, 1e-5)
            vs = section_volume_vertex_sum(spec).value
            assert abs(fd - vs) <= 1e-7, (d, spec.radius)
            count += 1
    print(f"\nACCEPTANCE 10 derivative identity: PASS ({count} specs)")
