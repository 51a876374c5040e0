import itertools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hyperslice import integral
from hyperslice.errors import (
    CapacityError,
    ConvergenceError,
    InvalidInputError,
    NonintegrableTailError,
)
from hyperslice.geometry import diagonal_section_spec, make_section_spec
from hyperslice.integral import (
    TINY_COORD,
    _sici,
    _tail_closed_form,
    _tiny_average_rule,
    adaptive_panel_integral,
    make_quadrature_config,
    section_volume_integral,
    sinc_product_integrand,
    tail_bound,
)
from hyperslice.maximizer import closed_form_max
from hyperslice.montecarlo import mc_section_volume
from hyperslice.vertexsum import section_volume_vertex_sum

from conftest import exact_section_bounds, rng_for, random_unit_direction


class TestIntegrand:
    def test_value_at_zero(self):
        assert sinc_product_integrand([0.3, 0.7], 1.2, 0.0) == 1.0

    def test_sinc_zero(self):
        a = np.full(2, 1 / math.sqrt(2))
        u = math.pi * math.sqrt(2)
        assert sinc_product_integrand(a, 0.0, u) == pytest.approx(0.0, abs=1e-16)

    def test_envelope_bound(self):
        rng = rng_for(2)
        for _ in range(10):
            d = int(rng.integers(2, 8))
            a = random_unit_direction(rng, d)
            spec = make_section_spec(a, float(rng.uniform(0, 0.6)))
            cfg = make_quadrature_config(spec)
            omega = 2 * spec.radius
            u = np.concatenate([np.linspace(1e-3, 50, 4001), np.linspace(50, 5000, 997)])
            vals = np.abs(sinc_product_integrand(spec.direction, omega, u))
            envelope = np.minimum(1.0, 1.0 / (cfg.m2 * u * u))
            assert np.all(vals <= envelope * (1 + 1e-12) + 1e-15)

    def test_even_in_u(self):
        a = [0.5, 0.6, 0.3]
        u = np.linspace(0.1, 20, 57)
        assert np.array_equal(
            sinc_product_integrand(a, 0.7, u), sinc_product_integrand(a, 0.7, -u)
        )

    def test_matches_np_sinc_product(self):
        # the row-wise product against np.sinc on the whole (nodes, d) array,
        # with a zero and a subnormal coordinate and u from 0 to 4096.  A
        # relative argument error eps moves sin(y)/y by up to eps |cos y|,
        # which is eps y in units of that factor's envelope min(1, 1/y), and
        # np.sinc rounds its argument three times (x, x/pi, pi (x/pi)); so
        # the two agree within a few eps of the envelope
        # prod_i min(1, 1/(a_i u)) times sum_i max(1, a_i u)
        rng = rng_for(41)
        eps = np.finfo(float).eps
        for _ in range(40):
            d = int(rng.integers(2, 13))
            a = rng.permutation(np.append(random_unit_direction(rng, d), [0.0, 1e-310]))
            u = np.concatenate([[0.0], rng.uniform(0.0, 5.0, 100),
                                rng.uniform(0.0, 4096.0, 100),
                                10.0 ** rng.uniform(-20.0, math.log10(4096.0), 50)])
            omega = float(rng.uniform(0.0, 3.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = sinc_product_integrand(a, omega, u)
                mirrored = sinc_product_integrand(a, omega, -u)
                scalar = sinc_product_integrand(a, omega, float(u[-1]))
                ref = (np.prod(np.sinc(np.multiply.outer(u, a) / np.pi), axis=-1)
                       * np.cos(omega * u))
            assert vals[0] == 1.0
            assert np.array_equal(vals, mirrored)
            y = np.maximum(1.0, np.multiply.outer(u, a))
            tol = 4 * eps * np.prod(1.0 / y, axis=-1) * y.sum(axis=-1)
            assert np.all(np.abs(vals - ref) <= tol)
            assert isinstance(scalar, float) and abs(scalar - ref[-1]) <= tol[-1]

    def test_scratch_does_not_grow_with_dimension(self):
        # the product over a (nodes, d) array held 1000 times the nodes'
        # bytes at d = 250; one coordinate at a time it holds three
        # node-length vectors
        u = np.linspace(0.0, 4096.0, 15 * 4096)
        a = rng_for(250).random(250) + 0.5
        tracemalloc.start()
        try:
            sinc_product_integrand(a, 1.3, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * u.nbytes


class TestSici:
    # log-spaced over the whole range, linear across the three branches,
    # the neighbouring floats of both branch points, and in the continued
    # fraction's range (4, 40) exact repeats and runs 1e-6 to 1e-2 apart, as
    # a tail asks for at |nu| and |-nu| and at shifts by tiny coordinates
    POINTS = np.concatenate([
        np.logspace(-10, 7, 120),
        np.linspace(0.01, 60, 240),
        [np.nextafter(x, side) for x in (4.0, 40.0) for side in (0.0, x, math.inf)],
        np.add.outer([4.0 + 1e-9, 4.3, 9.87, 17.1, 31.4, 39.95],
                     [0.0, 0.0, 1e-6, 3e-6, 1e-5, 1e-4, 1e-3, 1e-2]).ravel(),
    ])

    def test_matches_40_digit_reference(self):
        si, ci = _sici(self.POINTS)
        with mpmath.workdps(40):
            for x, s, c in zip(self.POINTS.tolist(), si.tolist(), ci.tolist()):
                ref_si, ref_ci = mpmath.si(x), mpmath.ci(x)
                assert abs(s - ref_si) <= 8 * math.ulp(float(ref_si)), x
                assert abs(c - ref_ci) <= 1e-14, x


class TestTailBounds:
    def test_closed_form_value(self):
        spec = make_section_spec([0.5, 0.5, math.sqrt(0.5)], 0.1)
        cfg = make_quadrature_config(spec)
        assert cfg.m2 == pytest.approx(0.25)
        assert tail_bound(cfg, 1e6) == pytest.approx(2 / (math.pi * 0.25 * 1e6), rel=1e-12)
        assert tail_bound(cfg, 1e6) == pytest.approx(2.546e-6, rel=1e-3)

    def test_monotone_and_vanishing(self):
        spec = make_section_spec([1, 1, 1, 1], 0.3)
        cfg = make_quadrature_config(spec)
        ns = np.logspace(1, 9, 30)
        vals = [tail_bound(cfg, float(n)) for n in ns]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 1e-8

    def test_large_n_at_high_dimension(self):
        # N^(n-2) overflows a float at d = 40, N = 1e9; in logs the bound of
        # the 39 largest coordinates stands, far below the m2 bound
        spec = make_section_spec([1.0 + i / 64 for i in range(40)], 0.0)
        cfg = make_quadrature_config(spec)
        largest = np.sort(spec.direction)[1:]
        exact = 2 * mpmath.mpf(cfg.norm) / (
            mpmath.pi * mpmath.fprod(largest.tolist()) * 38 * mpmath.mpf(1e9) ** 38)
        assert tail_bound(cfg, 1e9) == pytest.approx(float(exact), rel=1e-9)
        assert tail_bound(cfg, 1e9) < 1e-300 * 2 * cfg.norm / (math.pi * cfg.m2 * 1e9)

    def test_discarded_tail_within_bound(self):
        # actually integrate the tail and compare against the bound
        spec = diagonal_section_spec(5, 1.0)
        cfg = make_quadrature_config(spec)
        omega = 2 * spec.radius
        for n0 in (50.0, 200.0):
            val, err = _tail_closed_form(np.sort(spec.direction), omega, n0)
            assert abs(2 / math.pi * val) <= tail_bound(cfg, n0)


class TestHighDimension:
    @pytest.mark.parametrize("d", [280, 300, 400])
    def test_deep_diagonal_cut(self, d):
        # the product of the n-1 largest coordinates underflows from d of
        # about 280 up; the truncation point is taken in logs
        t = 0.3 * math.sqrt(d)
        res = section_volume_integral(diagonal_section_spec(d, t))
        assert res.err <= 1e-8
        assert abs(res.value - closed_form_max(d, t)) <= res.err

    def test_distinct_coordinates_at_d250(self):
        # a subnormal product once sent the truncation point to inf and the
        # closed-form tail into 2^249 sign patterns
        spec = make_section_spec(rng_for(250).random(250) + 0.5, 7.0)
        assert not make_quadrature_config(spec).analytic_tail
        res = section_volume_integral(spec)
        assert 0.0 <= res.value <= res.err <= 1e-8

    def test_closed_form_tail_past_cap_fails_fast(self):
        # every coordinate is kept and N > TRUNC_CAP: 2^23 frequencies
        a = np.array([1.0] + [2e-4] * 21)
        spec = make_section_spec(a, 0.3 * float(np.sum(a / np.linalg.norm(a))))
        assert make_quadrature_config(spec).analytic_tail
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            section_volume_integral(spec)
        assert time.perf_counter() - start < 0.1


class TestClosedFormTail:
    def test_matches_panel_integration(self):
        # the difference of two closed-form tails is a finite-window integral
        # that panel quadrature can check directly
        rng = rng_for(17)
        for _ in range(8):
            d = int(rng.integers(2, 7))
            a = np.sort(random_unit_direction(rng, d))
            omega = float(rng.uniform(0.0, 2.5))
            n0 = float(rng.uniform(30.0, 120.0))
            far = n0 + float(rng.uniform(200.0, 600.0))

            def f(u):
                return sinc_product_integrand(a, omega, u)

            near_val, _ = _tail_closed_form(a, omega, n0)
            far_val, _ = _tail_closed_form(a, omega, far)
            brute, _, _ = adaptive_panel_integral(
                f, n0, far, 1e-13, max_panels=400_000,
                max_width=math.pi / (float(a[-1]) + omega + 1e-9),
            )
            assert near_val - far_val == pytest.approx(brute, abs=2e-12)


class TestSectionVolumeIntegral:
    def test_square_diagonal_length(self):
        res = section_volume_integral(make_section_spec([1, 1], 0.0))
        assert res.value == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_square_chord_length(self):
        res = section_volume_integral(make_section_spec([1, 1], 0.2))
        assert res.value == pytest.approx(math.sqrt(2) - 0.4, abs=1e-9)

    def test_matches_vertex_sum_on_diagonal_d5(self):
        spec = diagonal_section_spec(5, 1.0)
        res = section_volume_integral(spec)
        assert res.value == pytest.approx(
            section_volume_vertex_sum(spec).value, abs=1e-9
        )

    def test_cross_method_random_specs(self):
        rng = rng_for(23)
        for d in range(3, 9):
            for _ in range(4):
                a = random_unit_direction(rng, d)
                t = float(rng.uniform(0.0, 1.0)) * float(np.sum(a)) / 2
                spec = make_section_spec(a, t)
                vs = section_volume_vertex_sum(spec)
                cfg = make_quadrature_config(spec, abs_tol=1e-8)
                res = section_volume_integral(spec, cfg)
                assert abs(res.value - vs.value) <= cfg.abs_tol + vs.err

    @pytest.mark.parametrize("a", [
        random_unit_direction(rng_for(20), 20),
        [1.0 + i / 64 for i in range(40)],
    ], ids=["d20", "d40"])
    def test_uncountable_cut_keeps_its_value(self, a):
        # distinct coordinates at t = 0 have more grouped vertex terms than
        # classify_cut counts; the quadrature never reads the count
        spec = make_section_spec(a, 0.0)
        res = section_volume_integral(spec)
        assert res.cut is None
        assert math.isfinite(res.value) and res.err < 1e-8
        est, se = mc_section_volume(spec, 200_000, seed=1)
        assert abs(res.value - est) <= 4 * se

    def test_needs_two_positive_coordinates(self):
        with pytest.raises(NonintegrableTailError):
            section_volume_integral(make_section_spec([1, 0, 0], 0.2))

    def test_refuses_config_of_another_spec(self):
        # the config of [1, 2, 3, 4, 5] truncates [1, 2, 3] where its own
        # bound says: off by 1.1e-9 against a reported err of 5.0e-10
        spec = make_section_spec([1, 2, 3], 0.3)
        other = make_quadrature_config(make_section_spec([1, 2, 3, 4, 5], 0.3))
        with pytest.raises(InvalidInputError, match="another spec"):
            section_volume_integral(spec, other)
        own = section_volume_integral(spec, make_quadrature_config(spec, 1e-9))
        assert own == section_volume_integral(spec)

    def test_convergence_error_on_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(integral, "MAX_PANELS", 4)
        spec = diagonal_section_spec(4, 0.2)
        cfg = make_quadrature_config(spec, abs_tol=1e-9)
        with pytest.raises(ConvergenceError):
            section_volume_integral(spec, cfg)

    def test_err_field_is_honest(self):
        rng = rng_for(29)
        for _ in range(10):
            d = int(rng.integers(3, 7))
            a = random_unit_direction(rng, d)
            t = float(rng.uniform(0.0, 0.9)) * float(np.sum(a)) / 2
            spec = make_section_spec(a, t)
            vs = section_volume_vertex_sum(spec)
            res = section_volume_integral(spec)
            assert abs(res.value - vs.value) <= res.err + vs.err + 1e-12

    @pytest.mark.parametrize("a, t", [
        ([0.0091, 0.0523, 6.07e-5, 0.124, 0.839, 0.525, 0.0435], 0.15),
        ([0.0158, 0.832, 3.51e-5, 0.467, 0.126, 0.0247, 0.271], 0.675),
    ])
    def test_one_small_coordinate_err_is_honest(self, a, t):
        # the u^-(n-1) tail bound takes the n-1 largest coordinates, so one
        # small coordinate no longer sends d = 7 to the closed-form tail,
        # whose err was 1e-12 against a 3e-9 and 5e-9 miss
        spec = make_section_spec(a, t)
        assert not make_quadrature_config(spec).analytic_tail
        vs = section_volume_vertex_sum(spec)
        res = section_volume_integral(spec)
        assert abs(res.value - vs.value) <= res.err + vs.err


def _assert_err_is_honest(spec, res):
    lo, hi = exact_section_bounds(spec)
    value, err = Fraction(res.value), Fraction(res.err)
    assert value - err <= lo and hi <= value + err, (float(value - lo), res.err)


class TestTinyCoordinates:
    @pytest.mark.parametrize("a, t", [
        ([1, 1, 1e-10], 0.2),
        ([1, 1e-5, 1e-5, 1], 0.1),
        ([0.754, 1.49e-7, 1.02e-9, 0.653, 0.0702], 0.689),
    ])
    def test_witnesses(self, a, t):
        # expanding every tiny coordinate in the closed-form tail missed
        # these by 4.8e-8, 3.1e-7 and 2.34, with err below 2e-9
        spec = make_section_spec(a, t)
        assert make_quadrature_config(spec).analytic_tail
        res = section_volume_integral(spec)
        _assert_err_is_honest(spec, res)
        assert res.err <= 1e-9

    def test_random_tiny_specs(self):
        # 1 to d-1 tiny coordinates in [1e-12, 1e-4], and every third radius
        # put where a kept frequency meets omega within the tiny span, so
        # the averaged tail has a jump or kink inside its window
        rng = rng_for(97)
        for i in range(60):
            d = int(rng.integers(3, 7))
            j = int(rng.integers(1, d))
            x = np.abs(rng.standard_normal(d)) + 0.05
            x[:j] = 10.0 ** rng.uniform(-12.0, -4.0, size=j)
            a = x / np.linalg.norm(x)
            t = float(rng.uniform(0.0, 1.0)) * float(np.sum(a)) / 2
            if i % 3 == 0:
                signs = rng.choice([-1.0, 1.0], size=d - j)
                t = abs(float(signs @ a[j:]) + float(rng.uniform(-1, 1) * np.sum(a[:j]))) / 2
            spec = make_section_spec(rng.permutation(a), t)
            _assert_err_is_honest(spec, section_volume_integral(spec))

    @pytest.mark.parametrize("tiny", [[3e-5], [2e-5, 7e-6], [1e-5, 4e-6, 1e-6]])
    def test_rule_averages_a_jump_exactly(self, tiny):
        # the average of the step [s > c] over s_1 + ... + s_j, s_i uniform
        # on [-e_i, e_i], is P(sum > c): an exact inclusion-exclusion sum
        cut = 0.3 * tiny[0]
        shifts, weights, _ = _tiny_average_rule(np.array(tiny), np.array([cut]), 1, 256.0, 0.0)
        es = [Fraction(e) for e in tiny]
        x = Fraction(cut) + sum(es)
        below = sum(
            (-1) ** sum(pick) * max(x - sum(2 * e for e, p in zip(es, pick) if p), 0) ** len(es)
            for pick in itertools.product((0, 1), repeat=len(es))
        ) / (math.factorial(len(es)) * math.prod(2 * e for e in es))
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
        assert float(weights @ (shifts > cut)) == pytest.approx(float(1 - below), abs=1e-14)

    def test_omega_parts_match_float_omega(self):
        a = np.array([0.3, 0.5, 0.6])
        assert a.min() > TINY_COORD
        value, _ = _tail_closed_form(a, 0.7, 200.0)
        value_parts, _ = _tail_closed_form(a, [0.5, 0.2], 200.0)
        assert value == value_parts


class TestAdaptivePanels:
    def test_evenness_of_integration(self):
        a = [0.4, 0.5, 0.6]

        def f(u):
            return sinc_product_integrand(a, 0.8, u)

        left, _, _ = adaptive_panel_integral(f, -40.0, 0.0, 1e-10, max_width=0.5)
        right, _, _ = adaptive_panel_integral(f, 0.0, 40.0, 1e-10, max_width=0.5)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-13)

    def test_refinement_does_not_increase_error(self):
        # halving the panel width shrinks the |K15 - G7| sum until it meets
        # rounding, at width 0.5; past that the sums are rounding, and which
        # of two is larger depends on summation order.  The floor bounds
        # that rounding: a 15-term sum errs by at most 15 eps of the sum of
        # its terms' magnitudes (Higham's gamma_15), plus one eps for each
        # node value, and K15 and G7 each sum to about the integral of |f|
        a = [0.45, 0.55, 0.7]

        def f(u):
            return sinc_product_integrand(a, 1.1, u)

        abs_integral, _, _ = adaptive_panel_integral(
            lambda u: np.abs(f(u)), 0.0, 64.0, math.inf, max_width=0.25)
        floor = 2 * 16 * np.finfo(float).eps * abs_integral
        errs = []
        for width in (2.0, 1.0, 0.5, 0.25, 0.125):
            _, err, _ = adaptive_panel_integral(f, 0.0, 64.0, math.inf, max_width=width)
            errs.append(err)
        assert errs[0] > errs[1] > errs[2] and errs[0] > floor
        assert all(err <= floor for err in errs[2:])

    def test_one_call_per_round_on_kronrod_nodes(self):
        calls = []

        def f(u):
            calls.append(u.copy())
            return np.cos(5.0 * u)

        lo, hi = 0.2, 3.0
        _, _, n_panels = adaptive_panel_integral(f, lo, hi, 1e-12)
        sizes = [u.size for u in calls]
        assert len(sizes) > 2 and all(s % 30 == 0 for s in sizes[1:])
        # one panel, then one call per round on both halves of each split one
        assert sizes[0] == 15 and n_panels == 1 + sum(sizes[1:]) // 30
        x7, _ = np.polynomial.legendre.leggauss(7)
        gauss = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x7
        assert np.abs(np.subtract.outer(calls[0], gauss)).min(axis=0).max() <= 1e-15

    def test_panel_rule_degrees(self):
        # one panel [-0.5, 1.5]: nodes 0.5 + x on the reference nodes x
        x7, w7 = np.polynomial.legendre.leggauss(7)

        def rule(p):
            value, err = integral._panel_rule(lambda u: u**p, np.array([-0.5]), np.array([1.5]))
            exact = (1.5 ** (p + 1) - (-0.5) ** (p + 1)) / (p + 1)
            g7 = w7 @ (0.5 + x7) ** p
            return value[0], err[0], exact, g7

        # K15 is exact through degree 22 and G7 through degree 13; the error
        # estimate is |K15 - G7|
        for p in (13, 22):
            value, err, exact, g7 = rule(p)
            assert value == pytest.approx(exact, rel=1e-14)
            assert err == pytest.approx(abs(value - g7), rel=1e-9, abs=1e-13)
        _, err13, exact13, _ = rule(13)
        assert err13 <= 1e-13 * exact13
        value, _, exact, _ = rule(24)
        assert abs(value - exact) > 1e-9

    def test_known_integral(self):
        val, err, _ = adaptive_panel_integral(np.cos, 0.0, 1.0, 1e-12, max_width=0.3)
        assert val == pytest.approx(math.sin(1.0), abs=1e-13)
