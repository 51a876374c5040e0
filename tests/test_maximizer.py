import math
import warnings

import mpmath
import numpy as np
import pytest

from hyperslice.errors import InvalidInputError, RegimeError
from hyperslice.geometry import classify_cut, diagonal_section_spec, make_section_spec
from hyperslice import maximizer
from hyperslice.maximizer import (
    _ascend,
    _draw_start,
    _ratio_gradient,
    _star_objective,
    closed_form_max,
    decay_inequality_check,
    lagrangian_gradient,
    maximize_section_volume,
    pair_condition_check,
)
from hyperslice.parallel import worker_count
from hyperslice.vertexsum import _vertex_sum, section_volume_vertex_sum, star_log_ratio

from conftest import corner_spec, edge_spec, lagrangian_fd, rng_for, smooth_cell_spec


class TestClosedFormMax:
    def test_d5_radius_one(self):
        with mpmath.workprec(400):
            expect = float(mpmath.sqrt(5) ** 5 / 24 * (mpmath.sqrt(5) / 2 - 1) ** 4)
        assert closed_form_max(5, 1.0) == pytest.approx(expect, rel=1e-15)

    def test_zero_beyond_circumradius(self):
        assert closed_form_max(6, math.sqrt(6) / 2) == 0.0
        assert closed_form_max(6, 2.0) == 0.0

    def test_matches_vertex_sum_in_band(self):
        for d in (3, 4, 7, 12):
            lo, hi = math.sqrt(d - 1) / 2, math.sqrt(d) / 2
            for t in np.linspace(lo * 1.001, hi * 0.999, 7):
                spec = diagonal_section_spec(d, float(t))
                assert closed_form_max(d, float(t)) == pytest.approx(
                    section_volume_vertex_sum(spec).value, rel=1e-12
                )

    @pytest.mark.parametrize("d", [5, 12, 20, 40, 60, 172, 200])
    def test_deep_cuts_match_400_bit_sum(self, d):
        # the layers k < sqrt(d) (sqrt(d)/2 - t) lie under the cut: the
        # origin alone for the last three radii, and more for the others; at
        # d = 172 and 200 the shallow values are subnormal or underflow to 0
        root_d = math.sqrt(d)
        for t in (0.0, 0.1, 0.3, root_d / 2 - 1.5 / root_d,
                  root_d / 2 - 0.9 / root_d, root_d / 2 - 0.5 / root_d,
                  root_d / 2 - 0.1 / root_d):
            with mpmath.workprec(400):
                root = mpmath.sqrt(d)
                gap = root / 2 - mpmath.mpf(t)
                total = mpmath.fsum(
                    (-1) ** k * mpmath.binomial(d, k) * (gap - k / root) ** (d - 1)
                    for k in range(d + 1) if k < gap * root
                )
                ref = root**d / mpmath.factorial(d - 1) * total
                # 1e-15 relative, or the correct rounding of a subnormal
                assert abs(closed_form_max(d, t) - ref) <= 1e-15 * ref + mpmath.mpf(math.ulp(0.0)) / 2, t

    def test_deep_cuts_match_vertex_sum(self):
        assert closed_form_max(20, 0.1) == pytest.approx(1.2939616198258, rel=1e-12)
        for d in (5, 12):
            for t in (0.05, 0.4, 0.8):
                spec = diagonal_section_spec(d, t)
                assert closed_form_max(d, t) == pytest.approx(
                    section_volume_vertex_sum(spec).value, rel=1e-12
                )

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidInputError):
            closed_form_max(6, -0.1)

    def test_strictly_decreasing_in_radius(self):
        for d in (3, 5, 9):
            ts = np.linspace(0.0, math.sqrt(d) / 2 * 0.999, 60)
            vals = [closed_form_max(d, float(t)) for t in ts]
            assert all(x > y for x, y in zip(vals, vals[1:]))


class TestLagrangianGradient:
    def test_corner_gradient_matches_fd(self):
        rng = rng_for(61)
        for d in (4, 6):
            for _ in range(5):
                spec = corner_spec(rng, d)
                lam = float(rng.uniform(-1, 1))
                grad = lagrangian_gradient(spec, lam)
                fd = lagrangian_fd(spec, lam)
                assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    def test_edge_gradient_matches_fd(self):
        rng = rng_for(67)
        for d in (4, 6):
            for _ in range(5):
                spec = edge_spec(rng, d)
                lam = float(rng.uniform(-1, 1))
                grad = lagrangian_gradient(spec, lam)
                fd = lagrangian_fd(spec, lam)
                assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    def test_diagonal_stationarity_residual(self):
        # symmetry pins the multiplier; the remaining gradient is numerically 0
        for d, t in ((3, 0.8), (5, 1.0), (7, 1.25)):
            spec = diagonal_section_spec(d, t)
            grad = lagrangian_gradient(spec, 0.0)
            lam = -float(grad @ spec.direction) / 2.0
            residual = np.linalg.norm(grad + 2 * lam * spec.direction)
            assert residual <= 1e-10

    def test_deep_cut_needs_fallback(self):
        # no fallback: the exact gradient serves deep cuts and ties too
        spec = diagonal_section_spec(4, 0.45)  # five vertices below
        grad = lagrangian_gradient(spec, 0.1)
        assert np.linalg.norm(grad - lagrangian_fd(spec, 0.1)) <= 1e-6 * np.linalg.norm(grad)
        # e_1 and e_2 on the hyperplane: three vertices below, one a tie
        grad = lagrangian_gradient(make_section_spec([1, 1], 0.0), 0.1)
        assert grad.shape == (2,) and np.all(np.isfinite(grad))

    def test_random_deep_cuts_match_fd(self):
        rng = rng_for(73)
        for d in range(4, 9):
            done = 0
            while done < 16:
                spec = smooth_cell_spec(rng, d)
                if classify_cut(spec).count_below <= 2:
                    continue
                lam = float(rng.uniform(-1, 1))
                grad = lagrangian_gradient(spec, lam)
                fd = lagrangian_fd(spec, lam)
                assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad), (d, spec)
                done += 1

    def test_nonpositive_coordinate_rejected(self):
        with pytest.raises(RegimeError):
            lagrangian_gradient(make_section_spec([1, 0, 1], 0.3), 0.1)

    def test_edge_partials_continuous_at_corner_boundary(self):
        # as the low coordinate reaches the offset, edge partials meet corner ones
        a = np.array([0.35, 0.5, 0.55, 0.45, 0.6])
        a /= np.linalg.norm(a)
        half = float(np.sum(a)) / 2
        eps = 1e-7
        edge = lagrangian_gradient(make_section_spec(a, half - (a.min() + eps)), 0.2)
        corner = lagrangian_gradient(make_section_spec(a, half - (a.min() - eps)), 0.2)
        assert np.linalg.norm(edge - corner) <= 1e-5 * np.linalg.norm(corner)


class TestPairConditions:
    def test_diagonal_zero_residuals(self):
        res = pair_condition_check(diagonal_section_spec(5, 1.0))
        assert res.shape == (10,)
        assert np.max(np.abs(res)) == 0.0

    def test_corner_spurious_branch(self):
        # distinct coordinates satisfying b/a_j + b/a_k = (d-1)/2 also zero the
        # corner condition; the pair residual cannot tell them apart
        d = 4
        a = np.array([0.52, 0.56, 0.48, 0.44])
        a /= np.linalg.norm(a)
        b = 1.5 * a[0] * a[1] / (a[0] + a[1])
        assert b < a.min()  # still a corner cut
        spec = make_section_spec(a, float(np.sum(a)) / 2 - b)
        res = pair_condition_check(spec)
        assert abs(res[0]) <= 1e-14  # pair (0, 1)
        assert np.max(np.abs(res)) > 1e-3  # other pairs are far from stationary

    def test_edge_quadratic_root_relation(self):
        # when the high coordinate sits at a quadratic root, that pair residual
        # vanishes; d=5 roots are y+1 and (y^2+1)/(y+1)
        d = 5
        b = 0.40
        y = 0.3
        a_low = b * (1 - y)
        a_high = b * (y + 1.0)
        a = np.array([a_low] + [a_high] * (d - 1))
        a /= np.linalg.norm(a)
        scale = 1 / np.linalg.norm(np.array([a_low] + [a_high] * (d - 1)))
        spec = make_section_spec(a, float(np.sum(a)) / 2 - b * scale)
        res = pair_condition_check(spec)
        low_pairs = res[: d - 1]
        assert np.max(np.abs(low_pairs)) <= 1e-12

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            pair_condition_check(make_section_spec([1, 1], 0.0))


class TestMaximize:
    def test_diagonal_wins_d5(self):
        rep = maximize_section_volume(5, 1.0, starts=24, seed=0)
        assert rep.angle_to_diagonal < 1e-4
        assert rep.best_volume == pytest.approx(rep.diagonal_volume, rel=1e-9)
        assert rep.converged_starts == 24

    def test_diagonal_wins_d3(self):
        rep = maximize_section_volume(3, 0.8, starts=24, seed=1)
        assert rep.angle_to_diagonal < 1e-4
        assert rep.best_volume == pytest.approx(rep.diagonal_volume, rel=1e-9)

    def test_no_start_beats_diagonal(self):
        for seed in range(3):
            rep = maximize_section_volume(6, 1.1, starts=16, seed=seed)
            assert rep.best_volume <= rep.diagonal_volume * (1 + 1e-9)

    def test_degenerate_beyond_circumradius(self):
        rep = maximize_section_volume(5, 1.2, starts=8, seed=0)
        assert rep.best_volume == 0.0
        assert rep.diagonal_volume == 0.0

    def test_small_radius_rejected(self):
        with pytest.raises(InvalidInputError):
            maximize_section_volume(5, 0.4)

    def test_report_is_reproducible(self):
        r1 = maximize_section_volume(4, 0.9, starts=12, seed=5)
        r2 = maximize_section_volume(4, 0.9, starts=12, seed=5)
        assert r1.best_volume == r2.best_volume
        assert np.array_equal(r1.best_direction, r2.best_direction)

    def test_thread_env_does_not_change_result(self, monkeypatch):
        base = maximize_section_volume(4, 0.95, starts=10, seed=2)
        monkeypatch.setenv("HYPERSLICE_THREADS", "4")
        assert worker_count() == 4
        threaded = maximize_section_volume(4, 0.95, starts=10, seed=2)
        assert threaded.best_volume == base.best_volume
        assert np.array_equal(threaded.best_direction, base.best_direction)


def _band_specs(rng, count, dmax=60):
    """(a, b) with a unit, sum(a)/2 - b in the band (sqrt(d-2)/2, sqrt(d)/2),
    and up to three coordinates set small enough to fall below b.  b is
    kept in the upper nine tenths of its range: at d near 60 the lowest b
    make W underflow in the walk's float result."""
    out = []
    while len(out) < count:
        d = int(rng.integers(3, dmax + 1))
        lo, hi = math.sqrt(d - 2) / 2, math.sqrt(d) / 2
        k = int(rng.integers(0, 4))
        a = np.abs(1.0 + rng.uniform(0, 0.5) / math.sqrt(d) * rng.standard_normal(d))
        a /= np.linalg.norm(a)
        a[:k] = rng.uniform(0.05, 1.0, size=k) / math.sqrt(d)
        a /= np.linalg.norm(a)
        half = float(np.sum(a)) / 2
        b_lo, b_hi = max(half - hi, 0.0), half - lo
        if b_hi > b_lo:
            out.append((rng.permutation(a), float(rng.uniform(b_lo + 0.1 * (b_hi - b_lo), b_hi))))
    return out


class TestBatchedStar:
    def test_star_matches_walk(self):
        cut_counts = set()
        for a, b in _band_specs(rng_for(89), 500):
            cut_counts.add(int(np.count_nonzero(a < b)))
            log_w, g = star_log_ratio(a, b, grad=True)
            w = math.exp(float(log_w[0]))
            w_walk, grad = _ratio_gradient(a, b)
            assert w_walk == _vertex_sum(a, b, 0)[1]  # the same single division
            assert w == pytest.approx(w_walk, rel=1e-12)
            scale = float(np.max(np.abs(grad)))  # |grad|^2 may underflow
            assert np.linalg.norm((w * g[0] - grad) / scale) <= (
                1e-12 * np.linalg.norm(grad / scale))
        assert {0, 1} <= cut_counts

    @pytest.mark.parametrize("d, starts", [(12, 16), (20, 16), (40, 16), (60, 16), (120, 32)],
                             ids=["12", "20", "40", "60", "120"])
    def test_high_dimensions_reach_diagonal(self, d, starts):
        lo, hi = math.sqrt(d - 2) / 2, math.sqrt(d) / 2
        for t in np.linspace(lo, hi, 5)[1:-1]:
            rep = maximize_section_volume(d, float(t), starts=starts, seed=0)
            closed = closed_form_max(d, float(t))
            assert rep.converged_starts == starts, (d, t)
            assert rep.angle_to_diagonal < 1e-4, (d, t)
            assert abs(rep.best_volume - closed) < 1e-9 * closed, (d, t)

    def test_rows_with_nonpositive_offset_do_not_overflow(self):
        # line-search candidates can leave the cap; their powers are not taken
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = np.full((1, 120), 120**-0.5)
            assert star_log_ratio(a, np.array([-1e-6]))[0] == -np.inf
            assert star_log_ratio(a, np.array([0.0]))[0] == -np.inf
            rep = maximize_section_volume(120, 5.4428, starts=32, seed=0)
        assert rep.converged_starts == 32

    @pytest.mark.parametrize("d", [12, 40])
    def test_ascent_from_perturbed_starts(self, d):
        # the ascent alone, from rows within a few degrees of the diagonal
        rng = rng_for(d)
        t = math.sqrt(d - 2) / 2 + 0.3 * (math.sqrt(d) - math.sqrt(d - 2)) / 2
        a0 = 1.0 + 0.05 * rng.standard_normal((16, d))
        a0 /= np.linalg.norm(a0, axis=1)[:, None]
        assert np.all(np.sum(a0, axis=1) / 2 > t)
        finals, log_values, converged, capped = _ascend(a0, t, _star_objective)
        diag = np.full(d, 1 / math.sqrt(d))
        closed = closed_form_max(d, t)
        assert np.all(converged) and not np.any(capped)
        assert np.all(np.arccos(np.clip(finals @ diag, -1, 1)) < 1e-4)
        assert np.all(np.abs(np.exp(log_values) - closed) < 1e-9 * closed)

    def test_below_band_runs_the_walk(self, monkeypatch):
        # below t = sqrt(d-2)/2 vertices of weight 2 lie below some cuts
        calls = []
        for name in ("_star_objective", "_walk_objective"):
            def counted(a, t, grad=False, name=name, real=getattr(maximizer, name)):
                calls.append(name)
                return real(a, t, grad)

            monkeypatch.setattr(maximizer, name, counted)
        edge = math.sqrt(5) / 2
        for t, objective in ((edge, "_walk_objective"),
                             (math.nextafter(edge, 2.0), "_star_objective")):
            calls.clear()
            maximize_section_volume(7, t, starts=4, seed=0)
            assert set(calls) == {objective}, t
        for d, t in ((6, 0.93), (7, 0.8)):
            calls.clear()
            rep = maximize_section_volume(d, t, starts=8, seed=0)
            assert set(calls) == {"_walk_objective"}
            assert rep.angle_to_diagonal < 1e-4, (d, t)
            assert rep.best_volume >= rep.diagonal_volume * (1 - 1e-12)

    def test_infeasible_starts_reported(self):
        # every start lies in the cap sum(a)/2 > t, so every one runs
        rep = maximize_section_volume(7, 1.304, starts=64, seed=0)
        assert rep.infeasible_starts == 0
        assert rep.converged_starts == 64

    def test_start_counts_add_up(self):
        # the acceptance 02/03 grid: every start is infeasible, converged
        # or capped
        for d in (3, 4, 5, 6, 7):
            lo, hi = math.sqrt(d - (1 if d < 5 else 2)) / 2, math.sqrt(d) / 2
            for t in np.linspace(lo, hi, 12)[1:-1]:
                rep = maximize_section_volume(d, float(t), starts=64, seed=0)
                assert (rep.converged_starts + rep.capped_starts
                        + rep.infeasible_starts == rep.starts), (d, t)

    @pytest.mark.parametrize("d", [150, 200])
    def test_underflowing_volume_keeps_the_direction(self, d):
        # W underflows a float from about d = 145 on; log W does not
        t = (math.sqrt(d - 2) + math.sqrt(d)) / 4
        rep = maximize_section_volume(d, t, starts=4, seed=0)
        assert rep.angle_to_diagonal < 1e-4
        assert np.max(np.abs(rep.best_direction - 1 / math.sqrt(d))) < 1e-6
        assert rep.best_volume == closed_form_max(d, t)
        assert rep.converged_starts + rep.capped_starts + rep.infeasible_starts == 4

    def test_draws_lie_in_the_cap(self):
        # one draw per start, its angle to the diagonal scaled into the cap
        for d, t, seed in ((2, 0.7, 4), (3, 0.51, 0), (7, 1.304, 0), (12, 1.72, 1),
                           (120, 5.47, 3)):
            diag = np.full(d, 1 / math.sqrt(d))
            for i in range(1, 30):
                a = _draw_start(d, t, seed, i)
                rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
                x = np.sqrt(rng.dirichlet(np.ones(d)))
                assert np.all(a > 0.0) and np.sum(a) / 2 > t, (d, t, i)
                assert abs(np.linalg.norm(a) - 1.0) < 1e-12
                u, v = x - (x @ diag) * diag, a - (a @ diag) * diag
                assert np.allclose(v / np.linalg.norm(v), u / np.linalg.norm(u),
                                   rtol=0, atol=1e-9)


class TestSpectralStep:
    def test_below_band_starts_all_converge(self):
        # the parent's fixed 0.1 trial step left 31 of these 32 capped
        t = 1 + 0.75 * (math.sqrt(5) / 2 - 1)
        rep = maximize_section_volume(7, t, starts=32, seed=0)
        assert rep.converged_starts == 32
        assert rep.capped_starts == 0
        assert rep.angle_to_diagonal < 1e-4

    @pytest.mark.parametrize("d, t", [
        (4, float(np.linspace(math.sqrt(3) / 2, 1, 12)[2])),
        (7, float(np.linspace(math.sqrt(5) / 2, math.sqrt(7) / 2, 12)[3])),
    ])
    def test_few_gradient_calls(self, monkeypatch, d, t):
        # the fixed 0.1 trial step took 234 (d = 4) and 398 (d = 7)
        grads = []
        real = maximizer._star_objective

        def counted(a, t, grad=False):
            grads.append(grad)
            return real(a, t, grad)

        monkeypatch.setattr(maximizer, "_star_objective", counted)
        rep = maximize_section_volume(d, t, starts=64, seed=0)
        assert sum(grads) <= 30
        assert rep.angle_to_diagonal < 1e-4
        assert rep.converged_starts + rep.infeasible_starts == 64


class TestDecayInequality:
    def test_d5_pinned_values(self):
        lhs, rhs, holds = decay_inequality_check(5, math.sqrt(3) / 2)
        assert holds
        assert lhs > 0.7 > rhs
        assert lhs == pytest.approx(5**2.5 / 4**3, rel=1e-12)

    def test_d5_direct_form(self):
        t = math.sqrt(3) / 2
        lhs_direct = closed_form_max(5, t)
        rhs_direct = closed_form_max(4, t)
        assert lhs_direct == pytest.approx(9.39e-3, abs=5e-5)
        assert rhs_direct == pytest.approx(6.41e-3, abs=5e-5)
        assert lhs_direct > rhs_direct

    def test_rewritten_equivalent_to_direct(self):
        rng = rng_for(71)
        for _ in range(20):
            d = int(rng.integers(5, 30))
            lo, hi = math.sqrt(d - 2) / 2, math.sqrt(d - 1) / 2
            t = float(rng.uniform(lo, hi))
            _, _, holds = decay_inequality_check(d, t)
            assert holds == (closed_form_max(d, t) > closed_form_max(d - 1, t))

    def test_domain_errors(self):
        with pytest.raises(InvalidInputError):
            decay_inequality_check(4, 0.8)
        with pytest.raises(InvalidInputError):
            decay_inequality_check(6, 0.2)
