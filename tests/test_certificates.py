import math
from fractions import Fraction

import numpy as np
import pytest

from hyperslice import certificates
from hyperslice.certificates import (
    CLAIM_THRESHOLDS,
    _bernstein_integers,
    _certify_negative,
    _halves,
    certify_signs_rigorous,
    default_y_grid,
    quad_coeffs,
    quad_roots,
    sign_certificates,
)
from hyperslice.errors import InvalidInputError

from conftest import rng_for


class TestQuadCoeffs:
    def test_hand_value_d6(self):
        c = quad_coeffs(6, 0.5)
        assert c.c2 == pytest.approx(-0.71875, abs=1e-15)

    def test_direct_formula_agreement(self):
        rng = rng_for(3)
        for _ in range(60):
            d = int(rng.integers(3, 25))
            y = float(rng.uniform(1e-3, 1 - 1e-3))
            c = quad_coeffs(d, y)
            assert c.c2 == pytest.approx(
                2 - 2 * y ** (d - 1) - (d - 1) * (1 - y) * (1 + y ** (d - 2)),
                rel=1e-9, abs=1e-12,
            )
            assert c.c1 == pytest.approx(
                (d - 1) * (1 - y) ** 2 * (1 - y ** (d - 2)), rel=1e-9, abs=1e-12
            )
            assert c.c0 == pytest.approx(
                -2 * (1 - y) ** 2 * (1 - y ** (d - 1)), rel=1e-9, abs=1e-12
            )

    def test_limits_at_one(self):
        for d in (4, 6, 9):
            for s in (1e-3, 1e-5, 1e-7):
                c = quad_coeffs(d, 1.0 - s)
                assert abs(c.c2) < 1e-5
                assert abs(c.c1) < 1e-5
                assert abs(c.c0) < 1e-5

    def test_middle_coefficient_signs(self):
        rng = rng_for(5)
        for _ in range(40):
            d = int(rng.integers(3, 30))
            y = float(rng.uniform(1e-4, 1 - 1e-4))
            c = quad_coeffs(d, y)
            assert c.c1 > 0.0
            assert c.c0 < 0.0

    def test_domain_errors(self):
        with pytest.raises(InvalidInputError):
            quad_coeffs(6, 0.0)
        with pytest.raises(InvalidInputError):
            quad_coeffs(6, 1.0)
        with pytest.raises(InvalidInputError):
            quad_coeffs(1, 0.5)


class TestQuadRoots:
    def test_d5_known_roots(self):
        roots = quad_roots(quad_coeffs(5, 0.5))
        assert roots == pytest.approx([5 / 6, 1.5], abs=1e-12)

    def test_d5_roots_across_grid(self):
        for y in np.linspace(0.001, 0.999, 1000):
            roots = quad_roots(quad_coeffs(5, float(y)))
            expect = sorted([(y * y + 1) / (y + 1), y + 1])
            assert roots == pytest.approx(expect, abs=1e-10)

    def test_d6_no_root_beyond_one(self):
        roots = quad_roots(quad_coeffs(6, 0.5))
        assert all(r < 1.0 for r in roots)

    def test_real_roots_straddle_vertex(self):
        rng = rng_for(11)
        found = 0
        for _ in range(200):
            d = int(rng.integers(4, 12))
            y = float(rng.uniform(0.01, 0.99))
            c = quad_coeffs(d, y)
            roots = quad_roots(c)
            if len(roots) == 2 and c.c2 < 0:
                vertex = -c.c1 / (2 * c.c2)
                assert roots[0] <= vertex <= roots[1]
                assert vertex > 0
                found += 1
        assert found > 20

    def test_degenerate_error(self):
        from hyperslice.certificates import QuadCoeffs

        with pytest.raises(InvalidInputError):
            quad_roots(QuadCoeffs(5, 0.5, 0.0, 0.0, 0.0))


class TestSignCertificates:
    def test_d6_all_negative(self):
        rep = sign_certificates(6, default_y_grid())
        assert rep.max_lead_coeff < 0
        assert rep.max_slope_at_one < 0
        assert rep.max_value_at_one < 0
        assert rep.roots_excluded

    def test_d4_lead_coeff_only(self):
        rep = sign_certificates(4, default_y_grid())
        assert rep.max_lead_coeff < 0
        assert rep.max_slope_at_one > 0  # claimed only from d = 6 on
        assert not rep.roots_excluded

    def test_d3_degenerate_lead_coeff(self):
        # the x^2 coefficient vanishes identically in dimension 3
        rep = sign_certificates(3, default_y_grid(500))
        assert rep.max_lead_coeff == pytest.approx(0.0, abs=1e-15)
        assert not rep.roots_excluded

    def test_margins_shrink_toward_one(self):
        for name_idx, d in ((0, 6), (0, 15)):
            vals = [sign_certificates(d, [1 - s]).max_lead_coeff
                    for s in (1e-2, 1e-4, 1e-6)]
            assert all(v < 0 for v in vals)
            assert vals[0] < vals[1] < vals[2]

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            sign_certificates(6, [])
        with pytest.raises(InvalidInputError):
            sign_certificates(6, [0.0, 0.5])

    @pytest.mark.parametrize("y", [math.nan, -math.inf, math.inf])
    def test_non_finite_grid_rejected(self, y):
        # NaN fails both y <= 0 and y >= 1, so only a test for points
        # strictly inside (0, 1) refuses it
        with pytest.raises(InvalidInputError, match="strictly inside"):
            sign_certificates(4, [y])
        with pytest.raises(InvalidInputError, match="strictly inside"):
            sign_certificates(6, [0.5, y])

    def test_grid_matches_pointwise_coeffs(self):
        # vectorized grid values agree with scalar coefficient combinations
        grid = np.linspace(0.05, 0.95, 19)
        rep = sign_certificates(8, grid)
        best = {"lead": -math.inf, "slope": -math.inf, "value": -math.inf}
        for y in grid:
            c = quad_coeffs(8, float(y))
            best["lead"] = max(best["lead"], c.c2)
            best["slope"] = max(best["slope"], 2 * c.c2 + c.c1)
            best["value"] = max(best["value"], c.c2 + c.c1 + c.c0)
        assert rep.max_lead_coeff == pytest.approx(best["lead"], rel=1e-9)
        assert rep.max_slope_at_one == pytest.approx(best["slope"], rel=1e-9)
        assert rep.max_value_at_one == pytest.approx(best["value"], rel=1e-9)


class TestRigorousCertification:
    @pytest.mark.parametrize("d", range(6, 13))
    def test_certifies_claimed_dimensions(self, d):
        assert all(certify_signs_rigorous(d).values())

    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_small_dimension_rejected(self, d):
        # the same refusal as quad_coeffs and sign_certificates
        with pytest.raises(InvalidInputError, match="d must be at least 2"):
            certify_signs_rigorous(d)
        with pytest.raises(InvalidInputError, match="d must be at least 2"):
            sign_certificates(d, [0.5])

    def test_d5_exceptional_branch_not_certified(self):
        out = certify_signs_rigorous(5)
        assert out["lead_coeff"]
        assert not out["slope_at_one"]
        assert not out["value_at_one"]

    def test_claim_thresholds_cover_examples(self):
        assert CLAIM_THRESHOLDS == {
            "lead_coeff": 4, "slope_at_one": 6, "value_at_one": 6
        }

    def test_certifies_through_d120(self):
        for d in range(13, 121):
            assert all(certify_signs_rigorous(d).values()), d

    def test_subdivision_certifies_negative_polynomial(self):
        # -5 + 18s - 18s^2 peaks at -1/2 (s = 1/2), but its middle Bernstein
        # coefficient -5 + 9 = 4 is positive, so one box does not suffice
        assert _certify_negative((-5, 18, -18))

    def test_interior_positive_region_not_certified(self, monkeypatch):
        # -5 + 22s - 22s^2 is 1/2 at s = 1/2, negative at both ends; the
        # midpoint value is an end coefficient of both halves, so the test
        # stops after one subdivision instead of spending its box budget
        calls = []

        def counted(b):
            calls.append(b)
            return _halves(b)

        monkeypatch.setattr(certificates, "_halves", counted)
        assert not _certify_negative((-5, 22, -22))
        assert len(calls) == 1

    def test_halves_match_substituted_polynomials(self):
        # 2^n p(s/2) and 2^n p((1+s)/2) have the halves' Bernstein
        # coefficients on [0, 1], with the same common factor
        rng = rng_for(19)
        for _ in range(40):
            p = [int(c) for c in rng.integers(-50, 51, size=int(rng.integers(1, 9)))]
            n = len(p) - 1
            low = [c << (n - k) for k, c in enumerate(p)]
            high = [sum(c * math.comb(k, m) << (n - k) for k, c in enumerate(p) if k >= m)
                    for m in range(n + 1)]
            assert _halves(_bernstein_integers(p)) == (
                _bernstein_integers(low), _bernstein_integers(high)
            )

    def test_zero_polynomial_not_certified(self):
        assert not _certify_negative((0, 0, 0))

    def test_agrees_with_dense_evaluation(self):
        # a certified polynomial is negative at every interior sample; one
        # below -1 at every sample is certified, since |p'| <= 40 * 28 keeps
        # it below -1 + 1120 / 2000 < 0 within 1/2000 of a sample
        rng = rng_for(13)
        s = np.linspace(0.0, 1.0, 2001)[1:-1]
        seen = set()
        for _ in range(300):
            coeffs = [-int(rng.integers(1, 20))]
            coeffs += [int(c) for c in rng.integers(-40, 41, size=int(rng.integers(1, 8)))]
            worst = float(np.max(np.polynomial.polynomial.polyval(s, coeffs)))
            ok = _certify_negative(tuple(coeffs))
            if ok:
                assert worst < 0.0, coeffs
            if worst < -1.0:
                assert ok, coeffs
            seen.add(ok)
        assert seen == {True, False}


def _exact_coeffs(d, y):
    """c2, c1, c0 at the rational y, from the formulas of the paper."""
    y = Fraction(y)
    s = 1 - y
    return (2 - 2 * y ** (d - 1) - (d - 1) * s * (1 + y ** (d - 2)),
            (d - 1) * s * s * (1 - y ** (d - 2)),
            -2 * s * s * (1 - y ** (d - 1)))


class TestOneIntegerForm:
    """c2, c1, c0 and the three claims all come from one integer form."""

    def test_floats_match_exact_evaluation(self):
        grid = default_y_grid()
        pick = np.r_[0:5, 50:55, 95:105, 1000:grid.size - 1000:1500,
                     grid.size - 105:grid.size - 95, grid.size - 55:grid.size - 50,
                     grid.size - 5:grid.size]
        assert grid[0] < 1e-6 and grid[-1] > 1 - 1e-6  # both log-spaced ends
        for d in (3, 5, 6, 12, 60, 98, 120, 200, 320):
            for y in map(float, grid[pick]):
                c = quad_coeffs(d, y)
                rep = sign_certificates(d, [y])
                e2, e1, e0 = _exact_coeffs(d, y)
                pairs = [(c.c2, e2), (c.c1, e1), (c.c0, e0),
                         (rep.max_lead_coeff, e2), (rep.max_slope_at_one, 2 * e2 + e1),
                         (rep.max_value_at_one, e2 + e1 + e0)]
                for got, exact in pairs:
                    # relative, or absolute where the exact value is 0 (d = 3 lead)
                    scale = abs(exact) if exact != 0 else 1
                    assert abs(Fraction(got) - exact) <= scale * Fraction(1, 10**12), (d, y)

    def test_roots_excluded_through_d320(self):
        grid = default_y_grid()
        assert [d for d in range(6, 321) if not sign_certificates(d, grid).roots_excluded] == []

    @pytest.mark.parametrize("d", [98, 120, 200, 320])
    def test_grid_agrees_with_exact_certificate(self, d):
        rep = sign_certificates(d, default_y_grid())
        assert rep.roots_excluded == all(certify_signs_rigorous(d).values())

    def test_s_expansion_equals_y_form(self):
        # exactly, at rational s: the integer s-expansions handed to the
        # Bernstein test, the cubic forms A + y^(d-2) B, and the formulas
        rows = (*certificates._CLAIMS.values(), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        for d in (3, 5, 6, 13, 40):
            polys = certificates._s_expansions(d, rows)
            forms = certificates._forms(d, rows)
            for s in (Fraction(1, 7), Fraction(1, 2), Fraction(5, 6), Fraction(1, 10**6)):
                y = 1 - s
                exact = _exact_coeffs(d, y)
                for row, poly, (a, b, _) in zip(rows, polys, forms):
                    cubic = [y ** k * s ** (3 - k) for k in range(4)]
                    y_form = sum(map(math.prod, zip(a, cubic))) + y ** (d - 2) * sum(
                        map(math.prod, zip(b, cubic)))
                    assert sum(c * s ** k for k, c in enumerate(poly)) == y_form
                    assert y_form == sum(w * e for w, e in zip(row, exact))
