import itertools
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import irwinhall

from hyperslice.errors import CellCrossingError, InvalidInputError, RegimeError
from hyperslice.geometry import (
    ZERO_COORD_TOL,
    SectionSpec,
    classify_cut,
    diagonal_section_spec,
    integer_cut,
    make_section_spec,
    vertex_terms,
)
from hyperslice.integral import section_volume_integral
from hyperslice.maximizer import closed_form_max
from hyperslice.vertexsum import (
    _vertex_sum,
    halfspace_volume,
    section_from_halfspace_derivative,
    section_volume_vertex_sum,
    star_volume,
)

from conftest import (
    _exact_volumes,
    _sqrt_bounds,
    corner_spec,
    edge_spec,
    rng_for,
    random_unit_direction,
    smooth_cell_spec,
)


def diagonal_oracle(d, t):
    """Independent oracle: a diagonal section at offset b is sqrt(d) times
    the Irwin-Hall(d) density at b*sqrt(d)."""
    b = math.sqrt(d) / 2 - t
    return math.sqrt(d) * irwinhall(d).pdf(b * math.sqrt(d))


class TestSectionVolume:
    def test_single_vertex_diagonal_d5(self):
        value = section_volume_vertex_sum(diagonal_section_spec(5, 1.0)).value
        expect = 5**2.5 / 24 * (math.sqrt(5) / 2 - 1) ** 4
        assert value == pytest.approx(expect, rel=1e-14)
        assert value == pytest.approx(4.522e-4, abs=2e-7)

    def test_empty_section_is_zero(self):
        assert section_volume_vertex_sum(make_section_spec([1, 1], 1.0)).value == 0.0

    def test_central_hexagon(self):
        value = section_volume_vertex_sum(diagonal_section_spec(3, 0.0)).value
        assert value == pytest.approx(3 * math.sqrt(3) / 4, rel=1e-14)
        assert value == pytest.approx(diagonal_oracle(3, 0.0), rel=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 8])
    def test_diagonal_sections_match_irwin_hall(self, d):
        for t in np.linspace(0.0, math.sqrt(d) / 2 * 0.98, 9):
            spec = diagonal_section_spec(d, float(t))
            assert section_volume_vertex_sum(spec).value == pytest.approx(
                diagonal_oracle(d, float(t)), rel=1e-10, abs=1e-13
            )

    def test_permutation_invariance(self):
        rng = rng_for(5)
        a = rng.uniform(0.05, 1.0, size=6)
        t = 0.7
        base = section_volume_vertex_sum(make_section_spec(a, t)).value
        for _ in range(5):
            perm = rng.permutation(6)
            assert section_volume_vertex_sum(
                make_section_spec(a[perm], t)
            ).value == pytest.approx(base, rel=1e-13)

    def test_vanishing_law(self):
        rng = rng_for(9)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            a = random_unit_direction(rng, d)
            half_span = float(np.sum(a)) / 2
            inside = section_volume_vertex_sum(
                make_section_spec(a, rng.uniform(0.0, 0.98) * half_span)
            )
            assert inside.value > 0.0
            outside = section_volume_vertex_sum(
                make_section_spec(a, half_span * (1.0 + rng.uniform(0.0, 1.0)))
            )
            assert outside.value == 0.0

    def test_zero_coordinates_reduce_dimension(self):
        # a zero coordinate factors the section as (lower section) x [0,1]
        rng = rng_for(13)
        for _ in range(10):
            a = rng.uniform(0.1, 1.0, size=4)
            t = float(rng.uniform(0.0, 0.8))
            padded = np.concatenate([a, [0.0]])
            v_red = section_volume_vertex_sum(make_section_spec(a, t)).value
            v_full = section_volume_vertex_sum(make_section_spec(padded, t)).value
            assert v_full == pytest.approx(v_red, rel=1e-12, abs=1e-15)

    def test_cancellation_fallback_matches_high_precision(self):
        # wildly anisotropic direction: the alternating terms dwarf the result
        a = np.array([1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3])
        spec = make_section_spec(a, 0.0)
        res = section_volume_vertex_sum(spec)
        with mpmath.workprec(300):
            b = mpmath.mpf(spec.offset)
            total = mpmath.mpf(0)
            for v in itertools.product((0, 1), repeat=spec.dim):
                dot = mpmath.fsum(mpmath.mpf(float(x)) for x, vi in
                                  zip(spec.direction, v) if vi)
                if dot > b:
                    continue
                sign = -1 if (sum(v) & 1) else 1
                total += sign * (b - dot) ** (spec.dim - 1)
            scale = mpmath.mpf(float(np.linalg.norm(spec.direction)))
            for x in spec.direction:
                scale /= mpmath.mpf(float(x))
            expect = float(total * scale / math.factorial(spec.dim - 1))
        assert res.value == pytest.approx(expect, rel=1e-12)
        assert res.err <= 1e-9 * res.value

    def test_tiny_coordinate_is_kept(self):
        # a coordinate at ZERO_COORD_TOL still moves the section by 1.0e-14,
        # so only exact zeros may be dropped
        a = np.array([0.6, 0.8, ZERO_COORD_TOL])
        spec = SectionSpec(dim=3, direction=a, radius=math.fsum(a) / 2 - 0.3, offset=0.3)
        ratio, _ = _exact_volumes(a, 0.3)
        lo, hi = _sqrt_bounds(sum(Fraction(float(x)) ** 2 for x in a))
        res = section_volume_vertex_sum(spec)
        value, err = Fraction(res.value), Fraction(res.err)
        assert value - err <= ratio * lo and ratio * hi <= value + err


class TestDeepCuts:
    @pytest.mark.parametrize("d", [30, 60])
    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5])
    def test_diagonal_matches_closed_form(self, d, t):
        # d coordinates, one group: at most d + 1 grouped terms
        spec = diagonal_section_spec(d, t)
        start = time.perf_counter()
        section = section_volume_vertex_sum(spec)
        half = halfspace_volume(spec)
        assert time.perf_counter() - start < 0.5
        assert section.value == pytest.approx(closed_form_max(d, t), rel=1e-12)
        a, b = Fraction(float(spec.direction[0])), Fraction(spec.offset)
        layers = [k for k in range(d + 1) if k * a <= b]
        assert section.cut.count_below == half.cut.count_below == sum(
            math.comb(d, k) for k in layers)
        with mpmath.workprec(400):
            x = mpmath.mpf(spec.offset) * mpmath.sqrt(d)  # Irwin-Hall(d) CDF at x
            ref = mpmath.fsum((-1) ** k * mpmath.binomial(d, k) * (x - k) ** d
                              for k in layers) / mpmath.factorial(d)
        assert half.value == pytest.approx(float(ref), rel=1e-12)


class TestZeroCoordinates:
    """A zero coordinate leaves the exact cut before the walk: the cut with
    zeros is its positive part times [0,1]^zeros."""

    @staticmethod
    def padded(positive, zeros, b, rng):
        """The positive part and the same direction with zeros at random
        places, as specs with the same offset."""
        a = np.insert(positive, rng.integers(0, positive.size + 1, size=zeros), 0.0)
        return [SectionSpec(dim=x.size, direction=x, radius=math.fsum(x) / 2 - b, offset=b)
                for x in (positive, a)]

    def test_same_value_terms_and_doubled_count(self):
        rng = rng_for(28)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            pool = rng.uniform(0.05, 1.0, size=int(rng.integers(1, n + 1)))
            positive = rng.choice(pool, size=n)  # repeated values
            positive /= np.linalg.norm(positive)
            zeros = int(rng.integers(1, 5))
            b = float(rng.uniform(-0.05, math.fsum(positive) + 0.05))
            base, spec = self.padded(positive, zeros, b, rng)
            for route in (section_volume_vertex_sum, halfspace_volume):
                want, got = route(base), route(spec)
                assert (got.value, got.err) == (want.value, want.err)
                assert got.cut.count_below == want.cut.count_below << zeros
            assert classify_cut(spec).count_below == classify_cut(base).count_below << zeros
            terms = [sum(1 for _ in vertex_terms(integer_cut(s.direction, b)))
                     for s in (base, spec)]
            assert terms[0] == terms[1]

    def test_zeros_do_not_count_toward_max_terms(self):
        # 16 distinct coordinates at t = 0 take about 2^15 terms; walking
        # 8 zeros as a group multiplied them by 9, past MAX_TERMS
        positive = np.linspace(0.3, 1.0, 16)
        positive /= np.linalg.norm(positive)
        b = math.fsum(positive) / 2
        base, spec = self.padded(positive, 8, b, rng_for(29))
        got = section_volume_vertex_sum(spec)
        assert got.value == section_volume_vertex_sum(base).value
        assert got.cut.count_below == classify_cut(base).count_below << 8


@st.composite
def near_vertex_cuts(draw):
    """Directions with repeated values, exact zeros, subnormal and tiny
    coordinates and coordinates at or just above ZERO_COORD_TOL, with offsets
    anywhere or within a few ulps of a vertex level."""
    d = draw(st.integers(2, 8))
    n_regular = draw(st.integers(1, d))
    pool = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=n_regular))
    regular = np.array([draw(st.sampled_from(pool)) for _ in range(n_regular)])
    special = [draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, ZERO_COORD_TOL]),
                              st.floats(ZERO_COORD_TOL, 8 * ZERO_COORD_TOL,
                                        exclude_min=True)))
               for _ in range(d - n_regular)]
    a = np.array(draw(st.permutations(list(regular / np.linalg.norm(regular)) + special)))
    if draw(st.booleans()):
        level = math.fsum(a[np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))])
        b = level + draw(st.integers(-3, 3)) * math.ulp(level)
    else:
        b = draw(st.floats(-0.05, math.fsum(a) + 0.05))
    return SectionSpec(dim=d, direction=a, radius=math.fsum(a) / 2 - b, offset=b)


@settings(max_examples=300, deadline=None)
@given(near_vertex_cuts())
def test_err_is_an_honest_bound(spec):
    # the vertex-sum routes read only the direction and the offset
    ratio, half = _exact_volumes(spec.direction, spec.offset)
    lo, hi = _sqrt_bounds(sum(Fraction(float(x)) ** 2 for x in spec.direction if x > 0.0))
    section = section_volume_vertex_sum(spec)
    value, err = Fraction(section.value), Fraction(section.err)
    assert value - err <= ratio * lo and ratio * hi <= value + err
    result = halfspace_volume(spec)
    assert abs(Fraction(result.value) - half) <= Fraction(result.err)


@st.composite
def tiny_coordinate_cuts(draw):
    """d = 2..7: at least two coordinates in [0.05, 1] and up to two in
    [1e-10, 1e-4], normalized, with an offset b in (0, sum(a))."""
    d = draw(st.integers(2, 7))
    n_tiny = draw(st.integers(0, min(2, d - 2)))
    a = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=d - n_tiny, max_size=d - n_tiny))
                 + draw(st.lists(st.floats(1e-10, 1e-4), min_size=n_tiny, max_size=n_tiny)))
    a = np.array(draw(st.permutations(list(a / np.linalg.norm(a)))))
    b = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * math.fsum(a)
    return SectionSpec(dim=d, direction=a, radius=math.fsum(a) / 2 - b, offset=b)


@settings(max_examples=300, deadline=None)
@given(tiny_coordinate_cuts())
@example(SectionSpec(  # b > sum(a)/2: panels sized for omega > 0 were too wide
    dim=5, direction=np.array([0.46781285, 0.45850976, 0.34592449, 0.60523028, 0.29146612]),
    radius=-0.9038604378630077, offset=1.9883321839875312))
def test_integral_err_is_an_honest_bound(spec):
    ratio, _ = _exact_volumes(spec.direction, spec.offset)
    lo, hi = _sqrt_bounds(sum(Fraction(float(x)) ** 2 for x in spec.direction))
    result = section_volume_integral(spec)
    value, err = Fraction(result.value), Fraction(result.err)
    assert value - err <= ratio * lo and ratio * hi <= value + err


class TestHalfspaceVolume:
    def test_central_half(self):
        rng = rng_for(21)
        for d in (2, 3, 5, 7):
            a = random_unit_direction(rng, d)
            assert halfspace_volume(make_section_spec(a, 0.0)).value == pytest.approx(
                0.5, abs=1e-12
            )

    def test_triangle_eighth(self):
        spec = make_section_spec([1, 1], math.sqrt(2) / 4)
        assert halfspace_volume(spec).value == pytest.approx(0.125, abs=1e-15)

    def test_whole_cube_below(self):
        a = np.array([0.3, 0.5, 0.8])
        value = _vertex_sum(a, float(np.sum(a)) + 0.1, 1)[1]
        assert value == 1.0

    def test_complement_identity(self):
        rng = rng_for(31)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            a = random_unit_direction(rng, d)
            b = float(rng.uniform(0.02, 0.98)) * float(np.sum(a))
            lo = _vertex_sum(a, b, 1)[1]
            hi = _vertex_sum(a, float(np.sum(a)) - b, 1)[1]
            assert lo + hi == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_offset(self):
        a = random_unit_direction(rng_for(33), 4)
        bs = np.linspace(-0.1, float(np.sum(a)) + 0.1, 40)
        vals = [_vertex_sum(a, float(b), 1)[1] for b in bs]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
        assert vals[0] == 0.0 and vals[-1] == 1.0


class TestCornerAndEdgeForms:
    """The corner (origin alone below) and edge (one neighbour) cuts are
    star cuts; ``star_volume`` covers both and any set of neighbours."""

    def test_corner_matches_general_sum(self):
        rng = rng_for(41)
        for d in range(3, 11):
            for _ in range(6):
                spec = corner_spec(rng, d)
                assert star_volume(spec) == pytest.approx(
                    section_volume_vertex_sum(spec).value, rel=1e-12
                )

    def test_corner_direct_formula_d3(self):
        a = np.array([0.8, 0.36, 0.48])
        spec = make_section_spec(a, float(np.sum(a)) / 2 - 0.2)
        prod = float(np.prod(a))
        assert star_volume(spec) == pytest.approx(spec.offset**2 / (2 * prod), rel=1e-13)

    def test_corner_wrong_regime(self):
        # three vertices below: the origin and both neighbours, still a star
        spec = make_section_spec([1, 1], 0.0)
        assert star_volume(spec) == pytest.approx(math.sqrt(2), rel=1e-14)
        with pytest.raises(RegimeError):  # e_i + e_j below the cut
            star_volume(diagonal_section_spec(6, 0.3))
        with pytest.raises(RegimeError):  # nothing below
            star_volume(make_section_spec([1, 1, 1], 1.0))

    def test_edge_matches_general_sum(self):
        rng = rng_for(43)
        for d in range(3, 11):
            for _ in range(6):
                spec = edge_spec(rng, d)
                assert star_volume(spec) == pytest.approx(
                    section_volume_vertex_sum(spec).value, rel=1e-12
                )

    def test_edge_wrong_regime(self):
        # d = 4, t = 0.9: b = 0.1 lies below every coordinate, a corner cut
        spec = diagonal_section_spec(4, 0.9)
        assert star_volume(spec) == pytest.approx(
            section_volume_vertex_sum(spec).value, rel=1e-13)
        with pytest.raises(RegimeError):
            star_volume(diagonal_section_spec(5, 0.1))

    def test_star_matches_general_sum(self):
        # any number of neighbours below, short of a weight-2 vertex
        rng = rng_for(47)
        cut_counts = set()
        for d in range(3, 13):
            for _ in range(12):
                a = random_unit_direction(rng, d)
                low = np.sort(a)[:2]
                b = float(rng.uniform(0.05, 1.0)) * min(float(low[0] + low[1]),
                                                         float(np.sum(a)) / 2)
                spec = make_section_spec(a, float(np.sum(a)) / 2 - b)
                cut_counts.add(int(np.count_nonzero(spec.direction < spec.offset)))
                assert star_volume(spec) == pytest.approx(
                    section_volume_vertex_sum(spec).value, rel=1e-12
                )
        assert {0, 1, 2, 3} <= cut_counts

    def test_edge_tends_to_corner_form(self):
        # as the low coordinate climbs to the offset, the second term dies
        a = np.array([0.30, 0.55, 0.5, 0.45, 0.4])
        a /= np.linalg.norm(a)
        prod = float(np.prod(a))
        target = None
        diffs = []
        for eps in (1e-2, 1e-4, 1e-6):
            b = float(a.min()) + eps
            spec = make_section_spec(a, float(np.sum(a)) / 2 - b)
            corner_form = b**4 / (24 * prod)
            diffs.append(abs(star_volume(spec) - corner_form))
            target = corner_form
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] <= 1e-14 * max(target, 1e-300)

    def test_edge_low_coordinate_to_zero_reduces_dimension(self):
        rest = np.array([0.52, 0.5, 0.47, 0.51])
        t = 0.9
        reduced = section_volume_vertex_sum(make_section_spec(rest, t)).value
        for eps, tol in ((1e-4, 1e-3), (1e-6, 1e-5)):
            full = make_section_spec(np.concatenate([[eps], rest]), t)
            assert star_volume(full) == pytest.approx(reduced, rel=tol)
        assert star_volume(make_section_spec(np.concatenate([[0.0], rest]), t)) == (
            pytest.approx(reduced, rel=1e-13))


class TestHalfspaceDerivative:
    def test_matches_vertex_sum_d4(self):
        spec = diagonal_section_spec(4, 0.9)
        fd = section_from_halfspace_derivative(spec, 1e-5)
        assert fd == pytest.approx(section_volume_vertex_sum(spec).value, abs=1e-8)

    def test_central_hexagon_value(self):
        fd = section_from_halfspace_derivative(diagonal_section_spec(3, 1e-3), 1e-6)
        assert fd == pytest.approx(1.29904, abs=1e-4)

    def test_empty_regime_zero(self):
        spec = make_section_spec([1, 1, 1], 1.2)
        assert section_from_halfspace_derivative(spec, 1e-6) == 0.0

    def test_cell_crossing_detected(self):
        a = np.full(3, 1 / math.sqrt(3))
        b_at_vertex = float(a[0])  # hyperplane through the neighbor vertices
        spec = make_section_spec(a, float(np.sum(a)) / 2 - b_at_vertex)
        with pytest.raises(CellCrossingError):
            section_from_halfspace_derivative(spec, 1e-6)

    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1e-6])
    def test_step_must_be_positive_and_finite(self, h):
        with pytest.raises(InvalidInputError, match="step h"):
            section_from_halfspace_derivative(diagonal_section_spec(4, 0.9), h)

    def test_second_order_accuracy(self):
        rng = rng_for(51)
        spec = smooth_cell_spec(rng, 5)
        truth = section_volume_vertex_sum(spec).value
        errs = [abs(section_from_halfspace_derivative(spec, h) - truth)
                for h in (1e-2, 1e-3)]
        # central differences: shrinking h tenfold cuts the error ~100x
        assert errs[1] <= errs[0] / 20


def eulerian_table(n):
    """Eulerian numbers by the standard recurrence (test oracle)."""
    row = [1]
    for m in range(1, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0)
            + (m - k) * (row[k - 1] if 0 <= k - 1 < len(row) else 0)
            for k in range(m)
        ]
    return row


def test_integer_diagonal_sections_are_eulerian():
    # radii are nonnegative, so far-side planes (s > d/2) are reached through
    # the x -> 1-x symmetry, matching the table's own palindrome property
    for d in (3, 4, 5, 6):
        table = eulerian_table(d - 1)
        for s in range(1, d):
            t = max(math.sqrt(d) / 2 - min(s, d - s) / math.sqrt(d), 0.0)
            value = section_volume_vertex_sum(diagonal_section_spec(d, t)).value
            expect = math.sqrt(d) * table[s - 1] / math.factorial(d - 1)
            assert table[s - 1] == table[d - 1 - s]
            assert value == pytest.approx(expect, rel=1e-12)
