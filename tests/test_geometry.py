import itertools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import irwinhall

from hyperslice import geometry
from hyperslice.certificates import default_y_grid, quad_coeffs, sign_certificates
from hyperslice.errors import CapacityError, InvalidInputError
from hyperslice.geometry import (
    CutKind,
    classify_cut,
    coordinate_sum,
    diagonal_section_spec,
    integer_cut,
    make_section_spec,
    vertex_terms,
)
from hyperslice.integral import make_quadrature_config
from hyperslice.vertexsum import section_volume_vertex_sum

from conftest import rng_for, random_unit_direction


def brute_force_below(spec):
    """Every vertex v of the cube with a.v <= b exactly, by listing all 2^d."""
    a = [Fraction(float(x)) for x in spec.direction]
    return [v for v in itertools.product((0, 1), repeat=spec.dim)
            if sum(x for x, vi in zip(a, v) if vi) <= Fraction(spec.offset)]


def brute_force_kind(verts):
    """Combinatorial type of a listed vertex set, from its Hamming geometry."""
    def hamming(u, v):
        return sum(x != y for x, y in zip(u, v))

    def spanning(vs):
        return sum(any(v[i] != vs[0][i] for v in vs) for i in range(len(vs[0])))

    n = len(verts)
    if n == 0:
        return CutKind.EMPTY
    if n == 1:
        return CutKind.CORNER
    if n == 2:
        return CutKind.EDGE if hamming(*verts) == 1 else CutKind.OTHER
    if n == 3:
        return CutKind.SQUARE3 if spanning(verts) == 2 else CutKind.OTHER
    if n == 4:
        if spanning(verts) == 2:
            return CutKind.SQUARE4
        for center in verts:
            if all(v == center or hamming(v, center) == 1 for v in verts):
                return CutKind.CLAW4
    return CutKind.OTHER


def assert_matches_brute_force(spec):
    verts = brute_force_below(spec)
    cut = classify_cut(spec)
    assert (cut.count_below, cut.kind) == (len(verts), brute_force_kind(verts))
    return verts


class TestMakeSectionSpec:
    def test_central_diagonal(self):
        spec = make_section_spec([1, 1, 1], 0.0)
        assert np.allclose(spec.direction, np.full(3, 1 / math.sqrt(3)))
        assert spec.offset == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_axis_direction_negative_offset(self):
        spec = make_section_spec([2, 0], 1.0)
        assert spec.direction.tolist() == [1.0, 0.0]
        assert spec.offset == pytest.approx(-0.5, abs=1e-15)

    def test_three_four_direction(self):
        spec = make_section_spec([3, 4], 0.1)
        assert spec.direction.tolist() == [0.6, 0.8]
        assert spec.offset == pytest.approx(0.6, abs=1e-15)

    def test_unit_norm_invariant(self):
        rng = rng_for(7)
        for d in (2, 3, 5, 9):
            spec = make_section_spec(rng.uniform(0.1, 4.0, size=d), rng.uniform(0, 1))
            assert abs(np.linalg.norm(spec.direction) - 1.0) <= 1e-12
            assert spec.offset == coordinate_sum(spec.direction) / 2 - spec.radius

    def test_center_distance_equals_radius(self):
        rng = rng_for(11)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            spec = make_section_spec(rng.uniform(0.1, 2.0, size=d), rng.uniform(0, 1.2))
            center = np.full(d, 0.5)
            dist = abs(float(spec.direction @ center) - spec.offset)
            assert dist == pytest.approx(spec.radius, abs=1e-12)

    @pytest.mark.parametrize(
        "a_raw, t",
        [([0, 0, 0], 0.5), ([1, -0.2, 1], 0.5), ([1, 1], -0.1), ([1], 0.1)],
    )
    def test_invalid_inputs(self, a_raw, t):
        with pytest.raises(InvalidInputError):
            make_section_spec(a_raw, t)

    def test_huge_coordinates_normalize(self):
        # the norm of [1e308] * 3 overflowed and left an all-zero direction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = make_section_spec([1e308] * 3, 0.1)
        assert spec.direction.tolist() == make_section_spec([1, 1, 1], 0.1).direction.tolist()

    def test_subnormal_coordinates_normalize(self):
        # the norm of subnormal coordinates underflowed to zero and the
        # direction was refused as zero
        spec = make_section_spec([1e-320, 1e-320, 2e-320], 0.1)
        assert np.allclose(spec.direction, np.array([1, 1, 2]) / math.sqrt(6), rtol=1e-3)
        assert abs(np.linalg.norm(spec.direction) - 1.0) <= 1e-15

    def test_power_of_two_scaling_keeps_the_direction(self):
        rng = rng_for(13)
        for _ in range(200):
            a = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 9)))
            scale = 2.0 ** int(rng.integers(-900, 900))
            assert np.array_equal(make_section_spec(a * scale, 0.2).direction,
                                  make_section_spec(a, 0.2).direction)

    def test_direction_is_read_only(self):
        spec = make_section_spec([1, 2, 2], 0.3)
        with pytest.raises(ValueError):
            spec.direction[0] = 5.0

    def test_results_have_no_instance_dict(self):
        # a per-instance dict would add to every spec and result a caller
        # keeps
        spec = make_section_spec([1, 2, 2], 0.3)
        for obj in (spec, classify_cut(spec), section_volume_vertex_sum(spec),
                    make_quadrature_config(spec), quad_coeffs(6, 0.5),
                    sign_certificates(6, default_y_grid(100))):
            assert not hasattr(obj, "__dict__"), type(obj).__name__


class TestCoordinateHelpers:
    def test_sum(self):
        assert coordinate_sum([1, 0, 1, 1]) == 3


class TestVerticesBelow:
    def test_deep_corner_only_origin(self):
        spec = make_section_spec([1, 1, 1], 0.8)
        assert assert_matches_brute_force(spec) == [(0, 0, 0)]
        assert classify_cut(spec).kind is CutKind.CORNER

    def test_negative_offset_empty(self):
        spec = make_section_spec([2, 0], 1.0)
        assert assert_matches_brute_force(spec) == []
        assert classify_cut(spec).kind is CutKind.EMPTY

    def test_central_square_ties_included(self):
        spec = make_section_spec([1, 1], 0.0)
        assert assert_matches_brute_force(spec) == [(0, 0), (0, 1), (1, 0)]
        assert classify_cut(spec).kind is CutKind.SQUARE3

    def test_matches_brute_force(self):
        rng = rng_for(3)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            spec = make_section_spec(rng.uniform(0.05, 1.0, size=d), rng.uniform(0, 1))
            assert_matches_brute_force(spec)

    def test_capacity_error(self):
        # one group of 31 equal coordinates: 16 grouped terms at t = 0
        center = section_volume_vertex_sum(make_section_spec(np.ones(31), 0.0))
        assert center.cut.count_below == 2**30
        assert center.value == pytest.approx(
            math.sqrt(31) * irwinhall(31).pdf(31 / 2), rel=1e-12)
        deep = make_section_spec(np.ones(31), 2.7)
        assert classify_cut(deep).count_below == 1
        # distinct coordinates: about 2^39 vertices below, refused quickly
        spec = make_section_spec(random_unit_direction(rng_for(40), 40), 0.0)
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            classify_cut(spec)
        with pytest.raises(CapacityError):
            section_volume_vertex_sum(spec)
        assert time.perf_counter() - start < 10.0

    def test_capacity_refused_before_the_first_term(self):
        # the smallest 29 coordinates fit below b together: 2^29 terms at least
        spec = make_section_spec(random_unit_direction(rng_for(40), 40), 0.0)
        cut = integer_cut(spec.direction, spec.offset)
        assert sum(s <= cut.offset for s in itertools.accumulate(cut.values)) == 29
        walk = vertex_terms(cut)
        with pytest.raises(CapacityError, match=f"more than {geometry.MAX_TERMS} grouped"):
            next(walk)


class TestClassifyCut:
    def test_diagonal_corner(self):
        cut = classify_cut(diagonal_section_spec(5, 1.0))
        assert (cut.kind, cut.count_below) == (CutKind.CORNER, 1)

    def test_constructed_edge(self):
        a = np.array([0.1, 0.55, 0.55, 0.44, 0.44])
        a = a / np.linalg.norm(a)
        b = 2.0 * a.min()
        spec = make_section_spec(a, float(np.sum(a)) / 2 - b)
        cut = classify_cut(spec)
        assert (cut.kind, cut.count_below) == (CutKind.EDGE, 2)

    def test_empty_when_radius_clears_cube(self):
        spec = make_section_spec([1, 2, 2], 2.0)
        assert classify_cut(spec).kind is CutKind.EMPTY

    def test_square3_and_square4(self):
        # two tiny coordinates: the near side collects the face they span
        a = np.array([0.02, 0.03, 0.9, 0.9, 0.9])
        spec = make_section_spec(a, float(np.sum(a / np.linalg.norm(a))) / 2 - 0.1)
        cut = classify_cut(spec)
        assert cut.kind is CutKind.SQUARE4
        assert cut.count_below == 4
        # raise the hyperplane to drop the far vertex of that face
        a2 = np.array([0.02, 0.08, 0.9, 0.9, 0.9])
        norm = a2 / np.linalg.norm(a2)
        b3 = 0.09 / np.linalg.norm(a2)  # between a1+a2 and max single coordinate
        spec3 = make_section_spec(a2, float(np.sum(norm)) / 2 - b3)
        cut3 = classify_cut(spec3)
        assert (cut3.kind, cut3.count_below) == (CutKind.SQUARE3, 3)

    def test_claw4(self):
        # diagonal of d=4 right below the neighbor level: origin + 4 is claw5;
        # build an asymmetric direction so exactly 3 neighbors fall below
        a = np.array([0.52, 0.5, 0.5, 0.5, 0.7])
        norm = a / np.linalg.norm(a)
        b = 0.51 / np.linalg.norm(a)
        spec = make_section_spec(a, float(np.sum(norm)) / 2 - b)
        cut = classify_cut(spec)
        assert (cut.kind, cut.count_below) == (CutKind.CLAW4, 4)

    def test_diagonal_threshold_band(self):
        # along the diagonal the near side holds exactly the origin for
        # sqrt(d)/2 - 1/sqrt(d) < t < sqrt(d)/2, a band containing
        # (sqrt(d-1)/2, sqrt(d)/2)
        for d in (3, 4, 6):
            lo_claim = math.sqrt(d - 1) / 2
            hi = math.sqrt(d) / 2
            neighbor_level = hi - 1 / math.sqrt(d)
            assert neighbor_level < lo_claim
            for t in np.linspace(lo_claim + 1e-9, hi - 1e-9, 7):
                assert classify_cut(diagonal_section_spec(d, float(t))).count_below == 1
            assert classify_cut(diagonal_section_spec(d, neighbor_level + 1e-9)).count_below == 1
            assert (
                classify_cut(diagonal_section_spec(d, neighbor_level - 1e-9)).count_below
                == d + 1
            )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.floats(min_value=0.01, max_value=1.0),
                       st.integers(min_value=1, max_value=4)), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=4.0),
)
def test_capacity_bound_never_exceeds_the_term_count(groups, b):
    # a walk capped at exactly its own term count finishes, one term less
    # refuses it: the pre-walk lower bound never refuses a cut that fits
    xs = [x for x, m in groups for _ in range(m)][:10]
    cut = integer_cut(xs, b)
    count = sum(
        1 for takes in itertools.product(*(range(m + 1) for m in cut.mults))
        if sum(k * v for k, v in zip(takes, cut.values)) <= cut.offset
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "MAX_TERMS", count)
        assert sum(1 for _ in vertex_terms(cut)) == count
        patch.setattr(geometry, "MAX_TERMS", count - 1)
        with pytest.raises(CapacityError):
            list(vertex_terms(cut))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1.4),
    st.floats(min_value=0.0, max_value=1.4),
)
def test_count_below_non_increasing_in_radius(d, seed, t1, t2):
    a = random_unit_direction(rng_for(seed), d)
    lo, hi = sorted((t1, t2))
    n_lo = classify_cut(make_section_spec(a, lo)).count_below
    n_hi = classify_cut(make_section_spec(a, hi)).count_below
    assert n_lo >= n_hi


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_nonpositive_offset_means_trivial_vertex_set(d, seed, t):
    a = random_unit_direction(rng_for(seed), d)
    spec = make_section_spec(a, t)
    verts = assert_matches_brute_force(spec)
    if spec.offset < 0:
        assert verts == []
    elif spec.offset == 0:
        assert verts == [tuple([0] * d)]
    else:
        assert tuple([0] * d) in verts
