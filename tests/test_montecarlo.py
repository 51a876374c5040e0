import math

import numpy as np
import pytest

from hyperslice.errors import InvalidInputError
from hyperslice.geometry import diagonal_section_spec, make_section_spec
from hyperslice.montecarlo import mc_halfspace_volume, mc_section_volume
from hyperslice.vertexsum import halfspace_volume, section_volume_vertex_sum, star_volume

from conftest import rng_for, random_unit_direction

N = 200_000


class TestHalfspaceEstimator:
    def test_central_symmetry(self):
        spec = make_section_spec([0.3, 0.9, 0.4], 0.0)
        est, se = mc_halfspace_volume(spec, N, seed=0)
        assert abs(est - 0.5) <= 3 * se

    def test_nonpositive_offset_exact_zero(self):
        spec = make_section_spec([1, 1], 1.0)
        est, se = mc_halfspace_volume(spec, N, seed=0)
        assert (est, se) == (0.0, 0.0)

    def test_triangle(self):
        spec = make_section_spec([1, 1], math.sqrt(2) / 4)
        est, se = mc_halfspace_volume(spec, 10**6, seed=0)
        assert abs(est - 0.125) <= 3 * se

    def test_reproducible(self):
        spec = make_section_spec([0.2, 0.5, 0.9, 0.1], 0.4)
        assert mc_halfspace_volume(spec, N, seed=7) == mc_halfspace_volume(spec, N, seed=7)


class TestSectionEstimator:
    def test_hexagon(self):
        est, se = mc_section_volume(diagonal_section_spec(3, 0.0), 10**6, seed=0)
        assert abs(est - 3 * math.sqrt(3) / 4) <= 3 * se

    def test_empty_section(self):
        est, se = mc_section_volume(make_section_spec([1, 1, 1], 1.0), N, seed=0)
        assert (est, se) == (0.0, 0.0)

    def test_diagonal_corner_d5(self):
        spec = diagonal_section_spec(5, 1.0)
        truth = section_volume_vertex_sum(spec).value
        est, se = mc_section_volume(spec, 10**6, seed=1)
        assert abs(est - truth) <= 3 * se

    def test_reproducible(self):
        spec = diagonal_section_spec(4, 0.8)
        assert mc_section_volume(spec, N, seed=3) == mc_section_volume(spec, N, seed=3)

    def test_seed_changes_stream(self):
        spec = diagonal_section_spec(4, 0.8)
        assert mc_section_volume(spec, N, seed=3) != mc_section_volume(spec, N, seed=4)


class TestBoxSampler:
    """Specs where the sampling box degenerates or shrinks."""

    @pytest.mark.parametrize(
        "a, t",
        [
            ([1, 0, 1], 0.3),           # zero coordinate: width 1, no division
            ([0.6, 1e-12, 0.8], 0.2),   # just above ZERO_COORD_TOL
            ([0.6, 0.8], 0.1),          # d = 2: a segment
            ([1, 1, 0.5], 0.4),         # tied argmax
            ([0.5, 1, 1, 0.7], 0.3),    # tied argmax, not the first coordinate
        ],
    )
    def test_against_vertex_sum(self, a, t):
        # with one free coordinate (d = 2, or zero coordinates) every box
        # point hits and the section estimate is exact with se = 0; a 1e-12
        # coordinate leaves a miss region of relative size ~1e-12 that N
        # draws do not see, hence the small absolute allowance
        spec = make_section_spec(a, t)
        est, se = mc_section_volume(spec, N, seed=5)
        assert abs(est - section_volume_vertex_sum(spec).value) <= 3 * se + 1e-9
        est, se = mc_halfspace_volume(spec, N, seed=6)
        assert abs(est - halfspace_volume(spec).value) <= 3 * se + 1e-9

    def test_all_hit_sample_reports_positive_stderr(self):
        # every draw hits, but the box holds a miss region of relative size
        # ~1e-12, so the sample does not make the estimate exact
        spec = make_section_spec([0.6, 1e-12, 0.8], 0.2)
        est, se = mc_section_volume(spec, 200_000, seed=5)
        assert se > 0.0
        assert abs(est - section_volume_vertex_sum(spec).value) <= 3 * se

    def test_shallow_corner_cut(self):
        # b = 1e-3: the box shrinks with b, so a fraction 1/(d-1)! of the
        # draws still hits and the relative stderr stays small
        a = np.array([0.3, 0.5, 0.4, 0.7]) / math.sqrt(0.99)
        spec = make_section_spec(a, float(np.sum(a)) / 2 - 1e-3)
        truth = star_volume(spec)
        est, se = mc_section_volume(spec, N, seed=2)
        assert abs(est - truth) <= 3 * se
        assert se < 0.01 * truth

    @pytest.mark.parametrize(
        "spec",
        [make_section_spec([1, 1, 1], 1.0), diagonal_section_spec(4, 1.0)],
        ids=["b<0", "b=0"],
    )
    def test_nonpositive_offset_exact_zero(self, spec):
        assert spec.offset <= 0.0
        assert mc_section_volume(spec, N, seed=0) == (0.0, 0.0)
        assert mc_halfspace_volume(spec, N, seed=0) == (0.0, 0.0)

    def test_zero_offset_face(self):
        # b == 0 with a zero coordinate: the section is the face x_0 = 0
        spec = make_section_spec([1, 0, 0], 0.5)
        assert spec.offset == 0.0
        assert section_volume_vertex_sum(spec).value == 1.0
        assert mc_section_volume(spec, N, seed=0) == (1.0, 0.0)
        assert mc_halfspace_volume(spec, N, seed=0) == (0.0, 0.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_draws_rejected(self, n):
        # one draw leaves the clamp range [1/n, 1 - 1/n] empty and would
        # report stderr 0 for a single-point estimate
        spec = make_section_spec([0.2, 0.5, 0.9], 0.3)
        with pytest.raises(InvalidInputError):
            mc_section_volume(spec, n, seed=0)
        with pytest.raises(InvalidInputError):
            mc_halfspace_volume(spec, n, seed=0)

    def test_bit_identical_across_thread_counts(self, monkeypatch):
        spec = make_section_spec([0.2, 0.5, 0.9, 0.1, 0.4], 0.3)
        n = 5 * (1 << 16) + 123
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("HYPERSLICE_THREADS", threads)
            outputs.append((mc_section_volume(spec, n, seed=11),
                            mc_halfspace_volume(spec, n, seed=11)))
        assert outputs[0] == outputs[1]


def test_consistency_against_formulas():
    # both estimators land within 3 standard errors of the exact values on
    # most random specs (plus a counting floor where hits are scarce)
    rng = rng_for(101)
    failures = 0
    trials = 0
    for _ in range(24):
        d = int(rng.integers(2, 7))
        a = random_unit_direction(rng, d)
        t = float(rng.uniform(0.02, 0.98)) * float(np.sum(a)) / 2
        spec = make_section_spec(a, t)
        hs = halfspace_volume(spec).value
        est_h, se_h = mc_halfspace_volume(spec, N, seed=int(rng.integers(2**31)))
        floor_h = 6.0 / N
        trials += 1
        failures += abs(est_h - hs) > 3 * se_h + floor_h
        vs = section_volume_vertex_sum(spec).value
        est_s, se_s = mc_section_volume(spec, N, seed=int(rng.integers(2**31)))
        disk = math.pi ** ((d - 1) / 2) / math.gamma((d + 1) / 2) * (math.sqrt(d) / 2) ** (d - 1)
        trials += 1
        failures += abs(est_s - vs) > 3 * se_s + 6.0 * disk / N
    assert failures <= max(1, trials // 50)
