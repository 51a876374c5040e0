import math
import multiprocessing
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hyperslice import montecarlo, parallel
from hyperslice.errors import InvalidInputError
from hyperslice.geometry import diagonal_section_spec, make_section_spec
from hyperslice.montecarlo import mc_halfspace_volume, mc_section_volume
from hyperslice.vertexsum import halfspace_volume, section_volume_vertex_sum, star_volume

from conftest import rng_for, random_unit_direction

N = 200_000
BATCH = 1 << 16

# d = 4 sections sample m = 3 coordinates: a batch of 123 draws takes 369
# words, the low half of its 185th raw output but not the high half
_ODD_SPEC = make_section_spec([0.3, 0.5, 0.6, 0.8], 0.1)
_ODD_N = 2 * BATCH + 123


def _reference_hits(coef, lo, hi, seed, n):
    """Hits of batch after batch drawn as documented, each summed by one
    matrix product of the explicit lattice points; returns the hits and the
    number of points within 1e-12 of a face, where rounding may differ."""
    hits = near = 0
    m = coef.size
    for index, offset in enumerate(range(0, n, BATCH)):
        size = min(BATCH, n - offset)
        raw = np.random.PCG64(seed).jumped(index).random_raw(-(-m * size // 2))
        k = raw.astype("<u8").view("<u4")[: m * size].reshape(m, size)
        y = coef @ ((k + 0.5) * 2.0**-32)
        hits += int(np.count_nonzero((y >= lo) & (y <= hi)))
        near += int(np.count_nonzero((abs(y - lo) < 1e-12) | (abs(y - hi) < 1e-12)))
    return hits, near


def _float64_values(coef, seed, n):
    """Slab values of all n draws as the batch kernel summed them before its
    float32 screen: every point in float64, 2^-33 sum(coef) plus row after
    row of coef_i 2^-32 k_i, in row order."""
    m = coef.size
    step = coef * 2.0**-32
    mid = math.fsum(coef) * 2.0**-33
    values = []
    for index, offset in enumerate(range(0, n, BATCH)):
        size = min(BATCH, n - offset)
        raw = np.random.PCG64(seed).jumped(index).random_raw((m * size + 1) // 2)
        k = raw.astype("<u8").view("<u4")[: m * size].reshape(m, size)
        y = np.full(size, mid)
        term = np.empty(size)
        for i in range(m):
            np.multiply(k[i], step[i], out=term)
            y += term
        values.append(y)
    return np.concatenate(values)


def _ulps(x, count):
    """x moved by count float64 ulps, up when count > 0."""
    for _ in range(abs(count)):
        x = float(np.nextafter(x, math.copysign(math.inf, count)))
    return x


def _scales(spec):
    """(section scale, m) and (half-space scale, m) of the sampled paths."""
    a, b = spec.direction, spec.offset
    k = int(np.argmax(a))
    rest = np.delete(a, k)
    w_sec = np.minimum(1.0, b / rest)
    w_half = np.minimum(1.0, b / a)
    return ((math.prod(w_sec) * float(np.linalg.norm(a)) / a[k], rest.size),
            (math.prod(w_half), a.size))


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

    @staticmethod
    def _assert_same_at_every_thread_count(monkeypatch, spec, n):
        outputs = []
        for threads in ("1", "2", "3", "4"):
            monkeypatch.setenv("HYPERSLICE_THREADS", threads)
            outputs.append((mc_section_volume(spec, n, seed=11),
                            mc_halfspace_volume(spec, n, seed=11)))
        assert all(out == outputs[0] for out in outputs)

    def test_bit_identical_across_thread_counts(self, monkeypatch):
        spec = make_section_spec([0.2, 0.5, 0.9, 0.1, 0.4], 0.3)
        self._assert_same_at_every_thread_count(monkeypatch, spec, 5 * BATCH + 123)

    def test_bit_identical_across_thread_counts_odd_partial(self, monkeypatch):
        self._assert_same_at_every_thread_count(monkeypatch, _ODD_SPEC, _ODD_N)


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


class TestLatticeKernel:
    """The batch kernel: its stream layout, its stderr and its pool."""

    @pytest.mark.parametrize("n", [BATCH, BATCH + 5, _ODD_N])
    def test_stream_layout(self, n):
        # batch i reads PCG64(seed).jumped(i).random_raw as little-endian
        # 32-bit words, whatever the number of later batches
        coef = np.array([0.3, 0.5, 0.8])
        hits, near = _reference_hits(coef, 0.4, 0.9, 17, n)
        assert abs(montecarlo._count_hits(coef, 0.4, 0.9, n, 17) - hits) <= near

    def test_calibration(self):
        # z = (est - exact) / se over the sampled estimates of 40 random specs
        # is close to N(0, 1), and each sampled stderr is the binomial term
        # plus scale * m * 2^-31
        rng = rng_for(303)
        zs = []
        for _ in range(40):
            d = int(rng.integers(3, 8))
            a = random_unit_direction(rng, d)
            spec = make_section_spec(a, float(rng.uniform(0.05, 0.9)) * float(np.sum(a)) / 2)
            for (est, se), exact, (scale, m) in zip(
                (mc_section_volume(spec, N, seed=int(rng.integers(2**31))),
                 mc_halfspace_volume(spec, N, seed=int(rng.integers(2**31)))),
                (section_volume_vertex_sum(spec).value, halfspace_volume(spec).value),
                _scales(spec),
            ):
                if se == 0.0:  # every box point hits: no sampling
                    assert est == pytest.approx(exact, rel=1e-12)
                    continue
                q = min(max(round(est / scale * N), 1), N - 1) / N
                assert se == pytest.approx(
                    scale * (math.sqrt(q * (1 - q) / N) + m * 2.0**-31), rel=1e-12)
                assert se >= scale * m * 2.0**-31
                zs.append((est - exact) / se)
        assert len(zs) >= 40
        assert abs(np.mean(zs)) < 0.5
        assert np.std(zs) < 1.3

    def test_one_pool_per_worker_count(self, monkeypatch):
        built = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(parallel, "_pool", None)
        monkeypatch.setattr(parallel, "_pool_threads", 0)
        monkeypatch.setenv("HYPERSLICE_THREADS", "2")
        first = mc_section_volume(_ODD_SPEC, _ODD_N, seed=3)
        assert mc_section_volume(_ODD_SPEC, _ODD_N, seed=3) == first
        assert built == [2]
        monkeypatch.setenv("HYPERSLICE_THREADS", "3")
        assert mc_section_volume(_ODD_SPEC, _ODD_N, seed=3) == first
        assert built == [2, 3]
        parallel._pool.shutdown()

    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        # the parent's pool threads do not exist in a forked child; reusing
        # that pool there would wait forever
        monkeypatch.setenv("HYPERSLICE_THREADS", "2")
        expected = mc_section_volume(_ODD_SPEC, _ODD_N, seed=4)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(mc_section_volume, (_ODD_SPEC, _ODD_N, 4)).get(timeout=60)
        assert got == expected

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
    def test_bad_thread_count_rejected(self, monkeypatch, raw):
        # refused before any pool is built, so no thread starts
        def no_pool(max_workers):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(parallel, "_pool", None)
        monkeypatch.setattr(parallel, "_pool_threads", 0)
        monkeypatch.setenv("HYPERSLICE_THREADS", raw)
        with pytest.raises(InvalidInputError, match="HYPERSLICE_THREADS"):
            parallel.worker_count()
        with pytest.raises(InvalidInputError, match="HYPERSLICE_THREADS"):
            mc_section_volume(_ODD_SPEC, _ODD_N, seed=0)

    @pytest.mark.parametrize("raw", ["257", "100000"])
    def test_thread_count_above_ceiling_rejected(self, monkeypatch, raw):
        # every batch is submitted at once and the pool starts a thread per
        # submission up to its size, so a huge value would start thousands
        # of threads; it is refused before any pool is built
        def no_pool(max_workers):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(parallel, "_pool", None)
        monkeypatch.setattr(parallel, "_pool_threads", 0)
        monkeypatch.setenv("HYPERSLICE_THREADS", raw)
        with pytest.raises(InvalidInputError, match="HYPERSLICE_THREADS"):
            parallel.worker_count()
        with pytest.raises(InvalidInputError, match="HYPERSLICE_THREADS"):
            mc_section_volume(_ODD_SPEC, _ODD_N, seed=0)

    def test_thread_count_ceiling_accepted(self, monkeypatch):
        monkeypatch.setenv("HYPERSLICE_THREADS", "256")
        assert parallel.worker_count() == 256

    @pytest.mark.parametrize("seed", [0, 17, 2**63 + 9])
    def test_jump_step_is_numpys(self, seed):
        # a batch's stream is the seed's state advanced by index * _JUMP;
        # _JUMP copies numpy's internal jump step, so this fails if numpy
        # changes what jumped() does
        for index in (0, 1, 15, 2**32 + 5, 2**62):
            bits = np.random.PCG64(0)
            bits.state = np.random.PCG64(seed).state
            bits.advance(index * montecarlo._JUMP)
            assert bits.state == np.random.PCG64(seed).jumped(index).state

    def test_batch_memory_independent_of_d(self, monkeypatch):
        # besides the raw words, a batch holds the thread's two float32 rows
        # (made once per thread) and O(2^16) bytes of temporaries, at any m
        monkeypatch.setenv("HYPERSLICE_THREADS", "1")
        for m in (3, 39):
            coef = np.full(m, 0.1)
            montecarlo._count_hits(coef, 0.1, 0.2, BATCH, 0)
            tracemalloc.start()
            try:
                montecarlo._count_hits(coef, 0.1, 0.2, BATCH, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * m * BATCH + 4 * BATCH


class TestFloat32Screen:
    """_count_hits screens each batch in float32 and sums in float64 only
    the points near a face: its count equals that of the float64 kernel
    over every point, exactly."""

    @pytest.mark.parametrize("n", [BATCH, BATCH + 5, _ODD_N])
    @pytest.mark.parametrize("kind", ["section", "halfspace", "upper"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 39])
    def test_equals_float64_kernel(self, m, kind, n):
        rng = rng_for(700 + m)
        coef = rng.uniform(0.05, 1.0, m)
        seed = int(rng.integers(2**31))
        for scale in (1.0, 2.0**-100):
            c = coef * scale
            y = _float64_values(c, seed, n)
            ordered = np.sort(y)
            for ulps in (0, 1, -1, 3, -3):
                # faces on the float64 values of drawn points, a few ulps
                # either side; "upper" puts hi beyond every point
                lo = _ulps(float(ordered[n // 3]), -ulps)
                hi = _ulps(float(ordered[2 * n // 3]), ulps)
                if kind == "halfspace":
                    lo = -math.inf
                elif kind == "upper":
                    hi = 3.0 * math.fsum(c)
                expected = int(np.count_nonzero((y >= lo) & (y <= hi)))
                assert montecarlo._count_hits(c, lo, hi, n, seed) == expected

    def test_zero_and_tiny_coefficients(self):
        # a zero row adds nothing; a 1e-35 row rounds to a subnormal or zero
        # float32 step, which the screen's bound covers
        coef = np.array([0.7, 0.0, 1e-35, 0.4])
        y = _float64_values(coef, 5, _ODD_N)
        ordered = np.sort(y)
        for lo, hi in ((ordered[100], ordered[-100]), (-math.inf, ordered[_ODD_N // 2])):
            expected = int(np.count_nonzero((y >= lo) & (y <= hi)))
            assert montecarlo._count_hits(coef, float(lo), float(hi), _ODD_N, 5) == expected
