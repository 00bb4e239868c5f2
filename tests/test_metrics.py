"""Metric oracles: direct-formula SSIM, exact rank enumeration, quantiles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vrmsi.metrics import (
    EdgeSegment,
    EdgeSupportError,
    FlatEdgeError,
    SsimParams,
    edge_profile,
    mann_whitney_u,
    psnr,
    resi,
    ssim,
    summarize,
)


def ssim_loop_oracle(test, reference, params=SsimParams()):
    """Independent direct-formula SSIM: explicit loops over window positions."""
    win = params.window()
    n = params.window_size
    peak = reference.max()
    c1 = (params.k1 * peak) ** 2
    c2 = (params.k2 * peak) ** 2
    rows, cols = test.shape
    values = []
    for r in range(rows - n + 1):
        for c in range(cols - n + 1):
            t = test[r:r + n, c:c + n]
            f = reference[r:r + n, c:c + n]
            mu_t = (win * t).sum()
            mu_f = (win * f).sum()
            var_t = (win * t * t).sum() - mu_t ** 2
            var_f = (win * f * f).sum() - mu_f ** 2
            cov = (win * t * f).sum() - mu_t * mu_f
            values.append(
                ((2 * mu_t * mu_f + c1) * (2 * cov + c2))
                / ((mu_t ** 2 + mu_f ** 2 + c1) * (var_t + var_f + c2))
            )
    return float(np.mean(values))


class TestSsim:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.random((24, 24))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_checkerboard_negative(self):
        rr, cc = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
        board = ((rr + cc) % 2).astype(float)
        value = ssim(1.0 - board, board)
        assert value < 0
        assert value == pytest.approx(ssim_loop_oracle(1.0 - board, board), abs=1e-8)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_direct_formula_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((20, 20))
        b = np.clip(a + 0.2 * rng.standard_normal((20, 20)), 0, 2)
        assert ssim(a, b) == pytest.approx(ssim_loop_oracle(a, b), abs=1e-8)

    def test_symmetric_when_peak_shared(self):
        rng = np.random.default_rng(4)
        a = rng.random((16, 16))
        b = rng.random((16, 16))
        a[0, 0] = 1.0
        b[0, 0] = 1.0  # same dynamic range either way round
        assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.ones((8, 8)), np.ones((9, 8)))

    def test_window_normalized(self):
        assert SsimParams().window().sum() == pytest.approx(1.0)


class TestPsnr:
    def test_twenty_db_case(self):
        ref = np.zeros((10, 10))
        ref[0, 0] = 1.0
        test = ref + 0.1  # MSE = L^2 / 100 exactly
        assert psnr(test, ref) == pytest.approx(20.0)

    def test_identical_infinite(self):
        x = np.random.default_rng(1).random((8, 8))
        assert math.isinf(psnr(x, x))

    def test_zero_reference_maximum_rejected(self):
        ref = np.zeros((8, 8))
        assert math.isinf(psnr(ref, ref))
        with pytest.raises(ValueError, match="positive maximum"):
            psnr(ref + 0.1, ref)

    def test_noise_monotonic(self):
        rng = np.random.default_rng(2)
        ref = rng.random((32, 32))
        values = []
        for level in (0.01, 0.02, 0.05, 0.1, 0.2):
            noisy = ref + level * rng.standard_normal(ref.shape)
            values.append(psnr(noisy, ref))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shift_changes_only_the_peak_term(self):
        rng = np.random.default_rng(3)
        ref = rng.random((16, 16)) + 0.5
        test = ref + 0.1 * rng.standard_normal(ref.shape)
        shift = 2.0
        before = psnr(test, ref)
        after = psnr(test + shift, ref + shift)
        expected_delta = 20 * math.log10((ref.max() + shift) / ref.max())
        assert after - before == pytest.approx(expected_delta, abs=1e-9)


def ramp_image(rows=32, cols=32, slope=0.1):
    rr = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")[0]
    return 0.2 + slope * rr


class TestEdgeProfile:
    def test_constant_image_flat_profile(self):
        img = np.full((32, 32), 0.7)
        seg = EdgeSegment((10.0, 10.0), (20.0, 20.0), signal_floor=0.1)
        profile = edge_profile(img, seg)
        assert np.allclose(profile.intensities, 0.7)

    def test_step_edge_interpolates_exactly(self):
        img = np.zeros((32, 32))
        img[:, 16:] = 1.0
        seg = EdgeSegment((16.0, 10.0), (16.0, 22.0), samples_per_unit=1.0, signal_floor=-1.0)
        profile = edge_profile(img, seg)
        # bilinear interpolation along a row: analytic values known everywhere
        expected = np.clip(10.0 + profile.positions - 15.0, 0.0, 1.0)
        assert np.allclose(profile.intensities, expected, atol=1e-12)

    def test_reversal_flips_slope_sign(self):
        img = ramp_image()
        fwd = EdgeSegment((8.0, 16.0), (24.0, 16.0), signal_floor=0.0)
        rev = EdgeSegment((24.0, 16.0), (8.0, 16.0), signal_floor=0.0)
        r_fwd = resi(img, img, fwd)
        r_rev = resi(img, img, rev)
        assert r_fwd == pytest.approx(1.0)
        assert r_rev == pytest.approx(1.0)

    def test_regression_subset_is_3_or_4_straddling(self):
        img = ramp_image()
        seg = EdgeSegment((8.0, 16.0), (24.0, 16.0), signal_floor=0.5)
        profile = edge_profile(img, seg)
        assert 3 <= profile.regression_idx.size <= 4
        mid = seg.length / 2
        positions = profile.positions[profile.regression_idx]
        assert positions.min() < mid <= positions.max()

    def test_insufficient_support_raises(self):
        img = np.zeros((32, 32))
        seg = EdgeSegment((8.0, 16.0), (24.0, 16.0), signal_floor=0.5)
        with pytest.raises(EdgeSupportError):
            edge_profile(img, seg)

    def test_segment_too_short_rejected(self):
        with pytest.raises(ValueError):
            EdgeSegment((0.0, 0.0), (1.0, 1.0))

    def test_endpoint_outside_image_rejected(self):
        seg = EdgeSegment((1.0, 1.0), (40.0, 40.0))
        with pytest.raises(ValueError):
            edge_profile(np.ones((16, 16)), seg)


def blur_separable(img, sigma=1.5):
    radius = int(3 * sigma)
    x = np.arange(-radius, radius + 1)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    out = np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), 0, img)
    return np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), 1, img)


class TestResi:
    def test_self_is_one(self):
        img = ramp_image()
        seg = EdgeSegment((8.0, 16.0), (24.0, 16.0), signal_floor=0.0)
        assert resi(img, img, seg) == pytest.approx(1.0)

    def test_blur_reduces_sharpness(self):
        img = np.zeros((48, 48))
        img[:, 24:] = 1.0
        img = 0.1 + 0.9 * img
        seg = EdgeSegment((24.0, 18.0), (24.0, 30.0), signal_floor=0.05)
        assert resi(blur_separable(img, 2.0), img, seg) < 1.0

    def test_pure_scaling_scales_resi(self):
        # floor sits below every sample of both images, so the same points
        # are selected and the weighted slope scales linearly
        img = ramp_image()
        seg = EdgeSegment((8.0, 16.0), (24.0, 16.0), signal_floor=0.1)
        a = 3.0
        assert resi(a * img, img, seg) == pytest.approx(a, rel=1e-10)

    def test_joint_scaling_invariant(self):
        rng = np.random.default_rng(5)
        img = ramp_image() + 0.01 * rng.standard_normal((32, 32))
        other = blur_separable(img, 1.0)
        seg = EdgeSegment((8.0, 16.0), (24.0, 16.0))  # auto floor scales along
        base = resi(other, img, seg)
        scaled = resi(41.0 * other, 41.0 * img, seg)
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_flat_reference_rejected(self):
        flat = np.full((32, 32), 0.5)
        img = ramp_image()
        seg = EdgeSegment((8.0, 16.0), (24.0, 16.0), signal_floor=0.0)
        with pytest.raises(FlatEdgeError):
            resi(img, flat, seg)


def exact_two_sided_p(a, b):
    """Exhaustive permutation distribution of U for small samples (no ties)."""
    pooled = np.concatenate([a, b])
    n1 = len(a)
    u_obs = mann_whitney_u(a, b)[0]
    mean_u = n1 * (len(b)) / 2.0
    count = 0
    total = 0
    for idx in itertools.combinations(range(len(pooled)), n1):
        mask = np.zeros(len(pooled), bool)
        mask[list(idx)] = True
        u = sum(1.0 for x in pooled[mask] for y in pooled[~mask] if x > y)
        total += 1
        if abs(u - mean_u) >= abs(u_obs - mean_u) - 1e-12:
            count += 1
    return count / total


class TestMannWhitney:
    def test_complete_separation(self):
        u, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
        assert u == 0.0

    def test_identical_samples_p_one(self):
        u, p = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == pytest.approx(1.0)

    def test_all_values_identical_p_one(self):
        u, p = mann_whitney_u([5.0, 5.0], [5.0, 5.0, 5.0])
        assert p == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exact_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5) + rng.uniform(-1, 1)
        _, p_normal = mann_whitney_u(a, b)
        p_exact = exact_two_sided_p(a, b)
        assert abs(p_normal - p_exact) < 0.02

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), min_size=3, max_size=12),
        st.lists(st.integers(-100, 100), min_size=3, max_size=12),
    )
    def test_invariant_under_monotone_transform(self, a, b):
        # integer-valued samples keep the transform injective in float64
        u1, p1 = mann_whitney_u(a, b)
        transform = lambda xs: [math.exp(x / 50.0) for x in xs]
        u2, p2 = mann_whitney_u(transform(a), transform(b))
        assert u1 == pytest.approx(u2)
        assert p1 == pytest.approx(p2)


class TestSummarize:
    def test_simple_median(self):
        med, iqr = summarize([1.0, 2.0, 3.0, 4.0])
        assert med == pytest.approx(2.5)

    def test_constant_iqr_zero(self):
        med, iqr = summarize([7.0] * 9)
        assert iqr == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sorted_interpolation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(rng.integers(3, 40))

        def quantile_oracle(sorted_vals, q):
            pos = q * (len(sorted_vals) - 1)
            lo = int(math.floor(pos))
            hi = min(lo + 1, len(sorted_vals) - 1)
            frac = pos - lo
            return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac

        s = np.sort(values)
        med, iqr = summarize(values)
        assert med == pytest.approx(quantile_oracle(s, 0.5), rel=1e-12)
        assert iqr == pytest.approx(quantile_oracle(s, 0.75) - quantile_oracle(s, 0.25), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
