"""Reconstruction oracles: zero-fill, apodized ACS, homodyne, PI, full paths."""

import numpy as np
import pytest

from vrmsi.core import crop_center_array, fft2c, ifft2c, pad_center_array
from vrmsi.phantom import PhantomTruth, coil_sensitivities, simulate_bins
from vrmsi.recon import (
    KernelGeometry,
    METHOD_CR_VR,
    METHOD_CR_ZREPLACE,
    METHOD_REFERENCE,
    ReconOutput,
    apodized_acs_recon,
    homodyne_recon,
    load_recon,
    pi_interpolate,
    reconstruct,
    rsos_bins,
    rsos_coils,
    save_recon,
    zero_fill_recon,
    _fit_kernel,
    _gaussian_window,
)
from vrmsi.sampling import (
    AcquisitionParams,
    acs_only_mask,
    build_vr_plan,
    partial_fourier_mask,
    uniform_accel_mask,
)
from vrmsi.phantom import generate_phantom, to_kspace
from tests.conftest import DESK_BIN_CENTERS, DESK_FWHM, small_spec
from tests.test_core import dft2_oracle


def nrmse(test, ref):
    return np.linalg.norm(test - ref) / np.linalg.norm(ref)


class TestZeroFill:
    def test_full_mask_is_plain_ifft(self):
        rng = np.random.default_rng(0)
        ksp = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        assert np.array_equal(zero_fill_recon(ksp, np.ones((16, 16), bool)), ifft2c(ksp))

    def test_empty_mask_zero_image(self):
        ksp = np.ones((8, 8), dtype=complex)
        assert np.all(zero_fill_recon(ksp, np.zeros((8, 8), bool)) == 0)

    def test_half_sampled_matches_dft_oracle(self):
        rng = np.random.default_rng(3)
        ksp = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        mask = rng.random((8, 8)) < 0.5
        masked = np.where(mask, ksp, 0)
        # inverse transform == conjugate-oracle trick: ifft(x) = conj(fft(conj(x)))
        expected = np.conj(dft2_oracle(np.conj(masked)))
        assert np.max(np.abs(zero_fill_recon(ksp, mask) - expected)) < 1e-9

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            zero_fill_recon(np.ones((8, 8), complex), np.ones((4, 4), bool))


class TestApodizedAcs:
    def test_window_peak_at_dc(self):
        win = _gaussian_window(16, 4.0)
        assert win[8] == pytest.approx(1.0)

    def test_output_kspace_support_inside_acs(self):
        rng = np.random.default_rng(1)
        ksp = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        img = apodized_acs_recon(ksp, (16, 16))
        back = fft2c(img)
        outside = np.ones((64, 64), bool)
        outside[24:40, 24:40] = False
        assert np.max(np.abs(back[outside])) < 1e-12

    def test_impulse_gives_separable_window_psf(self):
        # impulse image -> constant k-space -> PSF = outer product of the
        # 1D inverse transforms of each padded window
        rows = cols = 32
        img = np.zeros((rows, cols), dtype=complex)
        img[rows // 2, cols // 2] = 1.0
        ksp = fft2c(img)
        acs = (8, 8)
        out = apodized_acs_recon(ksp, acs, sigma_fraction=0.25)

        const = ksp[rows // 2, cols // 2]
        w = _gaussian_window(acs[0], 0.25 * acs[0])

        def centered_1d_idft(vec, n):
            padded = np.zeros(n, dtype=complex)
            start = (n - len(vec)) // 2
            padded[start:start + len(vec)] = vec
            shifted = np.fft.ifftshift(padded)
            return np.fft.fftshift(np.fft.ifft(shifted, norm="ortho"))

        fr = centered_1d_idft(w, rows)
        fc = centered_1d_idft(w, cols)
        expected = const * np.outer(fr, fc)
        assert np.max(np.abs(out - expected)) < 1e-10


class TestRsos:
    def test_single_coil_is_magnitude(self):
        rng = np.random.default_rng(2)
        img = rng.standard_normal((1, 8, 8)) + 1j * rng.standard_normal((1, 8, 8))
        assert np.allclose(rsos_coils(img), np.abs(img[0]))

    def test_two_identical_coils(self):
        img = np.full((2, 4, 4), 3.0 + 0j)
        assert np.allclose(rsos_coils(img), 3.0 * np.sqrt(2))

    def test_recovers_weighted_pd_end_to_end(self, truth64, image_stack64):
        # noiseless, fully sampled: RSOS over coils equals PD * bin weight
        from vrmsi.phantom import bin_profile

        b = 4
        recovered = rsos_coils(image_stack64.data[b])
        expected = truth64.proton_density * bin_profile(
            truth64.off_resonance_khz - DESK_BIN_CENTERS[b], DESK_FWHM
        )
        assert np.max(np.abs(recovered - expected)) < 1e-6

    def test_bins_single_is_magnitude(self):
        img = np.array([[[1.0, -2.0], [3.0, -4.0]]])
        assert np.allclose(rsos_bins(img), np.abs(img[0]))

    def test_bins_permutation_invariant(self):
        rng = np.random.default_rng(4)
        imgs = rng.standard_normal((5, 8, 8))
        assert np.allclose(rsos_bins(imgs), rsos_bins(imgs[::-1]))

    def test_bins_homogeneous(self):
        rng = np.random.default_rng(5)
        imgs = rng.standard_normal((3, 6, 6))
        assert np.allclose(rsos_bins(-2.5 * imgs), 2.5 * rsos_bins(imgs))


def smooth_phase_coil_image(rows=64, cols=64, phase_amp=0.15):
    """Real non-negative magnitude with a slowly varying phase.

    Homodyne error grows with the phase modulation depth, so "smooth" here
    means a fraction of a radian across the field of view.
    """
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    mag = np.exp(-(((rr - rows / 2) / (rows / 3)) ** 2 + ((cc - cols / 2) / (cols / 3)) ** 2))
    mag = 0.1 + mag
    phase = phase_amp * np.sin(2 * np.pi * rr / rows) + 0.6 * phase_amp * np.cos(2 * np.pi * cc / cols)
    return mag * np.exp(1j * phase)


class TestHomodyne:
    def test_smooth_phase_nrmse_below_2pct(self):
        img = smooth_phase_coil_image()
        ksp = fft2c(img)
        pf = partial_fourier_mask(64, 8)
        recon = homodyne_recon(ksp * pf[:, None], pf)
        assert nrmse(recon, np.abs(img)) < 0.02

    def test_coil_combined_phantom_below_2pct(self, kspace64):
        # the pipeline combines per-coil homodyne outputs with RSOS; that
        # combination is what the quality gate holds to 2%
        pf = partial_fourier_mask(64, 8)
        b = 4
        recon = rsos_coils(
            np.stack([homodyne_recon(kspace64.data[b, c] * pf[:, None], pf) for c in range(4)])
        )
        reference = rsos_coils(np.abs(ifft2c(kspace64.data[b])))
        assert nrmse(recon, reference) < 0.02

    def test_full_mask_matches_zero_fill(self):
        rng = np.random.default_rng(6)
        ksp = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        pf = partial_fourier_mask(32, 16)
        recon = homodyne_recon(ksp, pf)
        reference = np.abs(zero_fill_recon(ksp, np.ones((32, 32), bool)))
        assert np.max(np.abs(recon - reference)) < 1e-10

    def test_real_positive_image_exact(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((32, 32))
        # strictly positive smooth-ish real image: conjugate symmetry is exact
        img = 1.0 + 0.3 * np.real(ifft2c(fft2c(base) * (np.abs(fft2c(base)) > 0)))
        img = np.abs(img) + 0.5
        ksp = fft2c(img.astype(complex))
        pf = partial_fourier_mask(32, 6)
        recon = homodyne_recon(ksp * pf[:, None], pf)
        assert np.max(np.abs(recon - img)) < 1e-10

    def test_zero_overscan_rejected(self):
        pf = partial_fourier_mask(32, 0)
        with pytest.raises(ValueError):
            homodyne_recon(np.ones((32, 32), complex), pf)

    def test_non_prefix_mask_rejected(self):
        mask = np.zeros(32, bool)
        mask[10:30] = True
        with pytest.raises(ValueError):
            homodyne_recon(np.ones((32, 32), complex), mask)


class TestPiInterpolate:
    def test_identity_when_not_accelerated(self):
        rng = np.random.default_rng(8)
        ksp = rng.standard_normal((1, 16, 16)) + 1j * rng.standard_normal((1, 16, 16))
        full = np.ones((16, 16), dtype=bool)
        out = pi_interpolate(ksp, ksp[:, 4:12, 4:12], KernelGeometry(1, 1), mask=full)
        assert np.array_equal(out, ksp)

    def test_2x2_four_coil_nrmse_below_5pct(self, truth64, kspace64):
        mask = uniform_accel_mask(64, 64, 2, 2, (16, 16))
        geom = KernelGeometry(2, 2, 5, 4, ridge=1e-4)
        b = 4
        masked = np.where(mask, kspace64.data[b], 0)
        acs = crop_center_array(masked, 16, 16)
        filled = pi_interpolate(masked, acs, geom, mask=mask)
        img = rsos_coils(np.abs(ifft2c(filled)))
        reference = rsos_coils(np.abs(ifft2c(kspace64.data[b])))
        assert nrmse(img, reference) < 0.05

    def test_weights_invariant_to_acs_scale(self, kspace64):
        mask = uniform_accel_mask(64, 64, 2, 2, (16, 16))
        geom = KernelGeometry(2, 2, 5, 4, ridge=1e-4)
        masked = np.where(mask, kspace64.data[4], 0)
        acs = crop_center_array(masked, 16, 16)
        a = pi_interpolate(masked, acs, geom, mask=mask)
        b = pi_interpolate(masked, 3.7 * acs, geom, mask=mask)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a - b) / scale < 1e-8

    def test_bandlimited_harmonic_coils_exact(self):
        # coil sensitivities that are pure k-space shifts admit an exact
        # shift-invariant interpolation; with no ridge the fit must find it
        rng = np.random.default_rng(9)
        n = 32
        img = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rr, cc = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        coils = np.stack(
            [
                np.ones((n, n), dtype=complex),
                np.exp(2j * np.pi * rr / n),
                np.exp(2j * np.pi * cc / n),
                np.exp(2j * np.pi * (rr + cc) / n),
            ]
        )
        full = fft2c(coils * img[None])
        mask = uniform_accel_mask(n, n, 2, 2, (16, 16))
        masked = np.where(mask, full, 0)
        acs = crop_center_array(full, 16, 16)
        geom = KernelGeometry(2, 2, 3, 3, ridge=0.0)
        filled = pi_interpolate(masked, acs, geom, mask=mask)
        interior = np.zeros((n, n), bool)
        interior[4:-4, 4:-4] = True
        err = np.abs(filled - full)[:, interior]
        assert err.max() < 1e-6 * np.abs(full).max()

    def test_acs_too_small_rejected(self):
        ksp = np.zeros((2, 32, 32), dtype=complex)
        mask = uniform_accel_mask(32, 32, 2, 2)
        with pytest.raises(ValueError):
            pi_interpolate(ksp, ksp[:, :4, :4], KernelGeometry(2, 2, 5, 4), mask=mask)

    @pytest.mark.parametrize("accel", [(2, 2), (2, 1), (1, 2), (3, 2)])
    @pytest.mark.parametrize("matrix", [(24, 20), (25, 23)])
    @pytest.mark.parametrize("taps", [(4, 3), (3, 2)])
    def test_matches_per_target_oracle(self, accel, matrix, taps):
        # every missing sample is the fitted kernel applied, one target at a
        # time, to its zero-padded neighbours
        (ry, rz), (ky, kz) = accel, matrix
        nc = 3
        rng = np.random.default_rng(100 * ry + 10 * rz + ky + taps[0])
        mask = uniform_accel_mask(ky, kz, ry, rz, (14, 14)) & partial_fourier_mask(ky, 5)[:, None]
        full = rng.standard_normal((nc, ky, kz)) + 1j * rng.standard_normal((nc, ky, kz))
        ksp = np.where(mask, full, 0)
        acs = crop_center_array(ksp, 14, 14)
        geom = KernelGeometry(ry, rz, *taps, ridge=1e-3)
        out = pi_interpolate(ksp, acs, geom, mask=mask)

        taps_y = (np.arange(taps[0]) - (taps[0] - 1) // 2) * ry
        taps_z = (np.arange(taps[1]) - (taps[1] - 1) // 2) * rz
        expected = ksp.copy()
        for y in range(ky):
            for z in range(kz):
                dy, dz = (y - ky // 2) % ry, (z - kz // 2) % rz
                if mask[y, z] or (dy, dz) == (0, 0):
                    continue
                src_y, src_z = taps_y - dy, taps_z - dz
                weights = _fit_kernel(acs, src_y, src_z, geom.ridge)
                source = [
                    ksp[c, y + oy, z + oz] if 0 <= y + oy < ky and 0 <= z + oz < kz else 0
                    for c in range(nc) for oy in src_y for oz in src_z
                ]
                expected[:, y, z] = np.array(source) @ weights
        assert np.array_equal(out[:, mask], ksp[:, mask])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


class TestReconstruct:
    def test_zreplace_even_bins_zero(self, desk_plan, kspace64):
        out = reconstruct(desk_plan, kspace64, METHOD_CR_ZREPLACE)
        for b in desk_plan.bins_with_scheme("ACS_ONLY"):
            assert np.all(out.images[b] == 0.0)

    def test_cr_vr_odd_bins_match_reference(self, desk_plan, kspace64):
        ref = reconstruct(desk_plan, kspace64, METHOD_REFERENCE)
        vr = reconstruct(desk_plan, kspace64, METHOD_CR_VR)
        for b in desk_plan.bins_with_scheme("FULL_SCHEME"):
            assert np.array_equal(ref.images[b], vr.images[b])

    def test_reference_fully_sampled_matches_direct_simulation(self, truth64):
        params = AcquisitionParams(
            tr_seconds=4.0, etl=32, n_concat=2, n_bins=8,
            matrix=(64, 64), accel=(1, 1), pf_overscan=32, acs=(16, 16),
        )
        plan = build_vr_plan(params)
        stack = simulate_bins(truth64, DESK_BIN_CENTERS, DESK_FWHM)
        ksp = to_kspace(stack, 0.0, seed=0)
        out = reconstruct(plan, ksp, METHOD_REFERENCE)
        direct = np.stack([rsos_coils(np.abs(stack.data[b])) for b in range(8)])
        assert nrmse(out.images, direct) < 0.02

    def test_outputs_non_negative_right_count(self, desk_plan, kspace64):
        for method in (METHOD_REFERENCE, METHOD_CR_VR, METHOD_CR_ZREPLACE):
            out = reconstruct(desk_plan, kspace64, method)
            assert out.n_bins == desk_plan.n_bins
            assert np.all(out.images >= 0)

    def test_energy_ordering(self, desk_plan, kspace64):
        e = {
            m: np.linalg.norm(reconstruct(desk_plan, kspace64, m).images)
            for m in (METHOD_REFERENCE, METHOD_CR_VR, METHOD_CR_ZREPLACE)
        }
        assert e[METHOD_CR_ZREPLACE] <= e[METHOD_CR_VR] <= e[METHOD_REFERENCE]

    def test_zero_pad_output_dims(self, desk_plan, kspace64):
        out = reconstruct(desk_plan, kspace64, METHOD_CR_VR, out_shape=(96, 96))
        assert out.images.shape == (8, 96, 96)

    def test_dim_mismatch_rejected(self, kspace64):
        params = AcquisitionParams(4.0, 32, 2, 8, (32, 32), (2, 2), 8, (16, 16))
        plan = build_vr_plan(params)
        with pytest.raises(ValueError):
            reconstruct(plan, kspace64, METHOD_CR_VR)

    def test_reference_reuse_matches_recompute(self, desk_plan, kspace64):
        ref = reconstruct(desk_plan, kspace64, METHOD_REFERENCE, out_shape=(80, 72))
        for method in (METHOD_CR_VR, METHOD_CR_ZREPLACE):
            reused = reconstruct(desk_plan, kspace64, method, out_shape=(80, 72), reference=ref)
            fresh = reconstruct(desk_plan, kspace64, method, out_shape=(80, 72))
            assert np.array_equal(reused.images, fresh.images)

    def test_reference_must_match(self, desk_plan, kspace64):
        vr = reconstruct(desk_plan, kspace64, METHOD_CR_VR)
        with pytest.raises(ValueError, match="REFERENCE"):
            reconstruct(desk_plan, kspace64, METHOD_CR_ZREPLACE, reference=vr)
        ref = reconstruct(desk_plan, kspace64, METHOD_REFERENCE)
        with pytest.raises(ValueError, match="shape"):
            reconstruct(desk_plan, kspace64, METHOD_CR_VR, out_shape=(96, 96), reference=ref)
        with pytest.raises(ValueError, match="shape"):
            reconstruct(desk_plan, kspace64, METHOD_CR_VR, reference=ReconOutput(ref.images[1:], METHOD_REFERENCE))

    def test_unknown_method_rejected(self, desk_plan, kspace64):
        with pytest.raises(ValueError):
            reconstruct(desk_plan, kspace64, "DL_VR")

    def test_recon_round_trip(self, desk_plan, kspace64, tmp_path):
        out = reconstruct(desk_plan, kspace64, METHOD_CR_VR)
        path = tmp_path / "out.msstack"
        save_recon(out, path)
        loaded = load_recon(path)
        assert loaded.method == out.method
        assert np.allclose(loaded.images, out.images, rtol=1e-6, atol=1e-6)
