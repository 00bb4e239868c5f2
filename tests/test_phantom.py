"""Phantom generation, spectral profiles, coils, and noise statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vrmsi.config import load_config
from vrmsi.core import fft_stack
from vrmsi.phantom import (
    Ellipse,
    Implant,
    PhantomSpec,
    PhantomTruth,
    bin_profile,
    cohort_spec,
    coil_sensitivities,
    dipole_field,
    generate_phantom,
    load_truth,
    save_truth,
    simulate_bins,
    to_kspace,
)
from tests.conftest import DESK_BIN_CENTERS, DESK_FWHM, small_spec


class TestDipole:
    def test_on_axis_at_radius_gives_twice_amplitude(self):
        implant = Implant((32.0, 32.0), 5.0, 1.5)
        field = dipole_field(64, 64, implant, field_span_khz=10.0)
        # theta = 0 along the row axis, r = a
        assert field[37, 32] == pytest.approx(2 * 1.5, rel=1e-6)
        assert field[27, 32] == pytest.approx(2 * 1.5, rel=1e-6)

    def test_magic_angle_is_zero(self):
        implant = Implant((100.0, 100.0), 8.0, 2.0)
        field = dipole_field(200, 200, implant, field_span_khz=10.0)
        # 3 cos^2(theta) = 1 at theta = acos(1/sqrt(3)); walk far out to dodge pixel rounding
        r = 60.0
        theta = math.acos(1.0 / math.sqrt(3.0))
        row = 100 + r * math.cos(theta)
        col = 100 + r * math.sin(theta)
        # bilinear check at the nearest grid point within a tolerance scaled to neighbors
        assert abs(field[round(row), round(col)]) < 0.03 * 2.0

    def test_clamped_to_span(self):
        implant = Implant((16.0, 16.0), 6.0, 5.0)
        field = dipole_field(32, 32, implant, field_span_khz=3.0)
        assert field.max() <= 3.0 + 1e-12
        assert field.min() >= -3.0 - 1e-12

    def test_same_seed_bit_identical(self):
        spec = small_spec()
        a = generate_phantom(spec, seed=11)
        b = generate_phantom(spec, seed=11)
        assert np.array_equal(a.proton_density, b.proton_density)
        assert np.array_equal(a.off_resonance_khz, b.off_resonance_khz)
        assert np.array_equal(a.coil_maps, b.coil_maps)

    def test_different_seed_changes_texture(self):
        spec = small_spec()
        a = generate_phantom(spec, seed=11)
        b = generate_phantom(spec, seed=12)
        assert not np.array_equal(a.proton_density, b.proton_density)

    def test_shape_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(
                rows=32,
                cols=32,
                shapes=(Ellipse((100.0, 100.0), (4.0, 4.0), 1.0),),
                implant=Implant((16.0, 16.0), 3.0, 1.0),
                field_span_khz=4.0,
            )

    def test_segment_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(
                rows=32,
                cols=32,
                shapes=(Ellipse((16.0, 16.0), (10.0, 10.0), 1.0),),
                implant=Implant((16.0, 16.0), 3.0, 1.0),
                field_span_khz=4.0,
                edge_segments=(((0.0, 0.0), (40.0, 40.0)),),
            )

    def test_pd_zero_inside_implant(self, truth64):
        spec = small_spec()
        rr, cc = np.meshgrid(np.arange(64.0), np.arange(64.0), indexing="ij")
        inside = (rr - spec.implant.center[0]) ** 2 + (cc - spec.implant.center[1]) ** 2 <= spec.implant.radius ** 2
        assert np.all(truth64.proton_density[inside] == 0.0)

    def test_pd_range(self, truth64):
        assert truth64.proton_density.min() >= 0.0
        assert truth64.proton_density.max() <= 1.0


class TestBinProfile:
    def test_peak_is_one(self):
        assert bin_profile(0.0, 2.25) == pytest.approx(1.0)

    def test_half_width_at_half_maximum(self):
        assert bin_profile(1.125, 2.25) == pytest.approx(0.5, abs=1e-12)
        assert bin_profile(-1.125, 2.25) == pytest.approx(0.5, abs=1e-12)

    def test_adjacent_bins_overlap(self):
        # neighbors 1 kHz apart with 2.25 kHz FWHM both stay above 0.4
        assert bin_profile(1.0, 2.25) > 0.4
        assert bin_profile(-1.0, 2.25) > 0.4

    def test_rejects_bad_fwhm(self):
        with pytest.raises(ValueError):
            bin_profile(0.0, 0.0)

    @given(st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_profile_is_even(self, x):
        assert bin_profile(x, 2.25) == pytest.approx(bin_profile(-x, 2.25), rel=1e-12)

    def test_combined_response_flat_over_covered_band(self):
        # 24 bins, 1 kHz spacing, 2.25 kHz FWHM: squared-profile sum varies < 3%
        centers = (np.arange(24) - 11.5) * 1.0
        grid = np.linspace(centers[0] + DESK_FWHM, centers[-1] - DESK_FWHM, 6001)
        total = np.zeros_like(grid)
        for c in centers:
            total += bin_profile(grid - c, DESK_FWHM) ** 2
        assert (total.max() - total.min()) / total.mean() < 0.03


class TestSimulateBins:
    def test_weight_one_where_offres_equals_center(self):
        pd = np.full((16, 16), 0.8)
        off = np.zeros((16, 16))
        off[5, 5] = DESK_BIN_CENTERS[4]
        coil = coil_sensitivities(2, 16, 16)
        truth = PhantomTruth(pd, off, coil, ())
        stack = simulate_bins(truth, DESK_BIN_CENTERS, DESK_FWHM)
        expected = coil[:, 5, 5] * 0.8
        assert np.allclose(stack.data[4, :, 5, 5], expected, atol=1e-12)

    def test_midpoint_rsos_matches_full_sum_oracle(self):
        # single bright pixel halfway between two bin centers
        pd = np.zeros((16, 16))
        pd[8, 8] = 1.0
        off = np.full((16, 16), 0.5)
        coil = np.ones((1, 16, 16), dtype=complex)
        truth = PhantomTruth(pd, off, coil, ())
        centers = np.array([0.0, 1.0])
        stack = simulate_bins(truth, centers, DESK_FWHM)
        rsos = np.sqrt(np.sum(np.abs(stack.data[:, 0, 8, 8]) ** 2))
        oracle = np.sqrt(sum(bin_profile(0.5 - c, DESK_FWHM) ** 2 for c in centers))
        assert rsos == pytest.approx(oracle, rel=1e-12)
        assert rsos == pytest.approx(math.sqrt(2) * bin_profile(0.5, DESK_FWHM), rel=1e-12)

    def test_zero_pd_gives_zero_stack(self):
        truth = PhantomTruth(
            np.zeros((8, 8)), np.zeros((8, 8)), np.ones((1, 8, 8), dtype=complex), ()
        )
        stack = simulate_bins(truth, np.array([-0.5, 0.5]), DESK_FWHM)
        assert np.all(stack.data == 0)

    def test_linear_in_proton_density(self, truth64):
        doubled = PhantomTruth(
            2.0 * truth64.proton_density,
            truth64.off_resonance_khz,
            truth64.coil_maps,
            truth64.edge_segments,
        )
        a = simulate_bins(truth64, DESK_BIN_CENTERS, DESK_FWHM)
        b = simulate_bins(doubled, DESK_BIN_CENTERS, DESK_FWHM)
        assert np.allclose(b.data, 2.0 * a.data, rtol=1e-13)

    def test_outer_bins_receive_signal(self, image_stack64):
        energies = np.linalg.norm(image_stack64.data.reshape(8, -1), axis=1)
        assert np.all(energies > 0)


class TestCoils:
    def test_single_coil_constant_magnitude(self):
        maps = coil_sensitivities(1, 32, 32)
        assert np.allclose(np.abs(maps[0]), 1.0, atol=1e-12)

    def test_rsos_is_one_everywhere(self):
        maps = coil_sensitivities(5, 48, 40)
        rsos = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
        assert np.allclose(rsos, 1.0, atol=1e-6)

    def test_deterministic(self):
        a = coil_sensitivities(4, 64, 64)
        b = coil_sensitivities(4, 64, 64)
        assert np.array_equal(a, b)


class TestNoise:
    def test_zero_sigma_equals_plain_fft(self, image_stack64):
        ksp = to_kspace(image_stack64, 0.0, seed=1)
        assert np.array_equal(ksp.data, fft_stack(image_stack64).data)

    def test_two_seeds_differ_noiseless_part_identical(self, image_stack64):
        a = to_kspace(image_stack64, 0.01, seed=1)
        b = to_kspace(image_stack64, 0.01, seed=2)
        clean = fft_stack(image_stack64)
        assert not np.array_equal(a.data, b.data)
        assert np.isclose(np.mean(a.data - clean.data), np.mean(b.data - clean.data), atol=1e-3)

    def test_measured_noise_std_in_signal_free_corner(self):
        # uniform phantom: k-space is a DC spike, corners carry pure noise
        truth = PhantomTruth(
            np.ones((64, 64)), np.zeros((64, 64)), np.ones((1, 64, 64), dtype=complex), ()
        )
        stack = simulate_bins(truth, np.array([0.0]), DESK_FWHM)
        sigma = 0.01
        ksp = to_kspace(stack, sigma, seed=9)
        dc = np.abs(ksp.data[0, 0, 32, 32])
        corner = ksp.data[0, 0, :16, :16]
        measured = np.sqrt(np.mean(np.abs(corner) ** 2))
        requested = sigma * dc
        assert abs(measured - requested) / requested < 0.10


class TestCohort:
    params = load_config(None).phantom

    def test_same_entropy_same_spec(self):
        assert cohort_spec(self.params, "knee", [5, 1, 2]) == cohort_spec(self.params, "knee", [5, 1, 2])
        assert cohort_spec(self.params, "knee", [5, 1, 2]) != cohort_spec(self.params, "knee", [5, 1, 3])

    def test_knee_and_hip_differ(self):
        knee = cohort_spec(self.params, "knee", [5, 0, 0])
        hip = cohort_spec(self.params, "hip", [5, 0, 0])
        assert knee.shapes != hip.shapes
        assert knee.implant != hip.implant

    @pytest.mark.parametrize("family", ["knee", "hip"])
    def test_three_labelled_shapes_and_edges_inside(self, family):
        spec = cohort_spec(self.params, family, [9, 3, 1])
        assert [shape.label for shape in spec.shapes] == ["body", "inner", "bright"]
        assert len(spec.edge_segments) == self.params["edges_per_slice"]
        for p0, p1 in spec.edge_segments:
            for r, c in (p0, p1):
                assert 1 <= r <= spec.rows - 2 and 1 <= c <= spec.cols - 2

    def test_truth_round_trip(self, tmp_path):
        spec = cohort_spec(self.params, "hip", [9, 3, 1])
        truth = generate_phantom(spec, seed=4)
        stack_path, sidecar_path = tmp_path / "t.truth.msstack", tmp_path / "t.meta.json"
        save_truth(truth, stack_path, sidecar_path, {"role": "test"})
        loaded = load_truth(stack_path, sidecar_path)
        # the stack payload is complex64, so maps round-trip at single precision
        assert np.array_equal(loaded.proton_density, truth.proton_density.astype(np.float32))
        assert np.array_equal(loaded.off_resonance_khz, truth.off_resonance_khz.astype(np.float32))
        assert np.array_equal(loaded.coil_maps, truth.coil_maps.astype(np.complex64))
        assert loaded.edge_segments == truth.edge_segments
