"""Mask generators against brute-force enumeration, shot counts, timing model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vrmsi.sampling import (
    ACS_ONLY,
    FULL_SCHEME,
    AcquisitionParams,
    acs_only_mask,
    build_vr_plan,
    efficiency_gain,
    full_scheme_mask,
    partial_fourier_mask,
    scan_time_conventional,
    scan_time_vr,
    shots_required,
    uniform_accel_mask,
)


def brute_force_mask(ky, kz, ry, rz, overscan, acs):
    """Set-comprehension reference for the combined full-scheme mask."""
    dcy, dcz = ky // 2, kz // 2
    lattice = {(y, z) for y in range(ky) for z in range(kz) if (y - dcy) % ry == 0 and (z - dcz) % rz == 0}
    block = {
        (y, z)
        for y in range((ky - acs[0]) // 2, (ky - acs[0]) // 2 + acs[0])
        for z in range((kz - acs[1]) // 2, (kz - acs[1]) // 2 + acs[1])
    }
    pf = {y for y in range(ky) if y < ky // 2 + overscan}
    return {(y, z) for (y, z) in lattice | block if y in pf}


PAPER_PARAMS = AcquisitionParams(
    tr_seconds=4.0,
    etl=32,
    n_concat=2,
    n_bins=24,
    matrix=(256, 32),
    accel=(2, 2),
    pf_overscan=8,
    acs=(16, 16),
)


class TestMasks:
    def test_no_acceleration_all_true(self):
        assert uniform_accel_mask(16, 16, 1, 1).all()

    def test_dc_always_sampled(self):
        for ry, rz in [(2, 2), (3, 2), (2, 3), (4, 1)]:
            mask = uniform_accel_mask(32, 24, ry, rz)
            assert mask[16, 12]

    def test_count_matches_brute_force_union(self):
        mask = uniform_accel_mask(256, 32, 2, 2, (16, 16))
        pf = partial_fourier_mask(256, 8)
        combined = mask & pf[:, None]
        expected = brute_force_mask(256, 32, 2, 2, 8, (16, 16))
        assert int(combined.sum()) == len(expected)
        got = {tuple(p) for p in np.argwhere(combined)}
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(
        ky=st.sampled_from([16, 32, 64]),
        kz=st.sampled_from([8, 16, 32]),
        ry=st.integers(1, 3),
        rz=st.integers(1, 3),
        overscan_frac=st.floats(0.25, 0.5),
        acs=st.sampled_from([4, 8]),
    )
    def test_cardinality_property(self, ky, kz, ry, rz, overscan_frac, acs):
        overscan = max(acs // 2, int(ky // 2 * overscan_frac))
        mask = uniform_accel_mask(ky, kz, ry, rz, (acs, acs)) & partial_fourier_mask(ky, overscan)[:, None]
        expected = brute_force_mask(ky, kz, ry, rz, overscan, (acs, acs))
        assert int(mask.sum()) == len(expected)

    def test_partial_fourier_counts(self):
        assert int(partial_fourier_mask(256, 8).sum()) == 136
        assert partial_fourier_mask(256, 128).all()
        assert int(partial_fourier_mask(256, 0).sum()) == 128

    def test_partial_fourier_low_half(self):
        mask = partial_fourier_mask(64, 4)
        assert mask[:36].all() and not mask[36:].any()

    def test_acs_only_counts(self):
        assert int(acs_only_mask(256, 32, (16, 16)).sum()) == 256
        assert acs_only_mask(16, 16, (16, 16)).all()

    def test_acs_membership_reflection(self):
        # membership is invariant under i -> 2*dc - 1 - i for an even block
        ky, kz = 64, 48
        mask = acs_only_mask(ky, kz, (16, 16))
        dcy, dcz = ky // 2, kz // 2
        for y in range(ky):
            for z in range(kz):
                ry = 2 * dcy - 1 - y
                rz = 2 * dcz - 1 - z
                assert mask[y, z] == mask[ry, rz]

    def test_acs_too_big_rejected(self):
        with pytest.raises(ValueError):
            acs_only_mask(16, 16, (32, 8))


class TestVrPlan:
    def test_24_bins_split_12_12(self):
        plan = build_vr_plan(PAPER_PARAMS)
        assert plan.schemes.count(FULL_SCHEME) == 12
        assert plan.schemes.count(ACS_ONLY) == 12

    def test_8_bins_split_4_4(self, desk_plan):
        assert desk_plan.schemes.count(FULL_SCHEME) == 4
        assert desk_plan.schemes.count(ACS_ONLY) == 4

    def test_full_scheme_mask_includes_acs_block(self, desk_plan):
        acs = acs_only_mask(64, 64, (16, 16))
        for b in desk_plan.bins_with_scheme(FULL_SCHEME):
            assert np.all(desk_plan.masks[b][acs])

    def test_odd_bin_count_rejected(self):
        params = AcquisitionParams(4.0, 32, 1, 7, (64, 64), (2, 2), 8, (16, 16))
        with pytest.raises(ValueError):
            build_vr_plan(params)

    def test_wrong_concat_rejected(self):
        params = AcquisitionParams(4.0, 32, 4, 8, (64, 64), (2, 2), 8, (16, 16))
        with pytest.raises(ValueError):
            build_vr_plan(params)

    def test_vr_samples_fewer_than_conventional(self, desk_plan, desk_params):
        conventional_total = desk_params.n_bins * int(full_scheme_mask(desk_params).sum())
        vr_total = int(desk_plan.masks.sum())
        assert vr_total < conventional_total


class TestTiming:
    def test_paper_shot_count(self):
        ns = shots_required(full_scheme_mask(PAPER_PARAMS), PAPER_PARAMS.etl)
        assert 38 <= ns <= 42
        assert ns == 40

    def test_acs_shot_count(self):
        ns_acs = shots_required(acs_only_mask(256, 32, (16, 16)), 32)
        assert ns_acs == 8

    def test_single_line_one_shot(self):
        mask = np.zeros((64, 64), dtype=bool)
        mask[3, 5] = True
        assert shots_required(mask, 32) == 1

    def test_conventional_time_near_paper(self):
        t = scan_time_conventional(PAPER_PARAMS)
        assert t == pytest.approx(320.0)
        assert abs(t - 320.0) / 320.0 < 0.10

    def test_time_linear_in_concats(self):
        import dataclasses

        single = dataclasses.replace(PAPER_PARAMS, n_concat=1, n_bins=24)
        assert scan_time_conventional(single) == pytest.approx(scan_time_conventional(PAPER_PARAMS) / 2)

    def test_zero_tr_zero_time(self):
        import dataclasses

        free = dataclasses.replace(PAPER_PARAMS, tr_seconds=0.0)
        assert scan_time_conventional(free) == 0.0

    def test_vr_time_formula(self):
        # Ns=40, Ns_acs=8, Nc=2, TR=4 -> 4 * 1 * 48
        assert scan_time_vr(PAPER_PARAMS) == pytest.approx(192.0)

    def test_vr_degenerates_to_conventional_when_acs_is_everything(self):
        params = AcquisitionParams(2.0, 16, 2, 8, (32, 32), (1, 1), 16, (32, 32))
        assert scan_time_vr(params) == pytest.approx(scan_time_conventional(params))

    def test_vr_half_time_with_no_acs(self):
        params = AcquisitionParams(2.0, 16, 2, 8, (32, 32), (1, 1), 16, (0, 0))
        assert scan_time_vr(params) == pytest.approx(scan_time_conventional(params) / 2)


class TestEfficiency:
    def test_paper_efficiency(self):
        assert efficiency_gain(PAPER_PARAMS) == pytest.approx(0.40)

    def test_no_acs_gain_half(self):
        params = AcquisitionParams(4.0, 16, 2, 8, (32, 32), (1, 1), 16, (0, 0))
        assert efficiency_gain(params) == pytest.approx(0.5)

    def test_full_acs_gain_zero(self):
        params = AcquisitionParams(4.0, 16, 2, 8, (32, 32), (1, 1), 16, (32, 32))
        assert efficiency_gain(params) == pytest.approx(0.0)

    def test_gain_decreases_as_acs_grows(self):
        # fully sampled scheme keeps Ns fixed while the ACS block grows
        gains = []
        for acs in (4, 8, 16, 24, 32):
            params = AcquisitionParams(4.0, 16, 2, 8, (32, 32), (1, 1), 16, (acs, acs))
            gains.append(efficiency_gain(params))
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestParamsValidation:
    def test_bins_divisible_by_concats(self):
        with pytest.raises(ValueError):
            AcquisitionParams(4.0, 32, 2, 7, (64, 64))

    def test_overscan_bounds(self):
        with pytest.raises(ValueError):
            AcquisitionParams(4.0, 32, 1, 8, (64, 64), pf_overscan=40)

    def test_overscan_must_cover_acs(self):
        params = AcquisitionParams(4.0, 32, 2, 8, (64, 64), (2, 2), 4, (16, 16))
        with pytest.raises(ValueError):
            build_vr_plan(params)
