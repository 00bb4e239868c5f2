"""Acceptance gate: every criterion asserted at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The directional deep-learning criteria train two models on a
desk-scale synthetic dataset inside a session fixture; expect the full
module to take tens of minutes on a laptop-class CPU.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from vrmsi.config import load_config
from vrmsi.core import fft2c, ifft2c, crop_center_array
from vrmsi.learn import ModelConfig, TrainConfig, UNet, loss_and_gradients
from vrmsi.metrics import mann_whitney_u, ssim, summarize
from vrmsi.phantom import generate_phantom, simulate_bins, to_kspace
from vrmsi.pipeline import (
    cmd_acquire,
    cmd_eval,
    cmd_infer,
    cmd_phantom,
    cmd_recon,
    cmd_train,
)
from vrmsi.recon import (
    KernelGeometry,
    METHOD_REFERENCE,
    homodyne_recon,
    pi_interpolate,
    reconstruct,
    rsos_coils,
)
from vrmsi.sampling import (
    AcquisitionParams,
    acs_only_mask,
    build_vr_plan,
    efficiency_gain,
    full_scheme_mask,
    partial_fourier_mask,
    scan_time_conventional,
    shots_required,
    uniform_accel_mask,
)
from tests.conftest import DESK_BIN_CENTERS, DESK_FWHM, small_spec
from tests.test_core import dft2_oracle
from tests.test_metrics import exact_two_sided_p, ssim_loop_oracle

DESK_INI = """
[experiment]
name = acceptance-desk
out_dir = {out}
seed = 20240601

[phantom]
rows = 64
cols = 64
n_coils = 4
noise_sigma = 0.005
field_span_khz = 4.0
implant_amplitude_khz = 4.0
implant_radius = 6.0

[split]
train_subjects = 12
val_subjects = 3
test_subjects = 5
slices_per_subject = 4

[acquisition]
n_bins = 8
fwhm_khz = 1.5
pf_overscan = 8
acs_rows = 16
acs_cols = 16

[model]
n_levels = 5
channels = 16,32,64,128,256

[train]
learning_rate = 2e-3
epochs = 80
batch_size = 4
"""

SMALL_INI = """
[experiment]
name = acceptance-determinism
out_dir = {out}
seed = 99

[phantom]
rows = 32
cols = 32
n_coils = 2
noise_sigma = 0.002
implant_radius = 4.0

[split]
train_subjects = 2
val_subjects = 1
test_subjects = 1
slices_per_subject = 2

[acquisition]
n_bins = 8
etl = 16
pf_overscan = 6
acs_rows = 12
acs_cols = 12

[model]
n_levels = 2
channels = 6,10

[train]
learning_rate = 2e-3
epochs = 2
batch_size = 2
"""


def _announce(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, detail


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Full pipeline on the desk-scale config; returns paths and timings."""
    root = tmp_path_factory.mktemp("acceptance")
    ini = root / "desk.ini"
    ini.write_text(DESK_INI.format(out=root / "run"))
    cfg = load_config(ini)
    cmd_phantom(cfg)
    cmd_acquire(cfg)
    cmd_recon(cfg)
    t0 = time.time()
    cmd_train(cfg)
    train_seconds = time.time() - t0
    cmd_infer(cfg)
    t1 = time.time()
    cmd_eval(cfg)
    eval_seconds = time.time() - t1
    summary = json.loads((Path(cfg.out_dir) / "eval" / "summary.json").read_text())
    return {
        "cfg": cfg,
        "summary": summary,
        "train_seconds": train_seconds,
        "eval_seconds": eval_seconds,
    }


class TestCriterion1Efficiency:
    def test_scan_time_and_gain(self):
        params = AcquisitionParams(
            tr_seconds=4.0,
            etl=32,
            n_concat=2,
            n_bins=24,
            matrix=(256, 32),
            accel=(2, 2),
            pf_overscan=8,
            acs=(16, 16),
        )
        t_conv = scan_time_conventional(params)
        gain = efficiency_gain(params)
        ok = abs(t_conv - 320.0) / 320.0 < 0.10 and 0.35 <= gain <= 0.45
        _announce(
            1,
            ok,
            f"conventional {t_conv:.0f}s (target 320s +-10%), efficiency gain {gain:.3f} in [0.35, 0.45]",
        )


class TestCriterion2Ssim:
    def test_dl_vr_beats_cr_vr_ssim(self, desk_run):
        summary = desk_run["summary"]
        med_dl = summary["summaries"]["ssim"]["DL_VR"]["median"]
        med_cr = summary["summaries"]["ssim"]["CR_VR"]["median"]
        n = summary["summaries"]["ssim"]["DL_VR"]["n"]
        p = summary["comparisons"]["ssim"]["CR_VR|DL_VR"]["p"]
        ok = n >= 20 and med_dl > med_cr and p < 0.05
        ok = ok and desk_run["train_seconds"] <= 1800 and desk_run["eval_seconds"] <= 120
        _announce(
            2,
            ok,
            f"median SSIM DL_VR {med_dl:.4f} > CR_VR {med_cr:.4f}, p={p:.2e} (n={n} slices, "
            f"train {desk_run['train_seconds']:.0f}s, eval {desk_run['eval_seconds']:.0f}s)",
        )


class TestCriterion3Psnr:
    def test_dl_vr_psnr_gap(self, desk_run):
        summary = desk_run["summary"]
        med_dl = summary["summaries"]["psnr_db"]["DL_VR"]["median"]
        med_cr = summary["summaries"]["psnr_db"]["CR_VR"]["median"]
        ok = med_dl - med_cr >= 3.0
        _announce(
            3,
            ok,
            f"median PSNR DL_VR {med_dl:.2f} dB vs CR_VR {med_cr:.2f} dB (gap {med_dl - med_cr:.2f} >= 3 dB)",
        )


class TestCriterion4Resi:
    def test_edge_sharpness_claims(self, desk_run):
        summary = desk_run["summary"]
        n_edges = summary["summaries"]["resi"]["DL_VR"]["n"]
        med_dl = summary["summaries"]["resi"]["DL_VR"]["median"]
        med_cr = summary["summaries"]["resi"]["CR_VR"]["median"]
        med_ref = summary["summaries"]["resi"]["REFERENCE"]["median"]
        p_vs_cr = summary["comparisons"]["resi"]["CR_VR|DL_VR"]["p"]
        p_vs_ref = summary["comparisons"]["resi"]["REFERENCE|DL_VR"]["p"]
        ok = n_edges >= 15 and med_dl > med_cr and p_vs_cr < 0.05 and p_vs_ref >= 0.05
        _announce(
            4,
            ok,
            f"RESI medians DL_VR {med_dl:.3f} / CR_VR {med_cr:.3f} / REFERENCE {med_ref:.3f}; "
            f"DL vs CR p={p_vs_cr:.2e} (<0.05), DL vs REF p={p_vs_ref:.2f} (>=0.05), {n_edges} edges",
        )


class TestCriterion5Oracles:
    def test_oracle_suites(self):
        t0 = time.time()
        rng = np.random.default_rng(0)

        # FFT vs direct DFT sum, 8x8, 1e-9
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        fft_err = np.max(np.abs(fft2c(x) - dft2_oracle(x)))

        # SSIM vs independent direct-formula implementation, 1e-8
        a = rng.random((20, 20))
        b = np.clip(a + 0.3 * rng.standard_normal((20, 20)), 0, 2)
        ssim_err = abs(ssim(a, b) - ssim_loop_oracle(a, b))

        # Mann-Whitney vs exhaustive permutation, n=m=5, within 0.02
        mw_err = 0.0
        for seed in range(4):
            r = np.random.default_rng(seed)
            sa, sb = r.standard_normal(5), r.standard_normal(5) + 0.4
            mw_err = max(mw_err, abs(mann_whitney_u(sa, sb)[1] - exact_two_sided_p(sa, sb)))

        # quantile summaries vs sorted interpolation
        vals = rng.standard_normal(23)
        s = np.sort(vals)

        def q(qq):
            pos = qq * (len(s) - 1)
            lo = int(math.floor(pos))
            hi = min(lo + 1, len(s) - 1)
            return s[lo] * (1 - (pos - lo)) + s[hi] * (pos - lo)

        med, iqr = summarize(vals)
        quant_err = max(abs(med - q(0.5)), abs(iqr - (q(0.75) - q(0.25))))

        # gradient check vs central finite differences (1e-4 relative, toy net)
        model = UNet(ModelConfig(2, 1, 2, (3, 5)), seed=42)
        xs = rng.standard_normal((2, 2, 8, 8))
        ts = rng.standard_normal((2, 1, 8, 8))
        loss, grads = loss_and_gradients(model, xs, ts)
        worst = 0.0
        eps = 1e-6
        params = model.parameters()
        for pi, p in enumerate(params):
            flat = p.reshape(-1)
            for idx in rng.choice(flat.size, size=min(25, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = loss_and_gradients(model, xs, ts)
                flat[idx] = orig - eps
                lm, _ = loss_and_gradients(model, xs, ts)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                an = grads[pi].reshape(-1)[idx]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))

        elapsed = time.time() - t0
        ok = (
            fft_err < 1e-9
            and ssim_err < 1e-8
            and mw_err < 0.02
            and quant_err < 1e-12
            and worst < 1e-4
            and elapsed < 300
        )
        _announce(
            5,
            ok,
            f"fft {fft_err:.1e} (<1e-9), ssim {ssim_err:.1e} (<1e-8), mann-whitney {mw_err:.3f} "
            f"(<0.02), quantiles {quant_err:.1e}, gradients {worst:.1e} (<1e-4), {elapsed:.0f}s",
        )


class TestCriterion6Recon:
    def test_reconstruction_correctness(self, truth64, kspace64):
        # noiseless fully sampled pipeline vs direct simulation
        params = AcquisitionParams(4.0, 32, 2, 8, (64, 64), (1, 1), 32, (16, 16))
        plan = build_vr_plan(params)
        stack = simulate_bins(truth64, DESK_BIN_CENTERS, DESK_FWHM)
        ksp = to_kspace(stack, 0.0, seed=0)
        full = reconstruct(plan, ksp, METHOD_REFERENCE)
        direct = np.stack([rsos_coils(np.abs(stack.data[b])) for b in range(8)])
        full_nrmse = np.linalg.norm(full.images - direct) / np.linalg.norm(direct)

        # PI interpolation on 2x2-undersampled 4-coil noiseless phantom
        mask = uniform_accel_mask(64, 64, 2, 2, (16, 16))
        geom = KernelGeometry(2, 2, 5, 4, ridge=1e-4)
        b = 4
        masked = np.where(mask, kspace64.data[b], 0)
        filled = pi_interpolate(masked, crop_center_array(masked, 16, 16), geom, mask=mask)
        pi_img = rsos_coils(np.abs(ifft2c(filled)))
        ref_img = rsos_coils(np.abs(ifft2c(kspace64.data[b])))
        pi_nrmse = np.linalg.norm(pi_img - ref_img) / np.linalg.norm(ref_img)

        # homodyne on a smooth-phase phantom (coil-combined)
        pf = partial_fourier_mask(64, 8)
        hd = rsos_coils(
            np.stack([homodyne_recon(kspace64.data[b, c] * pf[:, None], pf) for c in range(4)])
        )
        hd_nrmse = np.linalg.norm(hd - ref_img) / np.linalg.norm(ref_img)

        ok = full_nrmse < 0.02 and pi_nrmse < 0.05 and hd_nrmse < 0.02
        _announce(
            6,
            ok,
            f"fully-sampled {full_nrmse:.4f} (<0.02), PI 2x2 {pi_nrmse:.4f} (<0.05), "
            f"homodyne {hd_nrmse:.4f} (<0.02)",
        )


class TestCriterion7Ablation:
    def test_acs_data_helps_in_high_gradient_regions(self, desk_run):
        extras = desk_run["summary"]["extras"]["high_gradient_even_bin_mse"]
        vr = extras["DL_VR"]["median"]
        zr = extras["DL_ZREPLACE"]["median"]
        n = len(extras["DL_VR"]["per_slice"])
        ok = vr is not None and zr is not None and vr <= zr
        _announce(
            7,
            ok,
            f"high-gradient even-bin MSE: DL_VR {vr:.5f} <= DL_ZREPLACE {zr:.5f} "
            f"(median over {n} test slices)",
        )


class TestCriterion8Determinism:
    def test_identical_runs_byte_identical_reports(self, tmp_path_factory):
        outputs = []
        for run_idx in range(2):
            root = tmp_path_factory.mktemp(f"det{run_idx}")
            ini = root / "exp.ini"
            ini.write_text(SMALL_INI.format(out=root / "run"))
            cfg = load_config(ini)
            cmd_phantom(cfg)
            cmd_acquire(cfg)
            cmd_recon(cfg)
            cmd_train(cfg)
            cmd_infer(cfg)
            cmd_eval(cfg)
            outputs.append((Path(cfg.out_dir) / "eval" / "report.csv").read_bytes())
        ok = outputs[0] == outputs[1]
        _announce(8, ok, f"two full runs, report.csv {len(outputs[0])} bytes, byte-identical: {ok}")
