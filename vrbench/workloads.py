"""The three benchmark workloads: set-up, one timed operation, and gates.

Each workload makes its inputs from the workload seed and hands vrmsi only
those inputs.  ``op`` is the timed unit; ``check`` runs the correctness gates
on its outcome outside the timed interval and returns the reasons it failed.
vrmsi functions are looked up on their modules at call time, so the probes
of a traced run see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import shutil
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from vrbench import reference_unet

config = importlib.import_module("vrmsi.config")
learn = importlib.import_module("vrmsi.learn")
learn_train = importlib.import_module("vrmsi.learn.train")
phantom = importlib.import_module("vrmsi.phantom")
pipeline = importlib.import_module("vrmsi.pipeline")
recon = importlib.import_module("vrmsi.recon")
sampling = importlib.import_module("vrmsi.sampling")

# Geometry per anatomy family, as fractions of the matrix: ellipse
# (d_row, d_col, semi_row, semi_col, intensity) about the center, then the
# implant center offset.  Centers jitter by 2 px and semi-axes by 2 px.
FAMILIES = {
    "knee": (
        ((0.0, 0.0, 0.42, 0.44, 0.9), (0.08, -0.05, 0.17, 0.13, 0.55), (-0.18, -0.16, 0.08, 0.10, 1.0)),
        (-0.16, 0.22),
    ),
    "hip": (
        ((0.0, 0.0, 0.38, 0.46, 0.8), (-0.06, 0.08, 0.14, 0.17, 0.5), (0.20, -0.12, 0.09, 0.08, 1.0)),
        (0.14, -0.24),
    ),
}

def desk_config():
    """The package's built-in desk defaults (96x96, 4 coils, 8 bins)."""
    return config.load_config()


def make_slice(cfg, seed: int, index: int):
    """Noisy k-space of one jittered knee or hip slice, plus the noiseless
    image-domain bins it was made from."""
    rng = np.random.default_rng([seed, index])
    rows, cols = cfg.phantom["rows"], cfg.phantom["cols"]
    ellipses, implant_at = FAMILIES[("knee", "hip")[index % 2]]
    shapes = tuple(
        phantom.Ellipse(
            (rows * (0.5 + dr) + rng.uniform(-2, 2), cols * (0.5 + dc) + rng.uniform(-2, 2)),
            (rows * sr + rng.uniform(-2, 2), cols * sc + rng.uniform(-2, 2)),
            intensity,
        )
        for dr, dc, sr, sc, intensity in ellipses
    )
    p = cfg.phantom
    spec = phantom.PhantomSpec(
        rows=rows,
        cols=cols,
        shapes=shapes,
        implant=phantom.Implant(
            (rows * (0.5 + implant_at[0]), cols * (0.5 + implant_at[1])),
            p["implant_radius"],
            p["implant_amplitude_khz"],
        ),
        field_span_khz=p["field_span_khz"],
        n_coils=p["n_coils"],
        noise_sigma=p["noise_sigma"],
        texture=p["texture"],
    )
    truth = phantom.generate_phantom(spec, seed=int(rng.integers(2**31)))
    clean = phantom.simulate_bins(truth, cfg.bin_centers(), cfg.acquisition["fwhm_khz"])
    ksp = phantom.to_kspace(clean, p["noise_sigma"], seed=int(rng.integers(2**31)))
    return ksp, clean


def desk_unet(cfg, seed: int):
    n_bins = cfg.acquisition["n_bins"]
    model_cfg = learn.ModelConfig(n_bins, n_bins // 2, cfg.model["n_levels"], cfg.model["channels"])
    return learn.UNet(model_cfg, seed=seed)


def rsos(images: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(images) ** 2, axis=0))


def psnr_db(test: np.ndarray, reference: np.ndarray) -> float:
    mse = float(np.mean((test - reference) ** 2))
    return math.inf if mse == 0 else 10.0 * math.log10(float(reference.max()) ** 2 / mse)


class Workload:
    name = ""
    setups = 3          # set-ups before timing; setup_s is the median of all
    setups_between_ops = 0  # more, timed after each operation, for cheap set-ups
    warmup_ops = 0      # untimed operations before timing starts
    min_ops = 2         # operations per timed run even past the deadline
    traced_ops = 1      # operations in a traced unit
    # what slices_per_s, latency_p50_ms and latency_tail_ms are on this workload
    aliases = ("slices_per_s", "latency_p50_ms", "latency_tail_ms")

    def __init__(self, tracer=None, work_dir: Path | None = None):
        self.tracer = tracer          # set in traced runs
        self.work_dir = work_dir      # scratch space inside the checkout

    def setup(self, seed: int):
        raise NotImplementedError

    def op(self, state, i: int) -> dict:
        raise NotImplementedError

    def check(self, state, i: int, outcome: dict) -> list[str]:
        return []

    def close(self, state) -> None:
        pass


class ServeVR(Workload):
    """One closed-loop client, no think time: CR_VR recon, DL_VR, RSOS."""

    name = "serve_vr"
    pool = 32           # distinct slices; requests cycle through them
    warmup_ops = 2
    min_ops = 11
    traced_ops = 8
    check_every = 16    # requests whose U-Net output is re-derived directly

    def setup(self, seed):
        cfg = desk_config()
        plan = sampling.build_vr_plan(cfg.acquisition_params())
        full = plan.bins_with_scheme(sampling.FULL_SCHEME)
        slices = []
        for i in range(self.pool):
            ksp, clean = make_slice(cfg, seed, i)
            truth = rsos(np.stack([rsos(clean.data[b]) for b in full]))
            slices.append((ksp, truth))
        return {"plan": plan, "slices": slices, "model": desk_unet(cfg, seed), "full": full,
                "acs": plan.bins_with_scheme(sampling.ACS_ONLY)}

    def op(self, state, i):
        ksp, _ = state["slices"][i % self.pool]
        cr = recon.reconstruct(state["plan"], ksp, recon.METHOD_CR_VR)
        dl = learn.infer_full_stack(state["model"], cr, state["plan"])
        return {"cr": cr, "dl": dl, "image": recon.rsos_bins(dl.images), "slices": 1}

    def check(self, state, i, outcome):
        full, acs = state["full"], state["acs"]
        cr, dl, image = outcome["cr"].images, outcome["dl"].images, outcome["image"]
        reasons = []
        if not np.array_equal(dl[full], cr[full]):
            reasons.append("DL_VR full-scheme bins differ from CR_VR")
        if not (np.all(np.isfinite(dl)) and np.all(np.isfinite(image)) and image.min() >= 0):
            reasons.append("output not finite and non-negative")
        # On the seed commit the full-scheme-bin PSNR against the noiseless
        # truth is 5.4-12.1 dB (384 slices), overlapping the 4.3-5.9 dB an
        # all-zero image scores, so the floor is the all-zero score of the
        # same slice.  Over 3584 slices (seeds 1-10 and 100-199, plus two
        # second seeds, 32 slices each) the output beat it by 0.77 dB or more.
        truth = state["slices"][i % self.pool][1]
        value = psnr_db(rsos(dl[full]), truth)
        floor = psnr_db(np.zeros_like(truth), truth)
        if not value > floor:
            reasons.append(f"full-bin PSNR {value:.2f} dB not above an all-zero image's {floor:.2f} dB")
        if i % self.check_every == 0:
            direct = reference_unet.infer_acs_bins(state["model"], cr)
            err = reference_unet.max_relative_error(dl[acs], direct)
            if not err <= reference_unet.TOLERANCE:
                reasons.append(f"U-Net output off the direct forward by {err:.3g}")
        return reasons


@contextmanager
def step_clock(stamps: list):
    """Append the time each ``Adam.step`` returns, for per-step latency."""
    orig = learn_train.Adam.step

    def step(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        stamps.append(time.perf_counter())

    learn_train.Adam.step = step
    try:
        yield
    finally:
        learn_train.Adam.step = orig


class TrainUNet(Workload):
    """``learn.train`` at batch 4 from the same start for a fixed step count."""

    name = "train_unet"
    aliases = ("train_samples_per_s", "step_p50_ms", "step_tail_ms")
    n_slices = 8
    epochs = 3          # 2 batches of 4 per epoch, 6 steps per operation

    def setup(self, seed):
        cfg = desk_config()
        plan = sampling.build_vr_plan(cfg.acquisition_params())
        acs = plan.bins_with_scheme(sampling.ACS_ONLY)
        pairs = []
        for i in range(self.n_slices):
            ksp, _ = make_slice(cfg, seed, i)
            inputs = recon.reconstruct(plan, ksp, recon.METHOD_CR_VR).images
            target = recon.reconstruct(plan, ksp, recon.METHOD_REFERENCE).images[acs]
            pairs.append((inputs, target))
        model = desk_unet(cfg, seed)
        return {
            "pairs": pairs,
            "model": model,
            "start": [p.copy() for p in model.parameters()],
            "config": learn.TrainConfig(epochs=self.epochs, batch_size=4, seed=seed),
            "digest": None,
        }

    def op(self, state, i):
        model = state["model"]
        model.set_parameters(state["start"])
        stamps = [time.perf_counter()]
        with step_clock(stamps):
            _, history, _ = learn.train(state["pairs"], [], model, state["config"])
        return {
            "history": history,
            "steps": list(np.diff(stamps)),
            "slices": self.epochs * len(state["pairs"]),
        }

    def check(self, state, i, outcome):
        losses = [h[1] for h in outcome["history"]]
        reasons = []
        if not all(math.isfinite(v) for v in losses):
            reasons.append("non-finite training loss")
        elif not losses[-1] < losses[0]:
            reasons.append(f"train MSE did not fall: {losses[0]!r} -> {losses[-1]!r}")
        digest = hashlib.sha256(repr(outcome["history"]).encode()).hexdigest()
        if state["digest"] is None:
            state["digest"] = digest
        elif digest != state["digest"]:
            reasons.append("loss history differs from the first run of this seed")
        return reasons


EXPERIMENT_INI = """\
[experiment]
name = bench
seed = {seed}
jobs = 1

[split]
train_subjects = 1
val_subjects = 1
test_subjects = 1
slices_per_subject = 2

[model]
n_levels = 3
channels = 8,16,32

[train]
epochs = 1
"""


def snapshot(root: Path) -> dict:
    """(size, mtime) of every file below ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _under(files: dict, stage: str) -> dict:
    return {k: v for k, v in files.items() if k.startswith(stage + "/")}


class Experiment(Workload):
    """Cold ``run_all`` in a fresh directory, then a rerun on the cache."""

    name = "experiment"
    aliases = ("slices_per_s", "run_all_p50_ms", "run_all_max_ms")
    setups = 10
    setups_between_ops = 10
    warmup_ops = 1      # the first cold run in a process runs ~30% slow
    stages = (pipeline.STAGE_DATASET, pipeline.STAGE_KSPACE, pipeline.STAGE_RECON,
              pipeline.STAGE_MODELS, pipeline.STAGE_INFERRED, pipeline.STAGE_EVAL)

    def setup(self, seed):
        base = self.work_dir / f"setup-{seed}"
        ini = base / "experiment.ini"
        if not ini.exists():
            base.mkdir(parents=True, exist_ok=True)
            ini.write_text(EXPERIMENT_INI.format(seed=seed))
        return {"config": config.load_config(ini), "base": base, "report": None}

    def op(self, state, i):
        out = state["base"] / f"run{i:03d}"
        cfg = dataclasses.replace(state["config"], out_dir=str(out))
        pipeline.run_all(cfg)
        n = cfg.split
        slices = (n["train_subjects"] + n["val_subjects"] + n["test_subjects"]) * n["slices_per_subject"]
        return {"config": cfg, "out": out, "slices": slices}

    def check(self, state, i, outcome):
        out = outcome["out"]
        reasons = []
        eval_dir = out / pipeline.STAGE_EVAL
        summary = json.loads((eval_dir / "summary.json").read_text())
        missing = set(recon.ALL_METHODS) - set(summary["summaries"].get("ssim", {}))
        if missing:
            reasons.append(f"summary.json lacks methods {sorted(missing)}")
        report = (eval_dir / "report.csv").read_bytes()
        if state["report"] is None:
            state["report"] = report
        elif report != state["report"]:
            reasons.append("report.csv differs from the first cold run of this seed")

        before = snapshot(out)
        with self.tracer.new_request("rerun") if self.tracer else nullcontext():
            pipeline.run_all(outcome["config"])
        after = snapshot(out)
        if self.tracer:
            hits = sum(_under(before, stage) == _under(after, stage) for stage in self.stages)
            self.tracer.add("pipeline.cache_hits", hits)
            self.tracer.add("pipeline.cache_stages", len(self.stages))
        if before != after:
            changed = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
            reasons.append(f"cached rerun rewrote {changed[:3]}")
        shutil.rmtree(out)
        return reasons

    def close(self, state):
        shutil.rmtree(state["base"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (ServeVR, TrainUNet, Experiment)}
