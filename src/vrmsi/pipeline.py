"""Staged experiment pipeline: phantom -> acquire -> recon -> train -> infer -> eval.

This module runs stages only; the cohort anatomy and truth files live in
``vrmsi.phantom`` and the metric geometry in ``vrmsi.metrics``.  Every stage
writes its artifacts plus a ``provenance.json`` capturing the stage's cache
key, tool version, seed, hashes of the upstream provenance files, and every
artifact in the stage directory with its byte size.  The cache key hashes the
seed and only the config sections the stage depends on (see ``_KEY_SECTION``),
so an edit to ``[train]`` or ``[model]`` reruns only train, infer and eval.
Re-running a stage is a no-op when its provenance matches and every listed
artifact is present at its recorded size; otherwise, or with ``force``, it
rebuilds.  A rebuild first checks each upstream stage and refuses, naming the
``vrmsi`` command to run, when one is missing, was built under another key or
lost an artifact.  It then builds the stage aside in ``<stage>.tmp/`` and swaps
that in whole, so a failed build leaves the last good stage as it was, and its
``<stage>.tmp/`` until the next build.  Stages are deterministic given config
and seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import stat
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from vrmsi import __version__
from vrmsi.config import ExperimentConfig
from vrmsi.core import load_stack, save_stack
from vrmsi.learn import (
    TrainConfig,
    UNet,
    infer_full_stack,
    infer_zreplace,
    load_model,
    save_history,
    save_model,
    train,
)
from vrmsi.learn.model import ModelConfig
from vrmsi.metrics import (
    EdgeSegment,
    EvalReport,
    high_gradient_region,
    psnr,
    resi,
    ssim,
    write_edge_csv,
    write_report_csv,
    write_report_json,
)
from vrmsi.phantom import cohort_spec, generate_phantom, load_truth, save_truth, simulate_bins, to_kspace
from vrmsi.recon import (
    METHOD_CR_VR,
    METHOD_CR_ZREPLACE,
    METHOD_DL_VR,
    METHOD_DL_ZREPLACE,
    METHOD_REFERENCE,
    load_recon,
    reconstruct,
    rsos_bins,
    save_recon,
)
from vrmsi.sampling import ACS_ONLY, build_vr_plan, load_plan, save_plan

PROVENANCE = "provenance.json"
PLAN = "plan.msstack"

STAGE_DATASET = "dataset"
STAGE_KSPACE = "kspace"
STAGE_RECON = "recon"
STAGE_MODELS = "models"
STAGE_INFERRED = "inferred"
STAGE_EVAL = "eval"

# stage -> the last config section in its cache key (a prefix of config.SECTIONS)
_KEY_SECTION = {STAGE_DATASET: "split", STAGE_KSPACE: "acquisition", STAGE_RECON: "recon",
                STAGE_MODELS: "train", STAGE_INFERRED: "train", STAGE_EVAL: "train"}

# stage -> the ``vrmsi`` command that builds it
_COMMAND = {STAGE_DATASET: "phantom", STAGE_KSPACE: "acquire", STAGE_RECON: "recon",
            STAGE_MODELS: "train", STAGE_INFERRED: "infer", STAGE_EVAL: "eval"}


class MissingArtifactError(RuntimeError):
    """An upstream stage has not produced its artifacts yet."""


class StageExistsError(RuntimeError):
    """Output directory holds unrelated content and --force was not given."""


# ---------------------------------------------------------------------------
# Provenance and caching
# ---------------------------------------------------------------------------


def _run_stage(cfg: ExperimentConfig, stage: str, upstream: list[str], force: bool, build) -> Path:
    """Run ``build(root, work_dir)`` unless the stage's cached artifacts are current.

    ``upstream`` names every stage whose artifacts ``build`` reads; each must
    have been built under this config's key for it, and before a build its
    listed artifacts must be intact.  A provenance file that lists no
    artifacts vouches for nothing, so it is never a cache hit.  ``work_dir``
    is an empty ``<stage>.tmp/`` that replaces the stage once ``build`` returns.
    """
    root = Path(cfg.out_dir)
    stage_dir = root / stage
    inputs, upstream_artifacts = {}, {}
    for up in upstream:
        raw, recorded = _read_provenance(root / up)
        if recorded.get("config_hash") != cfg.config_hash(_KEY_SECTION[up]):
            raise MissingArtifactError(
                f"stage '{stage}' needs stage '{up}' built under this config: "
                f"run `vrmsi {_COMMAND[up]}` first"
            )
        inputs[f"{up}/{PROVENANCE}"] = hashlib.sha256(raw).hexdigest()[:16]
        upstream_artifacts[up] = recorded.get("artifacts", {})
    provenance = {
        "stage": stage,
        "tool_version": __version__,
        "config_hash": cfg.config_hash(_KEY_SECTION[stage]),
        "seed": cfg.seed,
        "input_hashes": inputs,
    }

    _, recorded = _read_provenance(stage_dir)
    artifacts = recorded.pop("artifacts", {})
    if not force and recorded == provenance and artifacts and _intact(stage_dir, artifacts):
        return stage_dir
    for up, listed in upstream_artifacts.items():
        if not (listed and _intact(root / up, listed)):
            raise MissingArtifactError(
                f"stage '{stage}' needs stage '{up}', whose artifacts are missing or changed: "
                f"run `vrmsi {_COMMAND[up]}` to rebuild it"
            )
    foreign = not (stage_dir / PROVENANCE).exists() and stage_dir.exists() and any(stage_dir.iterdir())
    if foreign and not force:
        raise StageExistsError(f"{stage_dir} is not empty; pass --force to overwrite")

    work_dir = root / f"{stage}.tmp"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    build(root, work_dir)
    provenance["artifacts"] = {
        path.relative_to(work_dir).as_posix(): path.stat().st_size
        for path in work_dir.rglob("*")
        if path.is_file()
    }
    (work_dir / PROVENANCE).write_text(json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    if stage_dir.exists():
        shutil.rmtree(stage_dir)
    work_dir.rename(stage_dir)
    return stage_dir


def _read_provenance(stage_dir: Path) -> tuple[bytes, dict]:
    """A stage's provenance bytes and record; a missing or unparseable file reads as ``{}``."""
    try:
        raw = (stage_dir / PROVENANCE).read_bytes()
        return raw, json.loads(raw)
    except (FileNotFoundError, ValueError):
        return b"{}", {}


def _intact(stage_dir: Path, artifacts: dict[str, int]) -> bool:
    """Every listed artifact is a regular file at its recorded byte size."""
    try:
        found = [os.stat(os.path.join(stage_dir, rel)) for rel in artifacts]
    except OSError:
        return False
    return all(
        stat.S_ISREG(st.st_mode) and st.st_size == size for st, size in zip(found, artifacts.values())
    )


def _parallel(jobs: int, fn, items):
    """Run fn over items, preserving item order in the returned list."""
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _slice_path(stage_dir: Path, sid: str, slice_idx: int, kind: str) -> Path:
    """Where one slice's artifact of the given kind lives in a stage directory; creates nothing."""
    return stage_dir / sid / f"slice{slice_idx:02d}.{kind}"


def _iter_slices(cfg: ExperimentConfig, roles=("train", "val", "test")):
    """(role, subject id, subject index, slice index); subjects are numbered train, val, test."""
    first = 0
    for role in ("train", "val", "test"):
        count = cfg.split[f"{role}_subjects"]
        if role in roles:
            for subject_idx in range(first, first + count):
                for slice_idx in range(cfg.split["slices_per_subject"]):
                    yield role, f"s{subject_idx:03d}", subject_idx, slice_idx
        first += count


def _load_truth(root: Path, sid: str, slice_idx: int):
    return load_truth(
        _slice_path(root / STAGE_DATASET, sid, slice_idx, "truth.msstack"),
        _slice_path(root / STAGE_DATASET, sid, slice_idx, "meta.json"),
    )


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def cmd_phantom(cfg: ExperimentConfig, force: bool = False) -> Path:
    def build(root, stage_dir):
        manifest = {"subjects": []}
        for role, sid, subject_idx, slice_idx in _iter_slices(cfg):
            # all knees, or knees and hips alternating by subject
            family = "hip" if cfg.phantom["families"] == "mixed" and subject_idx % 2 else "knee"
            if slice_idx == 0:
                manifest["subjects"].append(
                    {"id": sid, "role": role, "family": family, "slices": cfg.split["slices_per_subject"]}
                )
            spec = cohort_spec(cfg.phantom, family, [cfg.seed, subject_idx, slice_idx])
            truth = generate_phantom(spec, seed=cfg.seed + 7919 * subject_idx + slice_idx)
            (stage_dir / sid).mkdir(exist_ok=True)
            save_truth(truth, _slice_path(stage_dir, sid, slice_idx, "truth.msstack"),
                       _slice_path(stage_dir, sid, slice_idx, "meta.json"),
                       {"subject": sid, "slice": slice_idx, "family": family, "role": role})
        (stage_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return _run_stage(cfg, STAGE_DATASET, [], force, build)


def cmd_acquire(cfg: ExperimentConfig, force: bool = False) -> Path:
    def build(root, stage_dir):
        save_plan(build_vr_plan(cfg.acquisition_params()), stage_dir / PLAN)
        centers = np.asarray(cfg.bin_centers())
        fwhm = cfg.acquisition["fwhm_khz"]
        noise = cfg.phantom["noise_sigma"]

        def acquire_one(task):
            _, sid, subject_idx, slice_idx = task
            truth = _load_truth(root, sid, slice_idx)
            stack = simulate_bins(truth, centers, fwhm)
            ksp = to_kspace(stack, noise, seed=cfg.seed + 104729 * subject_idx + 13 * slice_idx)
            (stage_dir / sid).mkdir(exist_ok=True)
            save_stack(ksp, _slice_path(stage_dir, sid, slice_idx, "ksp.msstack"))

        _parallel(cfg.jobs, acquire_one, list(_iter_slices(cfg)))

    return _run_stage(cfg, STAGE_KSPACE, [STAGE_DATASET], force, build)


def cmd_recon(cfg: ExperimentConfig, force: bool = False) -> Path:
    def build(root, stage_dir):
        plan = load_plan(root / STAGE_KSPACE / PLAN)
        out_shape = cfg.out_shape()
        r = cfg.recon

        def recon_one(task):
            _, sid, _, slice_idx = task
            ksp = load_stack(_slice_path(root / STAGE_KSPACE, sid, slice_idx, "ksp.msstack"))
            options = dict(out_shape=out_shape, apod_sigma_fraction=r["apod_sigma_fraction"],
                           kernel_taps=(r["kernel_ky"], r["kernel_kz"]), ridge=r["ridge"])
            # The CR methods copy REFERENCE's full-scheme bins: one PI per bin.
            reference = reconstruct(plan, ksp, METHOD_REFERENCE, **options)
            (stage_dir / sid).mkdir(exist_ok=True)
            save_recon(reference, _slice_path(stage_dir, sid, slice_idx, f"{METHOD_REFERENCE}.msstack"))
            for method in (METHOD_CR_VR, METHOD_CR_ZREPLACE):
                output = reconstruct(plan, ksp, method, reference=reference, **options)
                save_recon(output, _slice_path(stage_dir, sid, slice_idx, f"{method}.msstack"))

        _parallel(cfg.jobs, recon_one, list(_iter_slices(cfg)))

    return _run_stage(cfg, STAGE_RECON, [STAGE_KSPACE], force, build)


def _load_method(root: Path, sid: str, slice_idx: int, method: str):
    stage = STAGE_INFERRED if method in (METHOD_DL_VR, METHOD_DL_ZREPLACE) else STAGE_RECON
    return load_recon(_slice_path(root / stage, sid, slice_idx, f"{method}.msstack"))


def cmd_train(cfg: ExperimentConfig, force: bool = False) -> Path:
    def build(root, stage_dir):
        n_bins = cfg.acquisition["n_bins"]
        model_cfg = ModelConfig(
            in_channels=n_bins,
            out_channels=n_bins // 2,
            n_levels=cfg.model["n_levels"],
            channels=cfg.model["channels"],
        )
        train_cfg = TrainConfig(
            learning_rate=cfg.train["learning_rate"],
            epochs=cfg.train["epochs"],
            batch_size=cfg.train["batch_size"],
            seed=cfg.seed,
        )

        # Both models learn the same REFERENCE ACS bins, so they are read once.
        acs_bins = load_plan(root / STAGE_KSPACE / PLAN).bins_with_scheme(ACS_ONLY)
        targets = {
            role: [
                (sid, slice_idx, _load_method(root, sid, slice_idx, METHOD_REFERENCE).images[acs_bins])
                for _, sid, _, slice_idx in _iter_slices(cfg, (role,))
            ]
            for role in ("train", "val")
        }

        for variant, input_method, model_seed in (
            ("vr", METHOD_CR_VR, cfg.seed + 1),
            ("zr", METHOD_CR_ZREPLACE, cfg.seed + 2),
        ):
            # (input bins, reference ACS bins) pairs
            pairs = {
                role: [
                    (_load_method(root, sid, slice_idx, input_method).images, target)
                    for sid, slice_idx, target in role_targets
                ]
                for role, role_targets in targets.items()
            }
            model = UNet(model_cfg, seed=model_seed)
            model, history, optimizer = train(pairs["train"], pairs["val"], model, train_cfg)
            save_model(
                model,
                stage_dir / f"model_{variant}.msmodel",
                optimizer=optimizer,
                config=train_cfg,
                provenance=f"{variant}:{input_method}",
            )
            save_history(history, stage_dir / f"loss_{variant}.csv")

    return _run_stage(cfg, STAGE_MODELS, [STAGE_KSPACE, STAGE_RECON], force, build)


def cmd_infer(cfg: ExperimentConfig, force: bool = False) -> Path:
    def build(root, stage_dir):
        plan = load_plan(root / STAGE_KSPACE / PLAN)
        model_vr, _ = load_model(root / STAGE_MODELS / "model_vr.msmodel")
        model_zr, _ = load_model(root / STAGE_MODELS / "model_zr.msmodel")

        def infer_one(task):
            _, sid, _, slice_idx = task
            cr_vr = _load_method(root, sid, slice_idx, METHOD_CR_VR)
            cr_zr = _load_method(root, sid, slice_idx, METHOD_CR_ZREPLACE)
            (stage_dir / sid).mkdir(exist_ok=True)
            save_recon(infer_full_stack(model_vr, cr_vr, plan),
                       _slice_path(stage_dir, sid, slice_idx, f"{METHOD_DL_VR}.msstack"))
            save_recon(infer_zreplace(model_zr, cr_zr, plan),
                       _slice_path(stage_dir, sid, slice_idx, f"{METHOD_DL_ZREPLACE}.msstack"))

        _parallel(cfg.jobs, infer_one, list(_iter_slices(cfg, roles=("test",))))

    return _run_stage(cfg, STAGE_INFERRED, [STAGE_KSPACE, STAGE_RECON, STAGE_MODELS], force, build)


def cmd_eval(cfg: ExperimentConfig, force: bool = False) -> Path:
    def build(root, stage_dir):
        acs_bins = load_plan(root / STAGE_KSPACE / PLAN).bins_with_scheme(ACS_ONLY)
        out_shape = cfg.out_shape()
        scale_r = out_shape[0] / cfg.phantom["rows"]
        scale_c = out_shape[1] / cfg.phantom["cols"]

        report = EvalReport()
        methods = (METHOD_REFERENCE, METHOD_CR_VR, METHOD_CR_ZREPLACE, METHOD_DL_VR, METHOD_DL_ZREPLACE)
        ablation = {METHOD_DL_VR: [], METHOD_DL_ZREPLACE: []}

        for _, sid, _, slice_idx in _iter_slices(cfg, roles=("test",)):
            truth = _load_truth(root, sid, slice_idx)
            outputs = {m: _load_method(root, sid, slice_idx, m) for m in methods}
            combined = {m: rsos_bins(outputs[m].images) for m in methods}
            segments = [
                EdgeSegment((r0 * scale_r, c0 * scale_c), (r1 * scale_r, c1 * scale_c))
                for (r0, c0), (r1, c1) in truth.edge_segments
            ]

            region = high_gradient_region(truth.off_resonance_khz, truth.proton_density, out_shape)
            for method in (METHOD_DL_VR, METHOD_DL_ZREPLACE):
                diff = outputs[method].images[acs_bins] - outputs[METHOD_REFERENCE].images[acs_bins]
                if region.any():
                    ablation[method].append(float(np.mean(diff[:, region] ** 2)))

            for method in methods:
                ssim_value = ssim(combined[method], combined[METHOD_REFERENCE])
                psnr_value = psnr(combined[method], combined[METHOD_REFERENCE])
                edge_values = []
                for edge_idx, segment in enumerate(segments):
                    value = resi(combined[method], combined[METHOD_CR_VR], segment)
                    report.add_edge_record(sid, slice_idx, edge_idx, method, value)
                    edge_values.append(value)
                resi_value = float(np.median(edge_values)) if edge_values else None
                report.add_record(sid, slice_idx, method, ssim_value, psnr_value, resi_value)

        report.extras["high_gradient_even_bin_mse"] = {
            method: {
                "median": float(np.median(vals)) if vals else None,
                "per_slice": vals,
            }
            for method, vals in ablation.items()
        }
        report.finalize()
        write_report_csv(report, stage_dir / "report.csv")
        write_edge_csv(report, stage_dir / "edges.csv")
        write_report_json(report, stage_dir / "summary.json")

    return _run_stage(cfg, STAGE_EVAL, [STAGE_DATASET, STAGE_KSPACE, STAGE_RECON, STAGE_INFERRED], force, build)


def run_all(cfg: ExperimentConfig, force: bool = False) -> Path:
    cmd_phantom(cfg, force)
    cmd_acquire(cfg, force)
    cmd_recon(cfg, force)
    cmd_train(cfg, force)
    cmd_infer(cfg, force)
    return cmd_eval(cfg, force)
