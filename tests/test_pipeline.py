"""Config parsing, stage orchestration, provenance, caching, CLI behavior."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from vrmsi import pipeline, recon
from vrmsi.cli import main
from vrmsi.config import ConfigError, load_config
from vrmsi.core import MAGIC_MODEL, load_stack, read_container, save_stack
from vrmsi.learn import UNet
from vrmsi.metrics import EvalReport, read_report_csv, write_report_csv
from vrmsi.pipeline import (
    MissingArtifactError,
    StageExistsError,
    cmd_acquire,
    cmd_eval,
    cmd_infer,
    cmd_phantom,
    cmd_recon,
    cmd_train,
    run_all,
)
from vrmsi.report import boxplot_svg, render_report
from vrmsi.sampling import build_vr_plan

TINY_INI = """
[experiment]
name = tiny
out_dir = {out}
seed = 77

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


def tiny_config(tmp_path, out_name="run", **overrides):
    ini = tmp_path / "exp.ini"
    ini.write_text(TINY_INI.format(out=tmp_path / out_name))
    return load_config(ini, overrides)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("tinyrun")
    cfg = tiny_config(tmp_path)
    cmd_phantom(cfg)
    cmd_acquire(cfg)
    cmd_recon(cfg)
    cmd_train(cfg)
    cmd_infer(cfg)
    cmd_eval(cfg)
    return cfg


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg.phantom["rows"] == 96
        assert cfg.acquisition["fwhm_khz"] == 2.25
        assert cfg.train["learning_rate"] == pytest.approx(2e-4)
        assert cfg.train["epochs"] == 50
        assert cfg.train["batch_size"] == 4
        assert cfg.model["n_levels"] == 5
        assert cfg.model["channels"] == (16, 32, 64, 128, 256)

    def test_overrides_win_over_file(self, tmp_path):
        cfg = tiny_config(tmp_path, **{"experiment.seed": 123})
        assert cfg.seed == 123

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[phantom]\nvoxels = 12\n")
        with pytest.raises(ConfigError):
            load_config(ini)

    def test_bad_value_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[phantom]\nrows = soon\n")
        with pytest.raises(ConfigError):
            load_config(ini)

    def test_field_span_coverage_check(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[phantom]\nfield_span_khz = 1.0\n")
        with pytest.raises(ConfigError):
            load_config(ini)

    def test_network_divisibility_check(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[phantom]\nrows = 72\ncols = 72\n")
        with pytest.raises(ConfigError):
            load_config(ini)

    @pytest.mark.parametrize(
        "accel, rows, cols, fits",
        [(2, 9, 7, True), (2, 8, 7, False), (2, 9, 6, False), (1, 2, 2, True)],
        ids=["fits", "rows-short", "cols-short", "unaccelerated"],
    )
    def test_kernel_must_fit_acs_block(self, tmp_path, accel, rows, cols, fits):
        # At R=2x2 the default 5x4 taps span 9 rows and 7 columns; at R=1x1 no kernel is fit.
        overrides = {"acquisition.accel_ky": accel, "acquisition.accel_kz": accel,
                     "acquisition.acs_rows": rows, "acquisition.acs_cols": cols}
        if fits:
            assert tiny_config(tmp_path, **overrides).acquisition["acs_rows"] == rows
        else:
            with pytest.raises(ConfigError, match=r"\[recon\] kernel_ky/kernel_kz"):
                tiny_config(tmp_path, **overrides)

    def test_error_without_file_names_no_path(self):
        with pytest.raises(ConfigError) as err:
            load_config(None, {"acquisition.acs_rows": 8, "acquisition.acs_cols": 8})
        assert str(err.value).startswith("[recon] kernel_ky/kernel_kz")

    def test_hash_stable(self, tmp_path):
        a = tiny_config(tmp_path)
        b = tiny_config(tmp_path)
        assert a.config_hash() == b.config_hash()

    def test_default_hash_pinned(self):
        # Every stage's cache key hashes this dump, so moving a default must show here.
        assert load_config().config_hash() == "693b5a6453494e68"


class TestStages:
    def test_artifacts_exist(self, pipeline_run):
        root = Path(pipeline_run.out_dir)
        assert (root / "dataset" / "manifest.json").exists()
        assert not (root / "kspace" / "plan.msstack").exists()
        kspace = json.loads((root / "kspace" / "provenance.json").read_text())["artifacts"]
        assert kspace and all(Path(rel).match("s*/slice*.ksp.msstack") for rel in kspace)
        assert (root / "models" / "model_vr.msmodel").exists()
        assert (root / "models" / "loss_vr.csv").exists()
        assert (root / "eval" / "report.csv").exists()
        assert (root / "eval" / "summary.json").exists()

    def test_checkpoints_hold_only_the_weights(self, pipeline_run):
        model = UNet(pipeline_run.model_config())
        paths = sorted((Path(pipeline_run.out_dir) / "models").glob("model_*.msmodel"))
        assert [p.name for p in paths] == ["model_vr.msmodel", "model_zr.msmodel"]
        for path in paths:
            metadata, payload = read_container(path, MAGIC_MODEL)
            assert [t["name"] for t in metadata["tensors"]] == model.parameter_names()
            assert len(payload) == 8 * sum(p.size for p in model.parameters())

    def test_manifest_subjects_unique(self, pipeline_run):
        manifest = json.loads(
            (Path(pipeline_run.out_dir) / "dataset" / "manifest.json").read_text()
        )
        ids = [s["id"] for s in manifest["subjects"]]
        assert len(ids) == len(set(ids)) == 4

    def test_eval_has_all_methods(self, pipeline_run):
        report = read_report_csv(Path(pipeline_run.out_dir) / "eval" / "report.csv")
        assert set(report.methods()) == {
            "REFERENCE",
            "CR_VR",
            "CR_ZREPLACE",
            "DL_VR",
            "DL_ZREPLACE",
        }

    def test_rerun_is_noop(self, pipeline_run):
        marker = Path(pipeline_run.out_dir) / "dataset" / "manifest.json"
        before = marker.stat().st_mtime_ns
        cmd_phantom(pipeline_run)
        assert marker.stat().st_mtime_ns == before

        def snapshot():
            return {
                p: (p.stat().st_size, p.stat().st_mtime_ns)
                for p in Path(pipeline_run.out_dir).rglob("*")
                if p.is_file()
            }

        files = snapshot()
        for stage in (cmd_phantom, cmd_acquire, cmd_recon, cmd_train, cmd_infer, cmd_eval):
            stage(pipeline_run)
        assert snapshot() == files

    def test_force_rebuilds(self, pipeline_run):
        marker = Path(pipeline_run.out_dir) / "dataset" / "manifest.json"
        before = marker.stat().st_mtime_ns
        cmd_phantom(pipeline_run, force=True)
        assert marker.stat().st_mtime_ns != before
        # downstream provenance now refers to the rebuilt upstream
        cmd_acquire(pipeline_run, force=True)
        cmd_recon(pipeline_run, force=True)
        cmd_train(pipeline_run, force=True)
        cmd_infer(pipeline_run, force=True)
        cmd_eval(pipeline_run, force=True)

    def test_same_seed_identical_dataset_bytes(self, tmp_path):
        cfg_a = tiny_config(tmp_path, out_name="run_a")
        cfg_b = tiny_config(tmp_path, out_name="run_b")
        cmd_phantom(cfg_a)
        cmd_phantom(cfg_b)
        a = (Path(cfg_a.out_dir) / "dataset" / "s000" / "slice00.truth.msstack").read_bytes()
        b = (Path(cfg_b.out_dir) / "dataset" / "s000" / "slice00.truth.msstack").read_bytes()
        assert a == b

    def test_parallel_jobs_identical_artifacts(self, tmp_path):
        cfg_1 = tiny_config(tmp_path, out_name="jobs1")
        cfg_2 = tiny_config(tmp_path, out_name="jobs2", **{"experiment.jobs": 2})
        for cfg in (cfg_1, cfg_2):
            cmd_phantom(cfg)
            cmd_acquire(cfg)
        rel = Path("kspace") / "s000" / "slice01.ksp.msstack"
        assert (Path(cfg_1.out_dir) / rel).read_bytes() == (Path(cfg_2.out_dir) / rel).read_bytes()

    def test_missing_upstream_raises(self, tmp_path):
        cfg = tiny_config(tmp_path, out_name="fresh")
        with pytest.raises(MissingArtifactError, match="phantom|dataset"):
            cmd_acquire(cfg)
        with pytest.raises(MissingArtifactError):
            cmd_eval(cfg)

    def test_dirty_output_dir_requires_force(self, tmp_path):
        cfg = tiny_config(tmp_path, out_name="dirty")
        stage = Path(cfg.out_dir) / "dataset"
        stage.mkdir(parents=True)
        (stage / "junk.txt").write_text("leftover")
        with pytest.raises(StageExistsError):
            cmd_phantom(cfg)
        cmd_phantom(cfg, force=True)

    def test_failed_rebuild_is_not_a_cache_hit(self, tmp_path, monkeypatch):
        cfg_a = tiny_config(tmp_path, out_name="flaky")
        cfg_b = tiny_config(tmp_path, out_name="flaky", **{"acquisition.fwhm_khz": 1.5})
        cmd_phantom(cfg_a)
        cmd_acquire(cfg_a)
        root = Path(cfg_a.out_dir)

        def snapshot():
            return {
                p: (p.read_bytes(), p.stat().st_size, p.stat().st_mtime_ns)
                for p in (root / "kspace").rglob("*")
                if p.is_file()
            }

        kspace_a = snapshot()
        calls = []

        def fail_after_three(stack, path):
            if len(calls) == 3:
                raise OSError("disk full")
            calls.append(path)
            save_stack(stack, path)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "save_stack", fail_after_three)
            with pytest.raises(OSError, match="disk full"):
                cmd_acquire(cfg_b)
        assert len(calls) == 3
        assert snapshot() == kspace_a
        assert (root / "kspace.tmp").is_dir()

        cmd_acquire(cfg_a)
        assert snapshot() == kspace_a
        cmd_acquire(cfg_b)
        assert not (root / "kspace.tmp").exists()
        provenance = json.loads((root / "kspace" / "provenance.json").read_text())
        assert provenance["config_hash"] == cfg_b.config_hash("acquisition")

    def test_recon_refuses_a_reference_of_another_kernel(self, pipeline_run):
        root = Path(pipeline_run.out_dir)
        plan = build_vr_plan(pipeline_run.acquisition_params())
        ksp = load_stack(next((root / "kspace").glob("s*/slice*.ksp.msstack")))
        reference = recon.reconstruct(plan, ksp, recon.METHOD_REFERENCE, ridge=1e-4)
        recon.reconstruct(plan, ksp, recon.METHOD_CR_VR, ridge=1e-4, reference=reference)
        with pytest.raises(ValueError, match="kernel"):
            recon.reconstruct(plan, ksp, recon.METHOD_CR_VR, ridge=0.1, reference=reference)
        with pytest.raises(ValueError, match="kernel"):
            recon.reconstruct(plan, ksp, recon.METHOD_CR_VR, kernel_taps=(3, 2), ridge=1e-4,
                              reference=reference)

    def test_recon_reconstructs_each_bin_once(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, out_name="reuse")
        cmd_phantom(cfg)
        cmd_acquire(cfg)
        calls = []
        pi_interpolate = recon.pi_interpolate
        monkeypatch.setattr(recon, "pi_interpolate", lambda *a, **kw: calls.append(1) or pi_interpolate(*a, **kw))
        cmd_recon(cfg)
        root = Path(cfg.out_dir)
        kspace = sorted((root / "kspace").glob("s*/slice*.ksp.msstack"))
        assert len(calls) == cfg.acquisition["n_bins"] * len(kspace) == 8 * 8

        # The stage's artifacts are those of independent reconstruct calls.
        plan = build_vr_plan(cfg.acquisition_params())
        r = cfg.recon
        expected = tmp_path / "expected.msstack"
        for path in kspace:
            ksp = load_stack(path)
            for method in recon.CONVENTIONAL_METHODS:
                output = recon.reconstruct(plan, ksp, method, apod_sigma_fraction=r["apod_sigma_fraction"],
                                           kernel_taps=(r["kernel_ky"], r["kernel_kz"]), ridge=r["ridge"])
                recon.save_recon(output, expected)
                stem = path.name.removesuffix(".ksp.msstack")
                actual = root / "recon" / path.parent.name / f"{stem}.{method}.msstack"
                assert actual.read_bytes() == expected.read_bytes(), actual

    def test_deleted_artifact_is_rebuilt(self, tmp_path):
        cfg = tiny_config(tmp_path, out_name="holey")
        cmd_phantom(cfg)
        cmd_acquire(cfg)
        victim = Path(cfg.out_dir) / "kspace" / "s000" / "slice00.ksp.msstack"
        original = victim.read_bytes()
        victim.unlink()
        cmd_acquire(cfg)
        assert victim.read_bytes() == original
        assert main(["recon", "--config", str(tmp_path / "exp.ini")]) == 0

    @pytest.mark.parametrize(
        "key, stale",
        [("split.slices_per_subject", "*/s*/slice01.*"), ("split.train_subjects", "*/s003/*")],
        ids=["slices_per_subject", "train_subjects"],
    )
    def test_rebuild_removes_stale_slices(self, tmp_path, key, stale):
        two = tiny_config(tmp_path, out_name="shrink")
        one = tiny_config(tmp_path, out_name="shrink", **{key: 1})
        for cfg in (two, one):
            cmd_phantom(cfg)
            cmd_acquire(cfg)
        root = Path(one.out_dir)
        assert list(root.glob("*/s*/slice00.*"))
        assert not list(root.glob(stale))
        assert not [d for d in root.rglob("*") if d.is_dir() and not any(d.iterdir())]

    def test_train_edit_keeps_upstream_stages(self, tmp_path):
        cfg = tiny_config(tmp_path, out_name="retrain")
        run_all(cfg)
        root = Path(cfg.out_dir)

        def snapshot(stage):
            return {
                p: (p.stat().st_size, p.stat().st_mtime_ns)
                for p in (root / stage).rglob("*")
                if p.is_file()
            }

        upstream = {stage: snapshot(stage) for stage in ("dataset", "kspace", "recon")}
        models = snapshot("models")
        run_all(tiny_config(tmp_path, out_name="retrain", **{"train.epochs": 1}))
        assert {stage: snapshot(stage) for stage in upstream} == upstream
        rebuilt = snapshot("models")
        assert rebuilt.keys() == models.keys()
        assert all(rebuilt[p] != models[p] for p in models)

    def test_stale_upstream_refused(self, tmp_path):
        old = tiny_config(tmp_path, out_name="stale")
        new = tiny_config(tmp_path, out_name="stale", **{"phantom.noise_sigma": 0.004})
        cmd_phantom(old)
        cmd_acquire(old)
        cmd_phantom(new)
        with pytest.raises(MissingArtifactError, match="'dataset' built under this config"):
            cmd_acquire(old)
        assert main(["acquire", "--config", str(tmp_path / "exp.ini")]) == 3

    def test_refused_rebuild_keeps_its_artifacts(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, out_name="gap")
        run_all(cfg)
        root = Path(cfg.out_dir)

        def snapshot():
            return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in (root / "models").rglob("*")}

        models = snapshot()
        (root / "recon" / "s000" / "slice00.CR_VR.msstack").unlink()
        capsys.readouterr()
        assert main(["train", "--config", str(tmp_path / "exp.ini"), "--force"]) == 3
        assert "vrmsi recon" in capsys.readouterr().err
        assert models and snapshot() == models

    def test_malformed_upstream_keeps_its_artifacts(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, out_name="edited")
        run_all(cfg)
        root = Path(cfg.out_dir)

        def snapshot():
            return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in (root / "models").rglob("*")}

        models = snapshot()
        victim = root / "recon" / "s000" / "slice00.CR_VR.msstack"
        raw = victim.read_bytes()
        # A same-size edit passes the upstream size check; the build's read refuses it.
        victim.write_bytes(raw.replace(b'"rows": 32', b'"rows": 31', 1))
        argv = ["train", "--config", str(tmp_path / "exp.ini")]
        capsys.readouterr()
        assert main(argv + ["--force"]) == 4
        assert str(victim) in capsys.readouterr().err
        assert models and snapshot() == models
        victim.write_bytes(raw)
        assert main(argv) == 0
        assert snapshot() == models

    def test_leftover_work_dir_is_removed(self, tmp_path):
        cfg = tiny_config(tmp_path, out_name="leftover")
        root = Path(cfg.out_dir)
        stray = root / "recon.tmp" / "s000" / "stray.msstack"
        stray.parent.mkdir(parents=True)
        stray.write_text("left by a failed build")
        run_all(cfg)
        assert not list(root.glob("*.tmp"))
        assert not (root / "recon" / "s000" / "stray.msstack").exists()
        for provenance in root.glob("*/provenance.json"):
            assert not [rel for rel in json.loads(provenance.read_text())["artifacts"] if "stray" in rel]

    def test_stale_upstream_names_its_command(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        old = TINY_INI.format(out=tmp_path / "renoised")
        ini.write_text(old)
        assert main(["phantom", "--config", str(ini)]) == 0
        assert main(["acquire", "--config", str(ini)]) == 0
        ini.write_text(old.replace("noise_sigma = 0.002", "noise_sigma = 0.004"))
        assert main(["phantom", "--config", str(ini)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(ini)]) == 3
        assert "vrmsi acquire" in capsys.readouterr().err
        ini.write_text(old)
        assert main(["acquire", "--config", str(ini)]) == 3
        assert "vrmsi phantom" in capsys.readouterr().err

    def test_eval_refuses_mixed_provenance(self, pipeline_run):
        prov_path = Path(pipeline_run.out_dir) / "dataset" / "provenance.json"
        original = prov_path.read_text()
        try:
            tampered = json.loads(original)
            tampered["config_hash"] = "deadbeefdeadbeef"
            prov_path.write_text(json.dumps(tampered, indent=2, sort_keys=True))
            with pytest.raises(MissingArtifactError, match="'dataset' built under this config"):
                cmd_eval(pipeline_run, force=True)
        finally:
            prov_path.write_text(original)
            cmd_eval(pipeline_run, force=True)


class TestReport:
    def test_svgs_well_formed(self, pipeline_run, tmp_path):
        out = render_report(Path(pipeline_run.out_dir) / "eval", tmp_path / "report")
        titles = {
            "ssim": "SSIM vs reference",
            "psnr_db": "PSNR (dB) vs reference",
            "resi": "Edge sharpness (RESI) vs CR_VR, per-slice median",
        }
        for metric, title in titles.items():
            svg_path = out / f"{metric}_box.svg"
            assert svg_path.exists()
            tree = ET.parse(svg_path)
            assert tree.getroot().tag.endswith("svg")
            assert tree.getroot().find("{http://www.w3.org/2000/svg}text").text == title
        assert (out / "summary.md").exists()

    def test_box_count_matches_methods(self, pipeline_run, tmp_path):
        out = render_report(Path(pipeline_run.out_dir) / "eval", tmp_path / "report2")
        svg = (out / "ssim_box.svg").read_text()
        report = read_report_csv(Path(pipeline_run.out_dir) / "eval" / "report.csv")
        # one labeled tick per method
        for method in report.methods():
            assert f">{method}<" in svg

    def test_identity_comparison_collapses_at_one(self):
        svg = boxplot_svg({"REFERENCE": np.ones(10)}, "SSIM vs reference")
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        rects = [r for r in root.iter(f"{ns}rect") if r.get("fill") == "#9ecae1"]
        assert len(rects) == 1
        assert float(rects[0].get("height")) <= 1.0

    def test_malformed_csv_reports_row(self, tmp_path):
        bad = tmp_path / "report.csv"
        bad.write_text("subject,slice,method,ssim,psnr_db,resi\nrow-without-commas\n")
        with pytest.raises(ValueError, match=":2"):
            read_report_csv(bad)

    def test_csv_round_trip(self, tmp_path):
        report = EvalReport()
        report.add_record("s000", 0, "REFERENCE", 1.0, float("inf"), 1.0)
        report.add_record("s000", 0, "CR_VR", 0.875, 24.25, 1.0)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        loaded = read_report_csv(path)
        assert loaded.records[0]["psnr_db"] == float("inf")
        assert loaded.records[1]["ssim"] == pytest.approx(0.875)


class TestCli:
    def test_bad_config_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[phantom]\nrows = nah\n")
        assert main(["phantom", "--config", str(ini)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_kernel_too_large_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "small_acs.ini"
        ini.write_text(TINY_INI.format(out=tmp_path / "out").replace("acs_rows = 12\nacs_cols = 12",
                                                                    "acs_rows = 8\nacs_cols = 8"))
        assert main(["run-all", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[recon] kernel_ky/kernel_kz" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, old, new",
        [
            ("acquisition", "n_bins = 8", "n_bins = 8\nn_concat = 4"),
            ("acquisition", "pf_overscan = 6", "pf_overscan = 4"),
            ("train", "learning_rate = 2e-3", "learning_rate = 0"),
            ("train", "batch_size = 2", "batch_size = 0"),
            ("model", "n_levels = 2\nchannels = 6,10", "n_levels = 0\nchannels ="),
            ("recon", "[model]", "[recon]\nout_rows = 16\n\n[model]"),
            ("model", "channels = 6,10", "channels = 0,10"),
            ("phantom", "n_coils = 2", "n_coils = 0"),
            ("acquisition", "n_bins = 8", "n_bins = 8\nbin_spacing_khz = 0"),
            ("acquisition", "n_bins = 8", "n_bins = 8\nfwhm_khz = 0"),
            ("split", "slices_per_subject = 2", "slices_per_subject = 0"),
            ("recon", "[model]", "[recon]\napod_sigma_fraction = 0\n\n[model]"),
            ("recon", "[model]", "[recon]\nridge = -1e-4\n\n[model]"),
        ],
        ids=["n_concat", "pf_overscan", "learning_rate", "batch_size", "n_levels", "out_rows",
             "channels", "n_coils", "bin_spacing_khz", "fwhm_khz", "slices_per_subject",
             "apod_sigma_fraction", "ridge"],
    )
    def test_refused_before_any_stage(self, tmp_path, capsys, section, old, new):
        # Each value passes the INI parser but is refused by load_config before any stage runs.
        ini = tmp_path / "refused.ini"
        text = TINY_INI.format(out=tmp_path / "out")
        assert old in text
        ini.write_text(text.replace(old, new, 1))
        assert main(["run-all", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"[{section}]" in err
        assert not (tmp_path / "out").exists()

    def test_missing_dependency_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "ok.ini"
        ini.write_text(TINY_INI.format(out=tmp_path / "out"))
        assert main(["recon", "--config", str(ini)]) == 3
        assert "missing dependency" in capsys.readouterr().err

    def test_phantom_stage_via_cli(self, tmp_path, capsys):
        ini = tmp_path / "ok.ini"
        ini.write_text(TINY_INI.format(out=tmp_path / "out"))
        assert main(["phantom", "--config", str(ini)]) == 0
        assert (tmp_path / "out" / "dataset" / "manifest.json").exists()

    def test_out_override(self, tmp_path):
        ini = tmp_path / "ok.ini"
        ini.write_text(TINY_INI.format(out=tmp_path / "ignored"))
        other = tmp_path / "elsewhere"
        assert main(["phantom", "--config", str(ini), "--out", str(other)]) == 0
        assert (other / "dataset" / "manifest.json").exists()

    def test_truncated_provenance_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        cfg = tiny_config(tmp_path, out_name="truncated")
        cmd_phantom(cfg)
        cmd_acquire(cfg)
        provenance = Path(cfg.out_dir) / "dataset" / "provenance.json"
        raw = provenance.read_bytes()
        provenance.write_bytes(raw[: len(raw) // 2])
        capsys.readouterr()
        assert main(["acquire", "--config", str(ini)]) == 3
        assert "vrmsi phantom" in capsys.readouterr().err
        assert main(["phantom", "--config", str(ini)]) == 0
        assert provenance.read_bytes() == raw
        assert main(["acquire", "--config", str(ini)]) == 0

    def test_checkpoint_with_optimizer_moments_exit_code(self, tmp_path, capsys, add_adam_moments):
        ini = tmp_path / "exp.ini"
        cfg = tiny_config(tmp_path, out_name="moments")
        run_all(cfg)
        models = Path(cfg.out_dir) / "models"
        path = models / "model_vr.msmodel"
        add_adam_moments(path)
        # The models stage vouches for the rewritten file, as a 0.1.0 run directory's would.
        provenance = json.loads((models / "provenance.json").read_text())
        provenance["artifacts"][path.name] = path.stat().st_size
        (models / "provenance.json").write_text(json.dumps(provenance))
        capsys.readouterr()
        assert main(["infer", "--config", str(ini)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("malformed artifact") and str(path) in err

    def test_malformed_artifact_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        cfg = tiny_config(tmp_path, out_name="malformed")
        run_all(cfg)
        root = Path(cfg.out_dir)
        # Same-size header edits, which the size-only cache check cannot see.
        # Each edit is undone after its case.
        cases = [
            ("infer", "models/model_vr.msmodel", '"shape": [6', '"shape": [5'),
            ("infer", "models/model_vr.msmodel", '"kernel_size": 3', '"kernel_size": 5'),
            ("train", "recon/s000/slice00.CR_VR.msstack", '"rows": 32', '"rows": 31'),
            ("train", "recon/s000/slice00.CR_VR.msstack", '"method": "CR_VR"', '"method": "CR_VX"'),
            ("recon", "kspace/s000/slice00.ksp.msstack", '"domain": "kspace"', '"domain": "kspaxe"'),
            ("recon", "kspace/s000/slice00.ksp.msstack", "[-3.5, -2.5", "[-2.5, -3.5"),
            ("acquire", "dataset/s000/slice00.meta.json", '"edge_segments"', '"edge_segmentz"'),
        ]
        for command, rel, old, new in cases:
            path = root / rel
            raw = path.read_bytes()
            assert old.encode() in raw, rel
            path.write_bytes(raw.replace(old.encode(), new.encode(), 1))
            capsys.readouterr()
            assert main([command, "--config", str(ini), "--force"]) == 4, (rel, new)
            err = capsys.readouterr().err
            assert err.startswith("malformed artifact") and str(path) in err, (rel, new)
            path.write_bytes(raw)
