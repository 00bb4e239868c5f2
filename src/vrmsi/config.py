"""Experiment configuration: one INI file with per-stage sections.

CLI flags override file values, which override the built-in defaults.  The
canonical dump of a parsed config (sorted keys, normalized values) through
the last section a stage depends on, plus the seed, is that stage's cache
key in its provenance.
"""

from __future__ import annotations

import configparser
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

from vrmsi.learn import ModelConfig, TrainConfig
from vrmsi.recon import (
    DEFAULT_APOD_SIGMA_FRACTION,
    DEFAULT_KERNEL_TAPS,
    DEFAULT_RIDGE,
    KernelGeometry,
    check_acs_fits,
)
from vrmsi.sampling import AcquisitionParams, build_vr_plan


# The hashed sections in pipeline order: each stage depends on a prefix.
SECTIONS = ("phantom", "split", "acquisition", "recon", "model", "train")


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


def _parse_channels(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad channel list {raw!r}") from exc


# section -> key -> (default as written in an INI file, parser of the raw value)
_DEFAULTS = {
    "experiment": {
        "name": ("desk", str),
        "out_dir": ("runs/desk", str),
        "seed": ("1234", int),
        "jobs": ("1", int),
    },
    "phantom": {
        "rows": ("96", int),
        "cols": ("96", int),
        "n_coils": ("4", int),
        "noise_sigma": ("0.002", float),
        "field_span_khz": ("4.0", float),
        "implant_amplitude_khz": ("2.0", float),
        "implant_radius": ("7.0", float),
        "texture": ("0.1", float),
        "families": ("mixed", str),
        "edges_per_slice": ("2", int),
    },
    "split": {
        "train_subjects": ("12", int),
        "val_subjects": ("3", int),
        "test_subjects": ("5", int),
        "slices_per_subject": ("4", int),
    },
    "acquisition": {
        "tr_seconds": ("4.0", float),
        "etl": ("32", int),
        "n_bins": ("8", int),
        "bin_spacing_khz": ("1.0", float),
        "fwhm_khz": ("2.25", float),
        "accel_ky": ("2", int),
        "accel_kz": ("2", int),
        "pf_overscan": ("8", int),
        "acs_rows": ("16", int),
        "acs_cols": ("16", int),
    },
    "recon": {
        "apod_sigma_fraction": (str(DEFAULT_APOD_SIGMA_FRACTION), float),
        "kernel_ky": (str(DEFAULT_KERNEL_TAPS[0]), int),
        "kernel_kz": (str(DEFAULT_KERNEL_TAPS[1]), int),
        "ridge": (str(DEFAULT_RIDGE), float),
    },
    # A dataclass keeps each field's default as a class attribute.
    "model": {
        "n_levels": (str(ModelConfig.n_levels), int),
        "channels": (",".join(map(str, ModelConfig.channels)), _parse_channels),
    },
    "train": {
        "learning_rate": (str(TrainConfig.learning_rate), float),
        "epochs": (str(TrainConfig.epochs), int),
        "batch_size": (str(TrainConfig.batch_size), int),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    out_dir: str
    seed: int
    jobs: int
    phantom: dict
    split: dict
    acquisition: dict
    recon: dict
    model: dict
    train: dict

    def acquisition_params(self) -> AcquisitionParams:
        a = self.acquisition
        return AcquisitionParams(
            tr_seconds=a["tr_seconds"],
            etl=a["etl"],
            n_concat=2,  # fixed by the VR scheme
            n_bins=a["n_bins"],
            matrix=(self.phantom["rows"], self.phantom["cols"]),
            accel=(a["accel_ky"], a["accel_kz"]),
            pf_overscan=a["pf_overscan"],
            acs=(a["acs_rows"], a["acs_cols"]),
        )

    def model_config(self) -> ModelConfig:
        n_bins = self.acquisition["n_bins"]
        return ModelConfig(n_bins, n_bins // 2, self.model["n_levels"], self.model["channels"])

    def train_config(self) -> TrainConfig:
        t = self.train
        return TrainConfig(t["learning_rate"], t["epochs"], t["batch_size"], seed=self.seed)

    def bin_centers(self) -> list[float]:
        n = self.acquisition["n_bins"]
        spacing = self.acquisition["bin_spacing_khz"]
        return [(i - (n - 1) / 2.0) * spacing for i in range(n)]

    def canonical(self, upto: str = SECTIONS[-1]) -> str:
        """Sorted ``section.key=value`` lines of ``SECTIONS`` through ``upto``, then the seed."""
        parts = []
        for section in SECTIONS[: SECTIONS.index(upto) + 1]:
            data = getattr(self, section)
            for key in sorted(data):
                parts.append(f"{section}.{key}={data[key]!r}")
        parts.append(f"experiment.seed={self.seed!r}")
        return "\n".join(parts)

    def config_hash(self, upto: str = SECTIONS[-1]) -> str:
        return hashlib.sha256(self.canonical(upto).encode()).hexdigest()[:16]


def _config_error(path, message: str) -> ConfigError:
    """A ConfigError that names the INI file, when there is one."""
    return ConfigError(message if path is None else f"{path}: {message}")


@contextmanager
def _refused_as(path, label: str):
    """Re-raise a ValueError from building a stage's parameters as a ConfigError under ``label``."""
    try:
        yield
    except ValueError as exc:
        raise _config_error(path, f"{label}: {exc}") from exc


def _get(parser, section, key, conv, path):
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise _config_error(path, f"[{section}] {key} = {raw!r}: {exc}") from exc


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Parse an INI config; ``overrides`` maps 'section.key' -> value."""
    parser = configparser.ConfigParser()
    parser.read_dict({sec: {key: d for key, (d, _) in keys.items()} for sec, keys in _DEFAULTS.items()})
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        section, key = dotted.split(".", 1)
        if not parser.has_section(section) or key not in _DEFAULTS.get(section, {}):
            raise ConfigError(f"unknown config override {dotted}")
        parser.set(section, key, str(value))

    for section in parser.sections():
        if section not in _DEFAULTS:
            raise _config_error(path, f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _DEFAULTS[section]:
                raise _config_error(path, f"unknown key {key!r} in [{section}]")

    values = {
        section: {key: _get(parser, section, key, conv, path) for key, (_, conv) in keys.items()}
        for section, keys in _DEFAULTS.items()
    }
    cfg = ExperimentConfig(**values.pop("experiment"), **values)
    _validate(cfg, path)
    return cfg


def _validate(cfg: ExperimentConfig, path) -> None:
    """Refuse a config that a stage would refuse, by building the parameters the stages build."""
    if min(cfg.split.values()) < 1:
        raise _config_error(path, "[split] subject and slice counts must all be positive")
    if cfg.phantom["families"] not in ("single", "mixed"):
        raise _config_error(path, "[phantom] families must be 'single' or 'mixed'")
    if cfg.phantom["n_coils"] < 1:
        raise _config_error(path, f"[phantom] n_coils = {cfg.phantom['n_coils']}: need at least one coil")
    if cfg.acquisition["bin_spacing_khz"] <= 0 or cfg.acquisition["fwhm_khz"] <= 0:
        raise _config_error(path, "[acquisition] bin_spacing_khz and fwhm_khz must be positive")
    n_bins = cfg.acquisition["n_bins"]
    coverage = n_bins * cfg.acquisition["bin_spacing_khz"]
    if cfg.phantom["field_span_khz"] < coverage / 2.0:
        raise _config_error(path, f"[phantom] field_span_khz {cfg.phantom['field_span_khz']} below half the "
                                  f"spectral coverage {coverage / 2.0}: outer bins would stay empty")
    recon = cfg.recon
    if not (recon["apod_sigma_fraction"] > 0 and recon["ridge"] >= 0):
        raise _config_error(path, f"[recon] apod_sigma_fraction = {recon['apod_sigma_fraction']} must be "
                                  f"positive and ridge = {recon['ridge']} non-negative")
    with _refused_as(path, "[acquisition]"):
        params = cfg.acquisition_params()
        build_vr_plan(params)
    with _refused_as(path, "[model]"):
        factor = cfg.model_config().downsample_factor
    with _refused_as(path, "[train]"):
        cfg.train_config()
    rows, cols = params.matrix
    if rows % factor or cols % factor:
        raise _config_error(path, f"[phantom] rows/cols = {rows}x{cols} must be divisible by {factor} "
                                  "for the network")
    taps = (cfg.recon["kernel_ky"], cfg.recon["kernel_kz"])
    with _refused_as(path, f"[recon] kernel_ky/kernel_kz = {taps[0]}/{taps[1]} "
                           f"at R={params.accel[0]}x{params.accel[1]}"):
        check_acs_fits(params.acs, KernelGeometry(*params.accel, *taps))
