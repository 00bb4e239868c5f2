"""Experiment configuration: one INI file with per-stage sections.

CLI flags override file values, which override the built-in defaults.  The
canonical dump of a parsed config (sorted keys, normalized values) through
the last section a stage depends on, plus the seed, is that stage's cache
key in its provenance.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from vrmsi.recon import (
    DEFAULT_APOD_SIGMA_FRACTION,
    DEFAULT_KERNEL_TAPS,
    DEFAULT_RIDGE,
    KernelGeometry,
    check_acs_fits,
)
from vrmsi.sampling import AcquisitionParams


# The hashed sections in pipeline order: each stage depends on a prefix.
SECTIONS = ("phantom", "split", "acquisition", "recon", "model", "train")


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


def _parse_channels(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad channel list {raw!r}") from exc


def _optional_int(raw: str) -> int:
    return int(raw) if raw else 0


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
        "n_concat": ("2", int),
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
        "out_rows": ("", _optional_int),
        "out_cols": ("", _optional_int),
    },
    "model": {"n_levels": ("5", int), "channels": ("16,32,64,128,256", _parse_channels)},
    "train": {"learning_rate": ("2e-4", float), "epochs": ("50", int), "batch_size": ("4", int)},
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
            n_concat=a["n_concat"],
            n_bins=a["n_bins"],
            matrix=(self.phantom["rows"], self.phantom["cols"]),
            accel=(a["accel_ky"], a["accel_kz"]),
            pf_overscan=a["pf_overscan"],
            acs=(a["acs_rows"], a["acs_cols"]),
        )

    def bin_centers(self) -> list[float]:
        n = self.acquisition["n_bins"]
        spacing = self.acquisition["bin_spacing_khz"]
        return [(i - (n - 1) / 2.0) * spacing for i in range(n)]

    def out_shape(self) -> tuple[int, int]:
        rows = self.recon["out_rows"] or self.phantom["rows"]
        cols = self.recon["out_cols"] or self.phantom["cols"]
        return (rows, cols)

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


def _get(parser, section, key, conv, path):
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc


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
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    values = {
        section: {key: _get(parser, section, key, conv, path) for key, (_, conv) in keys.items()}
        for section, keys in _DEFAULTS.items()
    }
    cfg = ExperimentConfig(**values.pop("experiment"), **values)
    _validate(cfg, path)
    return cfg


def _validate(cfg: ExperimentConfig, path) -> None:
    if cfg.split["train_subjects"] < 1 or cfg.split["val_subjects"] < 1 or cfg.split["test_subjects"] < 1:
        raise ConfigError("split counts must all be positive")
    if cfg.phantom["families"] not in ("single", "mixed"):
        raise ConfigError("phantom families must be 'single' or 'mixed'")
    n_bins = cfg.acquisition["n_bins"]
    coverage = n_bins * cfg.acquisition["bin_spacing_khz"]
    if cfg.phantom["field_span_khz"] < coverage / 2.0:
        raise ConfigError(
            f"field_span_khz {cfg.phantom['field_span_khz']} below half the spectral "
            f"coverage {coverage / 2.0}: outer bins would stay empty"
        )
    if len(cfg.model["channels"]) != cfg.model["n_levels"]:
        raise ConfigError("model channels list must have one entry per level")
    factor = 2 ** (cfg.model["n_levels"] - 1)
    out_rows, out_cols = cfg.out_shape()
    if out_rows % factor or out_cols % factor:
        raise ConfigError(
            f"recon output dims {out_rows}x{out_cols} must be divisible by {factor} "
            "for the network"
        )
    try:
        params = cfg.acquisition_params()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    taps = (cfg.recon["kernel_ky"], cfg.recon["kernel_kz"])
    try:
        check_acs_fits(params.acs, KernelGeometry(*params.accel, *taps))
    except ValueError as exc:
        raise ConfigError(f"{path}: [recon] kernel_ky/kernel_kz = {taps[0]}/{taps[1]} "
                          f"at R={params.accel[0]}x{params.accel[1]}: {exc}") from exc
