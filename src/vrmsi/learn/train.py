"""Training loop, per-slice normalization, Adam, inference, checkpoints."""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass

import numpy as np

from vrmsi.core import (
    MAGIC_MODEL,
    BadVersionError,
    header_fields,
    payload_arrays,
    read_container,
    write_container,
)
from vrmsi.learn.model import ModelConfig, UNet
from vrmsi.recon import METHOD_DL_VR, METHOD_DL_ZREPLACE, ReconOutput
from vrmsi.sampling import ACS_ONLY, SamplingPlan

NORM_SCHEMA_VERSION = 1                  # per-slice statistics over all channels jointly
_STD_FLOOR = 1e-12


class NumericalError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class NormStats:
    mean: float
    std: float
    degenerate: bool = False


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-4
    epochs: int = 50
    batch_size: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


def normalize_slice(x: np.ndarray) -> tuple[np.ndarray, NormStats]:
    """Zero-mean unit-std over all channels jointly; constant slices flagged."""
    x = np.asarray(x, dtype=np.float64)
    mean = float(x.mean())
    std = float(x.std())
    if std < _STD_FLOOR:
        return x - mean, NormStats(mean, 1.0, True)
    return (x - mean) / std, NormStats(mean, std, False)


def denormalize(xn: np.ndarray, stats: NormStats) -> np.ndarray:
    return xn * stats.std + stats.mean


class Adam:
    """Standard Adam with bias correction; holds first/second moments."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[np.ndarray]):
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient count mismatch")
        self.step_count += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if p.shape != g.shape:
                raise ValueError("gradient shape mismatch")
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)


def _normalize_pairs(dataset) -> list[tuple[np.ndarray, np.ndarray]]:
    # Targets share the input slice's statistics so de-normalization at
    # inference is well defined.
    pairs = []
    for inputs, targets in dataset:
        xn, stats = normalize_slice(inputs)
        tn = (np.asarray(targets, dtype=np.float64) - stats.mean) / stats.std
        pairs.append((xn, tn))
    return pairs


def _dataset_mse(model: UNet, pairs) -> float:
    if not pairs:
        return float("nan")
    sq_sum = 0.0
    count = 0
    for xn, tn in pairs:
        pred = model.forward(xn[None])[0]
        sq_sum += float(np.sum((pred - tn) ** 2))
        count += tn.size
    return sq_sum / count


def train(train_set, val_set, model: UNet, config: TrainConfig):
    """Optimize the model; returns per-epoch (train_mse, val_mse) history.

    Deterministic given the config seed: the shuffle order is fixed and
    gradient reduction happens in one vectorized batch pass.
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    train_pairs = _normalize_pairs(train_set)
    val_pairs = _normalize_pairs(val_set)
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters())

    history = []
    n = len(train_pairs)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_sq = 0.0
        epoch_count = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = np.stack([train_pairs[i][0] for i in idx])
            tb = np.stack([train_pairs[i][1] for i in idx])
            pred = model.forward(xb)
            diff = pred - tb
            loss = float(np.mean(diff * diff))
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, step {start // config.batch_size}, "
                    f"step count {optimizer.step_count}"
                )
            model.backward((2.0 / diff.size) * diff)
            optimizer.step(model.parameters(), model.gradients(), config.learning_rate)
            epoch_sq += float(np.sum(diff * diff))
            epoch_count += diff.size
        val_mse = _dataset_mse(model, val_pairs)
        history.append((epoch, epoch_sq / epoch_count, val_mse))
    return model, history, optimizer


def infer_full_stack(model: UNet, cr_vr_output: ReconOutput, plan: SamplingPlan) -> ReconOutput:
    """Replace ACS-only bins with de-normalized network outputs (DL_VR).

    Full-scheme bins pass through unchanged; network outputs are clamped at
    zero.  The inference path never sees reference data.
    """
    return _infer(model, cr_vr_output, plan, METHOD_DL_VR)


def infer_zreplace(model_zr: UNet, cr_zreplace_output: ReconOutput, plan: SamplingPlan) -> ReconOutput:
    """As infer_full_stack but from zero-replaced inputs (DL_ZREPLACE)."""
    return _infer(model_zr, cr_zreplace_output, plan, METHOD_DL_ZREPLACE)


def _infer(model: UNet, recon_output: ReconOutput, plan: SamplingPlan, method: str) -> ReconOutput:
    acs_bins = plan.bins_with_scheme(ACS_ONLY)
    if model.config.out_channels != len(acs_bins):
        raise ValueError(
            f"model outputs {model.config.out_channels} bins, plan has {len(acs_bins)} ACS bins"
        )
    if model.config.in_channels != recon_output.n_bins:
        raise ValueError("model input channels must match the bin count")
    xn, stats = normalize_slice(recon_output.images)
    pred = denormalize(model.forward(xn[None])[0], stats)
    images = np.array(recon_output.images)
    images[acs_bins] = np.maximum(pred, 0.0)
    return ReconOutput(images, method, recon_output.mask_provenance)


def save_model(model: UNet, path, optimizer: Adam | None = None, config: TrainConfig | None = None,
               provenance: str = "") -> None:
    """Checkpoint weights (and, if given, Adam moments) as an MSMODEL container."""
    names = model.parameter_names()
    arrays = [np.asarray(p, dtype="<f8") for p in model.parameters()]
    tensor_names = list(names)
    if optimizer is not None:
        arrays += [np.asarray(m, dtype="<f8") for m in optimizer.m]
        arrays += [np.asarray(v, dtype="<f8") for v in optimizer.v]
        tensor_names += [f"{n}.adam_m" for n in names] + [f"{n}.adam_v" for n in names]
    metadata = {
        "model_config": model.config.to_dict(),
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in zip(tensor_names, arrays)],
        "step_count": optimizer.step_count if optimizer is not None else 0,
        "norm_schema": NORM_SCHEMA_VERSION,
        "train_config": asdict(config) if config is not None else None,
        "provenance": provenance,
    }
    payload = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    write_container(path, MAGIC_MODEL, metadata, payload)


def load_model(path) -> tuple[UNet, dict]:
    """Rebuild a UNet (weights only) from an MSMODEL checkpoint."""
    metadata, payload = read_container(path, MAGIC_MODEL)
    if metadata.get("norm_schema") != NORM_SCHEMA_VERSION:
        raise BadVersionError(f"{path}: unsupported normalization schema")
    with header_fields(path):
        model = UNet(ModelConfig.from_dict(metadata["model_config"]), seed=0)
        names = [entry["name"] for entry in metadata["tensors"]]
        shapes = [tuple(map(operator.index, entry["shape"])) for entry in metadata["tensors"]]
        n = len(model.parameters())
        if names[:n] != model.parameter_names() or shapes[:n] != [p.shape for p in model.parameters()]:
            raise ValueError("recorded tensors do not match the model config")
    arrays = payload_arrays(path, payload, "<f8", shapes)
    model.set_parameters(arrays[:n])
    return model, metadata


def save_history(history, path) -> None:
    """Loss curve CSV: epoch, train_mse, val_mse."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_mse,val_mse\n")
        for epoch, train_mse, val_mse in history:
            fh.write(f"{epoch},{train_mse!r},{val_mse!r}\n")
