"""Multi-channel encoder-decoder with skip connections, built on learn.layers.

The encoder applies one convolution per level with stride-2 convolutions
between levels; the decoder mirrors it with nearest-neighbor ×2 upsampling
then convolution, concatenating the matching encoder activation at every
level.  Each up convolution evaluates its upsample folded into its taps
(``Conv2d(..., upsample=True)``), so no upsampled map is ever built.
Every convolution applies its own ReLU except the final one, which maps
linearly back to the output channel count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vrmsi.learn.layers import Conv2d


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int
    out_channels: int
    n_levels: int = 5
    channels: tuple[int, ...] = (16, 32, 64, 128, 256)
    kernel_size: int = 3

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.out_channels * 2 != self.in_channels:
            raise ValueError("output channels must be half the input channels")
        if len(self.channels) != self.n_levels:
            raise ValueError("one channel width per level")
        if any(width < 1 for width in self.channels):
            raise ValueError(f"channel widths must be at least 1, got {self.channels}")
        if self.n_levels < 1:
            raise ValueError("need at least one level")

    @property
    def downsample_factor(self) -> int:
        return 2 ** (self.n_levels - 1)


class UNet:
    """Encoder-decoder; forward caches activations so backward can follow."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        ch = config.channels
        k = config.kernel_size
        levels = config.n_levels

        self.enc_convs = []
        self.down_convs = []
        for lvl in range(levels):
            cin = config.in_channels if lvl == 0 else ch[lvl]
            self.enc_convs.append(Conv2d(cin, ch[lvl], k, rng=rng, name=f"enc{lvl}"))
            if lvl < levels - 1:
                self.down_convs.append(Conv2d(ch[lvl], ch[lvl + 1], k, stride=2, rng=rng, name=f"down{lvl}"))

        self.up_convs = []
        self.dec_convs = []
        for lvl in range(levels - 1):
            self.up_convs.append(Conv2d(ch[lvl + 1], ch[lvl], k, rng=rng, upsample=True, name=f"up{lvl}"))
            self.dec_convs.append(Conv2d(2 * ch[lvl], ch[lvl], k, rng=rng, name=f"dec{lvl}"))

        self.head = Conv2d(ch[0], config.out_channels, k, rng=rng, relu=False, name="head")

    def conv_layers(self) -> list[Conv2d]:
        """All parameterized layers in a fixed, documented order."""
        return self.enc_convs + self.down_convs + self.up_convs + self.dec_convs + [self.head]

    def forward(self, x: np.ndarray) -> np.ndarray:
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != cfg.in_channels:
            raise ValueError(f"expected (B, {cfg.in_channels}, H, W), got {x.shape}")
        if x.shape[2] % cfg.downsample_factor or x.shape[3] % cfg.downsample_factor:
            raise ValueError(
                f"spatial dims {x.shape[2:]} must be divisible by {cfg.downsample_factor}"
            )
        levels = cfg.n_levels
        skips = []
        h = x
        for lvl in range(levels):
            h = self.enc_convs[lvl].forward(h)
            if lvl < levels - 1:
                skips.append(h)
                h = self.down_convs[lvl].forward(h)
        for lvl in reversed(range(levels - 1)):
            h = self.up_convs[lvl].forward(h)
            h = self.dec_convs[lvl].forward(np.concatenate([skips[lvl], h], axis=1))
        return self.head.forward(h)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        cfg = self.config
        levels = cfg.n_levels
        d = self.head.backward(dy)
        skip_grads = [None] * (levels - 1)
        for lvl in range(levels - 1):
            d = self.dec_convs[lvl].backward(d)
            skip_grads[lvl] = d[:, :cfg.channels[lvl]]
            d = self.up_convs[lvl].backward(d[:, cfg.channels[lvl]:])
        for lvl in reversed(range(levels)):
            if lvl < levels - 1:
                d = self.down_convs[lvl].backward(d)
                d = d + skip_grads[lvl]
            d = self.enc_convs[lvl].backward(d)
        return d

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.conv_layers() for g in (layer.dw, layer.db)]

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.conv_layers() for p in (layer.w, layer.b)]

    def parameter_names(self) -> list[str]:
        return [f"{layer.name}/{p}" for layer in self.conv_layers() for p in ("w", "b")]

    def set_parameters(self, arrays: list[np.ndarray]) -> None:
        """Copy in one array per ``parameters()`` entry, each of exactly its shape."""
        if [np.shape(a) for a in arrays] != [p.shape for p in self.parameters()]:
            raise ValueError("parameter shapes do not match the model")
        for layer, w, b in zip(self.conv_layers(), arrays[0::2], arrays[1::2]):
            layer.w = np.array(w, dtype=np.float64)
            layer.b = np.array(b, dtype=np.float64)


def loss_and_gradients(model: UNet, inputs: np.ndarray, targets: np.ndarray):
    """Mean squared error over the batch plus gradients for every parameter."""
    pred = model.forward(inputs)
    if pred.shape != targets.shape:
        raise ValueError(f"prediction shape {pred.shape} vs targets {targets.shape}")
    diff = pred - targets
    loss = float(np.mean(diff * diff))
    model.backward((2.0 / diff.size) * diff)
    return loss, model.gradients()
