"""Minimal reverse-mode convolution on (batch, channel, height, width) arrays.

``Conv2d.forward`` caches its im2col buffer and, when the layer applies a
ReLU, the mask of positive pre-activations; ``backward`` masks the output
gradient, returns the input gradient and leaves parameter gradients in
``dw``/``db``.  Upsampling has no state: ``upsample2`` and its adjoint
``upsample2_adjoint`` are plain functions.  Everything runs in float64.

Convolutions lower to a single GEMM per pass over an im2col buffer; the
buffer layout is offset-major (kernel offset blocks of ``in_channels`` rows),
matching ``w.transpose(0, 2, 3, 1)`` flattened per output channel.
"""

from __future__ import annotations

import numpy as np


class Conv2d:
    """3x3 (or any odd k) same-padded convolution, then a ReLU unless ``relu=False``; stride 2 downsamples."""

    def __init__(self, in_channels, out_channels, kernel_size=3, stride=1, *, rng, relu=True, name=""):
        if kernel_size % 2 != 1:
            raise ValueError("kernel size must be odd")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.relu = relu
        self.name = name
        scale = np.sqrt(2.0 / (in_channels * kernel_size * kernel_size))
        self.w = rng.standard_normal((out_channels, in_channels, kernel_size, kernel_size)) * scale
        self.b = np.zeros(out_channels)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cols = None
        self._mask = None
        self._shapes = None

    def _w_matrix(self) -> np.ndarray:
        # (out, k*k*in), offset-major to match the im2col layout
        return np.ascontiguousarray(self.w.transpose(0, 2, 3, 1).reshape(self.out_channels, -1))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name or 'conv'}: expected (B, {self.in_channels}, H, W), got {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.kernel_size // 2
        batch, cin, h, w = x.shape
        ho = (h + 2 * p - k) // s + 1
        wo = (w + 2 * p - k) // s + 1
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        cols = np.empty((batch, k * k * cin, ho * wo))
        for idx in range(k * k):
            di, dj = divmod(idx, k)
            cols[:, idx * cin:(idx + 1) * cin] = xp[
                :, :, di:di + s * (ho - 1) + 1:s, dj:dj + s * (wo - 1) + 1:s
            ].reshape(batch, cin, -1)
        out = np.matmul(self._w_matrix()[None], cols).reshape(batch, self.out_channels, ho, wo)
        out += self.b[None, :, None, None]
        self._cols = cols
        self._shapes = (h, w, ho, wo)
        if self.relu:
            self._mask = out > 0
            out = np.where(self._mask, out, 0.0)
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self.kernel_size // 2
        h, w, ho, wo = self._shapes
        cols = self._cols
        batch, cin = cols.shape[0], self.in_channels
        if self.relu:
            dy = np.where(self._mask, dy, 0.0)
        dy_flat = np.ascontiguousarray(dy.reshape(batch, self.out_channels, -1))

        self.db = dy_flat.sum(axis=(0, 2))
        dwm = np.matmul(dy_flat, cols.transpose(0, 2, 1)).sum(axis=0)
        self.dw = dwm.reshape(self.out_channels, k, k, cin).transpose(0, 3, 1, 2).copy()

        dcols = np.matmul(self._w_matrix().T[None], dy_flat)
        dxp = np.zeros((batch, cin, h + 2 * p, w + 2 * p))
        for idx in range(k * k):
            di, dj = divmod(idx, k)
            dxp[:, :, di:di + s * (ho - 1) + 1:s, dj:dj + s * (wo - 1) + 1:s] += dcols[
                :, idx * cin:(idx + 1) * cin
            ].reshape(batch, cin, ho, wo)
        return dxp[:, :, p:p + h, p:p + w]


def upsample2(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor ×2 upsampling of the last two axes."""
    return x.repeat(2, axis=2).repeat(2, axis=3)


def upsample2_adjoint(dy: np.ndarray) -> np.ndarray:
    """Adjoint of ``upsample2``: each output pixel sums its 2×2 block."""
    b, c, h, w = dy.shape
    return dy.reshape(b, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
