"""Minimal reverse-mode convolution on (batch, channel, height, width) arrays.

``Conv2d`` is an implicit GEMM.  ``forward`` copies its input once into a
channel-major, zero-padded buffer of shape (s² phases, C, B·Hg·Wg): stride
``s`` splits the padded image into s×s space-to-depth phases of Hg×Wg pixels
(the output size plus (k-1)//s), flattened image after image.  Each kernel
tap then reads one phase at a contiguous offset, so each pass is k²
accumulating GEMMs on views of that buffer, with the batch folded into the
GEMM's long axis.  Grid positions that are no output pixel compute junk: the
forward crops it and the backward gives it a zero gradient.

The layer keeps the padded buffer and, when it applies a ReLU, the mask of
positive pre-activations; ``backward`` masks the output gradient, returns the
input gradient and leaves parameter gradients in ``dw``/``db``.  Upsampling
has no state: ``upsample2`` and its adjoint ``upsample2_adjoint`` are plain
functions.  Everything runs in float64.
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
        self._buf = None
        self._mask = None
        self._shapes = None

    def _taps(self, wg):
        """(di, dj, phase, offset, length): tap (di, dj) reads ``buf[phase, :, offset:offset + length]``."""
        k, s = self.kernel_size, self.stride
        # The grid's last (k-1)//s·(wg+1) positions hold no output pixel; the
        # furthest tap then ends exactly at the end of the buffer.
        length = self._buf.shape[2] - (k - 1) // s * (wg + 1)
        for di in range(k):
            for dj in range(k):
                yield di, dj, di % s * s + dj % s, di // s * wg + dj // s, length

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name or 'conv'}: expected (B, {self.in_channels}, H, W), got {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.kernel_size // 2
        batch, cin, h, w = x.shape
        ho, wo = (h - 1) // s + 1, (w - 1) // s + 1
        hg, wg = ho + (k - 1) // s, wo + (k - 1) // s
        xp = np.zeros((cin, batch, hg * s, wg * s))
        xp[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
        phases = xp.reshape(cin, batch, hg, s, wg, s).transpose(3, 5, 0, 1, 2, 4)
        self._buf = phases.reshape(s * s, cin, -1)          # a copy only when s > 1
        self._shapes = (h, w, ho, wo, hg, wg)
        acc = np.zeros((self.out_channels, self._buf.shape[2]))
        for di, dj, ph, off, n in self._taps(wg):
            acc[:, :n] += self.w[:, :, di, dj] @ self._buf[ph, :, off:off + n]
        out = acc.reshape(-1, batch, hg, wg)[:, :, :ho, :wo] + self.b[:, None, None, None]
        out = out.transpose(1, 0, 2, 3)
        if self.relu:
            self._mask = out > 0
            out = np.where(self._mask, out, 0.0)
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        s, p = self.stride, self.kernel_size // 2
        h, w, ho, wo, hg, wg = self._shapes
        buf = self._buf
        if self.relu:
            dy = np.where(self._mask, dy, 0.0)
        dyg = np.zeros((self.out_channels, buf.shape[2]))
        dyg.reshape(-1, dy.shape[0], hg, wg)[:, :, :ho, :wo] = dy.transpose(1, 0, 2, 3)

        self.db = dyg.sum(axis=1)
        self.dw = np.empty_like(self.w)
        dbuf = np.zeros_like(buf)
        for di, dj, ph, off, n in self._taps(wg):
            self.dw[:, :, di, dj] = dyg[:, :n] @ buf[ph, :, off:off + n].T
            dbuf[ph, :, off:off + n] += self.w[:, :, di, dj].T @ dyg[:, :n]
        dxp = dbuf.reshape(s, s, self.in_channels, -1, hg, wg).transpose(2, 3, 4, 0, 5, 1)
        dxp = dxp.reshape(self.in_channels, -1, hg * s, wg * s)
        return dxp[:, :, p:p + h, p:p + w].transpose(1, 0, 2, 3)


def upsample2(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor ×2 upsampling of the last two axes."""
    return x.repeat(2, axis=2).repeat(2, axis=3)


def upsample2_adjoint(dy: np.ndarray) -> np.ndarray:
    """Adjoint of ``upsample2``: each output pixel sums its 2×2 block."""
    b, c, h, w = dy.shape
    return dy.reshape(b, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
