"""Minimal reverse-mode convolution on (batch, channel, height, width) arrays.

``Conv2d`` is an implicit GEMM.  ``forward`` copies its input once into a
channel-major, zero-padded buffer of shape (s² phases, C, B·Hg·Wg): stride
``s`` splits the padded image into s×s space-to-depth phases of Hg×Wg pixels
(the output size plus a halo), flattened image after image.  Each tap then
reads one input phase at a contiguous offset and accumulates into one output
phase, so each pass is one accumulating GEMM per tap on views of that buffer,
with the batch folded into the GEMM's long axis.  Grid positions that are no
output pixel compute junk: the forward crops it and the backward gives it a
zero gradient.

With ``upsample=True`` the layer convolves the ×2 nearest-neighbor upsampled
input without building it.  Output pixel (2i + a, 2j + c) is a (p+1)×(p+1)
convolution of the low-resolution input around pixel (i, j), whose weights
are sums of the k×k taps that land on the same low-resolution pixel (the
sub-pixel identity): one input phase, four output phases and 4·(p+1)² taps
instead of k² taps at four times the pixels.

``w`` is the k×k kernel on the output grid.  Each pass derives a contiguous
(taps, O, C) weight stack from it, the tap-major transpose or, for an
upsampling conv, the fold's sums; the backward maps the stack's gradient back
through the same fold.  The layer keeps the padded buffer and, when it applies
a ReLU, the mask of positive pre-activations; ``backward`` masks the output
gradient, returns the input gradient and leaves parameter gradients in
``dw``/``db``.  Everything runs in float64.
"""

from __future__ import annotations

import numpy as np


class Conv2d:
    """k×k same-padded convolution (odd k), then a ReLU unless ``relu=False``.

    ``stride=2`` downsamples; ``upsample=True`` convolves the ×2
    nearest-neighbor upsampled input.
    """

    def __init__(self, in_channels, out_channels, kernel_size=3, stride=1, *, rng, relu=True,
                 upsample=False, name=""):
        if kernel_size % 2 != 1:
            raise ValueError("kernel size must be odd")
        if upsample and stride != 1:
            raise ValueError("an upsampling convolution must have stride 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.upsample = upsample
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
        """(taps, fold, stack): each tap's (input phase, output phase, offset)
        on the flattened grid, the (taps, k²) 0/1 fold that says which kernel
        offsets a tap sums, and the (taps, O, C) weight stack it makes of ``w``.

        Along each image axis, output position i of an output phase reads grid
        position i + offset of an input phase; a 2-D tap pairs a row tap with
        a column tap.
        """
        k, s, p = self.kernel_size, self.stride, self.kernel_size // 2
        if not self.upsample:
            axis = [(d % s, 0, d // s, np.arange(k) == d) for d in range(k)]
        else:
            # Output pixel 2i + a reads upsampled pixel 2i + a + d - p, which is
            # low-resolution pixel i + (a + d - p) // 2: grid position
            # i + offset in a buffer padded by (p + 1) // 2.
            axis = []
            for a in (0, 1):
                offsets = (a + np.arange(k) - p) // 2 + (p + 1) // 2
                axis += [(0, a, off, offsets == off) for off in np.unique(offsets)]
        taps = [(ri * s + ci, ro * 2 + co, roff * wg + coff)
                for ri, ro, roff, _ in axis for ci, co, coff, _ in axis]
        rows = np.array([row for *_, row in axis], dtype=float)
        fold = np.einsum("td,ue->tude", rows, rows).reshape(len(taps), k * k)
        # A GEMM with the identity fold is an exact tap-major transpose, and
        # faster than numpy's strided copy.
        stack = fold @ self.w.reshape(-1, k * k).T
        return taps, fold, stack.reshape(len(taps), self.out_channels, self.in_channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name or 'conv'}: expected (B, {self.in_channels}, H, W), got {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.kernel_size // 2
        so = 2 if self.upsample else 1
        pad = (p + 1) // 2 if self.upsample else p
        batch, cin, h, w = x.shape
        ho, wo = (h - 1) // s + 1, (w - 1) // s + 1          # per output phase
        halo = (k - 1) // s if not self.upsample else 2 * pad
        hg, wg = ho + halo, wo + halo
        xp = np.zeros((cin, batch, hg * s, wg * s))
        xp[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
        phases = xp.reshape(cin, batch, hg, s, wg, s).transpose(3, 5, 0, 1, 2, 4)
        self._buf = phases.reshape(s * s, cin, -1)          # a copy only when s > 1
        self._shapes = (h, w, ho, wo, hg, wg, pad, halo)
        # The grid's last halo·(wg+1) positions hold no output pixel; the
        # furthest tap then ends exactly at the end of the buffer.
        n = self._buf.shape[2] - halo * (wg + 1)
        taps, _, stack = self._taps(wg)
        acc = np.zeros((so * so, self.out_channels, self._buf.shape[2]))
        for t, (pin, pout, off) in enumerate(taps):
            acc[pout, :, :n] += stack[t] @ self._buf[pin, :, off:off + n]
        grid = acc.reshape(so, so, -1, batch, hg, wg)[..., :ho, :wo].transpose(2, 3, 4, 0, 5, 1)
        out = np.empty(grid.shape)
        np.add(grid, self.b[:, None, None, None, None, None], out=out)
        out = out.reshape(-1, batch, ho * so, wo * so).transpose(1, 0, 2, 3)
        if self.relu:
            self._mask = out > 0
            out = np.where(self._mask, out, 0.0)
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        s = self.stride
        so = 2 if self.upsample else 1
        h, w, ho, wo, hg, wg, pad, halo = self._shapes
        buf = self._buf
        n = buf.shape[2] - halo * (wg + 1)
        if self.relu:
            dy = np.where(self._mask, dy, 0.0)
        dyg = np.zeros((so * so, self.out_channels, buf.shape[2]))
        dyg.reshape(so, so, -1, dy.shape[0], hg, wg)[..., :ho, :wo] = (
            dy.reshape(dy.shape[0], -1, ho, so, wo, so).transpose(3, 5, 1, 0, 2, 4))

        self.db = dyg.sum(axis=2).sum(axis=0)
        taps, fold, stack = self._taps(wg)
        dstack = np.empty_like(stack)
        dbuf = np.zeros_like(buf)
        for t, (pin, pout, off) in enumerate(taps):
            dstack[t] = dyg[pout, :, :n] @ buf[pin, :, off:off + n].T
            dbuf[pin, :, off:off + n] += stack[t].T @ dyg[pout, :, :n]
        self.dw = (dstack.reshape(len(taps), -1).T @ fold).reshape(self.w.shape)
        dxp = dbuf.reshape(s, s, self.in_channels, -1, hg, wg).transpose(2, 3, 4, 0, 5, 1)
        dxp = dxp.reshape(self.in_channels, -1, hg * s, wg * s)
        return dxp[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3)
