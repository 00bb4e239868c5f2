"""Direct per-offset convolution forward of a vrmsi U-Net, for output checks.

This reads the network's weights but none of ``vrmsi.learn.layers``: each
convolution is a sum over kernel offsets of a channel contraction applied to
a shifted view of the padded input, where the library lowers to one im2col
GEMM.  The two agree to rounding, so a disagreement beyond ``TOLERANCE``
means the library forward changed what it computes.
"""

from __future__ import annotations

import numpy as np

# Max |library - direct| allowed, relative to max(1, max |direct|).  Both run
# in float64 and differ only in summation order over 18 layers.
TOLERANCE = 1e-9


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """Same-padded convolution of (B, C, H, W) by (O, C, k, k) weights."""
    k = w.shape[2]
    p = k // 2
    batch, _, h, wd = x.shape
    ho = (h + 2 * p - k) // stride + 1
    wo = (wd + 2 * p - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((w.shape[0], batch, ho, wo))
    for di in range(k):
        for dj in range(k):
            view = xp[:, :, di:di + stride * (ho - 1) + 1:stride, dj:dj + stride * (wo - 1) + 1:stride]
            out += np.tensordot(w[:, :, di, dj], view, axes=([1], [1]))
    return out.transpose(1, 0, 2, 3) + b[None, :, None, None]


def _conv_relu(layer, x, stride=1):
    return np.maximum(conv2d(x, layer.w, layer.b, stride), 0.0)


def unet_forward(net, x: np.ndarray) -> np.ndarray:
    """Encoder (conv, stride-2 conv per level), decoder (nearest upsample,
    conv, concat skip, conv), then a linear head, as ``vrmsi.learn.model``
    documents its architecture."""
    levels = net.config.n_levels
    skips = []
    h = x
    for lvl in range(levels):
        h = _conv_relu(net.enc_convs[lvl], h)
        if lvl < levels - 1:
            skips.append(h)
            h = _conv_relu(net.down_convs[lvl], h, stride=2)
    for lvl in reversed(range(levels - 1)):
        h = h.repeat(2, axis=2).repeat(2, axis=3)
        h = _conv_relu(net.up_convs[lvl], h)
        h = _conv_relu(net.dec_convs[lvl], np.concatenate([skips[lvl], h], axis=1))
    return conv2d(h, net.head.w, net.head.b, 1)


def infer_acs_bins(net, images: np.ndarray) -> np.ndarray:
    """DL_VR's ACS-bin output for one slice of CR_VR bin images: per-slice
    standardization, the direct forward, de-standardization, clamp at 0."""
    mean = images.mean()
    std = images.std()
    out = unet_forward(net, ((images - mean) / std)[None])[0]
    return np.maximum(out * std + mean, 0.0)


def max_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))
