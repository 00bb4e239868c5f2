"""Multi-spectral stacks, centered Fourier transforms, and the artifact codec.

Conventions used by every module in this package:

* The DC sample of a centered k-space array sits at index ``N // 2`` along
  each axis (the ``fftshift`` convention).
* Forward and inverse transforms are unitary (``1/sqrt(N)`` both ways), so
  energy is preserved and Parseval checks are scale free.
* Arrays are complex128 in memory; containers store complex64 on disk.
* This module is the only one that frames or parses a file header: one
  MSSTACK writer/reader pair serves stacks (complex64), recons (float32),
  plans (uint8) and truths (complex64), and one payload splitter checks
  every payload, MSMODEL checkpoints included.  A malformed file raises a
  ``ContainerError``, which the CLI maps to exit code 4.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

DOMAIN_IMAGE = "image"
DOMAIN_KSPACE = "kspace"

MAGIC_STACK = b"MSSTACK\0"
MAGIC_MODEL = b"MSMODEL\0"
CONTAINER_VERSION = 1

_PAYLOAD_DTYPES = {"complex64": np.dtype("<c8"), "float32": np.dtype("<f4"), "uint8": np.dtype("u1")}
_STACK_DIMS = ("n_bins", "n_coils", "rows", "cols")


class DataIntegrityError(ValueError):
    """Input data violates a numeric integrity requirement (NaN/Inf)."""


class ContainerError(IOError):
    """Base class for container read failures."""


class BadMagicError(ContainerError):
    """File does not start with the expected magic bytes."""


class BadVersionError(ContainerError):
    """Container version is not supported."""


class TruncatedPayloadError(ContainerError):
    """Payload length does not match what the header implies."""


@dataclass(frozen=True)
class MultiSpectralStack:
    """Per-slice complex data indexed [bin][coil], plus the bin centers.

    ``data`` has shape (n_bins, n_coils, rows, cols); every plane shares the
    same domain tag.  Bin centers must be strictly increasing and uniformly
    spaced.  The stack holds its own read-only copy of both arrays.
    """

    data: np.ndarray
    bin_centers_khz: np.ndarray
    domain: str
    provenance: str = field(default="")

    def __post_init__(self):
        data = np.array(self.data, dtype=np.complex128, order="C")
        centers = np.array(self.bin_centers_khz, dtype=np.float64, order="C")
        if data.ndim != 4:
            raise ValueError(f"expected (bins, coils, rows, cols), got {data.shape}")
        if centers.ndim != 1 or centers.shape[0] != data.shape[0]:
            raise ValueError("bin_centers_khz length must equal n_bins")
        if self.domain not in (DOMAIN_IMAGE, DOMAIN_KSPACE):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        if centers.size > 1:
            steps = np.diff(centers)
            if np.any(steps <= 0):
                raise ValueError("bin centers must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValueError("bin centers must be uniformly spaced")
        data.setflags(write=False)
        centers.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "bin_centers_khz", centers)

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_coils(self) -> int:
        return self.data.shape[1]

    @property
    def rows(self) -> int:
        return self.data.shape[2]

    @property
    def cols(self) -> int:
        return self.data.shape[3]

    def with_data(self, data: np.ndarray, domain: str) -> "MultiSpectralStack":
        return MultiSpectralStack(data, self.bin_centers_khz, domain, self.provenance)


def fft2c(arr: np.ndarray) -> np.ndarray:
    """Unitary centered 2D FFT on the last two axes of a plain array."""
    shifted = np.fft.ifftshift(arr, axes=(-2, -1))
    k = np.fft.fft2(shifted, axes=(-2, -1), norm="ortho")
    return np.fft.fftshift(k, axes=(-2, -1))


def ifft2c(arr: np.ndarray) -> np.ndarray:
    """Unitary centered 2D inverse FFT on the last two axes."""
    shifted = np.fft.ifftshift(arr, axes=(-2, -1))
    img = np.fft.ifft2(shifted, axes=(-2, -1), norm="ortho")
    return np.fft.fftshift(img, axes=(-2, -1))


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise DataIntegrityError("non-finite values in transform input")


def fft_stack(stack: MultiSpectralStack) -> MultiSpectralStack:
    """Transform every (bin, coil) plane of an image-domain stack."""
    if stack.domain != DOMAIN_IMAGE:
        raise ValueError("fft_stack expects an image-domain stack")
    _check_finite(stack.data)
    return stack.with_data(fft2c(stack.data), DOMAIN_KSPACE)


def ifft_stack(stack: MultiSpectralStack) -> MultiSpectralStack:
    """Inverse transform every (bin, coil) plane of a k-space stack."""
    if stack.domain != DOMAIN_KSPACE:
        raise ValueError("ifft_stack expects a k-space stack")
    _check_finite(stack.data)
    return stack.with_data(ifft2c(stack.data), DOMAIN_IMAGE)


def _center_offsets(out_dims: tuple[int, int], in_dims: tuple[int, int]) -> tuple[int, int]:
    # Even-split convention: for odd differences the extra row/col goes to
    # the high-index side.
    return ((out_dims[0] - in_dims[0]) // 2, (out_dims[1] - in_dims[1]) // 2)


def pad_center_array(arr: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
    """Embed the last two axes centered in a zero array of the target size."""
    rows, cols = arr.shape[-2], arr.shape[-1]
    if out_rows < rows or out_cols < cols:
        raise ValueError(f"target dims ({out_rows}, {out_cols}) smaller than input ({rows}, {cols})")
    r0, c0 = _center_offsets((out_rows, out_cols), (rows, cols))
    out = np.zeros(arr.shape[:-2] + (out_rows, out_cols), dtype=arr.dtype)
    out[..., r0:r0 + rows, c0:c0 + cols] = arr
    return out


def crop_center_array(arr: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
    """Extract the centered block from the last two axes."""
    rows, cols = arr.shape[-2], arr.shape[-1]
    if out_rows > rows or out_cols > cols:
        raise ValueError(f"target dims ({out_rows}, {out_cols}) exceed input ({rows}, {cols})")
    r0, c0 = _center_offsets((rows, cols), (out_rows, out_cols))
    return arr[..., r0:r0 + out_rows, c0:c0 + out_cols].copy()


# ---------------------------------------------------------------------------
# Container format.
#
# bytes 0-7    magic ("MSSTACK\0" for stacks, "MSMODEL\0" for checkpoints)
# bytes 8-11   little-endian u32 version (= 1)
# bytes 12-15  little-endian u32 JSON length
# then         UTF-8 JSON metadata, then raw payload
#
# Every MSSTACK file (stacks, recons, plans, truths) is written and read by
# write_stack_file/read_stack_file: the header carries n_bins, n_coils, rows,
# cols, domain, bin_centers_khz, provenance and the required payload_dtype,
# plus any caller keys.  payload_arrays splits every payload, checkpoints
# included, and refuses one its declared shapes do not exactly fill.
# ---------------------------------------------------------------------------


def write_container(path, magic: bytes, metadata: dict, payload: bytes) -> None:
    if len(magic) != 8:
        raise ValueError("magic must be exactly 8 bytes")
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", CONTAINER_VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(payload)


def read_container(path, magic: bytes) -> tuple[dict, memoryview]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:8] != magic:
        raise BadMagicError(f"{path}: bad magic, expected {magic!r}")
    version, json_len = struct.unpack_from("<II", raw, 8)
    if version != CONTAINER_VERSION:
        raise BadVersionError(f"{path}: unsupported container version {version}")
    if len(raw) < 16 + json_len:
        raise TruncatedPayloadError(f"{path}: metadata truncated")
    try:
        metadata = json.loads(raw[16:16 + json_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: unreadable metadata: {exc}") from exc
    if not isinstance(metadata, dict):
        raise ContainerError(f"{path}: metadata is not a JSON object")
    return metadata, memoryview(raw)[16 + json_len:]


def payload_arrays(path, payload, dtype, shapes) -> list[np.ndarray]:
    """Read-only views of ``payload`` in the given shapes, laid end to end over every byte."""
    dtype = np.dtype(dtype)
    sizes = [math.prod(shape) for shape in shapes]
    expected = sum(sizes) * dtype.itemsize
    if any(d < 0 for shape in shapes for d in shape) or len(payload) != expected:
        raise TruncatedPayloadError(f"{path}: payload holds {len(payload)} bytes, header implies {expected}")
    flat = np.frombuffer(payload, dtype=dtype)
    offsets = np.cumsum([0] + sizes)
    return [flat[o:o + size].reshape(shape) for o, size, shape in zip(offsets, sizes, shapes)]


def write_stack_file(path, data4d, payload_dtype: str, domain: str, bin_centers_khz=(),
                     provenance: str = "", **extra) -> None:
    """Frame a (bins, coils, rows, cols) array as an MSSTACK container; ``extra`` joins the header."""
    metadata = dict(zip(_STACK_DIMS, map(int, data4d.shape), strict=True), domain=domain,
                    bin_centers_khz=[float(c) for c in bin_centers_khz], provenance=provenance,
                    payload_dtype=payload_dtype, **extra)
    payload = np.ascontiguousarray(data4d, dtype=_PAYLOAD_DTYPES[payload_dtype]).tobytes()
    write_container(path, MAGIC_STACK, metadata, payload)


def read_stack_file(path) -> tuple[dict, np.ndarray]:
    """The header of an MSSTACK container and a read-only (bins, coils, rows, cols) payload view."""
    metadata, payload = read_container(path, MAGIC_STACK)
    with header_fields(path):
        dtype = _PAYLOAD_DTYPES[metadata["payload_dtype"]]
        shape = tuple(operator.index(metadata[key]) for key in _STACK_DIMS)
    return metadata, payload_arrays(path, payload, dtype, [shape])[0]


@contextmanager
def header_fields(path):
    """Re-raise a header field that fails to parse or validate as a ContainerError naming ``path``."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: bad header: {exc!r}") from exc


def save_stack(stack: MultiSpectralStack, path) -> None:
    """Write a stack as an MSSTACK container (little-endian complex64 payload)."""
    write_stack_file(path, stack.data, "complex64", stack.domain, stack.bin_centers_khz, stack.provenance)


def load_stack(path) -> MultiSpectralStack:
    """Read an MSSTACK container written by save_stack."""
    meta, data = read_stack_file(path)
    with header_fields(path):
        return MultiSpectralStack(data, meta["bin_centers_khz"], meta["domain"], meta.get("provenance", ""))
