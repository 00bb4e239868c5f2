"""Non-learned reconstruction: zero-fill, apodized ACS, homodyne, PI, RSOS.

The full-scheme pipeline runs, per bin and in this order: parallel-imaging
interpolation of the missing lattice offsets, homodyne partial-Fourier
completion per coil, root-sum-of-squares coil combination, then zero-padding
to the output matrix.  ACS-only bins are reconstructed from the Gaussian
window-apodized calibration block alone.

Parallel imaging here is the standard autocalibrated k-space interpolation:
missing samples are synthesized as shift-invariant linear combinations of
acquired multi-coil neighbors, with weights fit on the ACS block by
regularized least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from vrmsi.core import (
    DOMAIN_IMAGE,
    MultiSpectralStack,
    crop_center_array,
    fft2c,
    header_fields,
    ifft2c,
    pad_center_array,
    read_stack_file,
    write_stack_file,
)
from vrmsi.sampling import FULL_SCHEME, SamplingPlan, partial_fourier_mask

METHOD_REFERENCE = "REFERENCE"
METHOD_CR_VR = "CR_VR"
METHOD_CR_ZREPLACE = "CR_ZREPLACE"
METHOD_DL_VR = "DL_VR"
METHOD_DL_ZREPLACE = "DL_ZREPLACE"

CONVENTIONAL_METHODS = (METHOD_REFERENCE, METHOD_CR_VR, METHOD_CR_ZREPLACE)
ALL_METHODS = CONVENTIONAL_METHODS + (METHOD_DL_VR, METHOD_DL_ZREPLACE)

# Defaults of the conventional reconstruction, shared with the config file's.
DEFAULT_RIDGE = 1e-4
DEFAULT_KERNEL_TAPS = (5, 4)
DEFAULT_APOD_SIGMA_FRACTION = 0.25


@dataclass(frozen=True)
class KernelGeometry:
    """Interpolation kernel: lattice steps, tap counts, and ridge strength.

    ``ridge`` scales the regularizer relative to the mean diagonal of the
    calibration normal matrix; 0 switches to a plain least-squares solve.
    """

    ry: int
    rz: int
    ky_taps: int = DEFAULT_KERNEL_TAPS[0]
    kz_taps: int = DEFAULT_KERNEL_TAPS[1]
    ridge: float = DEFAULT_RIDGE


@dataclass(frozen=True)
class ReconOutput:
    """Per-bin coil-combined magnitude images plus the method label."""

    images: np.ndarray                   # (n_bins, rows, cols) real, >= 0
    method: str
    mask_provenance: str = ""

    def __post_init__(self):
        images = np.array(self.images, dtype=np.float64, order="C")
        if images.ndim != 3:
            raise ValueError("expected (n_bins, rows, cols)")
        if np.any(images < 0):
            raise ValueError("combined magnitude images must be non-negative")
        if self.method not in ALL_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        images.setflags(write=False)
        object.__setattr__(self, "images", images)

    @property
    def n_bins(self) -> int:
        return self.images.shape[0]


def zero_fill_recon(ksp: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero unsampled entries and inverse transform."""
    if mask.shape != ksp.shape[-2:]:
        raise ValueError("mask dims must match k-space dims")
    return ifft2c(np.where(mask, ksp, 0))


def apodized_acs_recon(
    ksp: np.ndarray, acs_dims, sigma_fraction: float = DEFAULT_APOD_SIGMA_FRACTION
) -> np.ndarray:
    """Low-resolution image from the Gaussian-windowed central ACS block.

    Works on the last two axes, over any leading axes.  The separable window
    peaks at 1 on the DC sample with sigma equal to ``sigma_fraction`` times
    the block dimension.
    """
    acs = crop_center_array(ksp, acs_dims[0], acs_dims[1])
    wr = _gaussian_window(acs_dims[0], sigma_fraction * acs_dims[0])
    wc = _gaussian_window(acs_dims[1], sigma_fraction * acs_dims[1])
    windowed = acs * wr[:, None] * wc[None, :]
    return ifft2c(pad_center_array(windowed, ksp.shape[-2], ksp.shape[-1]))


def _gaussian_window(n: int, sigma: float) -> np.ndarray:
    idx = np.arange(n) - n // 2
    return np.exp(-0.5 * (idx / sigma) ** 2)


def rsos_coils(images: np.ndarray) -> np.ndarray:
    """Root sum of squared magnitudes across the leading coil axis."""
    return _rsos(images, "coil")


def rsos_bins(images: np.ndarray) -> np.ndarray:
    """Root sum of squared magnitudes across the leading bin axis."""
    return _rsos(images, "bin")


def _rsos(images: np.ndarray, axis: str) -> np.ndarray:
    images = np.asarray(images)
    if images.ndim != 3 or images.shape[0] < 1:
        raise ValueError(f"expected (n_{axis}s, rows, cols) with at least one {axis}")
    return np.sqrt(np.sum(np.abs(images) ** 2, axis=0))


def homodyne_recon(ksp: np.ndarray, pf_mask: np.ndarray) -> np.ndarray:
    """Homodyne partial-Fourier reconstruction over any leading axes.

    A low-resolution phase estimate comes from the conjugate-symmetric rows
    around DC; the asymmetric data are ramp weighted so each conjugate row
    pair sums to weight 2, then the demodulated real part is kept.  With a
    fully sampled mask no reweighting is needed and the result equals the
    magnitude of the plain inverse transform.
    """
    ky = ksp.shape[-2]
    pf_mask = np.asarray(pf_mask, dtype=bool)
    if pf_mask.shape != (ky,):
        raise ValueError("pf_mask must be one boolean per ky row")
    sampled = int(pf_mask.sum())
    if not np.all(pf_mask[:sampled]):
        raise ValueError("pf_mask must be a contiguous low-ky prefix")
    overscan = sampled - ky // 2
    if overscan <= 0:
        raise ValueError("no phase reference: overscan rows are required")

    if sampled == ky:
        img = ifft2c(ksp)
        return np.real(np.exp(-1j * np.angle(img)) * img)

    m = np.arange(ky) - ky // 2

    # Symmetric central band for the phase estimate (every row has its
    # mirror inside the band, so real inputs stay exactly real).
    band = np.abs(m) <= overscan - 1
    lowres = ifft2c(ksp * band[:, None])
    phase = np.exp(-1j * np.angle(lowres))

    weights = np.clip(1.0 - m / overscan, 0.0, 2.0)
    weights[~pf_mask] = 0.0
    if ky % 2 == 0 and pf_mask[0]:
        weights[0] = 1.0                 # Nyquist row is its own conjugate
    return np.real(phase * ifft2c(ksp * weights[:, None]))


def pi_interpolate(
    ksp: np.ndarray,
    acs_block: np.ndarray,
    geometry: KernelGeometry,
    mask: np.ndarray,
) -> np.ndarray:
    """Fill missing lattice offsets of uniformly undersampled multi-coil k-space.

    ``ksp`` is (n_coils, ky, kz) with zeros at unsampled positions and the
    sampled lattice anchored at DC.  ``acs_block`` is the fully sampled
    calibration region (n_coils, ar, ac).  Acquired samples pass through
    unchanged: no entry that the (ky, kz) ``mask`` marks acquired is rewritten.
    """
    nc, ky, kz = ksp.shape
    ry, rz = geometry.ry, geometry.rz
    if ry == 1 and rz == 1:
        return ksp.copy()
    if acs_block.shape[0] != nc:
        raise ValueError("ACS coil count must match the data")

    sources = _kernel_sources(geometry)
    pad_y = max(max(-min(src_y), max(src_y)) for _, _, src_y, _ in sources)
    pad_z = max(max(-min(src_z), max(src_z)) for _, _, _, src_z in sources)
    padded = np.pad(ksp, ((0, 0), (pad_y, pad_y), (pad_z, pad_z)))
    out = ksp.copy()

    for dy, dz, src_y, src_z in sources:
        w = _fit_kernel(acs_block, src_y, src_z, geometry.ridge)
        y0 = (ky // 2 + dy) % ry
        z0 = (kz // 2 + dz) % rz
        counts = (len(range(y0, ky, ry)), len(range(z0, kz, rz)))
        src = _tap_matrix(padded, (y0 + pad_y, z0 + pad_z), counts, (ry, rz), src_y, src_z)
        values = (w.T @ src).reshape(nc, *counts)
        np.copyto(out[:, y0::ry, z0::rz], values, where=~mask[y0::ry, z0::rz])
    return out


def _kernel_sources(geometry: KernelGeometry) -> list[tuple[int, int, list[int], list[int]]]:
    """``(dy, dz, src_y, src_z)`` per lattice offset PI synthesizes: every one but (0, 0).

    ``src_y``/``src_z`` are the offsets, relative to the target, of the
    acquired samples the kernel's taps read.
    """
    taps_y = [(i - (geometry.ky_taps - 1) // 2) * geometry.ry for i in range(geometry.ky_taps)]
    taps_z = [(i - (geometry.kz_taps - 1) // 2) * geometry.rz for i in range(geometry.kz_taps)]
    return [(dy, dz, [t - dy for t in taps_y], [t - dz for t in taps_z])
            for dy, dz in product(range(geometry.ry), range(geometry.rz)) if dy or dz]


def _calibration_window(acs_dims, src_y, src_z) -> tuple[tuple[int, int], tuple[int, int]]:
    """First ACS target and target counts of a kernel: the targets whose sources all lie in the block.

    Raises ValueError when the block holds no such target.
    """
    ar, ac = acs_dims
    ty_lo = max(0, -min(src_y))
    ty_hi = ar - 1 - max(max(src_y), 0)
    tz_lo = max(0, -min(src_z))
    tz_hi = ac - 1 - max(max(src_z), 0)
    if ty_hi < ty_lo or tz_hi < tz_lo:
        raise ValueError(f"{ar}x{ac} ACS block too small for the kernel geometry")
    return (ty_lo, tz_lo), (ty_hi - ty_lo + 1, tz_hi - tz_lo + 1)


def check_acs_fits(acs_dims, geometry: KernelGeometry) -> None:
    """Raise ValueError unless the ACS block calibrates every kernel ``pi_interpolate`` fits."""
    for _, _, src_y, src_z in _kernel_sources(geometry):
        _calibration_window(acs_dims, src_y, src_z)


def _tap_matrix(grid: np.ndarray, start, counts, step, src_y, src_z) -> np.ndarray:
    """Source samples of a strided target lattice, one row per (coil, tap).

    The targets are ``grid[:, start[0] + i * step[0], start[1] + j * step[1]]``
    for ``i, j < counts``; each kernel tap reads the same lattice shifted by
    its (src_y, src_z) offset, copied as one strided slice.  Rows are ordered
    (coil, y tap, z tap) and columns (i, j), both C order.
    """
    nc = grid.shape[0]
    (y0, z0), (ny, nz), (sy, sz) = start, counts, step
    src = np.empty((nc, len(src_y), len(src_z), ny, nz), dtype=np.complex128)
    for a, oy in enumerate(src_y):
        for b, oz in enumerate(src_z):
            y, z = y0 + oy, z0 + oz
            src[:, a, b] = grid[:, y:y + sy * (ny - 1) + 1:sy, z:z + sz * (nz - 1) + 1:sz]
    return src.reshape(-1, ny * nz)


def _fit_kernel(acs: np.ndarray, src_y, src_z, ridge: float) -> np.ndarray:
    """Least-squares weights mapping source constellations to ACS targets."""
    nc = acs.shape[0]
    (ty_lo, tz_lo), counts = _calibration_window(acs.shape[1:], src_y, src_z)
    src = np.ascontiguousarray(_tap_matrix(acs, (ty_lo, tz_lo), counts, (1, 1), src_y, src_z).T)
    targets = acs[:, ty_lo:ty_lo + counts[0], tz_lo:tz_lo + counts[1]].reshape(nc, -1).T

    if ridge > 0:
        gram = src.conj().T @ src
        lam = ridge * np.real(np.trace(gram)) / gram.shape[0]
        try:
            return np.linalg.solve(gram + lam * np.eye(gram.shape[0]), src.conj().T @ targets)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(src, targets, rcond=None)[0]


def reconstruct(
    plan: SamplingPlan,
    ksp_stack: MultiSpectralStack,
    method: str,
    out_shape: tuple[int, int] | None = None,
    apod_sigma_fraction: float = DEFAULT_APOD_SIGMA_FRACTION,
    kernel_taps: tuple[int, int] = DEFAULT_KERNEL_TAPS,
    ridge: float = DEFAULT_RIDGE,
    reference: ReconOutput | None = None,
) -> ReconOutput:
    """Run one conventional method over a sampled k-space stack.

    REFERENCE applies the full scheme (PI + homodyne) to every bin; CR_VR
    keeps that for FULL_SCHEME bins and uses the apodized ACS image for
    ACS_ONLY bins; CR_ZREPLACE zeroes the ACS_ONLY bins entirely.  Given the
    REFERENCE output of the same stack and options, the full-scheme bins are
    copied from it instead of being reconstructed again.
    """
    if method not in CONVENTIONAL_METHODS:
        raise ValueError(f"reconstruct handles {CONVENTIONAL_METHODS}, got {method!r}")
    params = plan.params
    ky, kz = params.matrix
    if ksp_stack.domain != "kspace":
        raise ValueError("reconstruct expects a k-space stack")
    if ksp_stack.n_bins != plan.n_bins or (ksp_stack.rows, ksp_stack.cols) != (ky, kz):
        raise ValueError("plan and stack dimensions disagree")

    # Every full-scheme bin shares one mask; REFERENCE applies it to every bin.
    full_mask = plan.masks[plan.bins_with_scheme(FULL_SCHEME)[0]]
    pf = partial_fourier_mask(ky, params.pf_overscan)
    geometry = KernelGeometry(params.accel[0], params.accel[1], *kernel_taps, ridge)
    out_rows, out_cols = out_shape if out_shape is not None else (ky, kz)
    if reference is not None and reference.method != METHOD_REFERENCE:
        raise ValueError(f"reference must be a {METHOD_REFERENCE} output, got {reference.method!r}")
    if reference is not None and reference.images.shape != (plan.n_bins, out_rows, out_cols):
        raise ValueError("reference shape disagrees with the plan and out_shape")

    combined = np.empty((plan.n_bins, out_rows, out_cols))
    for b in range(plan.n_bins):
        scheme = FULL_SCHEME if method == METHOD_REFERENCE else plan.schemes[b]
        if scheme == FULL_SCHEME and reference is not None:
            image = reference.images[b]
        elif scheme == FULL_SCHEME:
            masked = np.where(full_mask, ksp_stack.data[b], 0)
            acs_data = crop_center_array(masked, params.acs[0], params.acs[1])
            filled = pi_interpolate(masked, acs_data, geometry, mask=full_mask)
            image = rsos_coils(homodyne_recon(filled, pf))
        elif method == METHOD_CR_ZREPLACE:
            image = np.zeros((ky, kz))
        else:
            masked = np.where(plan.masks[b], ksp_stack.data[b], 0)
            image = rsos_coils(apodized_acs_recon(masked, params.acs, apod_sigma_fraction))
        combined[b] = _resample_to(image, out_rows, out_cols)

    return ReconOutput(combined, method, mask_provenance=f"vr-plan-{plan.n_bins}bins")


def _resample_to(image: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
    if image.shape == (out_rows, out_cols):
        return image
    return np.abs(ifft2c(pad_center_array(fft2c(image), out_rows, out_cols)))


def save_recon(output: ReconOutput, path) -> None:
    write_stack_file(path, output.images[:, None], "float32", DOMAIN_IMAGE,
                     provenance=output.mask_provenance, method=output.method)


def load_recon(path) -> ReconOutput:
    metadata, images = read_stack_file(path)
    with header_fields(path):
        return ReconOutput(np.maximum(images[:, 0], 0.0), metadata["method"], metadata.get("provenance", ""))
