"""Synthetic ground truth: anatomy, metal-induced off-resonance, coils, k-space.

A phantom is a handful of soft-edged ellipses (tissue), one circular metal
implant that carries no signal but bends the field around it, and a set of
annotated edge segments used later for sharpness scoring.  The off-resonance
field follows a dipole-like decay ``A a^3 (3 cos^2(theta) - 1) / r^3`` about
the implant, clamped to the requested span.  ``cohort_spec`` draws the
jittered knee or hip anatomy of one cohort slice; ``save_truth`` and
``load_truth`` persist a truth as a stack plus a JSON sidecar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vrmsi.core import (DOMAIN_IMAGE, MultiSpectralStack, fft_stack, header_fields, read_stack_file,
                        write_stack_file)

_EDGE_SOFTNESS_PX = 1.5


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]          # (row, col) in pixels
    semi_axes: tuple[float, float]       # (row, col) half widths in pixels
    intensity: float
    label: str = ""


@dataclass(frozen=True)
class Implant:
    center: tuple[float, float]
    radius: float
    field_amplitude_khz: float


@dataclass(frozen=True)
class PhantomSpec:
    rows: int
    cols: int
    shapes: tuple[Ellipse, ...]
    implant: Implant
    field_span_khz: float
    n_coils: int = 4
    noise_sigma: float = 0.0
    edge_segments: tuple[tuple[tuple[float, float], tuple[float, float]], ...] = field(
        default_factory=tuple
    )
    texture: float = 0.1

    def __post_init__(self):
        if self.rows < 8 or self.cols < 8:
            raise ValueError("phantom matrix too small")
        if self.field_span_khz <= 0:
            raise ValueError("field_span_khz must be positive")
        if self.n_coils < 1:
            raise ValueError("need at least one coil")
        for shape in self.shapes:
            r, c = shape.center
            ar, ac = shape.semi_axes
            if r + ar < 0 or r - ar >= self.rows or c + ac < 0 or c - ac >= self.cols:
                raise ValueError(f"shape {shape.label!r} lies fully outside the image bounds")
        for p0, p1 in self.edge_segments:
            for (r, c) in (p0, p1):
                if not (0 <= r <= self.rows - 1 and 0 <= c <= self.cols - 1):
                    raise ValueError(f"edge segment endpoint ({r}, {c}) out of bounds")


@dataclass(frozen=True)
class PhantomTruth:
    proton_density: np.ndarray           # real, [0, 1]
    off_resonance_khz: np.ndarray        # real
    coil_maps: np.ndarray                # (n_coils, rows, cols) complex
    edge_segments: tuple[tuple[tuple[float, float], tuple[float, float]], ...]

    @property
    def rows(self) -> int:
        return self.proton_density.shape[0]

    @property
    def cols(self) -> int:
        return self.proton_density.shape[1]

    @property
    def n_coils(self) -> int:
        return self.coil_maps.shape[0]


# family -> ((label, intensity, center offset, semi-axes) per shape, implant
# offset); offsets from the image center and semi-axes are fractions of
# (rows, cols).  The second shape is the one the edge segments cross.
_ANATOMY = {
    "knee": (
        (
            ("body", 0.9, (0.0, 0.0), (0.42, 0.44)),
            ("inner", 0.55, (0.08, -0.05), (0.17, 0.13)),
            ("bright", 1.0, (-0.18, -0.16), (0.08, 0.1)),
        ),
        (-0.16, 0.22),
    ),
    "hip": (
        (
            ("body", 0.8, (0.0, 0.0), (0.38, 0.46)),
            ("inner", 0.5, (-0.06, 0.08), (0.14, 0.17)),
            ("bright", 1.0, (0.2, -0.12), (0.09, 0.08)),
        ),
        (0.14, -0.24),
    ),
}
# jitter half-widths in pixels, (center, semi-axes) per shape, shared by all families
_SHAPE_JITTER = ((2, 3), (2, 2), (1.5, 1))
_IMPLANT_JITTER = 1.5


def cohort_spec(params: dict, family: str, entropy) -> PhantomSpec:
    """Jittered geometry of one slice of a ``family`` ("knee" or "hip") subject.

    ``params`` is the config's ``[phantom]`` section; ``entropy`` seeds the
    jitter and edge placement, so equal entropy gives an equal spec.
    """
    rows, cols = params["rows"], params["cols"]
    rng = np.random.default_rng(entropy)

    def jit(scale):
        return float(rng.uniform(-scale, scale))

    cy, cx = rows / 2.0, cols / 2.0
    shapes_table, (ir, ic) = _ANATOMY[family]
    shapes = tuple(
        Ellipse(
            (cy + dr * rows + jit(cj), cx + dc * cols + jit(cj)),
            (ar * rows + jit(aj), ac * cols + jit(aj)),
            intensity,
            label,
        )
        for (label, intensity, (dr, dc), (ar, ac)), (cj, aj) in zip(shapes_table, _SHAPE_JITTER)
    )
    implant = Implant(
        (cy + ir * rows + jit(_IMPLANT_JITTER), cx + ic * cols + jit(_IMPLANT_JITTER)),
        params["implant_radius"],
        params["implant_amplitude_khz"],
    )
    return PhantomSpec(
        rows=rows,
        cols=cols,
        shapes=shapes,
        implant=implant,
        field_span_khz=params["field_span_khz"],
        n_coils=params["n_coils"],
        noise_sigma=params["noise_sigma"],
        edge_segments=_edge_segments(shapes[1], implant, params["edges_per_slice"], rows, cols, rng),
        texture=params["texture"],
    )


def _edge_segments(inner: Ellipse, implant: Implant, count, rows, cols, rng):
    """Segments crossing the inner-ellipse boundary, pointing away from metal."""
    away = math.atan2(inner.center[1] - implant.center[1], inner.center[0] - implant.center[0])
    segments = []
    half_len = 5.0
    attempts = 0
    while len(segments) < count and attempts < 50 * count:
        attempts += 1
        phi = away + rng.uniform(-1.0, 1.0)
        pr = inner.center[0] + inner.semi_axes[0] * math.cos(phi)
        pc = inner.center[1] + inner.semi_axes[1] * math.sin(phi)
        nr = math.cos(phi) / max(inner.semi_axes[0], 1e-6)
        nc = math.sin(phi) / max(inner.semi_axes[1], 1e-6)
        norm = math.hypot(nr, nc)
        nr, nc = nr / norm, nc / norm
        p0 = (pr - half_len * nr, pc - half_len * nc)
        p1 = (pr + half_len * nr, pc + half_len * nc)
        if all(1 <= r <= rows - 2 and 1 <= c <= cols - 2 for r, c in (p0, p1)):
            segments.append((p0, p1))
    if len(segments) < count:
        raise ValueError("could not place the requested edge segments inside the image")
    return tuple(segments)


# Truth persistence: complex64 stack channels are [pd, off_resonance, coil
# maps...], so the two real maps come back at single precision; the JSON
# sidecar carries the edge segments plus caller metadata.


def save_truth(truth: PhantomTruth, stack_path, sidecar_path, extra: dict) -> None:
    channels = np.concatenate([truth.proton_density[None], truth.off_resonance_khz[None], truth.coil_maps])
    write_stack_file(stack_path, channels[:, None], "complex64", DOMAIN_IMAGE, range(len(channels)))
    sidecar = dict(extra)
    sidecar["edge_segments"] = [[list(p0), list(p1)] for p0, p1 in truth.edge_segments]
    Path(sidecar_path).write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_truth(stack_path, sidecar_path) -> PhantomTruth:
    channels = read_stack_file(stack_path)[1][:, 0].astype(np.complex128)
    with header_fields(sidecar_path):
        sidecar = json.loads(Path(sidecar_path).read_text())
        segments = tuple((tuple(p0), tuple(p1)) for p0, p1 in sidecar["edge_segments"])
    return PhantomTruth(channels[0].real, channels[1].real, channels[2:], segments)


def _ellipse_coverage(rr, cc, center, semi_axes) -> np.ndarray:
    # Approximate signed distance to the ellipse boundary, in pixels, then a
    # linear 0..1 transition across a fixed softness width.
    ar = max(semi_axes[0], 1e-6)
    ac = max(semi_axes[1], 1e-6)
    q = ((rr - center[0]) / ar) ** 2 + ((cc - center[1]) / ac) ** 2
    dist = (q - 1.0) * 0.5 * min(ar, ac)
    return np.clip(0.5 - dist / _EDGE_SOFTNESS_PX, 0.0, 1.0)


def _smooth_texture(rows, cols, amplitude, rng) -> np.ndarray:
    """Low-frequency multiplicative texture in [1 - amp, 1 + amp], bilinear."""
    if amplitude <= 0:
        return np.ones((rows, cols))
    coarse = rng.standard_normal((rows // 16 + 2, cols // 16 + 2))
    coarse = np.clip(coarse / 2.5, -1.0, 1.0)
    ri = np.linspace(0, coarse.shape[0] - 1, rows)
    ci = np.linspace(0, coarse.shape[1] - 1, cols)
    r0 = np.minimum(ri.astype(int), coarse.shape[0] - 2)
    c0 = np.minimum(ci.astype(int), coarse.shape[1] - 2)
    fr = (ri - r0)[:, None]
    fc = (ci - c0)[None, :]
    a = coarse[np.ix_(r0, c0)]
    b = coarse[np.ix_(r0, c0 + 1)]
    c = coarse[np.ix_(r0 + 1, c0)]
    d = coarse[np.ix_(r0 + 1, c0 + 1)]
    smooth = a * (1 - fr) * (1 - fc) + b * (1 - fr) * fc + c * fr * (1 - fc) + d * fr * fc
    return 1.0 + amplitude * smooth


def dipole_field(rows, cols, implant: Implant, field_span_khz: float) -> np.ndarray:
    """Off-resonance map in kHz; dipole axis along the row direction."""
    rr, cc = np.meshgrid(np.arange(rows, dtype=float), np.arange(cols, dtype=float), indexing="ij")
    dr = rr - implant.center[0]
    dc = cc - implant.center[1]
    r = np.sqrt(dr * dr + dc * dc)
    r_safe = np.maximum(r, 1e-9)
    cos2 = (dr / r_safe) ** 2
    a3 = implant.radius ** 3
    f = implant.field_amplitude_khz * a3 * (3.0 * cos2 - 1.0) / r_safe ** 3
    return np.clip(f, -field_span_khz, field_span_khz)


def generate_phantom(spec: PhantomSpec, seed: int) -> PhantomTruth:
    """Rasterize a spec into proton density, off-resonance, and coil maps.

    Deterministic for a fixed seed; the seed only drives the low-frequency
    proton-density texture.
    """
    rng = np.random.default_rng(seed)
    rr, cc = np.meshgrid(
        np.arange(spec.rows, dtype=float), np.arange(spec.cols, dtype=float), indexing="ij"
    )

    pd = np.zeros((spec.rows, spec.cols))
    for shape in spec.shapes:
        cov = _ellipse_coverage(rr, cc, shape.center, shape.semi_axes)
        pd = pd * (1.0 - cov) + shape.intensity * cov

    pd *= _smooth_texture(spec.rows, spec.cols, spec.texture, rng)

    implant_cov = _ellipse_coverage(
        rr, cc, spec.implant.center, (spec.implant.radius, spec.implant.radius)
    )
    pd *= 1.0 - implant_cov
    inside = (rr - spec.implant.center[0]) ** 2 + (cc - spec.implant.center[1]) ** 2 <= (
        spec.implant.radius ** 2
    )
    pd[inside] = 0.0
    pd = np.clip(pd, 0.0, 1.0)

    off = dipole_field(spec.rows, spec.cols, spec.implant, spec.field_span_khz)
    coil_maps = coil_sensitivities(spec.n_coils, spec.rows, spec.cols)
    return PhantomTruth(pd, off, coil_maps, spec.edge_segments)


def coil_sensitivities(n_coils: int, rows: int, cols: int) -> np.ndarray:
    """Smooth complex coil maps, RSOS-normalized to one at every pixel.

    Gaussian magnitude bumps centered at equally spaced border positions,
    with a low-order polynomial phase that differs per coil.  Deterministic
    in (n_coils, rows, cols).
    """
    if n_coils < 1:
        raise ValueError("need at least one coil")
    rr, cc = np.meshgrid(np.arange(rows, dtype=float), np.arange(cols, dtype=float), indexing="ij")
    u = 2.0 * rr / max(rows - 1, 1) - 1.0
    v = 2.0 * cc / max(cols - 1, 1) - 1.0

    radius = 0.55 * min(rows, cols)
    width = 0.7 * min(rows, cols)
    maps = np.empty((n_coils, rows, cols), dtype=np.complex128)
    for i in range(n_coils):
        ang = 2.0 * math.pi * i / n_coils
        cr = rows / 2.0 + radius * math.sin(ang)
        ccol = cols / 2.0 + radius * math.cos(ang)
        mag = np.exp(-((rr - cr) ** 2 + (cc - ccol) ** 2) / (2.0 * width ** 2))
        # gentle phase: enough coil diversity for calibration without
        # stressing the homodyne phase estimate
        phase = math.pi * (
            0.3 * math.cos(ang) * u + 0.3 * math.sin(ang) * v + 0.15 * math.cos(2 * ang) * u * v
        )
        maps[i] = mag * np.exp(1j * phase)

    rsos = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / rsos


def bin_profile(delta_f_khz, fwhm_khz: float):
    """Gaussian spectral excitation weight: 1 at center, 0.5 at +-fwhm/2."""
    if fwhm_khz <= 0:
        raise ValueError("fwhm must be positive")
    x = np.asarray(delta_f_khz, dtype=np.float64)
    w = np.exp(-4.0 * np.log(2.0) * (x / fwhm_khz) ** 2)
    return float(w) if np.isscalar(delta_f_khz) else w


def simulate_bins(truth: PhantomTruth, bin_centers_khz, fwhm_khz: float) -> MultiSpectralStack:
    """Coil-resolved image-domain stack of spectrally weighted bin images.

    Bin b, coil c image = coil_map[c] * proton_density *
    bin_profile(off_resonance - center_b).  No displacement modeling.
    """
    centers = np.asarray(bin_centers_khz, dtype=np.float64)
    n_bins = centers.shape[0]
    data = np.empty(
        (n_bins, truth.n_coils, truth.rows, truth.cols), dtype=np.complex128
    )
    for b in range(n_bins):
        weight = bin_profile(truth.off_resonance_khz - centers[b], fwhm_khz)
        weighted = truth.proton_density * weight
        data[b] = truth.coil_maps * weighted[None, :, :]
    return MultiSpectralStack(data, centers, DOMAIN_IMAGE)


def to_kspace(stack: MultiSpectralStack, noise_sigma: float, seed: int) -> MultiSpectralStack:
    """Transform to k-space and add circular complex Gaussian noise.

    ``noise_sigma`` is relative to the largest DC magnitude across bins and
    coils; the complex noise satisfies sqrt(E|n|^2) = noise_sigma * max|DC|.
    Deterministic per seed.
    """
    ksp = fft_stack(stack)
    if noise_sigma == 0:
        return ksp
    dc = np.abs(ksp.data[:, :, ksp.rows // 2, ksp.cols // 2]).max()
    scale = noise_sigma * dc / math.sqrt(2.0)
    rng = np.random.default_rng(seed)
    noise = scale * (
        rng.standard_normal(ksp.data.shape) + 1j * rng.standard_normal(ksp.data.shape)
    )
    return ksp.with_data(ksp.data + noise, ksp.domain)
