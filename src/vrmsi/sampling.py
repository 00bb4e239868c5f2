"""Per-bin k-space sampling masks, shot counts, and scan-time accounting.

The variable-resolution (VR) plan alternates two schemes across bins: odd
numbered bins (1-based) carry the routine accelerated sampling, even numbered
bins carry only the autocalibration block.  Masks live on the phase-encode
plane (ky, kz) with DC at (ky // 2, kz // 2).

Partial Fourier samples the low-ky half plus ``overscan`` lines past DC; this
fixed convention is what the homodyne reconstruction assumes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from vrmsi.core import DOMAIN_KSPACE, header_fields, read_stack_file, write_stack_file

FULL_SCHEME = "FULL_SCHEME"
ACS_ONLY = "ACS_ONLY"


@dataclass(frozen=True)
class AcquisitionParams:
    tr_seconds: float
    etl: int
    n_concat: int
    n_bins: int
    matrix: tuple[int, int]              # (ky, kz)
    accel: tuple[int, int] = (1, 1)      # (Ry, Rz)
    pf_overscan: int = 0                 # ky lines past DC; ky//2 means fully sampled
    acs: tuple[int, int] = (0, 0)

    def __post_init__(self):
        ky, kz = self.matrix
        if self.etl < 1:
            raise ValueError("etl must be >= 1")
        if self.n_concat < 1 or self.n_bins % self.n_concat != 0:
            raise ValueError("n_bins must be divisible by n_concat")
        if self.accel[0] < 1 or self.accel[1] < 1:
            raise ValueError("acceleration factors must be >= 1")
        if self.acs[0] > ky or self.acs[1] > kz:
            raise ValueError("ACS block larger than the matrix")
        if self.pf_overscan < 0 or 2 * self.pf_overscan > ky:
            raise ValueError("pf_overscan must lie in [0, ky/2]")


@dataclass(frozen=True)
class SamplingPlan:
    masks: np.ndarray                    # (n_bins, ky, kz) bool
    schemes: tuple[str, ...]
    params: AcquisitionParams

    def __post_init__(self):
        masks = np.array(self.masks, dtype=bool, order="C")
        if masks.ndim != 3 or masks.shape[0] != len(self.schemes):
            raise ValueError("one mask and one scheme label per bin")
        if not set(self.schemes) <= {FULL_SCHEME, ACS_ONLY}:
            raise ValueError(f"unknown scheme label in {self.schemes!r}")
        masks.setflags(write=False)
        object.__setattr__(self, "masks", masks)

    @property
    def n_bins(self) -> int:
        return self.masks.shape[0]

    def bins_with_scheme(self, scheme: str) -> list[int]:
        return [i for i, s in enumerate(self.schemes) if s == scheme]


def uniform_accel_mask(ky, kz, ry, rz, acs=(0, 0)) -> np.ndarray:
    """Regular (Ry, Rz) lattice anchored at DC, union the centered ACS block."""
    mask = np.zeros((ky, kz), dtype=bool)
    mask[(ky // 2) % ry::ry, (kz // 2) % rz::rz] = True
    if acs[0] > 0 and acs[1] > 0:
        mask |= acs_only_mask(ky, kz, acs)
    return mask


def partial_fourier_mask(ky, overscan) -> np.ndarray:
    """1D ky mask: low half plus ``overscan`` rows past DC (broadcast over kz)."""
    if overscan < 0 or 2 * overscan > ky:
        raise ValueError("overscan must lie in [0, ky/2]")
    mask = np.zeros(ky, dtype=bool)
    mask[: ky // 2 + overscan] = True
    return mask


def acs_only_mask(ky, kz, acs) -> np.ndarray:
    """Centered autocalibration block, everything else unsampled."""
    ar, ac = acs
    if ar > ky or ac > kz:
        raise ValueError("ACS block larger than the matrix")
    mask = np.zeros((ky, kz), dtype=bool)
    r0 = (ky - ar) // 2
    c0 = (kz - ac) // 2
    mask[r0:r0 + ar, c0:c0 + ac] = True
    return mask


def full_scheme_mask(params: AcquisitionParams) -> np.ndarray:
    """Routine accelerated mask: (lattice + ACS) intersected with partial Fourier."""
    ky, kz = params.matrix
    mask = uniform_accel_mask(ky, kz, params.accel[0], params.accel[1], params.acs)
    return mask & partial_fourier_mask(ky, params.pf_overscan)[:, None]


def build_vr_plan(params: AcquisitionParams) -> SamplingPlan:
    """Alternate FULL_SCHEME (odd bins, 1-based) with ACS_ONLY (even bins)."""
    if params.n_concat != 2:
        raise ValueError("the VR scheme interleaves exactly two concatenations")
    if params.n_bins % 2 != 0:
        raise ValueError("VR plan needs an even bin count")
    if params.acs[0] <= 0 or params.acs[1] <= 0:
        raise ValueError("VR plan needs a nonempty ACS block")
    ky, kz = params.matrix
    if 2 * params.pf_overscan < params.acs[0]:
        raise ValueError("partial Fourier overscan cuts into the ACS block")

    full = full_scheme_mask(params)
    acs = acs_only_mask(ky, kz, params.acs)
    masks = np.empty((params.n_bins, ky, kz), dtype=bool)
    schemes = []
    for b in range(params.n_bins):
        if b % 2 == 0:                   # bins 1, 3, 5, ... in 1-based numbering
            masks[b] = full
            schemes.append(FULL_SCHEME)
        else:
            masks[b] = acs
            schemes.append(ACS_ONLY)
    return SamplingPlan(masks, tuple(schemes), params)


def shots_required(mask: np.ndarray, etl: int) -> int:
    """Echo trains needed to cover the sampled phase encodes: ceil(n / etl)."""
    if etl < 1:
        raise ValueError("etl must be >= 1")
    return -(-int(np.count_nonzero(mask)) // etl)


def _shot_counts(params: AcquisitionParams) -> tuple[int, int]:
    """(Ns, Ns_acs): echo trains of the full-scheme and of the ACS-only mask."""
    ky, kz = params.matrix
    return (
        shots_required(full_scheme_mask(params), params.etl),
        shots_required(acs_only_mask(ky, kz, params.acs), params.etl),
    )


def scan_time_conventional(params: AcquisitionParams) -> float:
    """TR * Ns * Nc with Ns counted from the routine full-scheme mask."""
    ns, _ = _shot_counts(params)
    return params.tr_seconds * ns * params.n_concat


def scan_time_vr(params: AcquisitionParams) -> float:
    """TR * (Nc / 2) * (Ns + Ns_acs)."""
    if params.n_concat % 2 != 0:
        raise ValueError("VR timing needs an even concatenation count")
    ns, ns_acs = _shot_counts(params)
    return params.tr_seconds * (params.n_concat / 2) * (ns + ns_acs)


def efficiency_gain(params: AcquisitionParams) -> float:
    """Fractional scan-time reduction of VR over conventional sampling.

    TR and Nc cancel, so this is 1 - (Ns + Ns_acs) / (2 Ns) regardless of
    timing parameters.
    """
    ns, ns_acs = _shot_counts(params)
    return 1.0 - (ns + ns_acs) / (2.0 * ns)


def save_plan(plan: SamplingPlan, path) -> None:
    """Persist masks as a u8 stack with scheme labels and acquisition params in the header."""
    write_stack_file(path, plan.masks[:, None], "uint8", DOMAIN_KSPACE, provenance="sampling-plan",
                     schemes=plan.schemes, params=asdict(plan.params))


def load_plan(path) -> SamplingPlan:
    metadata, masks = read_stack_file(path)
    with header_fields(path):
        params = {k: tuple(v) if isinstance(v, list) else v for k, v in metadata["params"].items()}
        return SamplingPlan(masks[:, 0], tuple(metadata["schemes"]), AcquisitionParams(**params))
