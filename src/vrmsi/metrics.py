"""Quantitative evaluation: SSIM, PSNR, edge sharpness, rank tests, summaries.

The edge sharpness score (RESI) is the ratio of weighted regression slopes
measured across an annotated tissue boundary: intensity profiles are sampled
along a short segment, the few above-floor points straddling the segment
midpoint are kept, and the fitted slope is normalized by the same measurement
on a reference image.  ``high_gradient_region`` marks the steep-field pixels
where the evaluation scores the inferred even bins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class EdgeSupportError(ValueError):
    """Fewer than three usable points along an edge segment."""


class FlatEdgeError(ValueError):
    """The reference profile carries no measurable slope."""


@dataclass(frozen=True)
class SsimParams:
    window_size: int = 11
    sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03

    def window(self) -> np.ndarray:
        n = self.window_size
        idx = np.arange(n) - n // 2
        g = np.exp(-0.5 * (idx / self.sigma) ** 2)
        w = np.outer(g, g)
        return w / w.sum()


def ssim(test: np.ndarray, reference: np.ndarray, params: SsimParams = SsimParams()) -> float:
    """Mean local structural similarity over all fully interior windows.

    The dynamic range is taken from the reference image maximum.
    """
    test = np.asarray(test, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if test.shape != reference.shape:
        raise ValueError("image dims must match")
    dynamic_range = reference.max()
    if dynamic_range <= 0:
        raise ValueError("reference image must have positive maximum")
    win = params.window()
    c1 = (params.k1 * dynamic_range) ** 2
    c2 = (params.k2 * dynamic_range) ** 2

    def wmean(img):
        views = sliding_window_view(img, win.shape)
        return np.tensordot(views, win, axes=([2, 3], [0, 1]))

    mu_t = wmean(test)
    mu_r = wmean(reference)
    var_t = wmean(test * test) - mu_t ** 2
    var_r = wmean(reference * reference) - mu_r ** 2
    cov = wmean(test * reference) - mu_t * mu_r
    num = (2 * mu_t * mu_r + c1) * (2 * cov + c2)
    den = (mu_t ** 2 + mu_r ** 2 + c1) * (var_t + var_r + c2)
    return float(np.mean(num / den))


def psnr(test: np.ndarray, reference: np.ndarray) -> float:
    """10 log10(L^2 / MSE) with L the reference maximum; inf when MSE is 0."""
    test = np.asarray(test, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if test.shape != reference.shape:
        raise ValueError("image dims must match")
    mse = float(np.mean((test - reference) ** 2))
    peak = float(reference.max())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


@dataclass(frozen=True)
class EdgeSegment:
    p0: tuple[float, float]              # (row, col)
    p1: tuple[float, float]
    samples_per_unit: float = 2.0
    signal_floor: float | None = None    # None: 5% of the image's 99th percentile

    def __post_init__(self):
        if self.length < 4.0:
            raise ValueError("edge segments must span at least 4 pixels")
        if self.samples_per_unit <= 0:
            raise ValueError("samples_per_unit must be positive")

    @property
    def length(self) -> float:
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])


@dataclass(frozen=True)
class EdgeProfile:
    positions: np.ndarray                # distance along the segment, pixels
    intensities: np.ndarray
    regression_idx: np.ndarray           # indices of the points used for the slope


def _bilinear(image: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    rows, cols = image.shape
    r0 = np.clip(np.floor(r).astype(int), 0, rows - 2)
    c0 = np.clip(np.floor(c).astype(int), 0, cols - 2)
    fr = r - r0
    fc = c - c0
    return (
        image[r0, c0] * (1 - fr) * (1 - fc)
        + image[r0, c0 + 1] * (1 - fr) * fc
        + image[r0 + 1, c0] * fr * (1 - fc)
        + image[r0 + 1, c0 + 1] * fr * fc
    )


def resolve_floor(image: np.ndarray, segment: EdgeSegment) -> float:
    if segment.signal_floor is not None:
        return segment.signal_floor
    return 0.05 * float(np.percentile(image, 99))


def edge_profile(image: np.ndarray, segment: EdgeSegment) -> EdgeProfile:
    """Bilinear intensity profile plus the regression subset.

    The subset is the 3 to 4 above-floor points nearest the segment midpoint
    with at least one point on each side of it.
    """
    image = np.asarray(image, dtype=np.float64)
    rows, cols = image.shape
    for (r, c) in (segment.p0, segment.p1):
        if not (0 <= r <= rows - 1 and 0 <= c <= cols - 1):
            raise ValueError(f"segment endpoint ({r}, {c}) outside the image")

    n = max(int(round(segment.length * segment.samples_per_unit)) + 1, 5)
    t = np.linspace(0.0, segment.length, n)
    frac = t / segment.length
    r = segment.p0[0] + frac * (segment.p1[0] - segment.p0[0])
    c = segment.p0[1] + frac * (segment.p1[1] - segment.p0[1])
    values = _bilinear(image, r, c)

    floor = resolve_floor(image, segment)
    mid = segment.length / 2.0
    above = np.flatnonzero(values > floor)
    left = [i for i in above if t[i] < mid]
    right = [i for i in above if t[i] >= mid]
    left.sort(key=lambda i: mid - t[i])
    right.sort(key=lambda i: t[i] - mid)
    if len(above) < 3 or not left or not right:
        raise EdgeSupportError("insufficient edge support above the signal floor")
    n_left = min(2, len(left))
    n_right = min(2, len(right))
    if n_left + n_right < 4 and len(left) > n_left:
        n_left = min(len(left), 4 - n_right)
    if n_left + n_right < 4 and len(right) > n_right:
        n_right = min(len(right), 4 - n_left)
    if n_left + n_right < 3:
        raise EdgeSupportError("insufficient edge support above the signal floor")
    chosen = np.array(sorted(left[:n_left] + right[:n_right]))
    return EdgeProfile(t, values, chosen)


def _weighted_slope(profile: EdgeProfile) -> float:
    idx = profile.regression_idx
    t = profile.positions[idx]
    v = profile.intensities[idx]
    w = np.maximum(v, 0.0)
    if w.sum() <= 0:
        raise EdgeSupportError("regression weights vanish")
    t_bar = np.sum(w * t) / w.sum()
    v_bar = np.sum(w * v) / w.sum()
    denom = np.sum(w * (t - t_bar) ** 2)
    if denom <= 0:
        raise EdgeSupportError("degenerate regression support")
    return float(np.sum(w * (t - t_bar) * (v - v_bar)) / denom)


def resi(test_image: np.ndarray, reference_image: np.ndarray, segment: EdgeSegment) -> float:
    """Edge sharpness of the test image relative to the reference image."""
    slope_test = _weighted_slope(edge_profile(test_image, segment))
    slope_ref = _weighted_slope(edge_profile(reference_image, segment))
    if abs(slope_ref) < 1e-9:
        raise FlatEdgeError("flat reference edge")
    return abs(slope_test) / abs(slope_ref)


def high_gradient_region(off_resonance: np.ndarray, proton_density: np.ndarray, out_shape) -> np.ndarray:
    """Pixels with signal whose off-resonance gradient is in the top quartile.

    Computed on the truth grid, then nearest-neighbour resampled to
    ``out_shape``; all False when no pixel carries signal.
    """
    gr, gc = np.gradient(off_resonance)
    grad = np.hypot(gr, gc)
    support = proton_density > 0.05
    if not support.any():
        return np.zeros(out_shape, dtype=bool)
    threshold = np.percentile(grad[support], 75.0)
    region = support & (grad >= threshold)
    if region.shape == tuple(out_shape):
        return region
    ri = (np.arange(out_shape[0]) * region.shape[0] / out_shape[0]).astype(int)
    ci = (np.arange(out_shape[1]) * region.shape[1] / out_shape[1]).astype(int)
    return region[np.ix_(ri, ci)]


def _rank_with_ties(values: np.ndarray) -> tuple[np.ndarray, list[int]]:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    tie_sizes = []
    i = 0
    srt = values[order]
    while i < values.size:
        j = i
        while j + 1 < values.size and srt[j + 1] == srt[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, tie_sizes


def mann_whitney_u(sample_a, sample_b) -> tuple[float, float]:
    """U statistic (pairs where a exceeds b, ties counted half) and two-sided p.

    The p-value uses the normal approximation with midrank tie correction and
    a continuity correction.  Two identical samples give p = 1.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    n1, n2 = a.size, b.size
    n = n1 + n2
    ranks, tie_sizes = _rank_with_ties(np.concatenate([a, b]))
    r1 = float(ranks[:n1].sum())
    u = r1 - n1 * (n1 + 1) / 2.0

    mean_u = n1 * n2 / 2.0
    tie_term = sum(t ** 3 - t for t in tie_sizes)
    if n > 1:
        var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    else:
        var_u = 0.0
    if var_u <= 0:
        return u, 1.0
    z = (abs(u - mean_u) - 0.5) / math.sqrt(var_u)
    z = max(z, 0.0)
    p = math.erfc(z / math.sqrt(2.0))
    return u, min(p, 1.0)


def summarize(values) -> tuple[float, float]:
    """Median and interquartile range with linear quantile interpolation."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return float(med), float(q3 - q1)


# ---------------------------------------------------------------------------
# Evaluation report
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    """Per-slice metric rows, per-edge sharpness rows, and their summaries.

    ``records``: (subject, slice, method) -> ssim, psnr_db, resi where resi is
    the median across that slice's edges.  ``edge_records``: one sharpness
    value per annotated edge.  ``comparisons`` hold Mann-Whitney results per
    metric for each method pair: ssim/psnr over slices, resi over edges.
    """

    records: list = field(default_factory=list)
    edge_records: list = field(default_factory=list)
    summaries: dict = field(default_factory=dict)
    comparisons: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def add_record(self, subject, slice_index, method, ssim_value, psnr_db, resi_value):
        self.records.append(
            {
                "subject": subject,
                "slice": slice_index,
                "method": method,
                "ssim": ssim_value,
                "psnr_db": psnr_db,
                "resi": resi_value,
            }
        )

    def add_edge_record(self, subject, slice_index, edge_index, method, resi_value):
        self.edge_records.append(
            {
                "subject": subject,
                "slice": slice_index,
                "edge": edge_index,
                "method": method,
                "resi": resi_value,
            }
        )

    def metric_sample(self, metric: str, method: str) -> np.ndarray:
        if metric == "resi":
            vals = [r["resi"] for r in self.edge_records if r["method"] == method]
        else:
            vals = [r[metric] for r in self.records if r["method"] == method]
        return np.asarray([v for v in vals if v is not None and math.isfinite(v)])

    def methods(self) -> list[str]:
        seen = []
        for r in self.records:
            if r["method"] not in seen:
                seen.append(r["method"])
        return seen

    def finalize(self) -> None:
        """Compute per-method summaries and all pairwise rank tests."""
        methods = self.methods()
        for metric in ("ssim", "psnr_db", "resi"):
            self.summaries[metric] = {}
            for method in methods:
                sample = self.metric_sample(metric, method)
                if sample.size:
                    med, iqr = summarize(sample)
                    self.summaries[metric][method] = {"median": med, "iqr": iqr, "n": int(sample.size)}
            self.comparisons[metric] = {}
            for i, ma in enumerate(methods):
                for mb in methods[i + 1:]:
                    sa = self.metric_sample(metric, ma)
                    sb = self.metric_sample(metric, mb)
                    if sa.size and sb.size:
                        u, p = mann_whitney_u(sa, sb)
                        self.comparisons[metric][f"{ma}|{mb}"] = {"u": u, "p": p}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return repr(value) if isinstance(value, float) else str(value)


def write_report_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("subject,slice,method,ssim,psnr_db,resi\n")
        for r in report.records:
            fh.write(
                f"{r['subject']},{r['slice']},{r['method']},"
                f"{_fmt(r['ssim'])},{_fmt(r['psnr_db'])},{_fmt(r['resi'])}\n"
            )


def write_edge_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("subject,slice,edge,method,resi\n")
        for r in report.edge_records:
            fh.write(f"{r['subject']},{r['slice']},{r['edge']},{r['method']},{_fmt(r['resi'])}\n")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_report_json(report: EvalReport, path) -> None:
    payload = {
        "summaries": _json_safe(report.summaries),
        "comparisons": _json_safe(report.comparisons),
        "extras": _json_safe(report.extras),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report_csv(path) -> EvalReport:
    report = EvalReport()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["subject", "slice", "method", "ssim", "psnr_db", "resi"]:
            raise ValueError(f"{path}:1: unexpected CSV header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 columns")
            subject, slice_index, method, s, p, r = parts
            report.add_record(
                subject,
                int(slice_index),
                method,
                float(s) if s else None,
                float(p) if p else None,
                float(r) if r else None,
            )
    return report
