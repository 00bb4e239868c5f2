"""Render an evaluation report as SVG box-and-whisker plots plus markdown."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from vrmsi.metrics import read_report_csv

_W, _H = 640, 400
_MARGIN_L, _MARGIN_B, _MARGIN_T = 70, 50, 30


def _box_stats(values: np.ndarray) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    whisk_lo = float(inside.min()) if inside.size else float(q1)
    whisk_hi = float(inside.max()) if inside.size else float(q3)
    outliers = values[(values < lo_fence) | (values > hi_fence)]
    return {
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "lo": whisk_lo,
        "hi": whisk_hi,
        "outliers": [float(v) for v in outliers],
    }


def boxplot_svg(samples: dict[str, np.ndarray], title: str) -> str:
    """One box per labeled sample; returns the SVG document as a string."""
    labels = list(samples)
    finite = np.concatenate(
        [np.asarray(samples[k])[np.isfinite(samples[k])] for k in labels]
    ) if labels else np.array([0.0])
    if finite.size == 0:
        finite = np.array([0.0])
    vmin, vmax = float(finite.min()), float(finite.max())
    if vmax - vmin < 1e-12:
        vmin -= 0.5
        vmax += 0.5
    pad = 0.08 * (vmax - vmin)
    vmin -= pad
    vmax += pad

    plot_h = _H - _MARGIN_B - _MARGIN_T

    def y(value: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - (value - vmin) / (vmax - vmin))

    slot = (_W - _MARGIN_L - 20) / max(len(labels), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{_H - _MARGIN_B}" '
        'stroke="black"/>',
    ]
    for tick in np.linspace(vmin + pad, vmax - pad, 5):
        ty = y(float(tick))
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{ty:.1f}" x2="{_MARGIN_L}" y2="{ty:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{ty + 4:.1f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{tick:.3g}</text>'
        )
    for i, label in enumerate(labels):
        values = np.asarray(samples[label], dtype=float)
        values = values[np.isfinite(values)]
        cx = _MARGIN_L + slot * (i + 0.5)
        parts.append(
            f'<text x="{cx:.1f}" y="{_H - _MARGIN_B + 18}" text-anchor="middle" font-size="10" '
            f'font-family="sans-serif">{label}</text>'
        )
        if values.size == 0:
            continue
        st = _box_stats(values)
        half = 0.3 * slot
        parts.append(
            f'<line x1="{cx:.1f}" y1="{y(st["lo"]):.1f}" x2="{cx:.1f}" y2="{y(st["q1"]):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{cx:.1f}" y1="{y(st["q3"]):.1f}" x2="{cx:.1f}" y2="{y(st["hi"]):.1f}" stroke="black"/>'
        )
        for v in (st["lo"], st["hi"]):
            parts.append(
                f'<line x1="{cx - half / 2:.1f}" y1="{y(v):.1f}" x2="{cx + half / 2:.1f}" y2="{y(v):.1f}" stroke="black"/>'
            )
        parts.append(
            f'<rect x="{cx - half:.1f}" y="{y(st["q3"]):.1f}" width="{2 * half:.1f}" '
            f'height="{max(y(st["q1"]) - y(st["q3"]), 0.5):.1f}" fill="#9ecae1" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{cx - half:.1f}" y1="{y(st["median"]):.1f}" x2="{cx + half:.1f}" '
            f'y2="{y(st["median"]):.1f}" stroke="black" stroke-width="2"/>'
        )
        for v in st["outliers"]:
            parts.append(f'<circle cx="{cx:.1f}" cy="{y(v):.1f}" r="2.5" fill="none" stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(eval_dir, report_dir) -> Path:
    """Read eval CSV/JSON artifacts and emit SVG plots plus a markdown summary."""
    eval_dir = Path(eval_dir)
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    report = read_report_csv(eval_dir / "report.csv")
    summary_path = eval_dir / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}

    methods = report.methods()
    for metric, title in (
        ("ssim", "SSIM vs reference"),
        ("psnr_db", "PSNR (dB) vs reference"),
        ("resi", "Edge sharpness (RESI) vs CR_VR, per-slice median"),
    ):
        samples = {}
        for method in methods:
            vals = np.asarray(
                [r[metric] for r in report.records if r["method"] == method and r[metric] is not None]
            )
            vals = vals[np.isfinite(vals)]
            if vals.size:
                samples[method] = vals
        svg = boxplot_svg(samples, title)
        (report_dir / f"{metric}_box.svg").write_text(svg)

    lines = ["# Evaluation summary", ""]
    summaries = summary.get("summaries", {})
    for metric in ("ssim", "psnr_db", "resi"):
        if metric not in summaries:
            continue
        lines.append(f"## {metric}")
        lines.append("")
        lines.append("| method | median | IQR | n |")
        lines.append("|---|---|---|---|")
        for method, stats in summaries[metric].items():
            lines.append(
                f"| {method} | {_num(stats['median'])} | {_num(stats['iqr'])} | {stats['n']} |"
            )
        lines.append("")
        comparisons = summary.get("comparisons", {}).get(metric, {})
        if comparisons:
            lines.append("| comparison | U | p (two-sided) |")
            lines.append("|---|---|---|")
            for pair, stats in comparisons.items():
                lines.append(f"| {pair} | {_num(stats['u'])} | {_num(stats['p'])} |")
            lines.append("")
    (report_dir / "summary.md").write_text("\n".join(lines) + "\n")
    return report_dir


def _num(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.4g}"
