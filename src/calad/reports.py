"""Run artifacts: summary CSVs, reliability-diagram and calibrator-curve
SVGs, and the run manifest.

Everything here is rendered byte-deterministically: floats are written
with repr (shortest round-trip form) and the SVGs are assembled from
literal elements, so re-running a config reproduces identical files.
Timestamps appear only in the manifest.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np

from .calibration import HeadParams, ReliabilityHistogram, calibrated_logit
from .losses import sigmoid

CSV_COLUMNS = ["class_id", "method", "auroc", "auroc_perturbed", "mce", "ece"]
CSV_LOCALIZATION = ["aupro", "aupro_perturbed", "pixel_auroc", "pixel_auroc_perturbed"]


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(path, rows) -> None:
    """Metric rows under CSV_COLUMNS, led by a seed column when the rows
    carry one and followed by CSV_LOCALIZATION when they carry aupro."""
    first = rows[0] if rows else {}
    columns = (["seed"] if "seed" in first else []) + CSV_COLUMNS + (
        CSV_LOCALIZATION if "aupro" in first else [])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def write_deltas_csv(path, deltas) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "loss_before", "loss_after", "score_before", "score_after"])
        for row in deltas:
            writer.writerow([str(int(row[0]))] + [repr(float(v)) for v in row[1:]])


def write_manifest(path, config: dict, conventions: dict) -> None:
    doc = {
        "config": config,
        "conventions": conventions,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def _svg(width, height, body) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            + "\n".join(body) + "\n</svg>\n")


def reliability_diagram_svg(hist: ReliabilityHistogram, ece_value: float,
                            mce_value: float, title: str) -> str:
    """Frequency-vs-confidence bars over the bin grid, with the diagonal."""
    w, h, margin = 420, 420, 45
    plot = w - 2 * margin
    body = [f'<text x="{w // 2}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>',
            f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
            'fill="none" stroke="black"/>',
            f'<line x1="{margin}" y1="{margin + plot}" x2="{margin + plot}" '
            f'y2="{margin}" stroke="gray" stroke-dasharray="4 3"/>']
    k = hist.k
    bin_w = plot / k
    for i in range(k):
        if hist.counts[i] == 0:
            continue
        x = margin + i * bin_w
        freq_h = hist.freq[i] * plot
        conf_h = hist.conf[i] * plot
        body.append(f'<rect x="{x:.2f}" y="{margin + plot - freq_h:.2f}" '
                    f'width="{bin_w:.2f}" height="{freq_h:.2f}" '
                    'fill="steelblue" fill-opacity="0.7"/>')
        body.append(f'<line x1="{x:.2f}" y1="{margin + plot - conf_h:.2f}" '
                    f'x2="{x + bin_w:.2f}" y2="{margin + plot - conf_h:.2f}" '
                    'stroke="firebrick" stroke-width="2"/>')
    body.append(f'<text x="{margin}" y="{h - 8}" font-family="monospace" '
                f'font-size="12">ECE={ece_value:.4f} MCE={mce_value:.4f} '
                f'K={k} n={hist.n}</text>')
    return _svg(w, h, body)


def calibrator_curve_svg(calibrator, title: str, z_lo: float = -8.0,
                         z_hi: float = 8.0, n: int = 161) -> str:
    """Fitted estimate transform over a logit range, with the identity; a
    calibration head maps features, not logits, so its curve is the
    identity."""
    w, h, margin = 420, 420, 45
    plot = w - 2 * margin
    zs = np.linspace(z_lo, z_hi, n)
    eta = sigmoid(zs if isinstance(calibrator, HeadParams)
                  else calibrated_logit(calibrator, zs)[0])

    def pts(values):
        out = []
        for z, e in zip(zs, values):
            x = margin + (z - z_lo) / (z_hi - z_lo) * plot
            y = margin + (1.0 - e) * plot
            out.append(f"{x:.2f},{y:.2f}")
        return " ".join(out)

    body = [f'<text x="{w // 2}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>',
            f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
            'fill="none" stroke="black"/>',
            f'<polyline points="{pts(sigmoid(zs))}" fill="none" stroke="gray" '
            'stroke-dasharray="4 3"/>',
            f'<polyline points="{pts(eta)}" fill="none" stroke="steelblue" '
            'stroke-width="2"/>']
    return _svg(w, h, body)
