"""Run artifacts: the output directory, per-seed rows and their summary
CSVs, reliability-diagram and calibrator-curve SVGs, and the run manifest.

Everything here is rendered byte-deterministically: floats are written
with repr (shortest round-trip form) and the SVGs are assembled from
literal elements, so re-running a config reproduces identical files.
Timestamps appear only in the manifest.
"""

import csv
import time
from pathlib import Path

import numpy as np

from .calibration import ReliabilityHistogram, calibrated_logit, ece, mce
from .errors import ConfigError
from .losses import sigmoid

CSV_COLUMNS = ["class_id", "method", "auroc", "auroc_perturbed", "mce", "ece"]
CSV_LOCALIZATION = ["aupro", "aupro_perturbed", "pixel_auroc", "pixel_auroc_perturbed"]
DEFAULT_OUT_DIR = "runs"  # every writing verb's --out when it is not given


def check_out_dir(path) -> None:
    """ConfigError if `path` is empty, which Path reads as the working
    directory, or if it, or else its nearest existing ancestor, is not a
    directory, so that make_out_dir(path) would fail. Creates nothing."""
    if str(path) == "":
        raise ConfigError("the output directory is empty; name one, or '.' for "
                          "the working directory")
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot create output directory {out}: {existing} is a file")


def make_out_dir(path) -> Path:
    """The output directory `path`, created with its parents; ConfigError
    if check_out_dir rejects it or it cannot be created."""
    check_out_dir(path)
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


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


def aggregate(per_seed) -> list:
    """Means over the seeds per (class, method), in first-seen order.

    Values go through float(), so rows read back from per_seed.csv give
    the same summary as the rows of the run itself.
    """
    groups = {}
    for row in per_seed:
        groups.setdefault((row["class_id"], row["method"]), []).append(row)
    summary = []
    for (class_id, method), rows in groups.items():
        agg = {"class_id": class_id, "method": method}
        for key in rows[0]:
            if key not in ("seed", "class_id", "method"):
                agg[key] = float(np.mean([float(r[key]) for r in rows]))
        summary.append(agg)
    return summary


def write_deltas_csv(path, deltas) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "loss_before", "loss_after", "score_before", "score_after"])
        for row in deltas:
            writer.writerow([str(int(row[0]))] + [repr(float(v)) for v in row[1:]])


def write_manifest(path, config: dict, conventions: dict) -> None:
    import json  # only here: of the verbs, only run writes a manifest

    doc = {
        "config": config,
        "conventions": conventions,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


SIDE, MARGIN = 420, 45  # each plot is a square SIDE wide, its frame MARGIN in
PLOT = SIDE - 2 * MARGIN  # the side of the framed plot area


def _plot_svg(title: str, body) -> str:
    """A plot's SVG document: its title, its frame, then `body`."""
    frame = [f'<text x="{SIDE // 2}" y="20" text-anchor="middle" '
             f'font-family="monospace" font-size="14">{title}</text>',
             f'<rect x="{MARGIN}" y="{MARGIN}" width="{PLOT}" height="{PLOT}" '
             'fill="none" stroke="black"/>']
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIDE}" '
            f'height="{SIDE}" viewBox="0 0 {SIDE} {SIDE}">\n'
            + "\n".join(frame + body) + "\n</svg>\n")


def reliability_diagram_svg(hist: ReliabilityHistogram, title: str) -> str:
    """Frequency-vs-confidence bars over the bin grid, with the diagonal,
    ECE and MCE."""
    margin, plot = MARGIN, PLOT
    body = [f'<line x1="{margin}" y1="{margin + plot}" x2="{margin + plot}" '
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
    body.append(f'<text x="{margin}" y="{SIDE - 8}" font-family="monospace" '
                f'font-size="12">ECE={ece(hist):.4f} MCE={mce(hist):.4f} '
                f'K={k} n={hist.n}</text>')
    return _plot_svg(title, body)


def calibrator_curve_svg(calibrator, title: str) -> str:
    """A Platt or Beta map's estimate transform over the logits -8..8,
    with the identity."""
    margin, plot = MARGIN, PLOT
    z_lo, z_hi = -8.0, 8.0
    zs = np.linspace(z_lo, z_hi, 161)
    eta = sigmoid(calibrated_logit(calibrator, zs)[0])

    def pts(values):
        out = []
        for z, e in zip(zs, values):
            x = margin + (z - z_lo) / (z_hi - z_lo) * plot
            y = margin + (1.0 - e) * plot
            out.append(f"{x:.2f},{y:.2f}")
        return " ".join(out)

    body = [f'<polyline points="{pts(sigmoid(zs))}" fill="none" stroke="gray" '
            'stroke-dasharray="4 3"/>',
            f'<polyline points="{pts(eta)}" fill="none" stroke="steelblue" '
            'stroke-width="2"/>']
    return _plot_svg(title, body)
