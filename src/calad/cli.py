"""Command-line entry points.

Verbs: ``run`` executes a full experiment, ``synth`` emits spectral images,
``calibrate`` fits a calibrator on a score CSV, ``eval`` computes metrics
on a score CSV, and ``report`` recomputes ``summary.csv`` from stored
per-seed rows. Exit codes: 0 success, 1 configuration error (a usage error
included), 2 data error, 3 numerical failure; any other exception is a bug
and propagates as a traceback. ``CALAD_OUT_DIR`` supplies the default
output directory; no other environment variable is consulted. Before
numpy loads, the CLI sets ``OPENBLAS_NUM_THREADS`` to 1 unless the user
has set it: calad's BLAS work is too small for a second thread to pay off.
"""

import argparse
import csv
import os
import sys
import warnings
from pathlib import Path

# set before numpy loads; one thread suffices for the largest product,
# 128x256 @ 256x64 (an SSIM autoencoder batch), and reduction, 200k x 3
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import harness, reports
from .calibration import (OptimizerConfig, ece, fit_beta, fit_platt,
                          fitting_digest, mce, reliability, save_calibrator)
from .errors import CaladError, ConfigError, DataError
from .losses import sigmoid
from .metrics import auroc
from .spectral import SpectralConfig, synthesize_batch
from .tensorio import save_tensor, write_ppm


def _default_out() -> str:
    return os.environ.get("CALAD_OUT_DIR", "runs")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ConfigError (exit 1); argparse would exit
    with 2, the data-error code. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="calad",
                     description="post-hoc calibrated anomaly detection experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run a full experiment")
    run.add_argument("--config", help="JSON config file; flags may not conflict")
    run.add_argument("--normal", help="normal data: CSV path or builtin:<name>")
    run.add_argument("--oe-dir", dest="oe_dir", help="outlier-exposure directory")
    run.add_argument("--masks-dir", dest="masks_dir", help="mask directory")
    run.add_argument("--loss", choices=["svdd", "hsc", "logistic", "ssim", "fcdd"])
    run.add_argument("--calibrator", choices=["none", "platt", "beta", "head"])
    run.add_argument("--anomaly-source", dest="anomaly_source",
                     choices=["oe", "spectral"])
    run.add_argument("--split-ratio", dest="split_ratio", type=float)
    run.add_argument("--seeds", type=lambda s: tuple(int(v) for v in s.split(",")))
    run.add_argument("--epsilon", type=float)
    run.add_argument("--bins", type=int)
    run.add_argument("--epochs", type=int)
    run.add_argument("--learning-rate", dest="learning_rate", type=float)
    run.add_argument("--batch-size", dest="batch_size", type=int)
    run.add_argument("--out", dest="out_dir")

    synth = sub.add_parser("synth", help="emit spectrally synthesized images")
    synth.add_argument("--count", type=int, default=8)
    synth.add_argument("--height", type=int, default=64)
    synth.add_argument("--width", type=int, default=64)
    synth.add_argument("--channels", type=int, default=1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", dest="out_dir", default=None)

    cal = sub.add_parser("calibrate", help="fit a calibrator on a score CSV")
    cal.add_argument("scores", help="CSV with columns score,label")
    cal.add_argument("--kind", choices=["platt", "beta"], default="platt")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--out", dest="out_dir", default=None)

    ev = sub.add_parser("eval", help="metrics on a score CSV")
    ev.add_argument("scores", help="CSV with columns score,label")
    ev.add_argument("--bins", type=int, default=15)
    ev.add_argument("--probabilities", action="store_true",
                    help="scores are probability estimates already")

    rep = sub.add_parser("report", help="recompute summary.csv from per-seed rows")
    rep.add_argument("rows", help="per_seed.csv from an earlier run")
    rep.add_argument("--out", dest="out_dir", default=None)
    return parser


def _read_score_csv(path):
    """Finite float64 scores and int64 0/1 labels from the first two
    columns of a CSV with a score,label header; blank lines are skipped."""
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]))
            if {h.strip() for h in header[:2]} != {"score", "label"}:
                raise DataError(f"{path}: expected a score,label header")
            with warnings.catch_warnings():
                # an empty body warns and returns no rows, rejected below
                warnings.simplefilter("ignore", UserWarning)
                body = np.loadtxt(fh, delimiter=",", usecols=(0, 1), comments=None,
                                  quotechar='"', ndmin=2)
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"cannot read score CSV {path}: {exc}") from exc
    if not len(body):
        raise DataError(f"{path}: no score rows")
    bad = np.flatnonzero((body[:, 1] != 0) & (body[:, 1] != 1))
    if len(bad):
        raise DataError(f"{path}: score row {bad[0] + 1} has label "
                        f"{float(body[bad[0], 1])!r}, expected 0 or 1")
    bad = np.flatnonzero(~np.isfinite(body[:, 0]))
    if len(bad):
        raise DataError(f"{path}: score row {bad[0] + 1} has score "
                        f"{float(body[bad[0], 0])!r}, expected a finite number")
    return np.ascontiguousarray(body[:, 0]), body[:, 1].astype(np.int64)


def _cmd_run(args) -> int:
    cli_fields = {key: getattr(args, key) for key in harness.CONFIG_FIELDS
                  if hasattr(args, key)}
    file_fields = harness.load_config_file(args.config) if args.config else {}
    if cli_fields.get("out_dir") is None and "out_dir" not in file_fields:
        cli_fields["out_dir"] = _default_out()
    cfg = harness.merge_config(cli_fields, file_fields)
    result = harness.run_experiment(cfg)
    print(f"wrote {result.out_dir / 'summary.csv'}")
    for row in result.summary_rows:
        print(f"  {row['method']}: AUROC {row['auroc']:.4f} -> "
              f"{row['auroc_perturbed']:.4f} (perturbed), "
              f"ECE {row['ece']:.4f}, MCE {row['mce']:.4f}")
    return 0


def _cmd_synth(args) -> int:
    if args.count < 0:
        raise ConfigError(f"count must be nonnegative, got {args.count}")
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    try:
        cfg = SpectralConfig(args.height, args.width, args.channels, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(f"bad synth size: {exc}") from None
    out = Path(args.out_dir or _default_out())
    out.mkdir(parents=True, exist_ok=True)
    images, metas = synthesize_batch(cfg, args.count)
    for i, (img, meta) in enumerate(zip(images, metas)):
        save_tensor(out / f"spectral_{i:04d}.calt", img)
        write_ppm(out / f"spectral_{i:04d}.ppm",
                  img if img.shape[0] in (1, 3) else img[:1])
        exps = ", ".join(f"a={a:.3f} b={b:.3f}" for a, b in meta["exponents"])
        print(f"spectral_{i:04d}: {exps}")
    return 0


def _cmd_calibrate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    scores, labels = _read_score_csv(args.scores)
    opt = OptimizerConfig(seed=args.seed)
    if args.kind == "platt":
        params = fit_platt(scores, labels, opt)
    else:
        params = fit_beta(sigmoid(scores), labels, opt)
    out = Path(args.out_dir or _default_out())
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"calibrator_{args.kind}.txt"
    save_calibrator(path, params, args.seed, fitting_digest(scores, labels))
    print(f"wrote {path}")
    return 0


def _cmd_eval(args) -> int:
    if args.bins < 1:
        raise ConfigError(f"need at least one bin, got {args.bins}")
    scores, labels = _read_score_csv(args.scores)
    if args.probabilities:
        bad = np.flatnonzero((scores < 0) | (scores > 1))
        if len(bad):
            raise DataError(f"{args.scores}: score row {bad[0] + 1} is "
                            f"{float(scores[bad[0]])!r}, expected a probability in [0, 1]")
    estimates = scores if args.probabilities else sigmoid(scores)
    hist = reliability(estimates, labels, args.bins)
    print(f"auroc {auroc(scores, labels)!r}")
    print(f"ece {ece(hist)!r}")
    print(f"mce {mce(hist)!r}")
    return 0


def _read_seed_rows(path):
    """Rows of a per_seed.csv, every metric cell parsed as a float."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"cannot read rows from {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no rows")
    columns = reader.fieldnames
    required = reports.CSV_COLUMNS + (reports.CSV_LOCALIZATION if "aupro" in columns else [])
    missing = [c for c in required if c not in columns]
    if missing:
        raise DataError(f"{path}: missing columns {', '.join(missing)}")
    metrics = [c for c in columns if c not in ("seed", "class_id", "method")]
    for i, row in enumerate(rows, start=1):
        if None in row:
            raise DataError(f"{path}: row {i} has more cells than the header")
        for column in metrics:
            cell = row[column]
            try:
                row[column] = float(cell)
            except (TypeError, ValueError):
                what = "missing" if cell is None else f"{cell!r}, not a number"
                raise DataError(f"{path}: row {i} column {column} is {what}") from None
    return rows


def _cmd_report(args) -> int:
    rows = _read_seed_rows(args.rows)
    out = Path(args.out_dir or _default_out())
    out.mkdir(parents=True, exist_ok=True)
    reports.write_rows_csv(out / "summary.csv", harness.aggregate(rows))
    print(f"wrote {out / 'summary.csv'}")
    return 0


def main(argv=None) -> int:
    handlers = {"run": _cmd_run, "synth": _cmd_synth, "calibrate": _cmd_calibrate,
                "eval": _cmd_eval, "report": _cmd_report}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.verb](args)
    except CaladError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
