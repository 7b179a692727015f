"""Command-line entry points.

Verbs: ``run`` executes a full experiment, set by its flags alone (each
sets one ``ExperimentConfig`` field; there is no config file), ``synth``
emits spectral images (at most ``SYNTH_MAX_VALUES`` values),
``calibrate`` fits a calibrator on a score CSV, ``eval`` computes
metrics on a score CSV in the run's ``calibration.RELIABILITY_BINS``
bins, and ``report`` recomputes ``summary.csv``, one row per class and
method, from stored per-seed rows. Exit codes: 0 success, 1
configuration error (a usage error included), 2 data error, 3 numerical
failure; any other exception is a bug and propagates as a traceback.
Each verb runs under ``np.errstate(all="raise", under="ignore")``, so a
floating-point fault is a NumericalError naming the verb and the
operation, not a numpy warning followed by inf or NaN.
A writing verb (``run``, ``synth``, ``calibrate``, ``report``) writes
under ``--out``, by default ``reports.DEFAULT_OUT_DIR``. It checks that
path before its work and creates the directory only once the work has
succeeded, so a verb that fails leaves no output directory. calad reads
no environment variable of its own: before numpy loads, the CLI sets
``OPENBLAS_NUM_THREADS`` to 1 unless the user has set it, since calad's
BLAS work is too small for a second thread to pay off.

Each verb loads only what it runs. At import the CLI loads the modules the
score verbs and ``report`` use (calibration, losses, metrics, reports and
errors); ``run`` imports the experiment harness, and ``synth`` the
spectral and tensor modules, in their own bodies.

``console`` is the ``calad`` script and ``python -m calad.cli``. It runs
``main``, flushes the logging handlers (if logging was loaded), stdout and
stderr, and ends the process with ``os._exit``, skipping the interpreter's
teardown: every output file is closed before ``main`` returns, so the
teardown would only free memory and run no atexit hook calad needs. A
reader that closes stdout early ends the process with 141 (128 + SIGPIPE,
as a shell reports a filter cut off by its reader) and nothing on stderr.
A bug's traceback still takes the normal exit. ``main(argv)`` returns the
exit code and never ends the interpreter, for callers in process.
"""

import argparse
import csv
import os
import sys

# set before numpy loads; one thread suffices for the largest product,
# 128x256 @ 256x64 (an SSIM autoencoder batch), and reduction, 200k x 3
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import ANOMALY_SOURCES, CALIBRATORS, LOSSES, reports
from .calibration import (RELIABILITY_BINS, ece, fit_beta, fit_platt, fitting_digest,
                          mce, reliability, save_calibrator)
from .errors import CaladError, ConfigError, DataError, NumericalError, loadtxt
from .losses import sigmoid
from .metrics import auroc


# synth's count x channels x height x width, a count of 0 counted as 1 (the
# frequency grids of one image are laid out all the same); blocked synthesis
# peaks near 14 bytes a value, so about 230 MB RSS at the cap
SYNTH_MAX_VALUES = 2**24


def _seed_list(text: str) -> tuple:
    """--seeds' value: comma-separated integers; ExperimentConfig rejects
    a negative or repeated seed."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated nonnegative integers, got {text!r}") from None


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
    run.add_argument("--normal", help="normal data: CSV path or builtin:<name>")
    run.add_argument("--oe-dir", dest="oe_dir", help="outlier-exposure directory")
    run.add_argument("--masks-dir", dest="masks_dir", help="mask directory")
    run.add_argument("--loss", choices=LOSSES)
    run.add_argument("--calibrator", choices=CALIBRATORS)
    run.add_argument("--anomaly-source", dest="anomaly_source", choices=ANOMALY_SOURCES)
    run.add_argument("--seeds", type=_seed_list)
    run.add_argument("--epsilon", type=float)
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
    synth.add_argument("--out", dest="out_dir", default=reports.DEFAULT_OUT_DIR)

    cal = sub.add_parser("calibrate", help="fit a calibrator on a score CSV")
    cal.add_argument("scores", help="CSV with columns score,label")
    cal.add_argument("--kind", choices=["platt", "beta"], default="platt")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--out", dest="out_dir", default=reports.DEFAULT_OUT_DIR)

    ev = sub.add_parser("eval", help="metrics on a score CSV")
    ev.add_argument("scores", help="CSV with columns score,label")
    ev.add_argument("--probabilities", action="store_true",
                    help="scores are probability estimates already")

    rep = sub.add_parser("report", help="recompute summary.csv from per-seed rows")
    rep.add_argument("rows", help="per_seed.csv from an earlier run")
    rep.add_argument("--out", dest="out_dir", default=reports.DEFAULT_OUT_DIR)
    return parser


def _read_score_csv(path):
    """Finite float64 scores and int64 0/1 labels from the first two
    columns of a CSV whose header starts score,label; blank lines are
    skipped."""
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]))
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"cannot read score CSV {path}: {exc}") from exc
    if [h.strip() for h in header[:2]] != ["score", "label"]:
        raise DataError(f"{path}: expected a header starting score,label, "
                        f"found {','.join(header)!r}")
    # numpy reads the file itself, faster than from a Python stream
    body = loadtxt(path, "score CSV", usecols=(0, 1), comments=None, quotechar='"',
                   skiprows=1)
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
    from . import harness

    # every run flag is an ExperimentConfig field; an unset one keeps its default
    fields = {key: value for key, value in vars(args).items()
              if key != "verb" and value is not None}
    result = harness.run_experiment(harness.ExperimentConfig(**fields))
    print(f"wrote {result.out_dir / 'summary.csv'}")
    for row in result.summary_rows:
        print(f"  {row['method']}: AUROC {row['auroc']:.4f} -> "
              f"{row['auroc_perturbed']:.4f} (perturbed), "
              f"ECE {row['ece']:.4f}, MCE {row['mce']:.4f}")
    return 0


def _cmd_synth(args) -> int:
    from .spectral import SpectralConfig, synthesize_batch
    from .tensorio import save_tensor, write_ppm

    if args.count < 0:
        raise ConfigError(f"count must be nonnegative, got {args.count}")
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    try:
        cfg = SpectralConfig(args.height, args.width, args.channels, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(f"bad synth size: {exc}") from None
    if max(args.count, 1) * args.channels * args.height * args.width > SYNTH_MAX_VALUES:
        raise ConfigError(
            f"synth size count {args.count} x channels {args.channels} x height "
            f"{args.height} x width {args.width} is over the cap of "
            f"{SYNTH_MAX_VALUES} values")
    reports.check_out_dir(args.out_dir)  # fail before the synthesis
    images, metas = synthesize_batch(cfg, args.count)
    out = reports.make_out_dir(args.out_dir)
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
    reports.check_out_dir(args.out_dir)  # fail before the fit
    scores, labels = _read_score_csv(args.scores)
    if args.kind == "platt":
        params = fit_platt(scores, labels)
    else:
        params = fit_beta(sigmoid(scores), labels)
    path = reports.make_out_dir(args.out_dir) / f"calibrator_{args.kind}.txt"
    save_calibrator(path, params, args.seed, fitting_digest(scores, labels))
    print(f"wrote {path}")
    return 0


def _cmd_eval(args) -> int:
    scores, labels = _read_score_csv(args.scores)
    if args.probabilities:
        bad = np.flatnonzero((scores < 0) | (scores > 1))
        if len(bad):
            raise DataError(f"{args.scores}: score row {bad[0] + 1} is "
                            f"{float(scores[bad[0]])!r}, expected a probability in [0, 1]")
    estimates = scores if args.probabilities else sigmoid(scores)
    hist = reliability(estimates, labels, RELIABILITY_BINS)
    print(f"auroc {auroc(scores, labels)!r}")
    print(f"ece {ece(hist)!r}")
    print(f"mce {mce(hist)!r}")
    return 0


def _read_seed_rows(path):
    """Rows of a per_seed.csv: seeds parsed as nonnegative integers, one
    row per (class, seed, method), and metric cells as finite floats."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"cannot read rows from {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no rows")
    columns = reader.fieldnames
    required = ["seed"] + reports.CSV_COLUMNS + (
        reports.CSV_LOCALIZATION if "aupro" in columns else [])
    missing = [c for c in required if c not in columns]
    if missing:
        raise DataError(f"{path}: missing columns {', '.join(missing)}")
    metrics = [c for c in columns if c not in ("seed", "class_id", "method")]
    first_row = {}
    for i, row in enumerate(rows, start=1):
        if None in row:
            raise DataError(f"{path}: row {i} has more cells than the header")
        cell = row["seed"]
        if not (cell and cell.isascii() and cell.isdigit()):
            what = "missing" if cell is None else f"{cell!r}, not a nonnegative integer"
            raise DataError(f"{path}: row {i} column seed is {what}")
        row["seed"] = int(cell)
        for column in metrics:
            cell = row[column]
            try:
                row[column] = float(cell)
            except (TypeError, ValueError):
                what = "missing" if cell is None else f"{cell!r}, not a number"
                raise DataError(f"{path}: row {i} column {column} is {what}") from None
            if not np.isfinite(row[column]):
                raise DataError(f"{path}: row {i} column {column} is {cell!r}, "
                                "not a finite number")
        first = first_row.setdefault((row["class_id"], row["seed"], row["method"]), i)
        if first != i:
            raise DataError(f"{path}: row {i} repeats the seed and method of row {first} "
                            f"in class {row['class_id']!r}")
    return rows


def _cmd_report(args) -> int:
    reports.check_out_dir(args.out_dir)  # fail before the rows are read
    summary = reports.aggregate(_read_seed_rows(args.rows))
    out = reports.make_out_dir(args.out_dir)
    reports.write_rows_csv(out / "summary.csv", summary)
    print(f"wrote {out / 'summary.csv'}")
    return 0


def main(argv=None) -> int:
    handlers = {"run": _cmd_run, "synth": _cmd_synth, "calibrate": _cmd_calibrate,
                "eval": _cmd_eval, "report": _cmd_report}
    try:
        args = _build_parser().parse_args(argv)
        # an overflow or invalid value stops the verb where it happens,
        # rather than warning and carrying inf or NaN on to a later check
        with np.errstate(all="raise", under="ignore"):
            try:
                return handlers[args.verb](args)
            except FloatingPointError as exc:
                raise NumericalError(f"calad {args.verb}: {exc}") from exc
    except CaladError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def console() -> None:
    """The process entry: main(), then os._exit with its code once the
    streams are flushed; a closed stdout exits 141."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse after --help
            code = exc.code or 0
        if "logging" in sys.modules:
            sys.modules["logging"].shutdown()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 141
    os._exit(code)


if __name__ == "__main__":
    console()
