"""Reproducible experiment runner: split, train, post-hoc calibrate,
evaluate with and without input perturbation, and emit reports.

One run evaluates the configured method next to its fully trained
baseline. Both train the same experiment arm: normalize with the
statistics of its training rows, draw anomaly pools and train the
uncalibrated base scorer. One evaluation step then scores any pipeline
on the arm's normalized sets. The runner only orchestrates: each loss's
scorer, svdd center and head trunk come from ``calad.scorer``. The
baseline arm trains on the full normal training data and evaluates its
base; a calibrated method's arm trains on the ``SPLIT_RATIO`` (3:1)
training split, and its calibrator is fitted on the calibration split
against synthetic anomalies from the configured source. The fit builds a
new calibrated pipeline, the head over the base's trunk or the base's
scorer with its Platt or Beta map attached, and leaves the base
uncalibrated; that pipeline is what the arm evaluates. Calibration metrics
are always measured on normal test data plus an equal-sized held-out
pool of the synthetic anomalies, never on the real test anomalies, in
``calibration.RELIABILITY_BINS`` bins. A method's label joins its
calibrator's and its anomaly source's display names. Everything is
fully determined by the config and its seed list. ``calad run`` builds
the ExperimentConfig from its flags alone, which argparse has typed, and
the config checks each value's range.

Normal data is a built-in set, a CSV read by ``errors.loadtxt``, or a
directory of raw tensors. One loader reads every raw-tensor directory
(training tiles, test tiles, an OE pool), and a file in one that cannot
be read is a DataError naming it. The OE pool is read and checked once,
before the first seed, into the record's ``"oe"``; every arm draws from it.
"""

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import ANOMALY_SOURCES, CALIBRATORS, LOSSES, reports
from .calibration import (RELIABILITY_BINS, ReliabilityHistogram, ece, fit_beta,
                          fit_head, fit_platt, fitting_digest, mce, reliability,
                          save_calibrator)
from .datasets import gaussian_ring, rows_dataset, textured_tiles, tiles_dataset
from .errors import ConfigError, DataError, loadtxt
from .metrics import AUPRO_FPR_CAP, aupro, pixel_auroc
from .perturbation import evaluate_pair, perturb_batch
from .scorer import (FCDD_SIDE, LOCALIZING_LOSSES, SUPERVISED_LOSSES, SVDD_MIN_ROWS,
                     LossPipeline, forward, head_trunk, init_pipeline, save_scorer, train)
from .segmentation import SSIM_C1, SSIM_C2, SSIM_WINDOW, gaussian_upsample
from .spectral import SpectralConfig, synthesize_batch
from .tensorio import load_tensor

DATA_SEED = 54172  # builtin datasets are fixed; run seeds vary everything else
SPLIT_RATIO = 0.75  # the calibrated arm's share of the normal training rows

BASELINE = "Fully Trained"
CALIBRATOR_NAMES = {"head": "CalHead", "platt": "Platt", "beta": "β"}
SOURCE_NAMES = {"oe": "OE", "spectral": "Spectral"}

BUILTIN_DATASETS = ("builtin:gauss2d", "builtin:gauss2d-basin", "builtin:tiles")


@dataclass(frozen=True)
class ExperimentConfig:
    normal: str = "builtin:gauss2d"
    oe_dir: Optional[str] = None
    masks_dir: Optional[str] = None
    loss: str = "svdd"
    calibrator: str = "none"
    anomaly_source: str = "spectral"
    seeds: tuple = (0, 1, 2, 3, 4)
    epsilon: float = 1.4e-3
    out_dir: str = reports.DEFAULT_OUT_DIR
    epochs: int = 40
    learning_rate: float = 1e-4
    batch_size: int = 128

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.calibrator not in CALIBRATORS:
            raise ConfigError(f"unknown calibrator {self.calibrator!r}")
        if self.anomaly_source not in ANOMALY_SOURCES:
            raise ConfigError(f"unknown anomaly source {self.anomaly_source!r}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.anomaly_source == "oe" and self.oe_dir is None:
            raise ConfigError("anomaly source 'oe' requires an OE data directory")
        if self.anomaly_source != "oe" and self.oe_dir is not None:
            raise ConfigError(f"oe_dir {self.oe_dir} is read only with anomaly source "
                              f"'oe', not {self.anomaly_source!r}")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"seeds must be nonnegative, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {list(self.seeds)}")
        if not 0 <= self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(
                f"learning rate must be finite and nonnegative, got {self.learning_rate}")

    @property
    def method_label(self) -> str:
        if self.calibrator == "none":
            return BASELINE
        return f"{CALIBRATOR_NAMES[self.calibrator]} {SOURCE_NAMES[self.anomaly_source]}"


def _train_rows(n: int, ratio: float) -> int:
    """Rows on the training side of a split of n rows at `ratio`."""
    return int(round(n * ratio))


def split(data, ratio: float, seed: int):
    """Seeded shuffle split into (train, calibration); disjoint, exhaustive."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must lie in (0, 1), got {ratio}")
    data = np.asarray(data)
    n = len(data)
    n_train = _train_rows(n, ratio)
    if n_train == 0 or n_train == n:
        raise DataError(f"split of {n} items at ratio {ratio} gives an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    return data[perm[:n_train]], data[perm[n_train:]]


def fit_normalizer(train):
    """Per-feature mean and std over the training data, std floored; a
    DataError if either overflows float64."""
    x = np.asarray(train, dtype=float)
    # an overflowing mean or std is checked just below, as a DataError
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = x.mean(axis=0), x.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sd)))
    if len(bad):
        raise DataError(f"feature column {bad[0] + 1} of the training data has a mean "
                        "or standard deviation beyond float64's range; rescale the data")
    return mu, np.maximum(sd, 1e-8)


def normalize(data, stats):
    mu, sd = stats
    return (np.asarray(data, dtype=float) - mu) / sd


# -- data loading -------------------------------------------------------

def _load_dataset(cfg: ExperimentConfig):
    """The run's dataset record (see calad.datasets) for cfg.normal. Masks
    belong to a tiles directory, so cfg.masks_dir with other normal data
    is a ConfigError."""
    name = cfg.normal
    path = Path(name)
    if cfg.masks_dir is not None and not path.is_dir():
        raise ConfigError(f"masks_dir {cfg.masks_dir} is read only with a directory of "
                          f"tiles as normal data, not {name!r}")
    if name in ("builtin:gauss2d", "builtin:gauss2d-basin"):
        return gaussian_ring(DATA_SEED, basin=name.endswith("-basin"))
    if name == "builtin:tiles":
        return textured_tiles(DATA_SEED)
    if path.is_dir():
        return _dir_dataset(path, cfg.masks_dir)
    if path.suffix == ".csv" and path.exists():
        rows = loadtxt(path, "normal data from")
        if len(rows) < 2:
            raise DataError(f"{path}: need at least two rows of normal data, "
                            f"got {len(rows)}")
        bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
        if len(bad):
            raise DataError(f"{path}: data row {bad[0] + 1} holds a non-finite value")
        # the last fifth is held out as test normals; ring anomalies are synthesized
        n_test = max(1, len(rows) // 5)
        rng = np.random.default_rng(DATA_SEED)
        train, test = rows[:-n_test], rows[-n_test:]
        scale = np.abs(train).max() * 2.0 + 1.0
        angles = rng.uniform(0, 2 * np.pi, n_test)
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        if rows.shape[1] == 1:  # scale * cos would fall inside the data; keep its sign
            ring = np.where(ring[:, :1] < 0, -1.0, 1.0)
        anoms = scale * ring[:, :rows.shape[1]]
        if anoms.shape[1] < rows.shape[1]:
            anoms = np.pad(anoms, ((0, 0), (0, rows.shape[1] - anoms.shape[1])))
        return rows_dataset(path.stem, train, test, anoms)
    raise DataError(f"cannot read normal data from {name!r}; expected a CSV file, "
                    f"a directory of raw tensors, or one of {BUILTIN_DATASETS}")


def _load_tensors(directory, what: str) -> list:
    """(file, tensor) for every raw-tensor file under `directory`, in name
    order; a DataError naming `what` if there is none."""
    files = sorted(Path(directory).glob("*.calt"))
    if not files:
        raise DataError(f"no {what} under {directory}")
    return [(f, load_tensor(f)) for f in files]


def _dir_dataset(normal_dir: Path, masks_dir):
    """Training images from a raw-tensor directory; the test set is the
    masks directory's <name>.calt images paired with <name>.pgm masks."""
    from .tensorio import read_pgm

    if masks_dir is None:
        raise DataError(
            f"{normal_dir} holds image tensors; provide a masks directory with "
            "the test images and their PGM masks")
    # tiles are used at their stored size: each image, (h, w) read as (1, h, w),
    # must have the first training image's (c, h, w) and each mask its (h, w)
    first, train, test_imgs, masks = None, [], [], []
    for directory, what, images in ((normal_dir, "raw-tensor files", train),
                                    (masks_dir, "test images", test_imgs)):
        for f, img in _load_tensors(directory, what):
            if img.ndim not in (2, 3):
                raise DataError(f"{f}: shape {img.shape} is not an (h, w) or (c, h, w) "
                                "image")
            image = img if img.ndim == 3 else img[None]
            if first is None:
                first, shape = (f, img.shape), image.shape
            if image.shape != shape:
                raise DataError(f"{f}: shape {img.shape} differs from {first[0]}'s "
                                f"{first[1]}")
            images.append(image)
            if images is train:
                continue
            mask_file = f.with_suffix(".pgm")
            if not mask_file.exists():
                raise DataError(f"missing mask {mask_file}")
            mask = read_pgm(mask_file)
            if mask.shape != shape[1:]:
                raise DataError(f"{mask_file}: mask shape {mask.shape} differs from the "
                                f"images' {shape[1:]}")
            masks.append(mask)
    return tiles_dataset(normal_dir.name, np.stack(train), np.stack(test_imgs),
                         np.stack(masks))


def _load_oe_dir(oe_dir) -> np.ndarray:
    """Flat sample pool from a directory of raw-tensor files.

    Rank 1 and rank 3 tensors are single samples (a feature vector, an
    image); rank 2 and rank 4 are batches of them, an empty one adding none.
    """
    parts = []
    for f, arr in _load_tensors(oe_dir, "raw-tensor files"):
        if arr.ndim not in (1, 2, 3, 4):
            raise DataError(f"{f}: unsupported tensor rank {arr.ndim}")
        batch = arr if arr.ndim % 2 == 0 else arr[None]
        parts.append(batch.reshape(batch.shape[0], math.prod(batch.shape[1:])))
    widths = {p.shape[1] for p in parts}
    if len(widths) != 1:
        raise DataError(f"OE pool mixes sample widths {sorted(widths)}")
    return np.concatenate(parts)


# -- synthetic anomaly pools ---------------------------------------------


def _spectral_tabular(n: int, d: int, seed: int) -> np.ndarray:
    """Spectral pixels, which lie in [0, 1], reshaped into d-wide rows and
    mapped onto [-5, 5] in every feature: a fixed box, twice the +-2.5
    standard deviations of the normalized training data around its mean."""
    side = max(16, math.isqrt(d - 1) + 1)  # every image holds at least one row
    per_image = (side * side) // d
    n_images = int(np.ceil(n / per_image))
    images, _ = synthesize_batch(SpectralConfig(side, side, seed=seed), n_images)
    flat = images.reshape(n_images, -1)[:, : per_image * d].reshape(-1, d)[:n]
    return flat * 10.0 - 5.0


POOL_KEYS = ("train", "calib", "eval")


def _anomaly_pools(cfg: ExperimentConfig, dataset, seed: int, stats,
                   n_each: int, keys=POOL_KEYS):
    """Disjoint normalized anomaly pools, one per key of POOL_KEYS listed in
    `keys` (training, calibration, evaluation): seeded thirds of the
    record's OE pool `dataset["oe"]`, or synthesized spectral anomalies. A
    pool's draw depends on its key alone, so skipping one moves no other."""
    if cfg.anomaly_source == "oe":
        pool = dataset["oe"]
        perm = np.random.default_rng(seed + 101).permutation(len(pool))
        thirds = dict(zip(POOL_KEYS, np.array_split(perm, 3)))
        return {key: normalize(pool[thirds[key]], stats) for key in keys}
    seeds = {key: seed * 3 + 211 + i for i, key in enumerate(POOL_KEYS)}
    if dataset["image_shape"] is not None:
        h, w = dataset["image_shape"]
        pools = {}
        for key in keys:
            images, _ = synthesize_batch(SpectralConfig(h, w, seed=seeds[key]), n_each)
            pools[key] = normalize(images.reshape(n_each, -1), stats)
        return pools
    return {key: _spectral_tabular(n_each, len(stats[0]), seeds[key]) for key in keys}


# -- calibration -----------------------------------------------------------


def _fit_calibrator(cfg: ExperimentConfig, base: LossPipeline, cal_x, cal_y,
                    seed: int, localization: bool):
    """Fit cfg.calibrator on the trained, uncalibrated `base`; (a new
    calibrated pipeline, (params, digest)). A head fits the features of
    head_trunk(base) and its pipeline is the head over that trunk; Platt
    and Beta fit base's logits, and their pipeline is base's scorer with
    the map attached. `base` itself stays uncalibrated."""
    if cfg.calibrator == "head":
        trunk = head_trunk(base.state, cfg.loss)
        feats = forward(trunk, cal_x)
        fitted = fit_head(feats, cal_y, seed), fitting_digest(feats, cal_y)
        return LossPipeline(trunk, "logistic", head=fitted[0]), fitted
    z = _logits(base, cal_x, localization)
    cal_y = np.repeat(cal_y, z.size // len(cal_y))  # a tile's label on each pixel
    z = z.ravel()
    if cfg.calibrator == "platt":
        fitted = fit_platt(z, cal_y), fitting_digest(z, cal_y)
    else:
        e = base.calibrate(z)[1]  # the uncalibrated pipeline's estimates
        fitted = fit_beta(e, cal_y), fitting_digest(e, cal_y)
    return LossPipeline(base.state, base.loss_name, center=base.center,
                        calibrator=fitted[0], image_shape=base.image_shape), fitted


# -- evaluation ------------------------------------------------------------


def _tile_heatmaps(pipeline: LossPipeline, x):
    """Per-pixel raw scores of tiles, (n, h, w): the pipeline's score map,
    fcdd's feature cells Gaussian-upsampled to the tile size."""
    maps = pipeline.score_map(x)
    if pipeline.loss_name == "ssim":
        return maps
    return gaussian_upsample(maps, *pipeline.image_shape)


def _logits(pipeline: LossPipeline, x, localization: bool):
    """What calibrators fit and reliability bins: the pipeline's logit of
    each row or, for localization, of each tile pixel's raw score."""
    if localization:
        return pipeline.link(_tile_heatmaps(pipeline, x))[0]
    return pipeline.logits(x)


class _Arm(NamedTuple):
    """One method evaluated on one seed."""
    row: dict
    hist: ReliabilityHistogram
    deltas: np.ndarray
    calibrator: Optional[tuple]   # (params, digest) when one was fitted
    pipeline: LossPipeline
    heatmaps: Optional[np.ndarray]  # test-set heatmaps of localization runs


def _evaluate(cfg, dataset, localization: bool, trained, method: str,
              pipeline: LossPipeline, fitted) -> _Arm:
    """`pipeline`, built on the base of the arm `trained`, evaluated on
    that arm's sets: its metrics row, reliability histogram, perturbation
    deltas and, for localization, test-set heatmaps, recorded with its
    calibrator's `fitted` (params, digest) or None.

    The evaluation set holds normal test rows and synthetic anomalies.
    Its reliability is per row for detection and per pixel for
    localization."""
    test, x_test, y_eval = dataset["test"], trained.x_test, trained.y_eval
    pair = evaluate_pair(pipeline, x_test, test.y, cfg.epsilon)
    eta = pipeline.calibrate(_logits(pipeline, trained.x_eval, localization))[1].ravel()
    # a tile's label on each of its pixels
    hist = reliability(eta, np.repeat(y_eval, eta.size // len(y_eval)), RELIABILITY_BINS)
    row = {
        "class_id": dataset["class_id"],
        "method": method,
        "auroc": pair.auroc_before,
        "auroc_perturbed": pair.auroc_after,
        "mce": mce(hist),
        "ece": ece(hist),
    }
    maps_before = None
    if localization:
        maps_before = _tile_heatmaps(pipeline, x_test)
        maps_after = _tile_heatmaps(pipeline, perturb_batch(pipeline, x_test, cfg.epsilon))
        row["aupro"] = aupro(maps_before, test.masks)
        row["aupro_perturbed"] = aupro(maps_after, test.masks)
        row["pixel_auroc"] = pixel_auroc(maps_before, test.masks)
        row["pixel_auroc_perturbed"] = pixel_auroc(maps_after, test.masks)
    return _Arm(row, hist, pair.deltas, fitted, pipeline, maps_before)


# -- the runner -------------------------------------------------------------


@dataclass
class RunResult:
    summary_rows: list
    per_seed_rows: list
    out_dir: Path


class _Trained(NamedTuple):
    """One arm's trained, uncalibrated base and its normalized sets."""
    base: LossPipeline
    x_test: np.ndarray
    x_eval: np.ndarray  # normal test rows, then held-out synthetic anomalies
    y_eval: np.ndarray
    calib: Optional[tuple]  # (cal_x, cal_y) of the split arm


def _balanced(normal, anomalies):
    """(x, y): n normal rows labelled 0, then n anomalies labelled 1, for
    n the smaller of the two counts."""
    n = min(len(normal), len(anomalies))
    return (np.concatenate([normal[:n], anomalies[:n]]),
            np.concatenate([np.zeros(n), np.ones(n)]))


def _train_arm(cfg: ExperimentConfig, dataset, seed: int, normal, calib=None) -> _Trained:
    """Normalize with `normal`'s statistics, draw the anomaly pools the
    arm reads and train the base scorer on `normal`. Without `calib` this
    is the fully trained baseline; with it, the split arm, whose
    calibration set balances `calib` against synthetic anomalies."""
    test = dataset["test"]
    stats = fit_normalizer(normal)
    n_each = max(64, len(normal) // 2 if calib is None else len(calib))
    reads = {"train": cfg.loss in SUPERVISED_LOSSES, "calib": calib is not None,
             "eval": True}
    pools = _anomaly_pools(cfg, dataset, seed, stats, n_each=n_each,
                           keys=[key for key in POOL_KEYS if reads[key]])
    x_train = normalize(normal, stats)
    x_test = normalize(test.x, stats)
    base = init_pipeline(cfg.loss, x_train, seed, dataset["image_shape"])
    train(base, x_train, pools.get("train"), epochs=cfg.epochs,
          batch_size=cfg.batch_size, learning_rate=cfg.learning_rate, seed=seed)
    cal = None if calib is None else _balanced(normalize(calib, stats), pools["calib"])
    return _Trained(base, x_test, *_balanced(x_test[test.y == 0], pools["eval"]), cal)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run every seed, aggregate, and write all artifacts to cfg.out_dir."""
    reports.check_out_dir(cfg.out_dir)  # fail before the data loads, not after training
    dataset = _load_dataset(cfg)
    # the calibration head is a detection-only method, so its runs keep the
    # detection row schema even on mask-bearing data
    localization = dataset["image_shape"] is not None and cfg.calibrator != "head"
    normal = dataset["normal"]
    if dataset["image_shape"] is None and cfg.loss == "ssim":
        raise ConfigError(f"loss 'ssim' reconstructs images, but {cfg.normal} holds "
                          "rows, not tiles")
    if dataset["image_shape"] is not None:
        h, w = dataset["image_shape"]
        channels = normal.shape[1] // (h * w)
        if channels > 1 and (cfg.loss == "ssim" or cfg.anomaly_source == "spectral"):
            raise DataError(f"{Path(cfg.normal)}: tiles have {channels} channels, but "
                            "SSIM and spectral anomaly pools are single-channel")
        y = dataset["test"].y
        if y.min() == y.max():
            raise DataError(f"{cfg.masks_dir}: {int(y.sum())} of {len(y)} test masks "
                            "mark an anomalous pixel; the test set needs normal and "
                            "anomalous tiles")
        if localization and cfg.loss not in LOCALIZING_LOSSES:
            raise ConfigError(
                f"loss {cfg.loss!r} gives no pixel heatmap; on tiles only "
                f"{' and '.join(LOCALIZING_LOSSES)} localize, or use --calibrator head")
        if localization and cfg.loss == "fcdd" and (h != w or h % FCDD_SIDE):
            raise DataError(
                f"tiles of shape {(h, w)}: fcdd upsamples its {FCDD_SIDE}x{FCDD_SIDE} "
                f"heatmap by one integer stride, so tiles must be square with a side "
                f"that is a multiple of {FCDD_SIDE}")
        if cfg.anomaly_source == "spectral" and min(h, w) < 2:
            raise DataError(f"tiles of shape {(h, w)}: spectral anomaly pools need "
                            "tiles of at least 2x2")
    if cfg.loss == "svdd":
        # the calibrated arm trains on the split's first side, the baseline on all
        split_arm = cfg.calibrator != "none"
        n_rows = _train_rows(len(normal), SPLIT_RATIO) if split_arm else len(normal)
        if n_rows < SVDD_MIN_ROWS:
            where = (f"the calibrated arm trains on {n_rows} of the {len(normal)} "
                     f"normal training rows (split ratio {SPLIT_RATIO})" if split_arm
                     else f"there are {n_rows} normal training rows")
            raise DataError(f"{cfg.normal}: svdd needs at least {SVDD_MIN_ROWS} training "
                            f"rows, but {where}; supply more normal rows")
    dataset["oe"] = None
    if cfg.oe_dir is not None:  # read once: every arm draws its OE pools from it
        oe = dataset["oe"] = _load_oe_dir(cfg.oe_dir)
        if oe.shape[1] != normal.shape[1]:
            raise DataError(f"{cfg.oe_dir}: OE samples are {oe.shape[1]} values wide, "
                            f"but the data rows are {normal.shape[1]} wide")
        if len(oe) < 3:
            raise DataError("OE pool must hold at least three samples")
    per_seed, deltas, first = [], {}, None
    for seed in cfg.seeds:
        full = _train_arm(cfg, dataset, seed, normal)
        arms = [_evaluate(cfg, dataset, localization, full, BASELINE, full.base, None)]
        if cfg.calibrator != "none":
            part = _train_arm(cfg, dataset, seed, *split(normal, SPLIT_RATIO, seed))
            pipeline, fitted = _fit_calibrator(cfg, part.base, *part.calib, seed, localization)
            arms.append(_evaluate(cfg, dataset, localization, part, cfg.method_label,
                                  pipeline, fitted))
        for arm in arms:
            per_seed.append({"seed": seed, **arm.row})
            deltas[(seed, arm.row["method"])] = arm.deltas
        first = first or arms  # the first seed's arms back the figures
    summary = reports.aggregate(per_seed)

    out_dir = reports.make_out_dir(cfg.out_dir)
    emit_reports(cfg, summary, per_seed, deltas, first, out_dir)
    return RunResult(summary_rows=summary, per_seed_rows=per_seed, out_dir=out_dir)


def _slug(method: str) -> str:
    return method.replace(" ", "_").replace("β", "beta").lower()


CONVENTIONS = {
    "aupro": "per-region overlap vs FPR, all thresholds, trapezoid to the cap, "
             "normalized by the cap",
    "aupro_fpr_cap": AUPRO_FPR_CAP,
    "region_connectivity": 4,
    "tie_handling": "midranks",
    "perturbation_label": 0,
    "upsample_geometry": "stride = out/in, kernel 4*stride+1, sigma = stride",
    "ssim": {"window": SSIM_WINDOW, "c1": SSIM_C1, "c2": SSIM_C2, "border_value": 0.0},
    "bins": RELIABILITY_BINS,
    "split_ratio": SPLIT_RATIO,
}


def emit_reports(cfg, summary, per_seed, deltas, arms, out_dir: Path) -> None:
    """Summary and per-seed CSVs, the manifest and every seed's deltas;
    for each of the first seed's `arms`, its reliability diagram, its
    calibrator document (and a Platt or Beta map's curve), its scorer
    checkpoint and, for localization runs, its test-set heatmaps."""
    from . import __version__
    from .tensorio import save_tensor

    reports.write_rows_csv(out_dir / "summary.csv", summary)
    reports.write_rows_csv(out_dir / "per_seed.csv", per_seed)
    conventions = {**CONVENTIONS, "library_version": __version__}
    reports.write_manifest(out_dir / "manifest.json", asdict(cfg), conventions)
    seed0 = cfg.seeds[0]
    for arm in arms:
        method = arm.row["method"]
        slug = _slug(method)
        svg = reports.reliability_diagram_svg(arm.hist, method)
        (out_dir / f"reliability_{slug}.svg").write_text(svg)
        if arm.calibrator is not None:
            params, digest = arm.calibrator
            if cfg.calibrator != "head":  # a head maps features, so it has no curve
                svg = reports.calibrator_curve_svg(params, method)
                (out_dir / f"calibrator_{slug}.svg").write_text(svg)
            save_calibrator(out_dir / f"calibrator_{slug}.txt", params, seed0, digest)
        save_scorer(out_dir / f"scorer_{slug}_seed{seed0}", arm.pipeline.state,
                    {"seed": seed0, "epoch": cfg.epochs, "loss": cfg.loss})
        if arm.heatmaps is not None:
            save_tensor(out_dir / f"heatmaps_{slug}_seed{seed0}.calt", arm.heatmaps)
    for (seed, method), dl in deltas.items():
        reports.write_deltas_csv(out_dir / f"deltas_{_slug(method)}_seed{seed}.csv", dl)
