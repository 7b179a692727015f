"""Reproducible experiment runner: split, train, post-hoc calibrate,
evaluate with and without input perturbation, and emit reports.

One run evaluates the configured method next to its fully trained
baseline. Both are the same experiment arm: normalize with the statistics
of its training rows, draw anomaly pools, train the base scorer, optionally
fit a calibrator, and evaluate on the shared test set. The baseline arm
trains on the full normal training data and fits no calibrator; a
calibrated method's arm trains on the 3:1 training split and fits the
calibrator on the calibration split against synthetic anomalies from the
configured source. Calibration metrics are always measured on normal test
data plus an equal-sized held-out pool of the synthetic anomalies, never
on the real test anomalies. Everything is fully determined by the config
and its seed list.
"""

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import reports
from .calibration import (OptimizerConfig, ReliabilityHistogram, ece, fit_beta,
                          fit_head, fit_platt, fitting_digest, mce, reliability,
                          save_calibrator)
from .datasets import gaussian_ring, textured_tiles
from .errors import ConfigError, DataError
from .metrics import aupro, pixel_auroc
from .perturbation import PerturbConfig, evaluate_pair, perturb_batch
from .scorer import (SUPERVISED_LOSSES, LossPipeline, MlpSpec, ScorerState,
                     TrainConfig, forward, init_scorer, init_svdd_center,
                     save_scorer, train)
from .segmentation import SsimConfig, gaussian_upsample
from .spectral import SpectralConfig, synthesize_batch
from .tensorio import load_tensor

DATA_SEED = 54172  # builtin datasets are fixed; run seeds vary everything else

BASELINE = "Fully Trained"

METHOD_LABELS = {
    ("none", "oe"): BASELINE,
    ("none", "spectral"): BASELINE,
    ("head", "oe"): "CalHead OE",
    ("head", "spectral"): "CalHead Spectral",
    ("platt", "oe"): "Platt OE",
    ("platt", "spectral"): "Platt Spectral",
    ("beta", "oe"): "β OE",
    ("beta", "spectral"): "β Spectral",
}

BUILTIN_DATASETS = ("builtin:gauss2d", "builtin:gauss2d-basin", "builtin:tiles")

LOCALIZING_LOSSES = ("ssim", "fcdd")  # the losses with a pixel heatmap


@dataclass(frozen=True)
class ExperimentConfig:
    normal: str = "builtin:gauss2d"
    oe_dir: Optional[str] = None
    masks_dir: Optional[str] = None
    loss: str = "svdd"
    calibrator: str = "none"
    anomaly_source: str = "spectral"
    split_ratio: float = 0.75
    seeds: tuple = (0, 1, 2, 3, 4)
    epsilon: float = 1.4e-3
    bins: int = 15
    out_dir: str = "runs"
    epochs: int = 40
    learning_rate: float = 1e-4
    batch_size: int = 128
    milestones: tuple = ()

    def __post_init__(self):
        _check_types(self)
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split ratio must lie in (0, 1), got {self.split_ratio}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.calibrator not in ("none", "platt", "beta", "head"):
            raise ConfigError(f"unknown calibrator {self.calibrator!r}")
        if self.anomaly_source not in ("oe", "spectral"):
            raise ConfigError(f"unknown anomaly source {self.anomaly_source!r}")
        if self.loss not in ("svdd", "hsc", "logistic", "ssim", "fcdd"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.anomaly_source == "oe" and self.oe_dir is None:
            raise ConfigError("anomaly source 'oe' requires an OE data directory")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"seeds must be nonnegative, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {list(self.seeds)}")
        if list(self.milestones) != sorted(self.milestones):
            raise ConfigError(f"milestones must be sorted, got {list(self.milestones)}")
        if not 0 <= self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if self.bins < 1:
            raise ConfigError(f"need at least one bin, got {self.bins}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(
                f"learning rate must be finite and nonnegative, got {self.learning_rate}")

    @property
    def method_label(self) -> str:
        return METHOD_LABELS[(self.calibrator, self.anomaly_source)]

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["seeds"] = list(self.seeds)
        doc["milestones"] = list(self.milestones)
        return doc


CONFIG_FIELDS = set(ExperimentConfig.__dataclass_fields__)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_types(cfg: ExperimentConfig) -> None:
    """ConfigError for a field of the wrong type, such as a JSON config
    file's string or null where a number belongs."""
    for name, types in (("normal", str), ("out_dir", str), ("oe_dir", (str, type(None))),
                        ("masks_dir", (str, type(None)))):
        if not isinstance(getattr(cfg, name), types):
            raise ConfigError(f"{name} must be a path, got {getattr(cfg, name)!r}")
    for name in ("epochs", "bins", "batch_size"):
        if not _is_int(getattr(cfg, name)):
            raise ConfigError(f"{name} must be an integer, got {getattr(cfg, name)!r}")
    for name in ("split_ratio", "epsilon", "learning_rate"):
        value = getattr(cfg, name)
        if not (_is_int(value) or isinstance(value, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
    for name in ("seeds", "milestones"):
        value = getattr(cfg, name)
        if not (isinstance(value, tuple) and all(_is_int(v) for v in value)):
            raise ConfigError(f"{name} must be a list of integers, got {value!r}")


def load_config_file(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    unknown = set(doc) - CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def merge_config(cli_fields: dict, file_fields: dict) -> ExperimentConfig:
    """Combine flag and config-file settings.

    A key set by both sides to different values is a conflict and an
    error, never a silent override.
    """
    merged = dict(file_fields)
    for key, value in cli_fields.items():
        if value is None:
            continue
        if key in file_fields:
            file_value = file_fields[key]
            norm = tuple(value) if isinstance(value, (list, tuple)) else value
            norm_f = tuple(file_value) if isinstance(file_value, (list, tuple)) else file_value
            if norm != norm_f:
                raise ConfigError(
                    f"config conflict on {key!r}: flag says {value!r}, "
                    f"file says {file_value!r}")
        merged[key] = value
    for key in ("seeds", "milestones"):
        if isinstance(merged.get(key), list):
            merged[key] = tuple(merged[key])
    return ExperimentConfig(**merged)


def split(data, ratio: float, seed: int):
    """Seeded shuffle split into (train, calibration); disjoint, exhaustive."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must lie in (0, 1), got {ratio}")
    data = np.asarray(data)
    n = len(data)
    n_train = int(round(n * ratio))
    if n_train == 0 or n_train == n:
        raise DataError(f"split of {n} items at ratio {ratio} gives an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    return data[perm[:n_train]], data[perm[n_train:]]


def fit_normalizer(train):
    """Per-feature mean and std over the training data, std floored."""
    x = np.asarray(train, dtype=float)
    mu = x.mean(axis=0)
    sd = np.maximum(x.std(axis=0), 1e-8)
    return mu, sd


def normalize(data, stats):
    mu, sd = stats
    return (np.asarray(data, dtype=float) - mu) / sd


# -- data loading -------------------------------------------------------


def _load_dataset(cfg: ExperimentConfig):
    """The run's dataset record: its class id, the raw normal training
    rows, the test set, and the (h, w) tile shape (None for rows)."""
    name = cfg.normal
    if name in ("builtin:gauss2d", "builtin:gauss2d-basin"):
        data = gaussian_ring(DATA_SEED, basin=name.endswith("-basin"))
        return _rows_dataset(name[len("builtin:"):], data.train_normal,
                             data.test_normal, data.test_anomalous)
    if name == "builtin:tiles":
        data = textured_tiles(DATA_SEED)
        return _tiles_dataset("tiles", data.train_images, data.test_images,
                              data.test_masks)
    path = Path(name)
    if path.is_dir():
        # SSIM and spectral anomaly pools handle one channel only
        return _dir_dataset(path, cfg.masks_dir, single_channel=(
            cfg.loss == "ssim" or cfg.anomaly_source == "spectral"))
    if path.suffix == ".csv" and path.exists():
        try:
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"cannot read normal data from {path}: {exc}") from exc
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
        anoms = scale * np.column_stack([np.cos(angles), np.sin(angles)])[:, :rows.shape[1]]
        if anoms.shape[1] < rows.shape[1]:
            anoms = np.pad(anoms, ((0, 0), (0, rows.shape[1] - anoms.shape[1])))
        return _rows_dataset(path.stem, train, test, anoms)
    raise DataError(f"cannot read normal data from {name!r}; expected a CSV file, "
                    f"a directory of raw tensors, or one of {BUILTIN_DATASETS}")


class _TestSet(NamedTuple):
    """Seed-independent test inputs: raw rows with normals first."""
    x: np.ndarray
    y: np.ndarray                 # 0 normal, 1 anomalous
    masks: Optional[np.ndarray]   # tiles only, aligned with the rows


def _rows_dataset(class_id, train, test_normal, test_anomalous):
    """Dataset record of tabular rows."""
    test = _TestSet(np.concatenate([test_normal, test_anomalous]),
                    np.concatenate([np.zeros(len(test_normal)),
                                    np.ones(len(test_anomalous))]), None)
    return {"class_id": class_id, "normal": train, "test": test, "image_shape": None}


def _tiles_dataset(class_id, train_images, test_images, test_masks):
    """Dataset record of (n, c, h, w) tiles, flattened into rows; a test
    tile is anomalous when its mask marks any pixel."""
    anomalous = test_masks.sum(axis=(1, 2)) > 0
    order = np.argsort(anomalous, kind="stable")  # normal tiles first
    test = _TestSet(test_images[order].reshape(len(order), -1),
                    anomalous[order].astype(float), test_masks[order])
    return {"class_id": class_id, "normal": train_images.reshape(len(train_images), -1),
            "test": test, "image_shape": train_images.shape[-2:]}


def _dir_dataset(normal_dir: Path, masks_dir, single_channel: bool):
    """Training images from a raw-tensor directory; the test set is the
    masks directory's <name>.calt images paired with <name>.pgm masks.
    With `single_channel`, multi-channel tiles are a DataError."""
    from .tensorio import read_pgm

    train_files = sorted(normal_dir.glob("*.calt"))
    if not train_files:
        raise DataError(f"no raw-tensor files under {normal_dir}")
    train = [load_tensor(f) for f in train_files]
    for f, img in zip(train_files, train):
        if img.shape != train[0].shape:
            raise DataError(f"{f}: shape {img.shape} differs from {train_files[0]}'s "
                            f"{train[0].shape}")
    if train[0].ndim not in (2, 3):
        raise DataError(f"{train_files[0]}: shape {train[0].shape} is not an (h, w) "
                        "or (c, h, w) image")
    train = np.stack(train)
    if train.ndim == 3:  # (n, h, w) -> single channel
        train = train[:, None]
    if single_channel and train.shape[1] > 1:
        raise DataError(
            f"{normal_dir}: tiles have {train.shape[1]} channels, but SSIM and "
            "spectral anomaly pools are single-channel")
    if masks_dir is None:
        raise DataError(
            f"{normal_dir} holds image tensors; provide a masks directory with "
            "the test images and their PGM masks")
    masks_path = Path(masks_dir)
    test_files = sorted(masks_path.glob("*.calt"))
    if not test_files:
        raise DataError(f"no test images under {masks_dir}")
    # tiles are used at their stored size: test images must match the
    # training images' (c, h, w) and masks their (h, w)
    shape = train.shape[1:]
    test_imgs, masks = [], []
    for f in test_files:
        img = load_tensor(f)
        img = img if img.ndim == 3 else img[None]
        if img.shape != shape:
            raise DataError(f"{f}: shape {img.shape} differs from the training "
                            f"images' {shape}")
        mask_file = f.with_suffix(".pgm")
        if not mask_file.exists():
            raise DataError(f"missing mask {mask_file}")
        mask = read_pgm(mask_file)
        if mask.shape != shape[1:]:
            raise DataError(f"{mask_file}: mask shape {mask.shape} differs from the "
                            f"images' {shape[1:]}")
        test_imgs.append(img)
        masks.append(mask)
    return _tiles_dataset(normal_dir.name, train, np.stack(test_imgs), np.stack(masks))


def _load_oe_dir(oe_dir) -> np.ndarray:
    """Flat sample pool from a directory of raw-tensor files.

    Rank 1 and rank 3 tensors are single samples (a feature vector, an
    image); rank 2 and rank 4 are batches of them.
    """
    files = sorted(Path(oe_dir).glob("*.calt"))
    if not files:
        raise DataError(f"no raw-tensor files under {oe_dir}")
    parts = []
    for f in files:
        arr = load_tensor(f)
        if arr.ndim in (1, 3):
            parts.append(arr.reshape(1, -1))
        elif arr.ndim in (2, 4):
            parts.append(arr.reshape(len(arr), -1))
        else:
            raise DataError(f"{f}: unsupported tensor rank {arr.ndim}")
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
    """Disjoint normalized pools of synthetic anomalies, one per key of
    POOL_KEYS listed in `keys`: training, calibration, evaluation. A
    pool's draw depends on its key alone, so skipping one moves no other."""
    d = len(np.atleast_1d(stats[0]))
    if cfg.anomaly_source == "oe":
        pool = _load_oe_dir(cfg.oe_dir)
        if pool.shape[1] != d:
            raise DataError(f"{cfg.oe_dir}: OE samples are {pool.shape[1]} values wide, "
                            f"but the data rows are {d} wide")
        if len(pool) < 3:
            raise DataError("OE pool must hold at least three samples")
        perm = np.random.default_rng(seed + 101).permutation(len(pool))
        thirds = dict(zip(POOL_KEYS, np.array_split(perm, 3)))
        return {key: normalize(pool[thirds[key]], stats) for key in keys}
    seeds = {key: seed * 3 + 211 + i for i, key in enumerate(POOL_KEYS)}
    if dataset.get("image_shape") is not None:
        h, w = dataset["image_shape"]
        pools = {}
        for key in keys:
            images, _ = synthesize_batch(SpectralConfig(h, w, seed=seeds[key]), n_each)
            pools[key] = normalize(images.reshape(n_each, -1), stats)
        return pools
    return {key: _spectral_tabular(n_each, d, seeds[key]) for key in keys}


# -- model construction ---------------------------------------------------


def _scorer_spec(loss: str, d: int) -> MlpSpec:
    if loss == "svdd":
        # enough embedding width and gain that squared distances spread the
        # induced probability estimates across reliability bins
        return MlpSpec((d, 64, 64, 32), use_bias=False, init_gain=2.0)
    if loss == "hsc":
        return MlpSpec((d, 32, 16, 8))
    if loss == "logistic":
        return MlpSpec((d, 32, 16, 1))
    if loss == "ssim":
        return MlpSpec((d, 64, d))
    if loss == "fcdd":
        return MlpSpec((d, 64, 64))
    raise ConfigError(f"unknown loss {loss!r}")


def _train_base(cfg: ExperimentConfig, x_train, anoms_train, seed: int,
                image_shape=None, ssim_cfg=None) -> LossPipeline:
    """The arm's base scorer, trained on cfg.loss, in its uncalibrated
    pipeline."""
    state = init_scorer(_scorer_spec(cfg.loss, x_train.shape[1]), seed=seed)
    center = init_svdd_center(state, x_train) if cfg.loss == "svdd" else None
    pipeline = LossPipeline(state, cfg.loss, center=center, ssim_cfg=ssim_cfg,
                            image_shape=image_shape)
    if cfg.loss in SUPERVISED_LOSSES:
        data = np.concatenate([x_train, anoms_train])
        labels = np.concatenate([np.zeros(len(x_train)), np.ones(len(anoms_train))])
    else:
        data, labels = x_train, None
    train(pipeline, data, labels,
          TrainConfig(learning_rate=cfg.learning_rate, milestones=cfg.milestones,
                      epochs=cfg.epochs, batch_size=cfg.batch_size, seed=seed))
    return pipeline


def _head_trunk(state: ScorerState, loss: str) -> ScorerState:
    """The scorer under the calibration head, which is never trained
    again: the base scorer itself, but logistic and ssim scorers drop
    their output layer."""
    if loss not in ("logistic", "ssim"):
        return state
    spec = MlpSpec(state.spec.widths[:-1], use_bias=state.spec.use_bias)
    out = state.weights[-1]
    n_out = out.size + (out.shape[1] if spec.use_bias else 0)
    return ScorerState(spec, state.flat[:-n_out])


def _fit_calibrator(cfg: ExperimentConfig, base: LossPipeline, cal_x, cal_y,
                    seed: int, localization: bool, trunk: Optional[ScorerState] = None):
    """Fit cfg.calibrator to the logits of the uncalibrated pipeline, a
    head to the features of `trunk`; (params, digest)."""
    opt = OptimizerConfig(seed=seed)
    if cfg.calibrator == "head":
        feats = forward(trunk, cal_x)
        return fit_head(feats, cal_y, opt), fitting_digest(feats, cal_y)
    z = _logits(base, cal_x, localization)
    cal_y = np.repeat(cal_y, z.size // len(cal_y))  # a tile's label on each pixel
    z = z.ravel()
    if cfg.calibrator == "platt":
        return fit_platt(z, cal_y, opt), fitting_digest(z, cal_y)
    e = base.calibrate(z)[1]  # the uncalibrated pipeline's estimates
    return fit_beta(e, cal_y, opt), fitting_digest(e, cal_y)


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


def _evaluate(cfg, method, class_id, pipeline, x_test, test: _TestSet,
              localization: bool, x_eval):
    """The metrics row of one arm, its reliability histogram, the
    perturbation deltas and, for localization, the test-set heatmaps.

    `x_eval` holds normal test rows and synthetic anomalies in two equal
    halves. Their reliability is per row for detection and per pixel for
    localization."""
    perturb_cfg = PerturbConfig(epsilon=cfg.epsilon)
    pair = evaluate_pair(pipeline, x_test, test.y, perturb_cfg)
    eta = pipeline.calibrate(_logits(pipeline, x_eval, localization))[1].ravel()
    hist = reliability(eta, np.repeat([0, 1], len(eta) // 2), cfg.bins)
    row = {
        "class_id": class_id,
        "method": method,
        "auroc": pair.auroc_before,
        "auroc_perturbed": pair.auroc_after,
        "mce": mce(hist),
        "ece": ece(hist),
    }
    if not localization:
        return row, hist, pair.deltas, None
    maps_before = _tile_heatmaps(pipeline, x_test)
    maps_after = _tile_heatmaps(pipeline, perturb_batch(pipeline, x_test, perturb_cfg))
    masks = list(test.masks)
    row["aupro"] = aupro(list(maps_before), masks)
    row["aupro_perturbed"] = aupro(list(maps_after), masks)
    row["pixel_auroc"] = pixel_auroc(list(maps_before), masks)
    row["pixel_auroc_perturbed"] = pixel_auroc(list(maps_after), masks)
    return row, hist, pair.deltas, maps_before


# -- the runner -------------------------------------------------------------


@dataclass
class RunResult:
    summary_rows: list
    per_seed_rows: list
    out_dir: Path
    calibrators: dict  # the first seed's method -> (params, digest)


class _Arm(NamedTuple):
    """One method evaluated on one seed."""
    row: dict
    hist: ReliabilityHistogram
    deltas: np.ndarray
    calibrator: Optional[tuple]   # (params, digest) when one was fitted
    pipeline: LossPipeline
    heatmaps: Optional[np.ndarray]  # test-set heatmaps of localization runs


def _run_arm(cfg: ExperimentConfig, dataset, localization: bool, seed: int,
             normal, calib=None) -> _Arm:
    """Normalize with `normal`'s statistics, draw the anomaly pools the
    arm reads, train the base scorer on `normal`, fit cfg.calibrator on
    `calib` if given, and evaluate on the dataset's test set. Without
    `calib` this is the fully trained baseline."""
    method = BASELINE if calib is None else cfg.method_label
    test, image_shape = dataset["test"], dataset["image_shape"]
    stats = fit_normalizer(normal)
    n_each = max(64, len(normal) // 2 if calib is None else len(calib))
    reads = {"train": cfg.loss in SUPERVISED_LOSSES, "calib": calib is not None,
             "eval": True}
    pools = _anomaly_pools(cfg, dataset, seed, stats, n_each=n_each,
                           keys=[key for key in POOL_KEYS if reads[key]])
    x_train = normalize(normal, stats)
    x_test = normalize(test.x, stats)
    ssim_cfg = None
    if image_shape is not None:
        ssim_cfg = SsimConfig(pad_value=float(x_train.mean()))
    pipeline = _train_base(cfg, x_train, pools.get("train"), seed, image_shape, ssim_cfg)
    fitted = None
    if calib is not None:
        x_cal = normalize(calib, stats)
        n_cal = min(len(x_cal), len(pools["calib"]))
        cal_x = np.concatenate([x_cal[:n_cal], pools["calib"][:n_cal]])
        cal_y = np.concatenate([np.zeros(n_cal), np.ones(n_cal)])
        trunk = _head_trunk(pipeline.state, cfg.loss) if cfg.calibrator == "head" else None
        fitted = _fit_calibrator(cfg, pipeline, cal_x, cal_y, seed, localization, trunk)
        if trunk is not None:
            pipeline = LossPipeline(trunk, "logistic", head=fitted[0])
        else:
            pipeline.calibrator = fitted[0]
    x_normal = x_test[test.y == 0]
    n_eval = min(len(x_normal), len(pools["eval"]))
    x_eval = np.concatenate([x_normal[:n_eval], pools["eval"][:n_eval]])
    row, hist, deltas, heatmaps = _evaluate(cfg, method, dataset["class_id"], pipeline,
                                            x_test, test, localization, x_eval)
    return _Arm(row, hist, deltas, fitted, pipeline, heatmaps)


def aggregate(per_seed) -> list:
    """Per-method means over the seeds, methods in first-seen order.

    Values go through float(), so rows read back from per_seed.csv give
    the same summary as the rows of the run itself.
    """
    groups = {}
    for row in per_seed:
        groups.setdefault(row["method"], []).append(row)
    summary = []
    for method, rows in groups.items():
        agg = {"class_id": rows[0]["class_id"], "method": method}
        for key in rows[0]:
            if key not in ("seed", "class_id", "method"):
                agg[key] = float(np.mean([float(r[key]) for r in rows]))
        summary.append(agg)
    return summary


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run every seed, aggregate, and write all artifacts to cfg.out_dir."""
    dataset = _load_dataset(cfg)
    # the calibration head is a detection-only method, so its runs keep the
    # detection row schema even on mask-bearing data
    localization = dataset["image_shape"] is not None and cfg.calibrator != "head"
    if localization and cfg.loss not in LOCALIZING_LOSSES:
        raise ConfigError(
            f"loss {cfg.loss!r} gives no pixel heatmap; on tiles only "
            f"{' and '.join(LOCALIZING_LOSSES)} localize, or use --calibrator head")
    normal = dataset["normal"]
    per_seed, deltas, first = [], {}, None
    for seed in cfg.seeds:
        arms = [_run_arm(cfg, dataset, localization, seed, normal)]
        if cfg.calibrator != "none":
            arms.append(_run_arm(cfg, dataset, localization, seed,
                                 *split(normal, cfg.split_ratio, seed)))
        for arm in arms:
            per_seed.append({"seed": seed, **arm.row})
            deltas[(seed, arm.row["method"])] = arm.deltas
        first = first or arms  # the first seed's arms back the figures
    summary = aggregate(per_seed)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_reports(cfg, summary, per_seed, deltas, first, out_dir)
    return RunResult(summary_rows=summary, per_seed_rows=per_seed, out_dir=out_dir,
                     calibrators={arm.row["method"]: arm.calibrator for arm in first
                                  if arm.calibrator is not None})


def _slug(method: str) -> str:
    return method.replace(" ", "_").replace("β", "beta").lower()


CONVENTIONS = {
    "aupro": "per-region overlap vs FPR, all thresholds, trapezoid to the cap, "
             "normalized by the cap",
    "aupro_fpr_cap": 0.3,
    "region_connectivity": 4,
    "tie_handling": "midranks",
    "perturbation_label": 0,
    "upsample_geometry": "stride = out/in, kernel 4*stride+1, sigma = stride",
}


def emit_reports(cfg, summary, per_seed, deltas, arms, out_dir: Path) -> None:
    """Summary and per-seed CSVs, the manifest and every seed's deltas;
    for each of the first seed's `arms`, its reliability diagram, its
    calibrator (curve and document), its scorer checkpoint and, for
    localization runs, its test-set heatmaps."""
    from . import __version__
    from .tensorio import save_tensor

    reports.write_rows_csv(out_dir / "summary.csv", summary)
    reports.write_rows_csv(out_dir / "per_seed.csv", per_seed)
    conventions = dict(CONVENTIONS)
    conventions["bins"] = cfg.bins
    conventions["library_version"] = __version__
    reports.write_manifest(out_dir / "manifest.json", cfg.to_dict(), conventions)
    seed0 = cfg.seeds[0]
    for arm in arms:
        method = arm.row["method"]
        slug = _slug(method)
        svg = reports.reliability_diagram_svg(arm.hist, ece(arm.hist), mce(arm.hist), method)
        (out_dir / f"reliability_{slug}.svg").write_text(svg)
        if arm.calibrator is not None:
            params, digest = arm.calibrator
            svg = reports.calibrator_curve_svg(params, method)
            (out_dir / f"calibrator_{slug}.svg").write_text(svg)
            save_calibrator(out_dir / f"calibrator_{slug}.txt", params, seed0, digest)
        save_scorer(out_dir / f"scorer_{slug}_seed{seed0}", arm.pipeline.state,
                    {"seed": seed0, "epoch": cfg.epochs, "loss": cfg.loss})
        if arm.heatmaps is not None:
            save_tensor(out_dir / f"heatmaps_{slug}_seed{seed0}.calt", arm.heatmaps)
    for (seed, method), dl in deltas.items():
        reports.write_deltas_csv(out_dir / f"deltas_{_slug(method)}_seed{seed}.csv", dl)
