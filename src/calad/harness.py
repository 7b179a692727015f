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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import reports
from .calibration import (OptimizerConfig, ReliabilityHistogram, calibrated_logit,
                          ece, fit_beta, fit_head, fit_platt, fitting_digest, mce,
                          reliability, save_calibrator)
from .datasets import gaussian_ring, textured_tiles
from .errors import ConfigError, DataError
from .losses import clamp_probability, logit, sigmoid
from .metrics import aupro, pixel_auroc
from .perturbation import PerturbConfig, evaluate_pair, perturb_batch
from .scorer import (SUPERVISED_LOSSES, LossPipeline, MlpSpec, ScorerState,
                     TrainConfig, forward, init_scorer, init_svdd_center, train)
from .segmentation import SsimConfig, fcdd_heatmap, gaussian_upsample
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
        if self.epsilon < 0:
            raise ConfigError("epsilon must be nonnegative")
        if self.bins < 1:
            raise ConfigError(f"need at least one bin, got {self.bins}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning rate must be nonnegative, got {self.learning_rate}")

    @property
    def method_label(self) -> str:
        return METHOD_LABELS[(self.calibrator, self.anomaly_source)]

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["seeds"] = list(self.seeds)
        doc["milestones"] = list(self.milestones)
        return doc


_CONFIG_FIELDS = set(ExperimentConfig.__dataclass_fields__)


def load_config_file(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    unknown = set(doc) - _CONFIG_FIELDS
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
        if key in merged:
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


def prepare_resize(shape_in, shape_out):
    """Resize-then-crop protocol stub.

    Desk-scale tiles need no resizing, so only shape agreement is
    validated here; an actual resize request is rejected.
    """
    if tuple(shape_in) == tuple(shape_out):
        return tuple(shape_out)
    raise DataError(
        f"resizing {tuple(shape_in)} -> {tuple(shape_out)} is not supported at "
        "desk scale; provide inputs at the target shape")


# -- data loading -------------------------------------------------------


def _load_dataset(cfg: ExperimentConfig):
    name = cfg.normal
    if name == "builtin:gauss2d":
        return {"kind": "detection", "class_id": "gauss2d",
                "data": gaussian_ring(DATA_SEED)}
    if name == "builtin:gauss2d-basin":
        return {"kind": "detection", "class_id": "gauss2d-basin",
                "data": gaussian_ring(DATA_SEED, basin=True)}
    if name == "builtin:tiles":
        return {"kind": "tiles", "class_id": "tiles",
                "data": textured_tiles(DATA_SEED)}
    path = Path(name)
    if path.is_dir():
        return _dir_dataset(path, cfg.masks_dir)
    if path.suffix == ".csv" and path.exists():
        try:
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"cannot read normal data from {path}: {exc}") from exc
        if len(rows) < 2:
            raise DataError(f"{path}: need at least two rows of normal data, "
                            f"got {len(rows)}")
        n_test = max(1, len(rows) // 5)
        return {"kind": "detection", "class_id": path.stem,
                "data": _csv_detection(rows, n_test)}
    raise DataError(f"cannot read normal data from {name!r}; expected a CSV file, "
                    f"a directory of raw tensors, or one of {BUILTIN_DATASETS}")


def _dir_dataset(normal_dir: Path, masks_dir):
    """Training images from a raw-tensor directory; with a masks directory,
    the test set is its <name>.calt images paired with <name>.pgm masks."""
    from .datasets import TileData
    from .tensorio import read_pgm

    train_files = sorted(normal_dir.glob("*.calt"))
    if not train_files:
        raise DataError(f"no raw-tensor files under {normal_dir}")
    train = [load_tensor(f) for f in train_files]
    for f, img in zip(train_files, train):
        if img.shape != train[0].shape:
            raise DataError(f"{f}: shape {img.shape} differs from {train_files[0]}'s "
                            f"{train[0].shape}")
    train = np.stack(train)
    if train.ndim == 3:  # (n, h, w) -> single channel
        train = train[:, None]
    if masks_dir is None:
        raise DataError(
            f"{normal_dir} holds image tensors; provide a masks directory with "
            "the test images and their PGM masks")
    masks_path = Path(masks_dir)
    test_files = sorted(masks_path.glob("*.calt"))
    if not test_files:
        raise DataError(f"no test images under {masks_dir}")
    test_imgs, masks = [], []
    for f in test_files:
        img = load_tensor(f)
        test_imgs.append(img if img.ndim == 3 else img[None])
        mask_file = f.with_suffix(".pgm")
        if not mask_file.exists():
            raise DataError(f"missing mask {mask_file}")
        masks.append(read_pgm(mask_file))
    shape = train.shape[-2:]
    for img, mask in zip(test_imgs, masks):
        prepare_resize(img.shape[-2:], shape)
        prepare_resize(mask.shape, shape)
    data = TileData(train_images=train, test_images=np.stack(test_imgs),
                    test_masks=np.stack(masks))
    return {"kind": "tiles", "class_id": normal_dir.name, "data": data}


def _csv_detection(rows, n_test):
    from .datasets import DetectionData

    # the last fifth is held out as test normals; ring anomalies are synthesized
    rng = np.random.default_rng(DATA_SEED)
    train, test = rows[:-n_test], rows[-n_test:]
    scale = np.abs(train).max() * 2.0 + 1.0
    angles = rng.uniform(0, 2 * np.pi, n_test)
    anoms = scale * np.column_stack([np.cos(angles), np.sin(angles)])[:, :rows.shape[1]]
    if anoms.shape[1] < rows.shape[1]:
        anoms = np.pad(anoms, ((0, 0), (0, rows.shape[1] - anoms.shape[1])))
    return DetectionData(train_normal=train, test_normal=test,
                         test_anomalous=anoms)


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


class _TestSet(NamedTuple):
    """Seed-independent test inputs: raw rows with normals first."""
    x: np.ndarray
    y: np.ndarray                 # 0 normal, 1 anomalous
    masks: Optional[np.ndarray]   # tiles only, aligned with the rows


def _normal_and_test(dataset):
    """Raw normal training rows and the test set of a loaded dataset."""
    data = dataset["data"]
    if dataset["kind"] == "detection":
        x = np.concatenate([data.test_normal, data.test_anomalous])
        y = np.concatenate([np.zeros(len(data.test_normal)),
                            np.ones(len(data.test_anomalous))])
        return data.train_normal, _TestSet(x, y, None)
    anomalous = data.test_masks.sum(axis=(1, 2)) > 0
    order = np.argsort(anomalous, kind="stable")  # normal tiles first
    test = _TestSet(data.test_images[order].reshape(len(order), -1),
                   anomalous[order].astype(float), data.test_masks[order])
    return data.train_images.reshape(len(data.train_images), -1), test


def _image_shape(dataset):
    """(h, w) of a tile dataset; None for tabular rows."""
    if dataset["kind"] == "tiles":
        return dataset["data"].train_images.shape[-2:]
    return None


# -- synthetic anomaly pools ---------------------------------------------


def _spectral_tabular(n: int, d: int, seed: int, box_lo, box_hi) -> np.ndarray:
    """Spectral pixels reshaped into d-wide rows, mapped onto an expanded
    bounding box of the (normalized) training data."""
    side = max(16, math.isqrt(d - 1) + 1)  # every image holds at least one row
    per_image = (side * side) // d
    n_images = int(np.ceil(n / per_image))
    images, _ = synthesize_batch(SpectralConfig(side, side, seed=seed), n_images)
    flat = images.reshape(n_images, -1)[:, : per_image * d].reshape(-1, d)[:n]
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    pad = 0.5 * (hi - lo)
    return (lo - pad) + flat * (hi - lo + 2 * pad)


def _anomaly_pools(cfg: ExperimentConfig, dataset, seed: int, stats,
                   n_each: int):
    """Three disjoint normalized pools: training, calibration, evaluation."""
    if cfg.anomaly_source == "oe":
        pool = _load_oe_dir(cfg.oe_dir)
        if len(pool) < 3:
            raise DataError("OE pool must hold at least three samples")
        perm = np.random.default_rng(seed + 101).permutation(len(pool))
        thirds = np.array_split(perm, 3)
        parts = [normalize(pool[t], stats) for t in thirds]
        return {"train": parts[0], "calib": parts[1], "eval": parts[2]}
    # spectral
    image_shape = _image_shape(dataset)
    if image_shape is not None:
        h, w = image_shape
        pools = {}
        for i, key in enumerate(("train", "calib", "eval")):
            images, _ = synthesize_batch(
                SpectralConfig(h, w, seed=seed * 3 + 211 + i), n_each)
            pools[key] = normalize(images.reshape(n_each, -1), stats)
        return pools
    mu, sd = stats
    d = len(np.atleast_1d(mu))
    box_lo = np.full(d, -2.5)
    box_hi = np.full(d, 2.5)
    return {key: _spectral_tabular(n_each, d, seed * 3 + 211 + i, box_lo, box_hi)
            for i, key in enumerate(("train", "calib", "eval"))}


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
                image_shape=None, ssim_cfg=None):
    state = init_scorer(_scorer_spec(cfg.loss, x_train.shape[1]), seed=seed)
    if cfg.loss in SUPERVISED_LOSSES:
        data = np.concatenate([x_train, anoms_train])
        labels = np.concatenate([np.zeros(len(x_train)), np.ones(len(anoms_train))])
    else:
        data, labels = x_train, None
    tc = TrainConfig(loss=cfg.loss, learning_rate=cfg.learning_rate,
                     milestones=cfg.milestones, epochs=cfg.epochs,
                     batch_size=cfg.batch_size, seed=seed)
    center = None
    if cfg.loss == "svdd":
        center = init_svdd_center(state, x_train)
    trained = train(state, data, labels, tc, center=center,
                    ssim_cfg=ssim_cfg, image_shape=image_shape)
    return trained, center


def _head_trunk(state: ScorerState, loss: str) -> ScorerState:
    """Frozen scorer under the calibration head; logistic and ssim scorers
    drop their output layer."""
    if loss not in ("logistic", "ssim"):
        trunk = state.copy()
        trunk.frozen = [True] * trunk.n_layers
        return trunk
    spec = MlpSpec(state.spec.widths[:-1], use_bias=state.spec.use_bias)
    return ScorerState(spec, [w.copy() for w in state.weights[:-1]],
                       [None if b is None else b.copy() for b in state.biases[:-1]],
                       [True] * (state.n_layers - 1))


def _fit_calibrator(cfg: ExperimentConfig, base: LossPipeline, cal_x, cal_y,
                    seed: int):
    """Fit cfg.calibrator to the uncalibrated pipeline; (params, digest)."""
    opt = OptimizerConfig(seed=seed)
    if cfg.calibrator == "head":
        feats = forward(_head_trunk(base.state, cfg.loss), cal_x)
        return fit_head(feats, cal_y, opt), fitting_digest(feats, cal_y)
    if base.image_shape is not None:
        # per-pixel calibration pools the pixel logits of the tiles
        est = _pixel_estimates(base, _tile_heatmaps(base, cal_x))
        est = est.reshape(len(cal_x), -1)
        z = logit(clamp_probability(est)).ravel()
        cal_y = np.repeat(cal_y, est.shape[1])
    else:
        z = base.logits(cal_x)
    if cfg.calibrator == "platt":
        return fit_platt(z, cal_y, opt), fitting_digest(z, cal_y)
    e = sigmoid(z)
    return fit_beta(e, cal_y, opt), fitting_digest(e, cal_y)


# -- evaluation ------------------------------------------------------------


def _detection_row(cfg, method, class_id, pipeline, x_test, y_test,
                   x_eval_normal, x_eval_anom):
    pair = evaluate_pair(pipeline, x_test, y_test, PerturbConfig(epsilon=cfg.epsilon))
    xe = np.concatenate([x_eval_normal, x_eval_anom])
    ye = np.concatenate([np.zeros(len(x_eval_normal)), np.ones(len(x_eval_anom))])
    hist = reliability(pipeline.calibrated(xe)[1], ye, cfg.bins)
    row = {
        "class_id": class_id,
        "method": method,
        "auroc": pair.auroc_before,
        "auroc_perturbed": pair.auroc_after,
        "mce": mce(hist),
        "ece": ece(hist),
    }
    return row, hist, pair.deltas


def _tile_heatmaps(pipeline: LossPipeline, x):
    if pipeline.loss_name == "ssim":
        return pipeline._ssim_forward(x)[0].estimates
    # fcdd: feature map -> pseudo-Huber heatmap -> Gaussian upsample
    h, w = pipeline.image_shape
    out = forward(pipeline.state, np.atleast_2d(x))
    side = int(np.sqrt(out.shape[1]))
    stride = h // side
    amaps = fcdd_heatmap(out.reshape(len(out), side, side))
    return gaussian_upsample(amaps, h, w, sigma=float(stride))


def _pixel_estimates(pipeline: LossPipeline, heatmaps):
    if pipeline.loss_name == "ssim":
        est = heatmaps
    else:
        est = -np.expm1(-heatmaps)
    if pipeline.calibrator is None:
        return est
    zc, _ = calibrated_logit(pipeline.calibrator, logit(clamp_probability(est)))
    return sigmoid(zc)


def _tiles_row(cfg, method, class_id, pipeline, x_test, y_test, masks,
               x_eval_normal, x_eval_anom):
    perturb_cfg = PerturbConfig(epsilon=cfg.epsilon)
    pair = evaluate_pair(pipeline, x_test, y_test, perturb_cfg)
    maps_before = _tile_heatmaps(pipeline, x_test)
    x_tilde = perturb_batch(pipeline, x_test, perturb_cfg)
    maps_after = _tile_heatmaps(pipeline, x_tilde)
    # per-pixel calibration metrics on normal test tiles plus synthetic tiles
    n_eval = min(len(x_eval_normal), len(x_eval_anom))
    eval_x = np.concatenate([x_eval_normal[:n_eval], x_eval_anom[:n_eval]])
    eval_maps = _tile_heatmaps(pipeline, eval_x)
    eval_eta = _pixel_estimates(pipeline, eval_maps).reshape(2 * n_eval, -1)
    eval_y = np.concatenate([np.zeros((n_eval, eval_eta.shape[1])),
                             np.ones((n_eval, eval_eta.shape[1]))])
    hist = reliability(eval_eta.ravel(), eval_y.ravel(), cfg.bins)
    row = {
        "class_id": class_id,
        "method": method,
        "auroc": pair.auroc_before,
        "auroc_perturbed": pair.auroc_after,
        "mce": mce(hist),
        "ece": ece(hist),
        "aupro": aupro(list(maps_before), list(masks)),
        "aupro_perturbed": aupro(list(maps_after), list(masks)),
        "pixel_auroc": pixel_auroc(list(maps_before), list(masks)),
        "pixel_auroc_perturbed": pixel_auroc(list(maps_after), list(masks)),
    }
    return row, hist, pair.deltas, maps_before


# -- the runner -------------------------------------------------------------


@dataclass
class RunResult:
    summary_rows: list
    per_seed_rows: list
    out_dir: Path
    histograms: dict = field(default_factory=dict)
    calibrators: dict = field(default_factory=dict)


class _Arm(NamedTuple):
    """One method evaluated on one seed."""
    row: dict
    hist: ReliabilityHistogram
    deltas: np.ndarray
    calibrator: Optional[tuple]   # (params, digest) when one was fitted
    pipeline: LossPipeline
    heatmaps: Optional[np.ndarray]  # test-set heatmaps of localization runs


def _run_arm(cfg: ExperimentConfig, dataset, test: _TestSet, localization: bool,
             seed: int, normal, calib=None) -> _Arm:
    """Normalize with `normal`'s statistics, draw anomaly pools, train the
    base scorer on `normal`, fit cfg.calibrator on `calib` if given, and
    evaluate on the test set. Without `calib` this is the fully trained
    baseline."""
    method = BASELINE if calib is None else cfg.method_label
    image_shape = _image_shape(dataset)
    stats = fit_normalizer(normal)
    n_each = max(64, len(normal) // 2 if calib is None else len(calib))
    pools = _anomaly_pools(cfg, dataset, seed, stats, n_each=n_each)
    x_train = normalize(normal, stats)
    x_test = normalize(test.x, stats)
    ssim_cfg = None
    if image_shape is not None:
        ssim_cfg = SsimConfig(pad_value=float(x_train.mean()))
    state, center = _train_base(cfg, x_train, pools["train"], seed,
                                image_shape, ssim_cfg)
    pipeline = LossPipeline(state, cfg.loss, center=center, ssim_cfg=ssim_cfg,
                            image_shape=image_shape)
    fitted = None
    if calib is not None:
        x_cal = normalize(calib, stats)
        n_cal = min(len(x_cal), len(pools["calib"]))
        cal_x = np.concatenate([x_cal[:n_cal], pools["calib"][:n_cal]])
        cal_y = np.concatenate([np.zeros(n_cal), np.ones(n_cal)])
        fitted = _fit_calibrator(cfg, pipeline, cal_x, cal_y, seed)
        if cfg.calibrator == "head":
            pipeline = LossPipeline(_head_trunk(state, cfg.loss), "logistic",
                                    head=fitted[0])
        else:
            pipeline = LossPipeline(state, cfg.loss, center=center,
                                    calibrator=fitted[0], ssim_cfg=ssim_cfg,
                                    image_shape=image_shape)
    x_normal = x_test[test.y == 0]
    n_eval = min(len(x_normal), len(pools["eval"]))
    evals = (x_normal[:n_eval], pools["eval"][:n_eval])
    if localization:
        row, hist, deltas, heatmaps = _tiles_row(
            cfg, method, dataset["class_id"], pipeline, x_test, test.y, test.masks,
            *evals)
    else:
        row, hist, deltas = _detection_row(cfg, method, dataset["class_id"],
                                           pipeline, x_test, test.y, *evals)
        heatmaps = None
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
    localization = dataset["kind"] == "tiles" and cfg.calibrator != "head"
    normal, test = _normal_and_test(dataset)
    per_seed, deltas, first = [], {}, None
    for seed in cfg.seeds:
        arms = [_run_arm(cfg, dataset, test, localization, seed, normal)]
        if cfg.calibrator != "none":
            arms.append(_run_arm(cfg, dataset, test, localization, seed,
                                 *split(normal, cfg.split_ratio, seed)))
        for arm in arms:
            per_seed.append({"seed": seed, **arm.row})
            deltas[(seed, arm.row["method"])] = arm.deltas
        first = first or arms  # the first seed's arms back the figures
    histograms = {arm.row["method"]: arm.hist for arm in first}
    calibrators = {arm.row["method"]: arm.calibrator for arm in first
                   if arm.calibrator is not None}
    summary = aggregate(per_seed)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_reports(cfg, summary, per_seed, histograms, calibrators,
                 deltas, out_dir, localization)
    _emit_artifacts(cfg, first, out_dir)
    return RunResult(summary_rows=summary, per_seed_rows=per_seed,
                     out_dir=out_dir, histograms=histograms,
                     calibrators=calibrators)


def _slug(method: str) -> str:
    return method.replace(" ", "_").replace("β", "beta").lower()


def _emit_artifacts(cfg, arms, out_dir: Path) -> None:
    """First-seed scorer checkpoints and, for localization runs, heatmaps."""
    from .scorer import save_scorer
    from .tensorio import save_tensor

    for arm in arms:
        slug = _slug(arm.row["method"])
        save_scorer(out_dir / f"scorer_{slug}_seed{cfg.seeds[0]}",
                    arm.pipeline.state,
                    {"seed": cfg.seeds[0], "epoch": cfg.epochs, "loss": cfg.loss})
        if arm.heatmaps is not None:
            save_tensor(out_dir / f"heatmaps_{slug}_seed{cfg.seeds[0]}.calt",
                        arm.heatmaps)


CONVENTIONS = {
    "aupro": "per-region overlap vs FPR, all thresholds, trapezoid to the cap, "
             "normalized by the cap",
    "aupro_fpr_cap": 0.3,
    "region_connectivity": 4,
    "tie_handling": "midranks",
    "perturbation_label": 0,
    "upsample_geometry": "stride = out/in, kernel 4*stride+1, sigma = stride",
}


def emit_reports(cfg, summary, per_seed, histograms, calibrators, deltas,
                 out_dir: Path, localization: bool) -> None:
    from . import __version__

    reports.write_rows_csv(out_dir / "summary.csv", summary, localization)
    reports.write_rows_csv(out_dir / "per_seed.csv", per_seed, localization)
    conventions = dict(CONVENTIONS)
    conventions["bins"] = cfg.bins
    conventions["library_version"] = __version__
    reports.write_manifest(out_dir / "manifest.json", cfg.to_dict(), conventions)
    for method, hist in histograms.items():
        svg = reports.reliability_diagram_svg(hist, ece(hist), mce(hist), method)
        (out_dir / f"reliability_{_slug(method)}.svg").write_text(svg)
    for method, (params, digest) in calibrators.items():
        slug = _slug(method)
        svg = reports.calibrator_curve_svg(params, method)
        (out_dir / f"calibrator_{slug}.svg").write_text(svg)
        save_calibrator(out_dir / f"calibrator_{slug}.txt", params,
                        cfg.seeds[0], digest)
    for (seed, method), dl in deltas.items():
        reports.write_deltas_csv(out_dir / f"deltas_{_slug(method)}_seed{seed}.csv", dl)
