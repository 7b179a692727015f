"""Small differentiable scoring models with explicit gradients.

Models are bias-optional tanh MLPs over flat inputs, so input gradients
are defined everywhere. A ``LossPipeline`` composes a model with a score
head (squared distance to a hypersphere center, pseudo-Huber norm, raw
logit, feature heatmap, or SSIM reconstruction), an optional post-hoc
calibrator, and a core loss, and exposes the three gradient contracts:
forward value, parameter gradient, and input gradient. All gradients are
exact reverse-mode; finite differences are used only in tests.

Training steps a scorer's flat parameter vector in place with Adam, the
learning rate scaled by ``MILESTONE_DECAY`` at each milestone,
class-balanced batches for supervised losses, and full determinism under
the config seed.
"""

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .calibration import HeadParams, calibrated_logit
from .errors import DataError, NumericalError
from .losses import (EPS_CLAMP, clamp_probability, hsc_loss, logistic_loss,
                     pseudo_huber, sigmoid)
from .segmentation import SsimConfig, ssim_loss, ssim_map_backward

logger = logging.getLogger(__name__)

SUPERVISED_LOSSES = {"logistic", "hsc", "fcdd"}
UNSUPERVISED_LOSSES = {"svdd", "ssim"}

MILESTONE_DECAY = 0.1  # learning-rate factor per milestone passed


@dataclass(frozen=True)
class MlpSpec:
    widths: tuple
    use_bias: bool = True
    init_gain: float = 1.0

    def __post_init__(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError("widths must list at least input and output sizes >= 1")
        if self.init_gain <= 0:
            raise ValueError("init gain must be positive")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    milestones: tuple = ()
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if list(self.milestones) != sorted(self.milestones):
            raise ValueError("milestones must be sorted")


def _layer_views(spec: MlpSpec, flat: np.ndarray):
    """Per-layer weight and bias views into flat (None for a bias-free
    spec), laid out layer by layer: the row-major weight, then the bias."""
    shapes = [(fan_in, fan_out, fan_out if spec.use_bias else 0)
              for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:])]
    size = sum(fan_in * fan_out + n_bias for fan_in, fan_out, n_bias in shapes)
    if flat.shape != (size,):
        raise ValueError(f"flat vector of shape {flat.shape} does not hold the "
                         f"{size} parameters of widths {spec.widths}")
    weights, biases, pos = [], [], 0
    for fan_in, fan_out, n_bias in shapes:
        weights.append(flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(flat[pos:pos + n_bias] if n_bias else None)
        pos += n_bias
    return weights, biases


class ScorerState:
    """MLP parameters in one flat float64 vector.

    ``weights`` and ``biases`` are per-layer views into ``flat``, so an
    update of ``flat`` in place moves the model, and ``flat`` is what
    checkpoints store.
    """

    def __init__(self, spec: MlpSpec, flat):
        self.spec = spec
        self.flat = np.array(flat, dtype=float)
        self.weights, self.biases = _layer_views(spec, self.flat)

    @property
    def n_layers(self) -> int:
        return len(self.spec.widths) - 1


def init_scorer(spec: MlpSpec, seed: int = 0) -> ScorerState:
    """Seeded uniform fan-in initialization, scaled by the spec's gain."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        bound = spec.init_gain / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, fan_in * fan_out))
        if spec.use_bias:
            parts.append(rng.uniform(-bound, bound, fan_out))
    return ScorerState(spec, np.concatenate(parts))


def forward(state: ScorerState, x) -> np.ndarray:
    """Deterministic forward pass; accepts one sample or a batch."""
    out, _ = _forward_cache(state, x)
    return out


def _forward_cache(state, x):
    """Forward pass over an (n, d) batch keeping each layer's (input,
    pre-activation)."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.shape[1] != state.spec.widths[0]:
        raise ValueError(
            f"input width {a.shape[1]} does not match spec width {state.spec.widths[0]}")
    caches = []
    last = state.n_layers - 1
    for i, (w, b) in enumerate(zip(state.weights, state.biases)):
        z = a @ w
        if b is not None:
            z = z + b
        caches.append((a, z))
        a = np.tanh(z) if i < last else z
    return a, caches


def _backprop(state, caches, d_out, params: bool):
    """Gradient of sum(d_out * output): with `params`, wrt the parameters,
    summed over the batch into a vector laid out like state.flat;
    otherwise wrt each input row, and no parameter gradient is formed."""
    g = np.asarray(d_out, dtype=float)
    if params:
        grad = np.zeros_like(state.flat)
        w_grads, b_grads = _layer_views(state.spec, grad)
    last = state.n_layers - 1
    for i in range(last, -1, -1):
        a_in, z = caches[i]
        dz = g if i == last else g * (1.0 - np.tanh(z) ** 2)
        if params:
            w_grads[i][...] = a_in.T @ dz
            if b_grads[i] is not None:
                b_grads[i][...] = dz.sum(axis=0)
        if i or not params:  # below layer 0 is the input gradient, unused in training
            g = dz @ state.weights[i].T
    return grad if params else g


def init_svdd_center(state: ScorerState, inputs) -> np.ndarray:
    """Mean embedding of an initial forward pass over the training data.

    A near-zero mean would invite hypersphere collapse, so it is rejected
    with instructions to re-initialize.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if len(x) == 0:
        raise DataError("need at least one training input for the center")
    center = forward(state, x).mean(axis=0)
    if np.linalg.norm(center) < 1e-6:
        raise NumericalError(
            "hypersphere center is numerically zero; re-initialize the scorer "
            "with a different seed or recheck the training data")
    return center


class LossPipeline:
    """Scorer plus score head, optional calibrator, and a core loss.

    Every method reads one chain: rows -> raw score v -> logit z ->
    calibrated logit -> loss. ``loss_name`` selects the head: "logistic"
    reads a scalar logit, "svdd" squares the distance to ``center``, "hsc"
    takes the pseudo-Huber of the squared norm, "fcdd" averages a
    pseudo-Huber feature heatmap, and "ssim" is the mean of 1 - S between
    the input image and its reconstruction. With a calibrator attached the
    loss is the logistic loss of the calibrated logit, so gradients flow
    through the calibrator; otherwise it is the base loss of v. Pixels
    take the same chain from ``score_map``: ``link`` and ``calibrate``
    accept raw scores and logits of any shape.
    """

    def __init__(self, state: ScorerState, loss_name: str, center=None,
                 calibrator=None, ssim_cfg: Optional[SsimConfig] = None,
                 image_shape=None, head: Optional[HeadParams] = None):
        if loss_name not in SUPERVISED_LOSSES | UNSUPERVISED_LOSSES:
            raise ValueError(f"unknown loss {loss_name!r}")
        if head is not None and loss_name != "logistic":
            raise ValueError("a calibration head implies a logistic pipeline")
        if head is None and loss_name == "logistic" and state.spec.widths[-1] != 1:
            raise ValueError("a logistic pipeline needs a scalar-output scorer")
        if loss_name == "svdd":
            if center is None:
                raise ValueError("svdd pipeline needs a hypersphere center")
            if state.spec.use_bias:
                raise ValueError("svdd requires a bias-free scorer")
        if loss_name == "ssim":
            if image_shape is None:
                raise ValueError("ssim pipeline needs the image shape")
            ssim_cfg = ssim_cfg or SsimConfig()
        self.state = state
        self.loss_name = loss_name
        self.center = None if center is None else np.asarray(center, dtype=float)
        self.calibrator = calibrator
        self.ssim_cfg = ssim_cfg
        self.image_shape = image_shape
        self.head = head

    # -- the chain -------------------------------------------------------

    def _scores(self, x):
        """Per-row raw score v, (n,), the MLP caches, and what the backward
        pass needs: dv/d(output), (n, k), or for ssim the stacked SsimLoss."""
        if self.loss_name == "ssim":
            res, caches = self._ssim_forward(x)
            return res.loss, caches, res
        out, caches = _forward_cache(self.state, x)
        if self.head is not None:
            w = np.asarray(self.head.weights, dtype=float)
            return out @ w + self.head.bias, caches, np.broadcast_to(w, out.shape)
        if self.loss_name == "logistic":
            return out[:, 0], caches, np.ones_like(out)
        if self.loss_name == "svdd":
            diff = out - self.center
            return np.sum(diff * diff, axis=-1), caches, 2.0 * diff
        if self.loss_name == "hsc":
            sq = np.sum(out * out, axis=-1)
            return pseudo_huber(sq), caches, 2.0 * out * (0.5 / np.sqrt(sq + 1.0))[:, None]
        root = np.sqrt(out * out + 1.0)  # fcdd
        return np.mean(root - 1.0, axis=-1), caches, out / (root * out.shape[-1])

    def _ssim_forward(self, x):
        """SSIM of every row's image against its reconstruction: the
        stacked SsimLoss (per-row losses, (n, h, w) maps and window terms)
        and the caches of the MLP pass."""
        rows = np.atleast_2d(np.asarray(x, dtype=float))
        shape = (len(rows),) + tuple(self.image_shape)
        recon, caches = _forward_cache(self.state, rows)
        return ssim_loss(rows.reshape(shape), recon.reshape(shape), self.ssim_cfg), caches

    def link(self, v):
        """Logit of raw scores v of any shape, row scores or a score map's
        pixels, and d(logit)/dv."""
        name = self.loss_name
        if name in ("logistic", "svdd"):
            return v, np.ones_like(v)
        if name == "ssim":
            # v / 2 = (1 - S) / 2 maps the similarity S in [-1, 1] into [0, 1]
            e = clamp_probability(v / 2.0)
            return np.log(e) - np.log1p(-e), 0.5 / (e * (1.0 - e))
        # hsc / fcdd: estimate 1 - e^-v through the exponential link
        raw = -np.expm1(-v)
        u = clamp_probability(raw)
        z = np.log(u) - np.log1p(-u)
        inside = (raw > EPS_CLAMP) & (raw < 1.0 - EPS_CLAMP)
        return z, np.where(inside, 1.0 / u, 0.0)

    def _loss(self, v, y):
        """Per-row loss and dloss/dv."""
        if self.calibrator is not None:
            z, dz_dv = self.link(v)
            zc, dzc_dz = calibrated_logit(self.calibrator, z)
            return logistic_loss(y, zc), (sigmoid(zc) - y) * dzc_dz * dz_dv
        if self.loss_name == "logistic":
            return logistic_loss(y, v), sigmoid(v) - y
        if self.loss_name in ("svdd", "ssim"):
            return v, np.ones_like(v)
        # hsc / fcdd base loss
        dl = -y * np.exp(-v) / np.maximum(-np.expm1(-v), EPS_CLAMP) + (1.0 - y)
        return hsc_loss(y, v), dl

    # -- evaluation ------------------------------------------------------

    def scores(self, x) -> np.ndarray:
        """Anomaly scores: the raw score v."""
        return self._scores(x)[0]

    def score_map(self, x) -> np.ndarray:
        """Per-pixel raw scores whose per-row mean is scores(x): 1 - S
        for ssim, (n, h, w); for fcdd the pseudo-Huber sqrt(f^2 + 1) - 1
        of each feature cell f, (n, side, side)."""
        if self.loss_name == "ssim":
            return 1.0 - self._ssim_forward(x)[0].similarity
        if self.loss_name != "fcdd":
            raise ValueError(f"loss {self.loss_name!r} gives no score map")
        out = forward(self.state, x)
        side = int(np.sqrt(out.shape[1]))
        return pseudo_huber(out * out).reshape(len(out), side, side)

    def logits(self, x) -> np.ndarray:
        return self.link(self._scores(x)[0])[0]

    def calibrate(self, z):
        """(calibrated logit, calibrated estimate) of logits z of any shape."""
        if self.calibrator is not None:
            z, _ = calibrated_logit(self.calibrator, z)
        return z, sigmoid(z)

    # -- losses and gradients --------------------------------------------

    def loss_values(self, x, y) -> np.ndarray:
        """Per-sample pipeline loss for a batch."""
        v = self._scores(x)[0]
        return self._loss(v, _labels(y, v))[0]

    def _loss_and_output_grad(self, x, y):
        """Per-row losses, the MLP caches, dloss/d(output) per row, and the
        loss's direct input term (the ssim image side; None otherwise)."""
        v, caches, back = self._scores(x)
        loss, dl_dv = self._loss(v, _labels(y, v))
        if self.loss_name != "ssim":
            return loss, caches, dl_dv[:, None] * back, None
        n, h, w = back.q.shape
        # v is the mean of 1 - S over the h * w pixels
        ds = np.broadcast_to((-dl_dv / (h * w))[:, None, None], (n, h, w))
        direct, drecon = ssim_map_backward(back, ds, self.ssim_cfg)
        return loss, caches, drecon.reshape(n, h * w), direct.reshape(n, h * w)

    def loss_and_input_grad(self, x, y):
        """Loss and its exact gradient with respect to the input: a float
        and a (d,) gradient for one input, per-row (n,) losses and (n, d)
        gradients for a batch."""
        x = np.asarray(x, dtype=float)
        loss, caches, d_out, direct = self._loss_and_output_grad(x, y)
        d_in = _backprop(self.state, caches, d_out, params=False)
        if direct is not None:
            d_in = direct + d_in
        if x.ndim == 1:
            return float(loss[0]), d_in[0]
        return loss, d_in

    def loss_and_param_grad(self, x, y):
        """Mean loss over a batch and its flat parameter gradient."""
        loss, caches, d_out, _ = self._loss_and_output_grad(x, y)
        grad = _backprop(self.state, caches, d_out / len(loss), params=True)
        return float(np.mean(loss)), grad


def _labels(y, v):
    """Labels as floats broadcast to one per row of v."""
    return np.broadcast_to(np.asarray(y, dtype=float), v.shape)


class _Adam:
    def __init__(self, n, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self._a = np.empty(n)
        self._b = np.empty(n)

    def step(self, params, grad, lr_scale=1.0):
        """Update params, m and v in place."""
        self.t += 1
        a, b = self._a, self._b
        # m = beta1 * m + (1 - beta1) * grad
        self.m *= self.beta1
        self.m += np.multiply(1 - self.beta1, grad, out=a)
        # v = beta2 * v + (1 - beta2) * grad * grad
        self.v *= self.beta2
        np.multiply(1 - self.beta2, grad, out=a)
        self.v += np.multiply(a, grad, out=a)
        # params -= lr * lr_scale * mhat / (sqrt(vhat) + eps)
        np.divide(self.m, 1 - self.beta1 ** self.t, out=a)
        a *= self.lr * lr_scale
        np.divide(self.v, 1 - self.beta2 ** self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        params -= np.divide(a, b, out=a)


def train(pipeline: LossPipeline, x, labels, cfg: TrainConfig) -> None:
    """Train pipeline.state in place on the pipeline's loss.

    Supervised losses require both classes and draw class-balanced batches,
    resampling the anomalous stream each epoch under the run seed.
    Unsupervised losses iterate over the normal data alone. Per-epoch mean
    losses go to the module logger. A non-finite batch loss, or parameters
    that end non-finite, mean training diverged: a NumericalError.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    name = pipeline.loss_name
    supervised = name in SUPERVISED_LOSSES
    if supervised:
        if labels is None:
            raise DataError(f"loss {name!r} requires labels")
        labels = np.asarray(labels)
        if not (np.any(labels == 0) and np.any(labels == 1)):
            raise DataError(f"loss {name!r} requires both classes in training data")
        normal_idx, anom_idx = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
        step = max(1, cfg.batch_size // 2)
    else:
        normal_idx, anom_idx, step = np.arange(len(x)), None, cfg.batch_size
    rng = np.random.default_rng(cfg.seed)
    adam = _Adam(pipeline.state.flat.size, cfg.learning_rate)

    for epoch in range(cfg.epochs):
        lr_scale = MILESTONE_DECAY ** sum(1 for m in cfg.milestones if epoch >= m)
        epoch_loss = 0.0
        n_batches = 0
        order = rng.permutation(normal_idx)
        # a supervised batch pairs each normal row with a resampled anomaly
        resampled = (rng.choice(anom_idx, size=len(order), replace=True)
                     if supervised else order[:0])
        for start in range(0, len(order), step):
            normal, anomalous = order[start:start + step], resampled[start:start + step]
            yb = np.concatenate([np.zeros(len(normal)), np.ones(len(anomalous))])
            loss, grad = pipeline.loss_and_param_grad(
                x[np.concatenate([normal, anomalous])], yb)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"training diverged: a batch loss of epoch {epoch} is {loss}; "
                    "lower the learning rate")
            adam.step(pipeline.state.flat, grad, lr_scale)
            epoch_loss += loss
            n_batches += 1
        logger.info("epoch %d: mean training loss %.6f", epoch,
                    epoch_loss / max(1, n_batches))
    if not np.all(np.isfinite(pipeline.state.flat)):
        raise NumericalError("training diverged: the trained parameters are not "
                             "all finite; lower the learning rate")


def save_scorer(path, state: ScorerState, manifest: dict) -> None:
    """Checkpoint the flat parameter vector plus a JSON manifest."""
    from .tensorio import save_tensor

    base = Path(path)
    save_tensor(base.with_suffix(".calt"), state.flat)
    doc = dict(manifest)
    doc.update({
        "widths": list(state.spec.widths),
        "activation": "tanh",
        "use_bias": state.spec.use_bias,
    })
    base.with_suffix(".json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_scorer(path):
    """Load a checkpoint; returns (state, manifest). A damaged manifest, or
    a parameter vector that does not fit it, is a DataError naming the
    file. The per-layer "frozen" flags of older manifests are ignored."""
    from .tensorio import load_tensor

    base = Path(path)
    manifest, params = base.with_suffix(".json"), base.with_suffix(".calt")
    try:
        doc = json.loads(manifest.read_text())
        if doc["activation"] != "tanh":
            raise DataError(
                f"{manifest}: activation {doc['activation']!r}; only tanh scorers load")
        spec = MlpSpec(widths=tuple(doc["widths"]), use_bias=doc["use_bias"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{manifest}: not a scorer manifest: {exc!r}") from exc
    flat = load_tensor(params)
    try:
        return ScorerState(spec, flat), doc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{params} does not fit {manifest}: {exc}") from exc
