"""Small differentiable scoring models with explicit gradients.

Models are bias-optional tanh MLPs over flat inputs, so input gradients
are defined everywhere. A ``LossPipeline`` composes a model with a score
head (squared distance to a hypersphere center, pseudo-Huber norm, raw
logit, feature heatmap, or SSIM reconstruction), an optional post-hoc
calibrator, and a core loss, and exposes the three gradient contracts:
forward value, parameter gradient, and input gradient. All gradients are
exact reverse-mode; finite differences are used only in tests.

Training runs Adam with the learning rate scaled by ``MILESTONE_DECAY`` at
each milestone, class-balanced batches for supervised losses, and full
determinism under the config seed.
"""

import json
import logging
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
    loss: str = "svdd"
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


class ScorerState:
    """MLP parameters with per-layer freeze flags.

    Parameters live in per-layer weight/bias arrays; ``get_flat`` and
    ``set_flat`` expose the single flat vector used by checkpoints and by
    finite-difference probes.
    """

    def __init__(self, spec: MlpSpec, weights, biases, frozen=None):
        self.spec = spec
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [None if b is None else np.asarray(b, dtype=float)
                       for b in biases]
        self.frozen = list(frozen) if frozen is not None else [False] * len(weights)
        for i, w in enumerate(self.weights):
            if w.shape != (spec.widths[i], spec.widths[i + 1]):
                raise ValueError(f"layer {i} weight shape {w.shape} does not match spec")
            if spec.use_bias and self.biases[i].shape != (spec.widths[i + 1],):
                raise ValueError(f"layer {i} bias shape does not match spec")
            if not spec.use_bias and self.biases[i] is not None:
                raise ValueError("bias-free spec cannot carry bias parameters")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(
            b.size for b in self.biases if b is not None)

    def get_flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            if b is not None:
                parts.append(b.ravel())
        return np.concatenate(parts)

    def set_flat(self, flat) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.n_params():
            raise ValueError("flat vector length does not match parameter count")
        pos = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[pos:pos + w.size].reshape(w.shape).copy()
            pos += w.size
            if b is not None:
                self.biases[i] = flat[pos:pos + b.size].copy()
                pos += b.size

    def copy(self) -> "ScorerState":
        return ScorerState(self.spec, [w.copy() for w in self.weights],
                           [None if b is None else b.copy() for b in self.biases],
                           list(self.frozen))


def init_scorer(spec: MlpSpec, seed: int = 0) -> ScorerState:
    """Seeded uniform fan-in initialization, scaled by the spec's gain."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        bound = spec.init_gain / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, fan_out) if spec.use_bias else None)
    return ScorerState(spec, weights, biases)


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


def _backprop(state, caches, d_out):
    """Gradients of sum(d_out * output) wrt the parameters, summed over
    the batch, and wrt each input row."""
    g = np.asarray(d_out, dtype=float)
    w_grads = [None] * state.n_layers
    b_grads = [None] * state.n_layers
    last = state.n_layers - 1
    for i in range(last, -1, -1):
        a_in, z = caches[i]
        dz = g if i == last else g * (1.0 - np.tanh(z) ** 2)
        w_grads[i] = a_in.T @ dz
        if state.biases[i] is not None:
            b_grads[i] = dz.sum(axis=0)
        g = dz @ state.weights[i].T
    for i, frozen in enumerate(state.frozen):
        if frozen:
            w_grads[i] = np.zeros_like(w_grads[i])
            if b_grads[i] is not None:
                b_grads[i] = np.zeros_like(b_grads[i])
    return w_grads, b_grads, g


def _flatten_grads(state, w_grads, b_grads):
    parts = []
    for i in range(state.n_layers):
        parts.append(w_grads[i].ravel())
        if b_grads[i] is not None:
            parts.append(b_grads[i].ravel())
    return np.concatenate(parts)


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
    through the calibrator; otherwise it is the base loss of v.
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
        pass needs: dv/d(output), (n, k), or for ssim the (image,
        reconstruction) stacks."""
        if self.loss_name == "ssim":
            res, images, recon, caches = self._ssim_forward(x)
            return res.loss, caches, (images, recon)
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
        stacked SsimLoss (per-row losses, (n, h, w) maps), the (n, h, w)
        images and reconstructions, and the caches of the MLP pass."""
        rows = np.atleast_2d(np.asarray(x, dtype=float))
        shape = (len(rows),) + tuple(self.image_shape)
        recon, caches = _forward_cache(self.state, rows)
        images, recon = rows.reshape(shape), recon.reshape(shape)
        return ssim_loss(images, recon, self.ssim_cfg), images, recon, caches

    def _natural_logit(self, v):
        """Logit of the raw score and d(logit)/dv."""
        name = self.loss_name
        if name in ("logistic", "svdd"):
            return v, np.ones_like(v)
        if name == "ssim":
            # v / 2 is the mean pixel estimate (1 - S) / 2
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
            z, dz_dv = self._natural_logit(v)
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

    def logits(self, x) -> np.ndarray:
        return self._natural_logit(self._scores(x)[0])[0]

    def calibrated(self, x):
        """(calibrated logit, calibrated estimate) for a batch."""
        z = self.logits(x)
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
        images, recon = back
        n, h, w = recon.shape
        # v is the mean of 1 - S over the h * w pixels
        ds = np.broadcast_to((-dl_dv / (h * w))[:, None, None], (n, h, w))
        direct, drecon = ssim_map_backward(images, recon, ds, self.ssim_cfg)
        return loss, caches, drecon.reshape(n, h * w), direct.reshape(n, h * w)

    def loss_and_input_grad(self, x, y):
        """Loss and its exact gradient with respect to the input: a float
        and a (d,) gradient for one input, per-row (n,) losses and (n, d)
        gradients for a batch."""
        x = np.asarray(x, dtype=float)
        loss, caches, d_out, direct = self._loss_and_output_grad(x, y)
        _, _, d_in = _backprop(self.state, caches, d_out)
        if direct is not None:
            d_in = direct + d_in
        if x.ndim == 1:
            return float(loss[0]), d_in[0]
        return loss, d_in

    def loss_and_param_grad(self, x, y):
        """Mean loss over a batch and its flat parameter gradient."""
        loss, caches, d_out, _ = self._loss_and_output_grad(x, y)
        w_grads, b_grads, _ = _backprop(self.state, caches, d_out / len(loss))
        return float(np.mean(loss)), _flatten_grads(self.state, w_grads, b_grads)


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

    def step(self, params, grad, lr_scale=1.0):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        mhat = self.m / (1 - self.beta1 ** self.t)
        vhat = self.v / (1 - self.beta2 ** self.t)
        return params - self.lr * lr_scale * mhat / (np.sqrt(vhat) + self.eps)


def train(state: ScorerState, x, labels, cfg: TrainConfig,
          center=None, ssim_cfg=None, image_shape=None) -> ScorerState:
    """Train a copy of the state; the input state is left untouched.

    Supervised losses require both classes and draw class-balanced batches,
    resampling the anomalous stream each epoch under the run seed.
    Unsupervised losses iterate over the normal data alone. Returns the
    trained state; per-epoch mean losses go to the module logger.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    supervised = cfg.loss in SUPERVISED_LOSSES
    if supervised:
        if labels is None:
            raise DataError(f"loss {cfg.loss!r} requires labels")
        labels = np.asarray(labels)
        if not (np.any(labels == 0) and np.any(labels == 1)):
            raise DataError(f"loss {cfg.loss!r} requires both classes in training data")
    if cfg.loss == "svdd" and state.spec.use_bias:
        raise ValueError("svdd requires a bias-free scorer")

    new = state.copy()
    if cfg.loss == "svdd" and center is None:
        center = init_svdd_center(new, x)
    pipe = LossPipeline(new, cfg.loss, center=center, ssim_cfg=ssim_cfg,
                        image_shape=image_shape)
    rng = np.random.default_rng(cfg.seed)
    adam = _Adam(new.n_params(), cfg.learning_rate)
    half = max(1, cfg.batch_size // 2)

    for epoch in range(cfg.epochs):
        lr_scale = MILESTONE_DECAY ** sum(1 for m in cfg.milestones if epoch >= m)
        epoch_loss = 0.0
        n_batches = 0
        if supervised:
            normal_idx = np.flatnonzero(labels == 0)
            anom_idx = np.flatnonzero(labels == 1)
            order = rng.permutation(normal_idx)
            resampled = rng.choice(anom_idx, size=len(order), replace=True)
            for start in range(0, len(order), half):
                take = slice(start, start + half)
                batch = np.concatenate([order[take], resampled[take]])
                yb = np.concatenate([np.zeros(len(order[take])),
                                     np.ones(len(resampled[take]))])
                loss, grad = pipe.loss_and_param_grad(x[batch], yb)
                new.set_flat(adam.step(new.get_flat(), grad, lr_scale))
                epoch_loss += loss
                n_batches += 1
        else:
            order = rng.permutation(len(x))
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                loss, grad = pipe.loss_and_param_grad(x[batch], np.zeros(len(batch)))
                new.set_flat(adam.step(new.get_flat(), grad, lr_scale))
                epoch_loss += loss
                n_batches += 1
        logger.info("epoch %d: mean training loss %.6f", epoch,
                    epoch_loss / max(1, n_batches))
    return new


def save_scorer(path, state: ScorerState, manifest: dict) -> None:
    """Checkpoint the flat parameter vector plus a JSON manifest."""
    from .tensorio import save_tensor

    base = Path(path)
    save_tensor(base.with_suffix(".calt"), state.get_flat())
    doc = dict(manifest)
    doc.update({
        "widths": list(state.spec.widths),
        "activation": "tanh",
        "use_bias": state.spec.use_bias,
        "frozen": list(state.frozen),
    })
    base.with_suffix(".json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_scorer(path):
    """Load a checkpoint; returns (state, manifest)."""
    from .tensorio import load_tensor

    base = Path(path)
    doc = json.loads(base.with_suffix(".json").read_text())
    if doc["activation"] != "tanh":
        raise DataError(f"{base}: activation {doc['activation']!r}; only tanh scorers load")
    spec = MlpSpec(widths=tuple(doc["widths"]), use_bias=doc["use_bias"])
    state = init_scorer(spec, seed=0)
    state.frozen = list(doc["frozen"])
    state.set_flat(load_tensor(base.with_suffix(".calt")))
    return state, doc
