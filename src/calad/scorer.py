"""Small differentiable scoring models with explicit gradients.

Models are bias-optional MLPs over flat inputs with a smooth activation, so
input gradients are defined everywhere. A ``LossPipeline`` composes a model
with a score head (squared distance to a hypersphere center, pseudo-Huber
norm, raw logit, feature heatmap, or SSIM reconstruction), an optional
post-hoc calibrator, and a core loss, and exposes the three gradient
contracts: forward value, parameter gradient, and input gradient. All
gradients are exact reverse-mode; finite differences are used only in
tests.

Training runs Adam with milestone learning-rate decay, class-balanced
batches for supervised losses, and full determinism under the config seed.
"""

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .calibration import BetaParams, HeadParams, PlattParams
from .errors import DataError, NumericalError
from .losses import (EPS_CLAMP, clamp_probability, hsc_loss, logistic_loss,
                     logit, pseudo_huber, sigmoid)
from .segmentation import SsimConfig, ssim_loss, ssim_map_backward

logger = logging.getLogger(__name__)

SUPERVISED_LOSSES = {"log", "logistic", "hsc", "fcdd"}
UNSUPERVISED_LOSSES = {"svdd", "ssim"}


@dataclass(frozen=True)
class MlpSpec:
    widths: tuple
    activation: str = "tanh"
    use_bias: bool = True
    init_gain: float = 1.0

    def __post_init__(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError("widths must list at least input and output sizes >= 1")
        if self.activation not in ("tanh", "softplus"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.init_gain <= 0:
            raise ValueError("init gain must be positive")


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "svdd"
    learning_rate: float = 1e-4
    milestones: tuple = ()
    decay: float = 0.1
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0
    hsc_pseudo_huber: bool = True

    def __post_init__(self):
        if self.learning_rate < 0 or self.decay <= 0:
            raise ValueError("rates must be positive")
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


def _act(name, z):
    if name == "tanh":
        return np.tanh(z)
    return np.logaddexp(0.0, z)  # softplus


def _act_deriv(name, z):
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return sigmoid(z)


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
        a = _act(state.spec.activation, z) if i < last else z
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
        dz = g if i == last else g * _act_deriv(state.spec.activation, z)
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

    ``loss_name`` selects the head: "logistic"/"log" read a scalar logit,
    "svdd" squares the distance to ``center``, "hsc" applies the
    pseudo-Huber (or raw) squared norm, "fcdd" averages a pseudo-Huber
    feature heatmap, and "ssim" compares the input image with its
    reconstruction. With a calibrator attached (and ``through_calibrator``
    left on) the pipeline loss is the logistic loss of the calibrated
    logit, so gradients flow through the calibrator; otherwise it is the
    base loss itself.
    """

    def __init__(self, state: ScorerState, loss_name: str, center=None,
                 calibrator=None, through_calibrator: bool = True,
                 ssim_cfg: Optional[SsimConfig] = None, image_shape=None,
                 hsc_pseudo_huber: bool = True, head: Optional[HeadParams] = None):
        if loss_name not in SUPERVISED_LOSSES | UNSUPERVISED_LOSSES:
            raise ValueError(f"unknown loss {loss_name!r}")
        if head is not None and loss_name not in ("logistic", "log"):
            raise ValueError("a calibration head implies a logistic pipeline")
        if head is None and loss_name in ("logistic", "log") \
                and state.spec.widths[-1] != 1:
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
        self.through_calibrator = through_calibrator
        self.ssim_cfg = ssim_cfg
        self.image_shape = image_shape
        self.hsc_pseudo_huber = hsc_pseudo_huber
        self.head = head

    # -- score heads ---------------------------------------------------

    def _head(self, out):
        """Per-sample raw score v, (n,), and dv/d(out), (n, k)."""
        name = self.loss_name
        if self.head is not None:
            w = np.asarray(self.head.weights, dtype=float)
            v = out @ w + self.head.bias
            return v, np.broadcast_to(w, out.shape)
        if name in ("logistic", "log"):
            return out[:, 0], np.ones_like(out)
        if name == "svdd":
            diff = out - self.center
            return np.sum(diff * diff, axis=-1), 2.0 * diff
        if name == "hsc":
            sq = np.sum(out * out, axis=-1)
            if self.hsc_pseudo_huber:
                v = pseudo_huber(sq)
                dv_dsq = 0.5 / np.sqrt(sq + 1.0)
            else:
                v = sq
                dv_dsq = np.ones_like(sq)
            return v, 2.0 * out * dv_dsq[:, None]
        if name == "fcdd":
            root = np.sqrt(out * out + 1.0)
            v = np.mean(root - 1.0, axis=-1)
            return v, out / (root * out.shape[-1])
        raise ValueError(f"head undefined for {self.loss_name!r}")

    def _natural_logit(self, v):
        """Logit of the head score and d(logit)/dv."""
        name = self.loss_name
        if name in ("logistic", "log", "svdd"):
            return v, np.ones_like(v)
        # hsc / fcdd: estimate 1 - e^-v through the exponential link
        raw = -np.expm1(-v)
        u = clamp_probability(raw)
        z = np.log(u) - np.log1p(-u)
        inside = (raw > EPS_CLAMP) & (raw < 1.0 - EPS_CLAMP)
        return z, np.where(inside, 1.0 / u, 0.0)

    def _calibrated_logit(self, z):
        """Calibrated logit and its derivative in z."""
        cal = self.calibrator
        if cal is None or not self.through_calibrator:
            return z, np.ones_like(z)
        if isinstance(cal, PlattParams):
            return z / cal.temperature + cal.intercept, \
                np.full_like(z, 1.0 / cal.temperature)
        if isinstance(cal, BetaParams):
            e = sigmoid(z)
            ec = clamp_probability(e)
            zc = cal.a * np.log(ec) - cal.b * np.log1p(-ec) + cal.c
            inside = (e > EPS_CLAMP) & (e < 1.0 - EPS_CLAMP)
            dz = np.where(inside, cal.a * (1.0 - e) + cal.b * e, 0.0)
            return zc, dz
        raise ValueError(f"unsupported calibrator {type(cal).__name__}")

    # -- evaluation ----------------------------------------------------

    def scores(self, x) -> np.ndarray:
        """Anomaly scores: the raw head value v."""
        if self.loss_name == "ssim":
            res = self._ssim_forward(x)[0]
            return 2.0 * np.mean(res.estimates, axis=(1, 2))
        out, _ = _forward_cache(self.state, x)
        v, _ = self._head(out)
        return v

    def logits(self, x) -> np.ndarray:
        if self.loss_name == "ssim":
            est = np.mean(self._ssim_forward(x)[0].estimates, axis=(1, 2))
            return logit(clamp_probability(est))
        out, _ = _forward_cache(self.state, x)
        v, _ = self._head(out)
        z, _ = self._natural_logit(v)
        return z

    def estimates(self, x) -> np.ndarray:
        return sigmoid(self.logits(x))

    def calibrated(self, x):
        """(calibrated logit, calibrated estimate) for a batch."""
        zc, _ = self._calibrated_logit(self.logits(x))
        return zc, sigmoid(zc)

    def _ssim_forward(self, x):
        """SSIM of every row's image against its reconstruction: the
        stacked SsimLoss (per-row losses, (n, h, w) maps), the (n, h, w)
        reconstructions and the caches of the MLP pass."""
        rows = np.atleast_2d(np.asarray(x, dtype=float))
        shape = (len(rows),) + tuple(self.image_shape)
        recon, caches = _forward_cache(self.state, rows)
        recon = recon.reshape(shape)
        return ssim_loss(rows.reshape(shape), recon, self.ssim_cfg), recon, caches

    # -- losses and gradients -------------------------------------------

    def loss_values(self, x, y) -> np.ndarray:
        """Per-sample pipeline loss for a batch."""
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.broadcast_to(np.asarray(y, dtype=float), (len(x2),))
        if self.loss_name == "ssim" and not self._calibrated_path():
            return self._ssim_forward(x2)[0].loss
        if self._calibrated_path():
            zc, _ = self._calibrated_logit(self.logits(x2))
            return logistic_loss(y, zc)
        out, _ = _forward_cache(self.state, x2)
        v, _ = self._head(out)
        if self.loss_name in ("logistic", "log"):
            return logistic_loss(y, v)
        if self.loss_name == "svdd":
            return v.copy()
        return hsc_loss(y, v)  # hsc and fcdd

    def _calibrated_path(self) -> bool:
        return self.calibrator is not None and self.through_calibrator

    def _upstream(self, v, y):
        """Loss values and dloss/dv for the non-ssim heads."""
        if self._calibrated_path():
            z, dz_dv = self._natural_logit(v)
            zc, dzc_dz = self._calibrated_logit(z)
            loss = logistic_loss(y, zc)
            dl = (sigmoid(zc) - y) * dzc_dz * dz_dv
            return loss, dl
        if self.loss_name in ("logistic", "log"):
            return logistic_loss(y, v), sigmoid(v) - y
        if self.loss_name == "svdd":
            return v.copy(), np.ones_like(v)
        # hsc / fcdd base loss
        loss = hsc_loss(y, v)
        em = np.exp(-v)
        dl = -y * em / np.maximum(-np.expm1(-v), EPS_CLAMP) + (1.0 - y)
        return loss, dl

    def _loss_and_output_grad(self, x2, y):
        """Per-row losses, the MLP caches, dloss/d(output) per row, and the
        loss's direct input term (the ssim image side; None otherwise)."""
        if self.loss_name != "ssim":
            out, caches = _forward_cache(self.state, x2)
            v, dv_dout = self._head(out)
            loss, dl_dv = self._upstream(v, y)
            return loss, caches, dl_dv[:, None] * dv_dout, None
        res, recon, caches = self._ssim_forward(x2)
        n, h, w = recon.shape
        if self._calibrated_path():
            est = np.mean(res.estimates, axis=(1, 2))
            loss, factor = self._ssim_chain_factor(est, y)
            # estimate = mean((1 - S) / 2), so dS carries -factor / (2 h w)
            scale = -factor / (2.0 * h * w)
        else:
            loss = res.loss
            scale = -1.0 / (h * w)
        ds = np.broadcast_to(np.reshape(scale, (-1, 1, 1)), (n, h, w))
        direct, drecon = ssim_map_backward(x2.reshape(n, h, w), recon, ds,
                                           self.ssim_cfg)
        return loss, caches, drecon.reshape(n, h * w), direct.reshape(n, h * w)

    def loss_and_input_grad(self, x, y):
        """Loss and its exact gradient with respect to the input: a float
        and a (d,) gradient for one input, per-row (n,) losses and (n, d)
        gradients for a batch."""
        x = np.asarray(x, dtype=float)
        rows = np.atleast_2d(x)
        y = np.broadcast_to(np.asarray(y, dtype=float), (len(rows),))
        loss, caches, d_out, direct = self._loss_and_output_grad(rows, y)
        _, _, d_in = _backprop(self.state, caches, d_out)
        if direct is not None:
            d_in = direct + d_in
        if x.ndim == 1:
            return float(loss[0]), d_in[0]
        return loss, d_in

    def loss_and_param_grad(self, x, y):
        """Mean loss over a batch and its flat parameter gradient."""
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.broadcast_to(np.asarray(y, dtype=float), (len(x2),))
        loss, caches, d_out, _ = self._loss_and_output_grad(x2, y)
        w_grads, b_grads, _ = _backprop(self.state, caches, d_out / len(x2))
        return float(np.mean(loss)), _flatten_grads(self.state, w_grads, b_grads)

    def _ssim_chain_factor(self, est, y):
        """Per-row calibrated ssim loss and d(loss)/d(mean estimate)."""
        e = clamp_probability(est)
        z = np.log(e) - np.log1p(-e)
        zc, dzc_dz = self._calibrated_logit(z)
        dl_dz = (sigmoid(zc) - y) * dzc_dz
        dz_de = 1.0 / (e * (1.0 - e))
        return logistic_loss(y, zc), dl_dz * dz_de


def input_gradient(state: ScorerState, pipeline: LossPipeline, x, y):
    """Exact input gradient of the pipeline loss; mirrors the contract
    that the pipeline was built over this state."""
    if pipeline.state is not state:
        raise ValueError("pipeline was built over a different scorer state")
    return pipeline.loss_and_input_grad(x, y)[1]


def param_gradient(state: ScorerState, pipeline: LossPipeline, x, y):
    """Flat mean parameter gradient over a batch; frozen layers are zero."""
    if pipeline.state is not state:
        raise ValueError("pipeline was built over a different scorer state")
    return pipeline.loss_and_param_grad(x, y)[1]


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
                        image_shape=image_shape,
                        hsc_pseudo_huber=cfg.hsc_pseudo_huber)
    rng = np.random.default_rng(cfg.seed)
    adam = _Adam(new.n_params(), cfg.learning_rate)
    half = max(1, cfg.batch_size // 2)

    for epoch in range(cfg.epochs):
        lr_scale = cfg.decay ** sum(1 for m in cfg.milestones if epoch >= m)
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
        "activation": state.spec.activation,
        "use_bias": state.spec.use_bias,
        "frozen": list(state.frozen),
    })
    base.with_suffix(".json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_scorer(path):
    """Load a checkpoint; returns (state, manifest)."""
    from .tensorio import load_tensor

    base = Path(path)
    doc = json.loads(base.with_suffix(".json").read_text())
    spec = MlpSpec(widths=tuple(doc["widths"]), activation=doc["activation"],
                   use_bias=doc["use_bias"])
    state = init_scorer(spec, seed=0)
    state.frozen = list(doc["frozen"])
    state.set_flat(load_tensor(base.with_suffix(".calt")))
    return state, doc
