"""Small differentiable scoring models with explicit gradients.

Models are bias-optional tanh MLPs over flat inputs, so input gradients
are defined everywhere. A ``LossPipeline`` composes a model with a score
head (squared distance to a hypersphere center, pseudo-Huber norm, raw
logit, feature heatmap, or SSIM reconstruction), an optional post-hoc
calibrator, and a core loss, and exposes the three gradient contracts:
forward value, parameter gradient, and input gradient. Each method is one
pass of the chain, ``LossPipeline._chain``. All gradients are exact
reverse-mode; finite differences are used only in tests. The SSIM head
runs its forward and backward passes ``SSIM_BLOCK`` images at a time,
after one whole-batch MLP pass, so the parameter gradient is still one
matmul per layer. Every per-loss decision lives here: ``init_pipeline``
builds each loss's scorer and svdd center, and ``head_trunk`` is the only
other reader of the flat parameter layout.

Training steps a scorer's flat parameter vector in place with Adam at the
run config's learning rate, class-balanced batches for supervised losses,
and full determinism under the run seed. Every step's parameter gradient
is written into one vector that training allocates once (``out``): with a
fresh vector per step, 5-seed tiles fcdd runs trained measurably slower.

A Platt or Beta map is monotone: it scales each row's loss gradient by a
factor that is positive or exactly 0. So a calibrated pipeline's input
gradient has the signs of the uncalibrated one's wherever that factor is
positive, and is 0 elsewhere.
"""

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import LOSSES
from .calibration import HeadParams, calibrated_logit
from .errors import DataError, NumericalError
from .losses import (EPS_CLAMP, clamp_probability, hsc_loss, logistic_loss,
                     pseudo_huber, sigmoid)
from .segmentation import ssim_loss, ssim_map_backward

logger = logging.getLogger(__name__)

SUPERVISED_LOSSES = {"logistic", "hsc", "fcdd"}  # the losses that train on anomalies
LOCALIZING_LOSSES = ("ssim", "fcdd")  # the losses with a pixel heatmap
FCDD_SIDE = 8  # fcdd's heatmap is FCDD_SIDE x FCDD_SIDE feature cells
# two normalized rows are x and -x, and the bias-free tanh MLP is odd, so
# their svdd center is exactly 0 at every seed
SVDD_MIN_ROWS = 3

# images per SSIM pass, which bounds the pass's window-term stacks: 8 holds
# a sixteenth of a 128-image batch's, for about 5 us per image more than 16
SSIM_BLOCK = 8


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


def _backprop(state, caches, d_out, params: bool, out: Optional[ScorerState] = None):
    """Gradient of sum(d_out * output): with `params`, wrt the parameters,
    summed over the batch into out.flat (a new vector laid out like
    state.flat if out is None); otherwise wrt each input row, and no
    parameter gradient is formed."""
    g = np.asarray(d_out, dtype=float)
    if params and out is None:
        out = ScorerState(state.spec, np.zeros_like(state.flat))
    last = state.n_layers - 1
    for i in range(last, -1, -1):
        a_in = caches[i][0]
        if i == last:
            dz = g
        else:  # tanh' from the activation the forward pass kept as the next input
            dz = caches[i + 1][0] ** 2
            np.subtract(1.0, dz, out=dz)
            dz *= g
        if params:
            np.matmul(a_in.T, dz, out=out.weights[i])
            if out.biases[i] is not None:
                np.sum(dz, axis=0, out=out.biases[i])
        if i or not params:  # below layer 0 is the input gradient, unused in training
            g = dz @ state.weights[i].T
    return out.flat if params else g


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
                 calibrator=None, image_shape=None, head: Optional[HeadParams] = None):
        if loss_name not in LOSSES:
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
        if loss_name == "ssim" and image_shape is None:
            raise ValueError("ssim pipeline needs the image shape")
        self.state = state
        self.loss_name = loss_name
        self.center = None if center is None else np.asarray(center, dtype=float)
        self.calibrator = calibrator
        self.image_shape = image_shape
        self.head = head

    # -- the chain -------------------------------------------------------

    def _chain(self, x, y=None, want_map=False):
        """One MLP pass and the head over the rows of x: (values, caches,
        maps, d_out, direct). ``values`` are the per-row raw scores v, or
        with labels y the per-row losses; ``maps`` the per-pixel raw scores
        if ``want_map``; with labels, ``d_out`` is dloss/d(output) and
        ``direct`` the loss's direct input term, the ssim image side. What
        is not asked is None."""
        if want_map and self.loss_name not in LOCALIZING_LOSSES:
            raise ValueError(f"loss {self.loss_name!r} gives no score map")
        out, caches = _forward_cache(self.state, x)
        maps = None
        if self.loss_name == "ssim":
            n, (h, w) = len(out), self.image_shape
            images, recons = caches[0][0].reshape(n, h, w), out.reshape(n, h, w)
            values = np.empty(n)
            maps = np.empty((n, h, w)) if want_map else None
            direct = d_out = None
            if y is not None:
                labels = _labels(y, values)
                direct, d_out = np.empty((n, h * w)), np.empty((n, h * w))
            for start in range(0, n, SSIM_BLOCK):
                block = slice(start, start + SSIM_BLOCK)
                res = ssim_loss(images[block], recons[block])
                if want_map:
                    maps[block] = 1.0 - res.similarity
                if y is None:
                    values[block] = res.loss
                    continue
                values[block], dl_dv = self._loss(res.loss, labels[block])
                # v is the mean of 1 - S over the h * w pixels
                ds = np.broadcast_to((-dl_dv / (h * w))[:, None, None],
                                     res.similarity.shape)
                dp, dq = ssim_map_backward(res, ds)
                direct[block] = dp.reshape(-1, h * w)
                d_out[block] = dq.reshape(-1, h * w)
            return values, caches, maps, d_out, direct
        # per-row raw score v and dv/d(output)
        if self.head is not None:
            w = np.asarray(self.head.weights, dtype=float)
            v, back = out @ w + self.head.bias, np.broadcast_to(w, out.shape)
        elif self.loss_name == "logistic":
            v, back = out[:, 0], np.ones_like(out)
        elif self.loss_name == "svdd":
            diff = out - self.center
            v, back = np.sum(diff * diff, axis=-1), 2.0 * diff
        elif self.loss_name == "hsc":
            sq = np.sum(out * out, axis=-1)
            v, back = pseudo_huber(sq), 2.0 * out * (0.5 / np.sqrt(sq + 1.0))[:, None]
        else:  # fcdd: the pseudo-Huber cells give both the score and the map
            root = np.sqrt(out * out + 1.0)
            cells = root - 1.0
            v, back = np.mean(cells, axis=-1), out / (root * out.shape[-1])
            if want_map:
                side = int(np.sqrt(out.shape[1]))
                maps = cells.reshape(len(out), side, side)
        if y is None:
            return v, caches, maps, None, None
        loss, dl_dv = self._loss(v, _labels(y, v))
        return loss, caches, maps, dl_dv[:, None] * back, None

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
        return self._chain(x)[0]

    def score_map(self, x) -> np.ndarray:
        """Per-pixel raw scores whose per-row mean is scores(x): 1 - S
        for ssim, (n, h, w); for fcdd the pseudo-Huber sqrt(f^2 + 1) - 1
        of each feature cell f, (n, side, side)."""
        return self._chain(x, want_map=True)[2]

    def logits(self, x) -> np.ndarray:
        return self.link(self._chain(x)[0])[0]

    def calibrate(self, z):
        """(calibrated logit, calibrated estimate) of logits z of any shape."""
        if self.calibrator is not None:
            z, _ = calibrated_logit(self.calibrator, z)
        return z, sigmoid(z)

    # -- losses and gradients --------------------------------------------

    def loss_values(self, x, y) -> np.ndarray:
        """Per-sample pipeline loss for a batch; no backward pass runs."""
        v = self._chain(x)[0]
        return self._loss(v, _labels(y, v))[0]

    def loss_and_input_grad(self, x, y):
        """Loss and its exact gradient with respect to the input: a float
        and a (d,) gradient for one input, per-row (n,) losses and (n, d)
        gradients for a batch."""
        x = np.asarray(x, dtype=float)
        loss, caches, _, d_out, direct = self._chain(x, y)
        d_in = _backprop(self.state, caches, d_out, params=False)
        if direct is not None:
            d_in = direct + d_in
        if x.ndim == 1:
            return float(loss[0]), d_in[0]
        return loss, d_in

    def loss_and_param_grad(self, x, y, out: Optional[ScorerState] = None):
        """Mean loss over a batch and its flat parameter gradient, written
        into out.flat if out, a ScorerState of the scorer's spec, is given."""
        loss, caches, _, d_out, _ = self._chain(x, y)
        d_out /= len(loss)
        grad = _backprop(self.state, caches, d_out, params=True, out=out)
        return float(np.mean(loss)), grad


def _labels(y, v):
    """Labels as floats broadcast to one per row of v."""
    return np.broadcast_to(np.asarray(y, dtype=float), v.shape)


def init_pipeline(loss: str, x_train, seed: int, image_shape=None) -> LossPipeline:
    """The untrained, uncalibrated pipeline of `loss` over rows as wide as
    x_train's: its seeded scorer and, for svdd, the center over x_train."""
    d = x_train.shape[1]
    widths = {"svdd": (d, 64, 64, 32), "hsc": (d, 32, 16, 8), "logistic": (d, 32, 16, 1),
              "ssim": (d, 64, d), "fcdd": (d, 64, FCDD_SIDE ** 2)}
    if loss not in widths:
        raise ValueError(f"unknown loss {loss!r}")
    svdd = loss == "svdd"
    # svdd: enough embedding width and gain that squared distances spread
    # the induced probability estimates across reliability bins
    spec = MlpSpec(widths[loss], use_bias=not svdd, init_gain=2.0 if svdd else 1.0)
    state = init_scorer(spec, seed=seed)
    center = init_svdd_center(state, x_train) if svdd else None
    return LossPipeline(state, loss, center=center, image_shape=image_shape)


def head_trunk(state: ScorerState, loss: str) -> ScorerState:
    """The scorer under the calibration head, which is never trained
    again: the base scorer itself, but logistic and ssim scorers drop
    their output layer."""
    if loss not in ("logistic", "ssim"):
        return state
    spec = MlpSpec(state.spec.widths[:-1], use_bias=state.spec.use_bias)
    out = state.weights[-1]
    n_out = out.size + (out.shape[1] if spec.use_bias else 0)
    return ScorerState(spec, state.flat[:-n_out])


class _Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, n, lr):
        self.lr = lr
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self._a = np.empty(n)
        self._b = np.empty(n)

    def step(self, params, grad):
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
        # params -= lr * mhat / (sqrt(vhat) + eps)
        np.divide(self.m, 1 - self.beta1 ** self.t, out=a)
        a *= self.lr
        np.divide(self.v, 1 - self.beta2 ** self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        params -= np.divide(a, b, out=a)


def train(pipeline: LossPipeline, normal, anomalies, *, epochs: int, batch_size: int,
          learning_rate: float, seed: int) -> None:
    """Train pipeline.state in place on the pipeline's loss.

    Supervised losses need `anomalies` and draw class-balanced batches:
    each normal row is paired with an anomaly resampled each epoch under
    the run seed. Unsupervised losses iterate over `normal` alone and take
    anomalies=None. Per-epoch mean losses go to the module logger. A
    non-finite batch loss, or parameters that end non-finite, mean
    training diverged: a NumericalError, and the overflow on the way there
    raises no numpy warning.
    """
    normal = np.atleast_2d(np.asarray(normal, dtype=float))
    name = pipeline.loss_name
    supervised = name in SUPERVISED_LOSSES
    if supervised:
        if anomalies is None or not len(anomalies):
            raise DataError(f"loss {name!r} trains on normal rows and anomalies, "
                            "but got no anomalies")
        anomalies = np.atleast_2d(np.asarray(anomalies, dtype=float))
    step = max(1, batch_size // 2) if supervised else batch_size
    rng = np.random.default_rng(seed)
    adam = _Adam(pipeline.state.flat.size, learning_rate)
    grad = ScorerState(pipeline.state.spec, np.zeros_like(pipeline.state.flat))

    # a diverging step shows as a non-finite loss or parameters, which raise below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(epochs):
            epoch_loss = 0.0
            n_batches = 0
            order = rng.permutation(len(normal))
            if supervised:
                resampled = rng.choice(len(anomalies), size=len(order), replace=True)
            for start in range(0, len(order), step):
                xb = normal[order[start:start + step]]
                yb = np.zeros(len(xb))
                if supervised:
                    # each normal row of the batch pairs with a resampled anomaly
                    xb = np.concatenate([xb, anomalies[resampled[start:start + step]]])
                    yb = np.concatenate([yb, np.ones(len(yb))])
                loss, _ = pipeline.loss_and_param_grad(xb, yb, out=grad)
                if not math.isfinite(loss):
                    raise NumericalError(
                        f"training diverged: a batch loss of epoch {epoch} is {loss}; "
                        "lower the learning rate")
                adam.step(pipeline.state.flat, grad.flat)
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
    """Load a checkpoint; returns (state, manifest). An unreadable or
    damaged manifest, or a parameter vector that does not fit it, is a
    DataError naming the file. The per-layer "frozen" flags of older
    manifests are ignored."""
    from .tensorio import load_tensor, read_bytes

    base = Path(path)
    manifest, params = base.with_suffix(".json"), base.with_suffix(".calt")
    try:
        doc = json.loads(read_bytes(manifest))
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
