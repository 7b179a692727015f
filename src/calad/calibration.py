"""Post-hoc calibration maps, their fitting procedures, and reliability
measurement.

All three calibrators are fitted by minimizing mean logistic loss over the
calibration set with a quasi-Newton (L-BFGS) optimizer using analytic
gradients; convergence is declared when the projected gradient max-norm
drops below ``gtol`` or after ``max_iter`` iterations. Positivity of the
Platt temperature and of the Beta weights is enforced by optimizing the
log of each constrained parameter.

Fitted parameters serialize to a plain-text key-value document so a run
can be reloaded and its determinism re-verified.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .losses import clamp_probability, logistic_loss, sigmoid


@dataclass(frozen=True)
class PlattParams:
    temperature: float
    intercept: float

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


@dataclass(frozen=True)
class BetaParams:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError(f"a and b must be nonnegative, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class HeadParams:
    weights: np.ndarray
    bias: float


@dataclass(frozen=True)
class OptimizerConfig:
    gtol: float = 1e-8
    max_iter: int = 500
    seed: int = 0


@dataclass(frozen=True)
class ReliabilityHistogram:
    """K equal-width bins over [0, 1] with per-bin count, empirical
    frequency of y = 1, and mean confidence.

    Bin k covers (edges[k], edges[k+1]]; an estimate of exactly 0 is
    assigned to the first bin so no mass is dropped.
    """

    counts: np.ndarray
    freq: np.ndarray
    conf: np.ndarray
    edges: np.ndarray

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def platt_transform(z, params: PlattParams):
    """z / T + c followed by the sigmoid; strictly increasing in z."""
    z = np.asarray(z, dtype=float)
    zp = z / params.temperature + params.intercept
    return zp, sigmoid(zp)


def beta_transform(eta_hat, params: BetaParams):
    """a ln(eta) - b ln(1 - eta) + c followed by the sigmoid.

    Estimates are clamped away from {0, 1} first, mirroring how saturated
    sigmoid outputs would otherwise produce non-finite logits.
    """
    e = clamp_probability(np.asarray(eta_hat, dtype=float))
    zb = params.a * np.log(e) - params.b * np.log1p(-e) + params.c
    return zb, sigmoid(zb)


def head_transform(features, params: HeadParams):
    """Affine map over a frozen feature vector, then the sigmoid."""
    f = np.asarray(features, dtype=float)
    w = np.asarray(params.weights, dtype=float)
    if f.shape[-1] != w.shape[0]:
        raise ValueError(
            f"dimension mismatch: features have {f.shape[-1]}, weights have {w.shape[0]}")
    z = f @ w + params.bias
    return z, sigmoid(z)


def _require_both_classes(labels):
    labels = np.asarray(labels)
    if not (np.any(labels == 0) and np.any(labels == 1)):
        raise DataError("fitting requires samples from both classes")
    return labels.astype(float)


def minimize(objective, x0, opt: OptimizerConfig):
    """L-BFGS-B over an objective returning (value, gradient); scipy's
    full OptimizeResult. scipy.optimize is imported on the first fit, so
    commands that fit nothing never load it."""
    from scipy import optimize

    return optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                             options={"maxiter": opt.max_iter, "gtol": opt.gtol})


def fit_platt(logits, labels, opt: OptimizerConfig = OptimizerConfig()) -> PlattParams:
    """Fit (T, c) by logistic-loss minimization over transformed logits.

    Starts from the identity (T = 1, c = 0), so the achieved loss never
    exceeds the identity's.
    """
    z = np.asarray(logits, dtype=float)
    y = _require_both_classes(labels)

    def objective(p):
        slope = np.exp(p[0])
        zp = slope * z + p[1]
        g = sigmoid(zp) - y
        return (float(np.mean(logistic_loss(y, zp))),
                np.array([np.mean(g * slope * z), np.mean(g)]))

    x = minimize(objective, np.zeros(2), opt).x
    return PlattParams(temperature=float(np.exp(-x[0])), intercept=float(x[1]))


def fit_beta(estimates, labels, opt: OptimizerConfig = OptimizerConfig()) -> BetaParams:
    """Fit (a, b, c) by logistic-loss minimization over transformed logits.

    a and b stay nonnegative through an exponential reparameterization;
    the start is the identity map (a = b = 1, c = 0).
    """
    e = clamp_probability(np.asarray(estimates, dtype=float))
    y = _require_both_classes(labels)
    log_e = np.log(e)
    log_1me = np.log1p(-e)

    def objective(p):
        a, b = np.exp(p[0]), np.exp(p[1])
        zb = a * log_e - b * log_1me + p[2]
        g = sigmoid(zb) - y
        return (float(np.mean(logistic_loss(y, zb))),
                np.array([np.mean(g * a * log_e),
                          np.mean(-g * b * log_1me),
                          np.mean(g)]))

    x = minimize(objective, np.zeros(3), opt).x
    return BetaParams(a=float(np.exp(x[0])), b=float(np.exp(x[1])), c=float(x[2]))


def fit_head(features, labels, opt: OptimizerConfig = OptimizerConfig()) -> HeadParams:
    """Refit the final affine layer over frozen features.

    Weights are re-initialized from the seed with uniform fan-in scaling,
    then optimized to a stationary point of the mean logistic loss.
    """
    f = np.asarray(features, dtype=float)
    if f.ndim != 2:
        raise ValueError("features must be a (n, d) matrix")
    y = _require_both_classes(labels)
    d = f.shape[1]
    rng = np.random.default_rng(opt.seed)
    x0 = np.concatenate([rng.uniform(-1, 1, d) / np.sqrt(d), [0.0]])

    def objective(p):
        z = f @ p[:d] + p[d]
        g = sigmoid(z) - y
        grad = np.concatenate([f.T @ g / len(y), [np.mean(g)]])
        return float(np.mean(logistic_loss(y, z))), grad

    x = minimize(objective, x0, opt).x
    return HeadParams(weights=x[:d].copy(), bias=float(x[d]))


def reliability(estimates, labels, k: int = 15) -> ReliabilityHistogram:
    """Bin estimates into k equal-width half-open bins (eta_k, eta_{k+1}]."""
    if k < 1:
        raise ValueError("need at least one bin")
    e = np.asarray(estimates, dtype=float)
    y = np.asarray(labels, dtype=float)
    if e.shape != y.shape:
        raise ValueError("estimates and labels must have equal length")
    edges = np.linspace(0.0, 1.0, k + 1)
    idx = np.clip(np.searchsorted(edges, e, side="left") - 1, 0, k - 1)
    counts = np.bincount(idx, minlength=k)
    freq = np.zeros(k)
    conf = np.zeros(k)
    nonempty = counts > 0
    sums_y = np.bincount(idx, weights=y, minlength=k)
    sums_e = np.bincount(idx, weights=e, minlength=k)
    freq[nonempty] = sums_y[nonempty] / counts[nonempty]
    conf[nonempty] = sums_e[nonempty] / counts[nonempty]
    return ReliabilityHistogram(counts=counts, freq=freq, conf=conf, edges=edges)


def ece(hist: ReliabilityHistogram) -> float:
    """Count-weighted mean absolute gap between frequency and confidence."""
    n = hist.n
    if n == 0:
        raise DataError("cannot compute ECE of an empty histogram")
    return float(np.sum(hist.counts / n * np.abs(hist.freq - hist.conf)))


def mce(hist: ReliabilityHistogram) -> float:
    """Largest absolute gap between frequency and confidence, over
    nonempty bins."""
    if hist.n == 0:
        raise DataError("cannot compute MCE of an empty histogram")
    nonempty = hist.counts > 0
    return float(np.max(np.abs(hist.freq[nonempty] - hist.conf[nonempty])))


def fitting_digest(scores, labels) -> str:
    """Stable digest of a fitting set, recorded next to fitted parameters."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(np.asarray(scores, dtype=np.float64)).tobytes())
    h.update(np.ascontiguousarray(np.asarray(labels, dtype=np.int64)).tobytes())
    return h.hexdigest()


def save_calibrator(path, params, seed: int, digest: str) -> None:
    """Write fitted parameters as a plain-text key-value document."""
    lines = []
    if isinstance(params, PlattParams):
        lines += ["kind platt",
                  f"temperature {params.temperature!r}",
                  f"intercept {params.intercept!r}"]
    elif isinstance(params, BetaParams):
        lines += ["kind beta", f"a {params.a!r}", f"b {params.b!r}", f"c {params.c!r}"]
    elif isinstance(params, HeadParams):
        lines += ["kind head",
                  "weights " + " ".join(repr(float(w)) for w in params.weights),
                  f"bias {params.bias!r}"]
    else:
        raise ValueError(f"unknown calibrator type {type(params).__name__}")
    lines += [f"seed {seed}", f"digest {digest}"]
    Path(path).write_text("\n".join(lines) + "\n")


def load_calibrator(path):
    """Read back a calibrator document; returns (params, seed, digest)."""
    fields = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    kind = fields["kind"]
    if kind == "platt":
        params = PlattParams(float(fields["temperature"]), float(fields["intercept"]))
    elif kind == "beta":
        params = BetaParams(float(fields["a"]), float(fields["b"]), float(fields["c"]))
    elif kind == "head":
        params = HeadParams(np.array([float(w) for w in fields["weights"].split()]),
                            float(fields["bias"]))
    else:
        raise ValueError(f"unknown calibrator kind {kind!r}")
    return params, int(fields["seed"]), fields["digest"]
