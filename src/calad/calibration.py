"""Post-hoc calibration maps, their fitting procedures, and reliability
measurement.

Platt and Beta calibration are logistic regressions over two and three
features: ``[z, 1]`` for Platt and ``[ln e, -ln(1 - e), 1]`` for Beta
(Platt 1999; Lin, Lin & Weng 2007; Kull, Silva Filho & Flach 2017).
``minimize`` solves them exactly with damped Newton steps: an Armijo
backtracking search while the Newton decrement g·H⁻¹g is large, and the
full step once it falls below ``FULL_STEP_DECREMENT``, where loss
differences are too small to resolve in float64. Steps come from a
minimum-norm least-squares solve, so a singular Hessian (a constant
feature) or an ill-conditioned one does not raise. A fit has converged
when the gradient max-norm is at most ``gtol``; spending ``max_iter``
iterations first, or reaching a non-finite iterate, raises
``NumericalError``. Separable data is not an error: the gradient decays
below ``gtol`` as the slope grows.

The Platt slope 1/T and the Beta weights a, b must be nonnegative. They
are handled with Kull et al.'s active set: a constrained coefficient that
comes out negative is pinned at exactly 0 and the rest are refitted from
the start point. A Platt slope pinned at 0 (scores anti-correlated with
the labels) is the temperature ``inf``, a constant map to the base rate.

The calibration head is still fitted with scipy's L-BFGS-B, imported in
``fit_head``'s body. On its ill-conditioned frozen features L-BFGS stops
on scipy's relative-reduction rule short of the exact optimum, and the
head's stored reference outputs pin that stop.

Fitted parameters serialize to a plain-text key-value document so a run
can be reloaded and its determinism re-verified.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .losses import EPS_CLAMP, clamp_probability, logistic_loss, sigmoid


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


def calibrated_logit(params, z):
    """Calibrated logit of the logit z under a Platt or Beta map, and its
    derivative in z. Beta reads sigmoid(z), so its derivative is 0 where
    the clamp of that estimate binds."""
    if isinstance(params, PlattParams):
        zc, _ = platt_transform(z, params)
        return zc, np.full_like(zc, 1.0 / params.temperature)
    if isinstance(params, BetaParams):
        e = sigmoid(z)
        zc, _ = beta_transform(e, params)
        inside = (e > EPS_CLAMP) & (e < 1.0 - EPS_CLAMP)
        return zc, np.where(inside, params.a * (1.0 - e) + params.b * e, 0.0)
    raise ValueError(f"no logit map for calibrator {type(params).__name__}")


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


# below this Newton decrement the loss change is too small for an Armijo test
FULL_STEP_DECREMENT = 1e-12


@dataclass(frozen=True)
class FitResult:
    """What ``minimize`` returns: the minimizer, Newton iterations and
    loss evaluations summed over active-set refits, and ``success``, always
    True because a fit that misses the stopping rule raises instead."""

    x: np.ndarray
    nit: int
    nfev: int
    success: bool = True


def _newton(features, y, x0, opt: OptimizerConfig):
    """Damped Newton on mean logistic loss of features @ x;
    (x, iterations, loss evaluations)."""
    n = len(y)
    x = x0
    z = features @ x
    loss = float(np.mean(logistic_loss(y, z)))
    nfev = 1
    for nit in range(opt.max_iter + 1):
        p = sigmoid(z)
        grad = features.T @ (p - y) / n
        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            raise NumericalError(f"calibrator fit reached a non-finite iterate {x}")
        if np.max(np.abs(grad)) <= opt.gtol or nit == opt.max_iter:
            break
        hess = (features * (p * (1.0 - p))[:, None]).T @ features / n
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        decrement = -float(grad @ step)
        for t in 0.5 ** np.arange(34):
            x_new = x + t * step
            z_new = features @ x_new
            loss_new = float(np.mean(logistic_loss(y, z_new)))
            nfev += 1
            if decrement < FULL_STEP_DECREMENT or loss_new <= loss - 1e-4 * t * decrement:
                break
        x, z, loss = x_new, z_new, loss_new
    if np.max(np.abs(grad)) > opt.gtol:
        raise NumericalError(
            f"calibrator fit did not converge in {nit} Newton iterations: "
            f"max|grad| {np.max(np.abs(grad)):.3g} > gtol {opt.gtol:g}")
    return x, nit, nfev


def minimize(features, labels, x0, opt: OptimizerConfig, nonneg=()) -> FitResult:
    """Minimize the mean logistic loss of ``features @ x`` against 0/1
    labels by Newton's method, from ``x0``, keeping the coordinates in
    ``nonneg`` nonnegative with Kull et al.'s active set."""
    features = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    free = np.ones(len(x0), dtype=bool)
    nit = nfev = 0
    while True:
        x_free, its, evals = _newton(features[:, free], y, x0[free], opt)
        x = np.zeros_like(x0)
        x[free] = x_free
        nit, nfev = nit + its, nfev + evals
        negative = [j for j in nonneg if x[j] < 0]
        if not negative:
            return FitResult(x=x, nit=nit, nfev=nfev)
        free[negative[0]] = False


def fit_platt(logits, labels, opt: OptimizerConfig = OptimizerConfig()) -> PlattParams:
    """Fit (T, c) by logistic-loss minimization over transformed logits.

    Starts from the identity (T = 1, c = 0), so the achieved loss never
    exceeds the identity's. A slope pinned at 0 gives T = inf.
    """
    z = np.asarray(logits, dtype=float)
    y = _require_both_classes(labels)
    slope, intercept = minimize(np.column_stack([z, np.ones_like(z)]), y,
                                [1.0, 0.0], opt, nonneg=(0,)).x
    return PlattParams(temperature=float(1.0 / slope) if slope > 0 else np.inf,
                       intercept=float(intercept))


def fit_beta(estimates, labels, opt: OptimizerConfig = OptimizerConfig()) -> BetaParams:
    """Fit (a, b, c) by logistic-loss minimization over transformed logits.

    a and b stay nonnegative through the active set; the start is the
    identity map (a = b = 1, c = 0).
    """
    e = clamp_probability(np.asarray(estimates, dtype=float))
    y = _require_both_classes(labels)
    features = np.column_stack([np.log(e), -np.log1p(-e), np.ones_like(e)])
    a, b, c = minimize(features, y, [1.0, 1.0, 0.0], opt, nonneg=(0, 1)).x
    return BetaParams(a=float(a), b=float(b), c=float(c))


def fit_head(features, labels, opt: OptimizerConfig = OptimizerConfig()) -> HeadParams:
    """Refit the final affine layer over frozen features.

    Weights are re-initialized from the seed with uniform fan-in scaling,
    then optimized with L-BFGS-B to a stationary point of the mean
    logistic loss. scipy.optimize is imported here, so only head fits load
    it.
    """
    from scipy import optimize

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

    x = optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                          options={"maxiter": opt.max_iter, "gtol": opt.gtol}).x
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
