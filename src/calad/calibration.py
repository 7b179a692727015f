"""Post-hoc calibration maps, their fitting procedures, and reliability
measurement in ``RELIABILITY_BINS`` bins, for runs and ``calad eval``.

Platt and Beta calibration are logistic regressions over two and three
features: ``[z, 1]`` for Platt and ``[ln e, -ln(1 - e), 1]`` for Beta
(Platt 1999; Lin, Lin & Weng 2007; Kull, Silva Filho & Flach 2017).
``minimize`` solves them exactly with damped Newton steps: an Armijo
backtracking search while the Newton decrement g·H⁻¹g is large, and the
full step once it falls below ``FULL_STEP_DECREMENT``, where loss
differences are too small to resolve in float64. Steps come from a
minimum-norm least-squares solve, so a singular Hessian (a constant
feature) or an ill-conditioned one does not raise. A fit has converged
when the gradient max-norm is at most ``GTOL``; spending ``MAX_ITER``
iterations first, or a non-finite iterate, loss, gradient or Hessian,
raises ``NumericalError``. Separable data is not an error: the gradient decays
below ``GTOL`` as the slope grows.

Each evaluation is one pass over the column-major design in blocks of
``BLOCK_ROWS`` rows that gives the loss, gradient and Hessian together,
so a fit holds no full-length temporary, and the accepted trial point's
gradient and Hessian serve the next iteration. A fit of at most
``BLOCK_ROWS`` rows has the bits of the whole-array expressions;
``fit_platt`` and ``fit_beta`` write their design column-major because
that is the layout those expressions saw.

The Platt slope 1/T and the Beta weights a, b must be nonnegative. They
are handled with Kull et al.'s active set: a constrained coefficient that
comes out negative is pinned at exactly 0 and the rest are refitted from
the start point. A Platt slope pinned at 0 (scores anti-correlated with
the labels) is the temperature ``inf``, a constant map to the base rate.

The calibration head is still fitted with L-BFGS-B (Byrd, Lu, Nocedal &
Zhu 1995) under the same ``GTOL`` and ``MAX_ITER``: ``_lbfgsb_minimize``
drives scipy's compiled ``setulb`` step through its reverse-communication
loop, with scipy's ``minimize`` defaults (10 corrections, ``factr`` 1e7,
20 line-search steps, no bounds), so its iterates are bit-identical to
``scipy.optimize.minimize(..., method="L-BFGS-B")``. The extension is
loaded from its file and registered under its scipy name, so the
``scipy.optimize`` package, with the linalg and sparse modules it pulls
in, is never imported; it needs scipy >= 1.15, whose ``setulb`` takes 17
arguments. On the head's ill-conditioned frozen features L-BFGS stops on
the relative-reduction rule short of the exact optimum, and the head's
stored reference outputs pin that stop. A stop other than convergence
(the iteration budget, a failed line search) is logged as a warning.

Fitted parameters serialize to a plain-text key-value document so a run
can be reloaded and its determinism re-verified; a document that cannot
be read is a DataError naming it.
"""

import importlib.machinery
import importlib.util
import sys
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
class ReliabilityHistogram:
    """K equal-width bins over [0, 1] with per-bin count, empirical
    frequency of y = 1, and mean confidence.

    Bin k covers (k / K, (k + 1) / K]; an estimate of exactly 0 is
    assigned to the first bin so no mass is dropped.
    """

    counts: np.ndarray
    freq: np.ndarray
    conf: np.ndarray

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


def _beta_features(estimates, out):
    """ln e and -ln(1 - e) into out[0] and out[1], for the estimates e clamped
    away from {0, 1}, where saturated sigmoids would give non-finite logits."""
    e = clamp_probability(np.asarray(estimates, dtype=float))
    log_e, neg_log_1me = out[0, ...], out[1, ...]  # views, 0-d ones too
    np.log(e, out=log_e)
    np.log1p(np.negative(e, out=neg_log_1me), out=neg_log_1me)
    np.negative(neg_log_1me, out=neg_log_1me)
    return out


def beta_transform(eta_hat, params: BetaParams):
    """a ln(eta) - b ln(1 - eta) + c followed by the sigmoid."""
    f = _beta_features(eta_hat, np.empty((2,) + np.shape(eta_hat)))
    zb = params.a * f[0] + params.b * f[1] + params.c
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


def _require_both_classes(labels):
    labels = np.asarray(labels)
    if not (np.any(labels == 0) and np.any(labels == 1)):
        raise DataError("fitting requires samples from both classes")
    return labels.astype(float)


# below this Newton decrement the loss change is too small for an Armijo test
FULL_STEP_DECREMENT = 1e-12
GTOL = 1e-8  # a fit has converged once max|grad| is at most this
MAX_ITER = 500  # iterations per fit, Newton and L-BFGS-B alike
BLOCK_ROWS = 8192  # rows per block of a Newton pass; an (8192, 3) block stays in cache


@dataclass(frozen=True)
class FitResult:
    """What ``minimize`` returns: the minimizer, Newton iterations and
    loss evaluations summed over active-set refits, and ``success``, always
    True because a fit that misses the stopping rule raises instead."""

    x: np.ndarray
    nit: int
    nfev: int
    success: bool = True


def _not_finite(features, x, loss, grad, hess) -> str:
    """What a Newton pass that is not finite at x reports: the iterate if
    it overflowed, else which of the loss, gradient and Hessian did, and
    the largest |feature|."""
    if not np.all(np.isfinite(x)):
        return f"calibrator fit reached a non-finite iterate {x}"
    parts = {"loss": loss, "gradient": grad, "Hessian": hess}
    names = ", ".join(k for k, v in parts.items() if not np.all(np.isfinite(v)))
    return (f"calibrator fit: {names} not finite at {x}; the largest |feature| is "
            f"{np.max(np.abs(features)):.3g}, rescale the scores")


def _newton(design, free, y, x0):
    """Damped Newton on the mean logistic loss of design[:, free] @ x;
    (x, iterations, loss evaluations)."""
    n = len(y)
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, n, BLOCK_ROWS)]

    def evaluate(x):
        """Loss, gradient and Hessian at x from one pass over the blocks."""
        loss, grad, hess = 0.0, None, None
        for block in blocks:
            f, yb = design[block, free], y[block]
            z = f @ x
            e = np.exp(-np.abs(z))
            # logaddexp(0, (1 - 2y) z), since |(1 - 2y) z| = |z| for 0/1 labels
            loss += np.maximum((1.0 - 2.0 * yb) * z, 0.0).sum() + np.log1p(e).sum()
            p = np.where(z >= 0, 1.0, e) / (1.0 + e)  # sigmoid(z)'s formula, reusing e
            g = f.T @ (p - yb)
            h = (f * (p * (1.0 - p))[:, None]).T @ f
            # the first block's sums are taken as they are, so a fit of
            # one block has the bits of the whole-array expressions
            grad = g if grad is None else grad + g
            hess = h if hess is None else hess + h
        return loss / n, grad / n, hess / n

    # an overflow shows as a non-finite iterate, loss, gradient or Hessian,
    # which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0
        loss, grad, hess = evaluate(x)
        nfev = 1
        for nit in range(MAX_ITER + 1):
            if not (np.isfinite(loss) and np.all(np.isfinite(grad))
                    and np.all(np.isfinite(hess))):
                raise NumericalError(_not_finite(design[:, free], x, loss, grad, hess))
            if np.max(np.abs(grad)) <= GTOL or nit == MAX_ITER:
                break
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            decrement = -float(grad @ step)
            for t in 0.5 ** np.arange(34):
                x_new = x + t * step
                # the accepted trial's gradient and Hessian are the next iteration's
                loss_new, grad_new, hess_new = evaluate(x_new)
                nfev += 1
                if decrement < FULL_STEP_DECREMENT or loss_new <= loss - 1e-4 * t * decrement:
                    break
            x, loss, grad, hess = x_new, loss_new, grad_new, hess_new
    if np.max(np.abs(grad)) > GTOL:
        raise NumericalError(
            f"calibrator fit did not converge in {nit} Newton iterations: "
            f"max|grad| {np.max(np.abs(grad)):.3g} > gtol {GTOL:g}")
    return x, nit, nfev


def minimize(features, labels, x0, nonneg=()) -> FitResult:
    """Minimize the mean logistic loss of ``features @ x`` against 0/1
    labels by Newton's method, from ``x0``, keeping the coordinates in
    ``nonneg`` nonnegative with Kull et al.'s active set."""
    design = np.asfortranarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    free = np.ones(len(x0), dtype=bool)
    nit = nfev = 0
    while True:
        x_free, its, evals = _newton(design, free, y, x0[free])
        x = np.zeros_like(x0)
        x[free] = x_free
        nit, nfev = nit + its, nfev + evals
        negative = [j for j in nonneg if x[j] < 0]
        if not negative:
            return FitResult(x=x, nit=nit, nfev=nfev)
        free[negative[0]] = False


def fit_platt(logits, labels) -> PlattParams:
    """Fit (T, c) by logistic-loss minimization over transformed logits.

    Starts from the identity (T = 1, c = 0), so the achieved loss never
    exceeds the identity's. A slope pinned at 0 gives T = inf.
    """
    y = _require_both_classes(labels)
    design = np.empty((len(y), 2), order="F")
    design[:, 0] = logits
    design[:, 1] = 1.0
    slope, intercept = minimize(design, y, [1.0, 0.0], nonneg=(0,)).x
    return PlattParams(temperature=float(1.0 / slope) if slope > 0 else np.inf,
                       intercept=float(intercept))


def fit_beta(estimates, labels) -> BetaParams:
    """Fit (a, b, c) by logistic-loss minimization over transformed logits.

    a and b stay nonnegative through the active set; the start is the
    identity map (a = b = 1, c = 0).
    """
    y = _require_both_classes(labels)
    design = np.empty((len(y), 3), order="F")
    _beta_features(estimates, design.T)
    design[:, 2] = 1.0
    a, b, c = minimize(design, y, [1.0, 1.0, 0.0], nonneg=(0, 1)).x
    return BetaParams(a=float(a), b=float(b), c=float(c))


LBFGSB_MODULE = "scipy.optimize._lbfgsb"
LBFGSB_CORRECTIONS = 10  # scipy's maxcor
LBFGSB_FACTR = 1e7  # scipy's default ftol 2.220446049250313e-09 over machine eps
LBFGSB_MAXLS = 20
# setulb's task codes: task[0] is the state, task[1] the reason; only the
# driver sets STOP, and only for the iteration budget
FG, NEW_X, CONVERGENCE, STOP, ABNORMAL = 3, 1, 4, 5, 8
ITERATION_BUDGET = 504
STOP_REASONS = {STOP: "iteration budget reached", ABNORMAL: "line search failed"}


def _lbfgsb():
    """scipy's compiled L-BFGS-B module, loaded from its file so that the
    scipy.optimize package is not imported. It is registered under its
    scipy name, so a later ``import scipy.optimize`` reuses it."""
    if LBFGSB_MODULE in sys.modules:
        return sys.modules[LBFGSB_MODULE]
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "optimize", "_lbfgsb" + suffix)
            if path.is_file():
                spec = importlib.util.spec_from_file_location(LBFGSB_MODULE, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[LBFGSB_MODULE] = module
                return module
    raise ImportError("the calibration head needs scipy>=1.15, whose compiled "
                      f"{LBFGSB_MODULE} extension was not found")


def _lbfgsb_minimize(objective, x0):
    """Minimize ``objective`` (returning the loss and its gradient) from x0
    by L-BFGS-B without bounds, stopping at ``GTOL`` or ``MAX_ITER``
    iterations, and return the last iterate. The loop is scipy's
    ``_minimize_lbfgsb`` without its result and operator wrappers."""
    setulb = _lbfgsb().setulb
    n, m = len(x0), LBFGSB_CORRECTIONS
    x = np.array(x0, dtype=float)
    f, g = 0.0, np.zeros(n)
    unbounded, nbd = np.zeros(n), np.zeros(n, dtype=np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    nit = 0
    while True:
        setulb(m, x, unbounded, unbounded, nbd, f, g, LBFGSB_FACTR, GTOL, wa, iwa,
               task, lsave, isave, dsave, LBFGSB_MAXLS, ln_task)
        if task[0] == FG:
            f, g = objective(x)
        elif task[0] == NEW_X:
            nit += 1
            if nit >= MAX_ITER:
                task[:] = STOP, ITERATION_BUDGET
        else:
            break
    if task[0] != CONVERGENCE:
        import logging  # only here, so the score verbs' start-up does not load it

        reason = STOP_REASONS.get(int(task[0]), f"setulb task {task[0]}/{task[1]}")
        logging.getLogger(__name__).warning(
            "calibration head fit stopped before convergence: %s after %d iterations, "
            "max|grad| %.3g > gtol %g", reason, nit, np.max(np.abs(g)), GTOL)
    return x


def fit_head(features, labels, seed: int = 0) -> HeadParams:
    """Refit the final affine layer over frozen features.

    Weights are re-initialized from the seed with uniform fan-in scaling,
    then optimized with L-BFGS-B (``_lbfgsb_minimize``, bit-identical to
    scipy's ``minimize``) towards a stationary point of the mean logistic
    loss. A stop short of convergence is logged as a warning, not raised.
    """
    f = np.asarray(features, dtype=float)
    if f.ndim != 2:
        raise ValueError("features must be a (n, d) matrix")
    y = _require_both_classes(labels)
    d = f.shape[1]
    rng = np.random.default_rng(seed)
    x0 = np.concatenate([rng.uniform(-1, 1, d) / np.sqrt(d), [0.0]])

    def objective(p):
        loss, g = logistic_loss(y, f @ p[:d] + p[d])
        return float(np.mean(loss)), np.concatenate([f.T @ g / len(y), [np.mean(g)]])

    x = _lbfgsb_minimize(objective, x0)
    return HeadParams(weights=x[:d].copy(), bias=float(x[d]))


RELIABILITY_BINS = 15  # the equal-width bins of every ECE, MCE and reliability diagram


def reliability(estimates, labels, k: int) -> ReliabilityHistogram:
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
    return ReliabilityHistogram(counts=counts, freq=freq, conf=conf)


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
    import hashlib  # only here: eval and report write no digest

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
    """Read back a calibrator document; returns (params, seed, digest). An
    unreadable or malformed document, or a coefficient other than the
    temperature that is not finite, is a DataError naming the file."""
    from .tensorio import read_bytes  # only here, so import calad.cli loads no new module

    def finite(key, text):
        value = float(text)
        if not np.isfinite(value):
            raise DataError(f"{path}: calibrator {key} is {value!r}, not finite")
        return value

    try:
        fields = {}
        for line in read_bytes(path).decode().splitlines():
            key, _, value = line.partition(" ")
            fields[key] = value
        kind = fields["kind"]
        if kind == "platt":
            params = PlattParams(float(fields["temperature"]),
                                 finite("intercept", fields["intercept"]))
        elif kind == "beta":
            params = BetaParams(*(finite(key, fields[key]) for key in "abc"))
        elif kind == "head":
            params = HeadParams(np.array([finite("weights", w)
                                          for w in fields["weights"].split()]),
                                finite("bias", fields["bias"]))
        else:
            raise DataError(f"{path}: unknown calibrator kind {kind!r}")
        return params, int(fields["seed"]), fields["digest"]
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: not a calibrator document: {exc!r}") from exc
