"""Binary class-probability-estimation losses and propriety probes.

A binary CPE loss is a pair of partial losses over the probability estimate:
``loss(y, eta_hat) = y * partial_1(eta_hat) + (1 - y) * partial_0(eta_hat)``.
The scorer-side losses (logistic, hsc, pseudo-Huber) act on unbounded
scores; the registry reads them in estimate units for the propriety probes.

Propriety of a loss is probed numerically: a proper loss has a vanishing
stationarity residual ``(1 - eta) * partial_0'(eta) + eta * partial_1'(eta)``
on any interior grid, and a strictly proper one additionally has a strictly
positive second derivative of the conditional risk on its diagonal.
"""

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Global floor keeping probability estimates away from {0, 1} before any log.
EPS_CLAMP = 1e-7
FD_STEP = 1e-5  # central finite-difference step of the propriety probes


def clamp_probability(eta_hat):
    """Clamp estimates into [EPS_CLAMP, 1 - EPS_CLAMP]."""
    return np.clip(eta_hat, EPS_CLAMP, 1.0 - EPS_CLAMP)


def sigmoid(v):
    """Numerically stable logistic function 1 / (1 + exp(-v)).

    With e = exp(-|v|), never an overflow, this is 1 / (1 + e) for v >= 0
    and e / (1 + e) below: the same exp input and division as masked
    branches would compute, so the bits agree, without the mask copies.
    """
    v = np.asarray(v, dtype=float)
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def logit(eta_hat):
    """Inverse of sigmoid; requires inputs strictly inside (0, 1)."""
    e = np.asarray(eta_hat, dtype=float)
    if np.any((e <= 0.0) | (e >= 1.0)):
        bad = e[(e <= 0.0) | (e >= 1.0)].ravel()[0]
        raise ValueError(f"logit is undefined at {bad!r}; need 0 < value < 1")
    out = np.log(e) - np.log1p(-e)
    return out if out.ndim else float(out)


def logistic_loss(y, v):
    """y ln(1 + e^-v) + (1 - y) ln(1 + e^v), evaluated without overflow."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.logaddexp(0.0, (1.0 - 2.0 * y) * v)
    return out if out.ndim else float(out)


def hsc_loss(y, v):
    """-y ln(1 - e^-v) + (1 - y) v for nonnegative scores v.

    At v = 0 the anomalous branch is clamped to a finite value and a
    warning is emitted, since 1 - e^-v collapses to 0 there.
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("hsc_loss requires v >= 0")
    inner = -np.expm1(-v)
    if np.any((y == 1) & (inner < EPS_CLAMP)):
        warnings.warn("hsc_loss clamped 1 - e^-v to eps for an anomalous sample",
                      stacklevel=2)
    inner = np.maximum(inner, EPS_CLAMP)
    out = -y * np.log(inner) + (1.0 - y) * v
    return out if out.ndim else float(out)


def pseudo_huber(sq_norm):
    """Smooth distance surrogate sqrt(s + 1) - 1 of a squared norm."""
    s = np.asarray(sq_norm, dtype=float)
    if np.any(s < 0):
        raise ValueError("pseudo_huber requires a nonnegative squared norm")
    out = np.sqrt(s + 1.0) - 1.0
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LossSpec:
    """A binary CPE loss given by its partial losses, which act on
    probability estimates."""

    name: str
    partial_0: Callable
    partial_1: Callable


def conditional_risk(eta, eta_hat, loss: LossSpec):
    """eta * partial_1(eta_hat) + (1 - eta) * partial_0(eta_hat); at a
    label eta = y in {0, 1} this is the loss of one sample."""
    eta = np.asarray(eta, dtype=float)
    out = eta * loss.partial_1(eta_hat) + (1.0 - eta) * loss.partial_0(eta_hat)
    return out if out.ndim else float(out)


def check_stationarity(loss: LossSpec, eta_grid) -> np.ndarray:
    """Per-eta stationarity residuals (1-eta) p0'(eta) + eta p1'(eta).

    Partial derivatives are taken by central finite differences with step
    FD_STEP. Proper losses balance the two terms and leave residuals at
    the finite-difference noise floor; improper losses do not. Non-finite
    derivatives surface as NaN entries rather than raising.
    """
    grid = np.asarray(eta_grid, dtype=float)
    if np.any((grid <= 0.0) | (grid >= 1.0)):
        raise ValueError("stationarity grid must lie strictly inside (0, 1)")
    # a partial that overflows near 0 or 1 becomes a NaN entry below
    with np.errstate(all="ignore"):
        d0 = (loss.partial_0(grid + FD_STEP) - loss.partial_0(grid - FD_STEP)) / (2 * FD_STEP)
        d1 = (loss.partial_1(grid + FD_STEP) - loss.partial_1(grid - FD_STEP)) / (2 * FD_STEP)
        r = (1.0 - grid) * d0 + grid * d1
    return np.where(np.isfinite(r), r, np.nan)


def check_strict_propriety(loss: LossSpec, eta_grid) -> np.ndarray:
    """Second derivative of the conditional risk in eta_hat, on the diagonal.

    Estimated by a central second difference with step FD_STEP. Strictly positive values on
    the grid certify a unique risk minimizer at eta_hat = eta.
    """
    grid = np.asarray(eta_grid, dtype=float)
    # a risk that overflows near 0 or 1 becomes a NaN entry below
    with np.errstate(all="ignore"):
        lo = conditional_risk(grid, grid - FD_STEP, loss)
        mid = conditional_risk(grid, grid, loss)
        hi = conditional_risk(grid, grid + FD_STEP, loss)
        d2 = (hi - 2.0 * mid + lo) / FD_STEP ** 2
    return np.where(np.isfinite(d2), d2, np.nan)


def _log_partial_0(eta_hat):
    return -np.log1p(-clamp_probability(np.asarray(eta_hat, dtype=float)))


def _log_partial_1(eta_hat):
    return -np.log(clamp_probability(np.asarray(eta_hat, dtype=float)))


def _logistic_partial_0(eta_hat):
    # composed through the logit link; analytically equal to the log partial
    return logistic_loss(0, logit(clamp_probability(np.asarray(eta_hat, dtype=float))))


def _logistic_partial_1(eta_hat):
    return logistic_loss(1, logit(clamp_probability(np.asarray(eta_hat, dtype=float))))


def _hsc_probe_partial_0(eta_hat):
    # The normal-class penalty is the raw score, which keeps unit slope when
    # read in estimate units; pairing it with the log anomalous partial is
    # what breaks the stationarity balance, leaving a residual of size eta.
    return np.asarray(eta_hat, dtype=float)


REGISTRY = {
    "log": LossSpec("log", _log_partial_0, _log_partial_1),
    "logistic": LossSpec("logistic", _logistic_partial_0, _logistic_partial_1),
    "hsc": LossSpec("hsc", _hsc_probe_partial_0, _log_partial_1),
}
