"""Gradient-based test-input perturbation and paired evaluation.

Each test input is nudged one signed-gradient step against the pipeline
loss at label 0 (normal), ``x - eps * sgn(grad)``, with sgn(0) = 0, so the
infinity norm of the move never exceeds eps. Metric suites are computed
before and after, and the per-sample loss and score deltas are kept for the
run reports.
"""

from dataclasses import dataclass

import numpy as np

from . import metrics
from .scorer import LossPipeline


@dataclass(frozen=True)
class PerturbConfig:
    epsilon: float = 1.4e-3

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass(frozen=True)
class PairReport:
    auroc_before: float
    auroc_after: float
    deltas: np.ndarray  # columns: id, loss_before, loss_after, score_before, score_after

    @property
    def kappa(self) -> float:
        return metrics.kappa_improvement(self.auroc_before, self.auroc_after)


def perturb(x, grad, cfg: PerturbConfig) -> np.ndarray:
    """x - eps * sgn(grad), elementwise."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(grad, dtype=float)
    if x.shape != g.shape:
        raise ValueError("input and gradient shapes differ")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    return x - cfg.epsilon * np.sign(g)


def perturb_batch(pipeline: LossPipeline, x, cfg: PerturbConfig) -> np.ndarray:
    """Perturb every row of x against the pipeline loss at label 0."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, grad = pipeline.loss_and_input_grad(x, 0)
    return perturb(x, grad, cfg)


def evaluate_pair(pipeline: LossPipeline, x, labels,
                  cfg: PerturbConfig = PerturbConfig()) -> PairReport:
    """AUROC over the test set before and after one perturbation step.

    Scores are the pipeline's anomaly scores; the perturbation loss uses
    label 0 for every sample. Per-sample loss and score deltas are recorded
    alongside.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    labels = np.asarray(labels)
    scores_before = pipeline.scores(x)
    losses_before = pipeline.loss_values(x, 0)
    x_tilde = perturb_batch(pipeline, x, cfg)
    scores_after = pipeline.scores(x_tilde)
    losses_after = pipeline.loss_values(x_tilde, 0)
    deltas = np.column_stack([np.arange(len(x)), losses_before, losses_after,
                              scores_before, scores_after])
    return PairReport(
        auroc_before=metrics.auroc(scores_before, labels),
        auroc_after=metrics.auroc(scores_after, labels),
        deltas=deltas,
    )
