from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from calad import LOSSES
from calad.calibration import PlattParams, calibrated_logit
from calad.harness import (SPLIT_RATIO, ExperimentConfig, _fit_calibrator, _load_dataset,
                           _train_arm, split)
from calad.losses import sigmoid
from calad.perturbation import evaluate_pair, perturb, perturb_batch
from calad.scorer import LOCALIZING_LOSSES, LossPipeline, MlpSpec, init_scorer

from test_scorer import ARCHITECTURES, assert_matches_per_row, make_pipeline


def smooth_pipeline(seed, calibrator=None):
    state = init_scorer(MlpSpec((4, 12, 1)), seed)
    return LossPipeline(state, "logistic", calibrator=calibrator)


class TestPerturb:
    def test_zero_gradient_is_identity(self):
        x = np.array([0.1, -0.5, 2.0])
        assert np.array_equal(perturb(x, np.zeros(3), 1.4e-3), x)

    def test_sign_arithmetic(self):
        out = perturb(np.array([0.5]), np.array([-2.0]), 0.001)
        assert out[0] == pytest.approx(0.501)

    @pytest.mark.parametrize("eps", [-1e-3, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            perturb(np.zeros(2), np.ones(2), eps)

    @given(arrays(float, 6, elements=st.floats(-5, 5)),
           arrays(float, 6, elements=st.floats(-3, 3)))
    @settings(max_examples=60, deadline=None)
    def test_infinity_norm_bound(self, x, g):
        # equality up to one rounding of x - eps
        eps = 0.01
        ulp = np.max(np.spacing(np.abs(x) + eps))
        moved = perturb(x, g, eps)
        assert np.max(np.abs(moved - x)) <= eps + ulp
        nonzero = g != 0
        assert np.allclose(np.abs(moved - x)[nonzero], eps, atol=ulp, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            perturb(np.zeros(3), np.zeros(4), 1.4e-3)

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.zeros(2), np.array([np.nan, 0.0]), 1.4e-3)


class TestFirstOrder:
    def test_loss_decreases_for_small_epsilon(self):
        pipeline = smooth_pipeline(0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        before = pipeline.loss_values(x, 0)
        after = pipeline.loss_values(perturb_batch(pipeline, x, 1e-5), 0)
        assert np.all(after <= before + 1e-9)

    def test_fgs_dual_increases_loss(self):
        pipeline = smooth_pipeline(2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=4)
            loss, grad = pipeline.loss_and_input_grad(x, 0)
            eps = 1e-5
            down = pipeline.loss_values(x - eps * np.sign(grad), 0)[0]
            up = pipeline.loss_values(x + eps * np.sign(grad), 0)[0]
            assert up >= down

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
    def test_first_order_law(self, eps):
        # (loss(x) - loss(x~)) / eps approaches the l1 norm of the gradient
        pipeline = smooth_pipeline(4)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=4)
            loss, grad = pipeline.loss_and_input_grad(x, 0)
            moved = perturb(x, grad, eps)
            drop = (loss - pipeline.loss_values(moved, 0)[0]) / eps
            l1 = np.sum(np.abs(grad))
            if l1 > 1e-8:
                assert drop == pytest.approx(l1, rel=0.1)

    def test_determinism(self):
        pipeline = smooth_pipeline(6)
        x = np.array([0.3, -0.2, 0.9, 0.0])
        a = perturb_batch(pipeline, x, 0.01)
        b = perturb_batch(pipeline, x, 0.01)
        assert np.array_equal(a, b)


class TestBatchEqualsPerRow:
    @pytest.mark.parametrize("kind", ARCHITECTURES)
    def test_perturb_batch(self, kind):
        for cal in [None, PlattParams(0.8, 0.1)]:
            pipeline, d, _ = make_pipeline(kind, seed=12, calibrator=cal)
            x = np.random.default_rng(13).uniform(0.05, 0.95, (19, d))
            losses, grads = pipeline.loss_and_input_grad(x, 0)
            rows = [pipeline.loss_and_input_grad(row, 0) for row in x]
            assert losses.shape == (19,) and grads.shape == (19, d)
            assert all(isinstance(loss, float) for loss, _ in rows)
            assert_matches_per_row(losses, [loss for loss, _ in rows])
            assert_matches_per_row(grads, [grad for _, grad in rows])
            assert np.array_equal(perturb_batch(pipeline, x, 0.01), perturb(x, grads, 0.01))


class TestEvaluatePair:
    def test_zero_epsilon_identity(self):
        pipeline = smooth_pipeline(7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        report = evaluate_pair(pipeline, x, y, 0.0)
        assert report.auroc_before == report.auroc_after
        assert np.array_equal(report.deltas[:, 1], report.deltas[:, 2])
        assert np.array_equal(report.deltas[:, 3], report.deltas[:, 4])

    def test_deltas_schema(self):
        pipeline = smooth_pipeline(9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(12, 4))
        y = np.array([0, 1] * 6)
        report = evaluate_pair(pipeline, x, y, 0.01)
        assert report.deltas.shape == (12, 5)
        assert np.array_equal(report.deltas[:, 0], np.arange(12))

    def test_gradient_flows_through_calibrator_when_attached(self):
        x = np.array([0.4, -0.1, 0.2, 0.6])
        plain = smooth_pipeline(11)
        scaled = LossPipeline(plain.state, "logistic",
                              calibrator=PlattParams(4.0, 0.0))
        _, g_plain = plain.loss_and_input_grad(x, 0)
        _, g_scaled = scaled.loss_and_input_grad(x, 0)
        # same direction but damped by the temperature
        assert np.allclose(np.sign(g_plain), np.sign(g_scaled))
        assert np.all(np.abs(g_scaled) < np.abs(g_plain))


@pytest.fixture(scope="module", params=LOSSES)
def trained_base(request):
    """(cfg, base, x, cal_x, cal_y): the uncalibrated split-arm base of a
    run of one loss, trained by the runner for five epochs at a higher
    learning rate, with the arm's normalized test rows and balanced
    calibration set."""
    loss = request.param
    cfg = ExperimentConfig(normal="builtin:tiles" if loss in LOCALIZING_LOSSES
                           else "builtin:gauss2d", loss=loss, seeds=(0,), epochs=5,
                           learning_rate=1e-3)
    dataset = _load_dataset(cfg)
    arm = _train_arm(cfg, dataset, 0, *split(dataset["normal"], SPLIT_RATIO, 0))
    return cfg, arm.base, arm.x_test, *arm.calib


class TestMonotoneCalibrator:
    """A Platt or Beta map scales each row's loss gradient by a factor
    that is positive or exactly 0, so it cannot change the sign that the
    perturbation step takes: a calibrated row moves as its uncalibrated
    base's does, or not at all."""

    @pytest.mark.parametrize("kind", ["platt", "beta"])
    def test_perturbation_is_the_base_s_wherever_the_slope_is_positive(
            self, trained_base, kind):
        cfg, base, x, cal_x, cal_y = trained_base
        moved = perturb_batch(base, x, cfg.epsilon)
        assert not np.array_equal(moved, x)
        calibrated, (params, _) = _fit_calibrator(
            replace(cfg, calibrator=kind), base, cal_x, cal_y,
            0, localization=cfg.loss in LOCALIZING_LOSSES)
        # the fit builds a new pipeline and leaves the base uncalibrated
        assert base.calibrator is None
        assert np.array_equal(perturb_batch(base, x, cfg.epsilon), moved)
        # d(calibrated loss at label 0)/dv: sigmoid(zc) * dzc/dz * dz/dv
        z, dz_dv = base.link(base.scores(x))
        zc, dzc_dz = calibrated_logit(params, z)
        positive = sigmoid(zc) * dzc_dz * dz_dv > 0
        got = perturb_batch(calibrated, x, cfg.epsilon)
        assert np.array_equal(got[positive], moved[positive])
        assert np.array_equal(got[~positive], x[~positive])

    def test_infinite_temperature_leaves_the_rows_unmoved(self, trained_base):
        cfg, base, x, _, _ = trained_base
        flat = LossPipeline(base.state, base.loss_name, center=base.center,
                            calibrator=PlattParams(np.inf, 0.25), image_shape=base.image_shape)
        assert np.array_equal(perturb_batch(flat, x, cfg.epsilon), x)
