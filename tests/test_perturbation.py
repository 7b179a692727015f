import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from calad.calibration import PlattParams
from calad.perturbation import PerturbConfig, evaluate_pair, perturb, perturb_batch
from calad.scorer import LossPipeline, MlpSpec, init_scorer

from test_scorer import ARCHITECTURES, assert_matches_per_row, make_pipeline


def smooth_pipeline(seed, calibrator=None):
    state = init_scorer(MlpSpec((4, 12, 1)), seed)
    return LossPipeline(state, "logistic", calibrator=calibrator)


class TestPerturb:
    def test_zero_gradient_is_identity(self):
        x = np.array([0.1, -0.5, 2.0])
        assert np.array_equal(perturb(x, np.zeros(3), PerturbConfig()), x)

    def test_sign_arithmetic(self):
        out = perturb(np.array([0.5]), np.array([-2.0]),
                      PerturbConfig(epsilon=0.001))
        assert out[0] == pytest.approx(0.501)

    def test_default_epsilon(self):
        assert PerturbConfig().epsilon == 1.4e-3

    @given(arrays(float, 6, elements=st.floats(-5, 5)),
           arrays(float, 6, elements=st.floats(-3, 3)))
    @settings(max_examples=60, deadline=None)
    def test_infinity_norm_bound(self, x, g):
        # equality up to one rounding of x - eps
        eps = 0.01
        ulp = np.max(np.spacing(np.abs(x) + eps))
        moved = perturb(x, g, PerturbConfig(epsilon=eps))
        assert np.max(np.abs(moved - x)) <= eps + ulp
        nonzero = g != 0
        assert np.allclose(np.abs(moved - x)[nonzero], eps, atol=ulp, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            perturb(np.zeros(3), np.zeros(4), PerturbConfig())

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.zeros(2), np.array([np.nan, 0.0]), PerturbConfig())


class TestFirstOrder:
    def test_loss_decreases_for_small_epsilon(self):
        pipeline = smooth_pipeline(0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        cfg = PerturbConfig(epsilon=1e-5)
        before = pipeline.loss_values(x, 0)
        after = pipeline.loss_values(perturb_batch(pipeline, x, cfg), 0)
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
            moved = perturb(x, grad, PerturbConfig(epsilon=eps))
            drop = (loss - pipeline.loss_values(moved, 0)[0]) / eps
            l1 = np.sum(np.abs(grad))
            if l1 > 1e-8:
                assert drop == pytest.approx(l1, rel=0.1)

    def test_determinism(self):
        pipeline = smooth_pipeline(6)
        x = np.array([0.3, -0.2, 0.9, 0.0])
        cfg = PerturbConfig(epsilon=0.01)
        a = perturb_batch(pipeline, x, cfg)
        b = perturb_batch(pipeline, x, cfg)
        assert np.array_equal(a, b)


class TestBatchEqualsPerRow:
    @pytest.mark.parametrize("kind", ARCHITECTURES)
    def test_perturb_batch(self, kind):
        cfg = PerturbConfig(epsilon=0.01)
        for cal in [None, PlattParams(0.8, 0.1)]:
            pipeline, d, _ = make_pipeline(kind, seed=12, calibrator=cal)
            x = np.random.default_rng(13).uniform(0.05, 0.95, (19, d))
            losses, grads = pipeline.loss_and_input_grad(x, 0)
            rows = [pipeline.loss_and_input_grad(row, 0) for row in x]
            assert losses.shape == (19,) and grads.shape == (19, d)
            assert all(isinstance(loss, float) for loss, _ in rows)
            assert_matches_per_row(losses, [loss for loss, _ in rows])
            assert_matches_per_row(grads, [grad for _, grad in rows])
            assert np.array_equal(perturb_batch(pipeline, x, cfg), perturb(x, grads, cfg))


class TestEvaluatePair:
    def test_zero_epsilon_identity(self):
        pipeline = smooth_pipeline(7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        report = evaluate_pair(pipeline, x, y, PerturbConfig(epsilon=0.0))
        assert report.auroc_before == report.auroc_after
        assert np.array_equal(report.deltas[:, 1], report.deltas[:, 2])
        assert np.array_equal(report.deltas[:, 3], report.deltas[:, 4])

    def test_deltas_schema(self):
        pipeline = smooth_pipeline(9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(12, 4))
        y = np.array([0, 1] * 6)
        report = evaluate_pair(pipeline, x, y, PerturbConfig(epsilon=0.01))
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
