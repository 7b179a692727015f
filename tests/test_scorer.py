import json

import numpy as np
import pytest

from calad.calibration import BetaParams, HeadParams, PlattParams, calibrated_logit
from calad.errors import DataError, NumericalError
from calad.losses import clamp_probability, logistic_loss, sigmoid
from calad.metrics import auroc
from calad.scorer import (LossPipeline, MlpSpec, ScorerState, TrainConfig,
                          _backprop, _flatten_grads, _forward_cache, forward,
                          init_scorer, init_svdd_center, load_scorer, save_scorer,
                          train)
from calad.segmentation import SsimConfig, ssim_loss, ssim_map_backward

FD_STEP = 1e-6


def fd_input_grad(pipeline, x, y):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        hi = x.copy()
        hi[i] += FD_STEP
        lo = x.copy()
        lo[i] -= FD_STEP
        grad[i] = (pipeline.loss_values(hi, y)[0]
                   - pipeline.loss_values(lo, y)[0]) / (2 * FD_STEP)
    return grad


def fd_param_grad(pipeline, x, y):
    state = pipeline.state
    flat = state.get_flat()
    grad = np.zeros_like(flat)
    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] += FD_STEP
        state.set_flat(bumped)
        hi = float(np.mean(pipeline.loss_values(x, y)))
        bumped[i] -= 2 * FD_STEP
        state.set_flat(bumped)
        lo = float(np.mean(pipeline.loss_values(x, y)))
        grad[i] = (hi - lo) / (2 * FD_STEP)
    state.set_flat(flat)
    return grad


def rel_err(a, b):
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / scale


# A batched (n, d) product may round differently from one-row products
# (BLAS blocks the sums differently), by a few units in the last place.
BATCH_TOL = 1e-12


def assert_matches_per_row(got, reference):
    """got equals a per-row reference to BATCH_TOL times its max-norm."""
    got, reference = np.asarray(got), np.asarray(reference)
    assert got.shape == reference.shape
    assert np.max(np.abs(got - reference)) <= BATCH_TOL * np.max(np.abs(reference))


def make_pipeline(kind, seed, calibrator=None):
    rng = np.random.default_rng(seed)
    if kind == "affine-logistic":
        state = init_scorer(MlpSpec((3, 1)), seed)
        return LossPipeline(state, "logistic", calibrator=calibrator), 3, None
    if kind == "mlp-logistic":
        state = init_scorer(MlpSpec((4, 8, 1)), seed)
        return LossPipeline(state, "logistic", calibrator=calibrator), 4, None
    if kind == "mlp-svdd":
        state = init_scorer(MlpSpec((4, 8, 3), use_bias=False), seed)
        center = rng.normal(0.5, 0.2, 3)
        return LossPipeline(state, "svdd", center=center,
                            calibrator=calibrator), 4, None
    if kind == "mlp-hsc":
        state = init_scorer(MlpSpec((4, 8, 3)), seed)
        return LossPipeline(state, "hsc", calibrator=calibrator), 4, None
    if kind == "mlp-fcdd":
        state = init_scorer(MlpSpec((4, 10, 9)), seed)
        return LossPipeline(state, "fcdd", calibrator=calibrator), 4, None
    if kind == "autoencoder-ssim":
        state = init_scorer(MlpSpec((16, 10, 16)), seed)
        cfg = SsimConfig(window=3, pad_value=0.4)
        return LossPipeline(state, "ssim", calibrator=calibrator,
                            ssim_cfg=cfg, image_shape=(4, 4)), 16, None
    if kind == "head":
        state = init_scorer(MlpSpec((4, 8, 3)), seed)
        head = HeadParams(rng.normal(0, 0.5, 3), 0.2)
        return LossPipeline(state, "logistic", head=head,
                            calibrator=calibrator), 4, None
    raise ValueError(kind)


ARCHITECTURES = ["affine-logistic", "mlp-logistic", "mlp-svdd", "mlp-hsc",
                 "mlp-fcdd", "autoencoder-ssim", "head"]


class TestForward:
    def test_identity_layer(self):
        spec = MlpSpec((3, 3), use_bias=False)
        state = ScorerState(spec, [np.eye(3)], [None])
        x = np.array([0.3, -1.2, 2.0])
        assert np.array_equal(forward(state, x)[0], x)

    def test_zero_through_bias_free_odd_net(self):
        state = init_scorer(MlpSpec((4, 8, 8, 2), use_bias=False), seed=5)
        out = forward(state, np.zeros(4))
        assert np.all(out == 0.0)

    def test_deterministic(self):
        a = forward(init_scorer(MlpSpec((3, 5, 2)), 11), np.ones(3))
        b = forward(init_scorer(MlpSpec((3, 5, 2)), 11), np.ones(3))
        assert np.array_equal(a, b)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            forward(init_scorer(MlpSpec((3, 2)), 0), np.ones(4))


class TestGradientContract:
    @pytest.mark.parametrize("kind", ARCHITECTURES)
    def test_input_gradient_matches_finite_differences(self, kind):
        pipeline, d, _ = make_pipeline(kind, seed=1)
        rng = np.random.default_rng(100)
        for probe in range(20):
            x = rng.uniform(0.05, 0.95, d)
            y = probe % 2
            _, grad = pipeline.loss_and_input_grad(x, y)
            assert rel_err(grad, fd_input_grad(pipeline, x, y)) < 1e-5

    @pytest.mark.parametrize("kind", ARCHITECTURES)
    def test_param_gradient_matches_finite_differences(self, kind):
        pipeline, d, _ = make_pipeline(kind, seed=2)
        rng = np.random.default_rng(200)
        for probe in range(5):
            x = rng.uniform(0.05, 0.95, (3, d))
            y = np.array([0, 1, probe % 2])
            _, grad = pipeline.loss_and_param_grad(x, y)
            assert rel_err(grad, fd_param_grad(pipeline, x, y)) < 1e-5

    @pytest.mark.parametrize("cal", [PlattParams(2.5, -0.4),
                                     BetaParams(1.4, 0.7, 0.2)])
    def test_gradients_flow_through_calibrators(self, cal):
        pipeline, d, _ = make_pipeline("mlp-svdd", seed=3, calibrator=cal)
        rng = np.random.default_rng(300)
        for probe in range(10):
            x = rng.uniform(-0.8, 0.8, d)
            _, grad = pipeline.loss_and_input_grad(x, 0)
            assert rel_err(grad, fd_input_grad(pipeline, x, 0)) < 1e-5

    def test_constant_network_zero_gradient(self):
        spec = MlpSpec((3, 2, 1))
        state = init_scorer(spec, 0)
        state.weights = [np.zeros_like(w) for w in state.weights]
        state.biases = [np.zeros_like(b) for b in state.biases]
        pipeline = LossPipeline(state, "logistic")
        _, grad = pipeline.loss_and_input_grad(np.ones(3), 0)
        assert np.all(grad == 0.0)

    def test_frozen_layers_zero_param_gradient(self):
        pipeline, d, _ = make_pipeline("mlp-logistic", seed=5)
        pipeline.state.frozen = [True] * pipeline.state.n_layers
        _, grad = pipeline.loss_and_param_grad(np.ones((2, d)) * 0.2, [0, 1])
        assert np.all(grad == 0.0)

    def test_batch_of_one_equals_single(self):
        pipeline, d, _ = make_pipeline("mlp-hsc", seed=6)
        x = np.full(d, 0.4)
        single = pipeline.loss_and_param_grad(x, 1)
        batch = pipeline.loss_and_param_grad(x[None, :], [1])
        assert single[0] == batch[0]
        assert np.array_equal(single[1], batch[1])


CALIBRATORS = [None, PlattParams(2.5, -0.4), BetaParams(1.4, 0.7, 0.2)]


def natural_logit(kind, v):
    """The link from raw score to logit, written from its definition."""
    if kind == "autoencoder-ssim":
        e = clamp_probability(v / 2.0)
    elif kind in ("mlp-hsc", "mlp-fcdd"):
        e = clamp_probability(-np.expm1(-v))
    else:
        return v
    return np.log(e) - np.log1p(-e)


class TestOneChain:
    """Every public method reads the same rows -> v -> z -> loss chain."""

    @pytest.mark.parametrize("cal", CALIBRATORS)
    @pytest.mark.parametrize("kind", ARCHITECTURES)
    def test_scores_logits_and_losses_agree(self, kind, cal):
        pipeline, d, _ = make_pipeline(kind, seed=8, calibrator=cal)
        x = np.random.default_rng(80).uniform(0.05, 0.95, (7, d))
        y = np.arange(7) % 2
        v = pipeline.scores(x)
        assert np.array_equal(pipeline.logits(x), natural_logit(kind, v))
        assert np.array_equal(pipeline.loss_values(x, y),
                              pipeline.loss_and_input_grad(x, y)[0])
        assert pipeline.loss_and_param_grad(x, y)[0] == float(
            np.mean(pipeline.loss_values(x, y)))
        if kind == "autoencoder-ssim":
            h, w = pipeline.image_shape
            recon = forward(pipeline.state, x).reshape(-1, h, w)
            res = ssim_loss(x.reshape(-1, h, w), recon, pipeline.ssim_cfg)
            assert np.array_equal(v, 2.0 * np.mean(res.estimates, axis=(1, 2)))


def ssim_per_row_reference(pipeline, x, y):
    """One-row passes of the ssim pipeline: scores, loss values, mean loss
    and flat parameter gradient, summed row by row."""
    h, w = pipeline.image_shape
    state, cfg = pipeline.state, pipeline.ssim_cfg
    scores, losses = [], []
    total, flat = 0.0, np.zeros(state.n_params())
    for row, yi in zip(x, y):
        out, caches = _forward_cache(state, row[None, :])
        img, recon = row.reshape(h, w), out[0].reshape(h, w)
        res = ssim_loss(img, recon, cfg)
        est = float(np.mean(res.estimates))
        scores.append(2.0 * est)
        if pipeline.calibrator is None:
            loss = res.loss
            ds = np.full((h, w), -1.0 / (h * w))
        else:
            e = clamp_probability(est)
            zc, dzc_dz = calibrated_logit(pipeline.calibrator,
                                          np.asarray([np.log(e) - np.log1p(-e)]))
            loss = float(logistic_loss(yi, zc[0]))
            factor = (sigmoid(zc[0]) - yi) * dzc_dz[0] * (1.0 / (e * (1.0 - e)))
            ds = np.full((h, w), -factor / (2.0 * h * w))
        losses.append(loss)
        _, drecon = ssim_map_backward(img, recon, ds, cfg)
        w_grads, b_grads, _ = _backprop(state, caches, drecon.reshape(1, -1))
        total += loss
        flat += _flatten_grads(state, w_grads, b_grads)
    return np.array(scores), np.array(losses), total / len(x), flat / len(x)


class TestBatchedSsimEqualsPerRow:
    @pytest.mark.parametrize("cal", [None, BetaParams(1.4, 0.7, 0.2)])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_scores_losses_and_param_gradient(self, cal, frozen):
        pipeline, d, _ = make_pipeline("autoencoder-ssim", seed=7, calibrator=cal)
        pipeline.state.frozen[0] = frozen
        x = np.random.default_rng(70).uniform(0.05, 0.95, (19, d))
        y = np.arange(19) % 2
        scores, losses, mean_loss, flat = ssim_per_row_reference(pipeline, x, y)
        assert_matches_per_row(pipeline.scores(x), scores)
        assert_matches_per_row(pipeline.loss_values(x, y), losses)
        got_loss, got_flat = pipeline.loss_and_param_grad(x, y)
        assert_matches_per_row(got_loss, mean_loss)
        assert_matches_per_row(got_flat, flat)


class TestSvddCenter:
    def test_single_input(self):
        state = init_scorer(MlpSpec((2, 4, 3), use_bias=False), 1)
        x = np.array([[0.5, -0.25]])
        assert np.array_equal(init_svdd_center(state, x), forward(state, x)[0])

    def test_symmetric_pair_collapses(self):
        state = init_scorer(MlpSpec((2, 4, 3), use_bias=False), 2)
        v = np.array([0.7, -0.3])
        with pytest.raises(NumericalError):
            init_svdd_center(state, np.stack([v, -v]))

    def test_matches_mean_oracle(self):
        state = init_scorer(MlpSpec((2, 4, 3), use_bias=False), 3)
        rng = np.random.default_rng(4)
        x = rng.normal(0.5, 1.0, (100, 2))
        expected = np.mean([forward(state, row)[0] for row in x], axis=0)
        assert np.max(np.abs(init_svdd_center(state, x) - expected)) < 1e-12

    def test_empty_rejected(self):
        state = init_scorer(MlpSpec((2, 4, 3), use_bias=False), 5)
        with pytest.raises(DataError):
            init_svdd_center(state, np.empty((0, 2)))


class TestTraining:
    def test_logistic_blobs_high_auroc(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal([-1.5, -1.5], 0.4, (120, 2))
        x1 = rng.normal([1.5, 1.5], 0.4, (120, 2))
        x = np.vstack([x0, x1])
        y = np.concatenate([np.zeros(120), np.ones(120)])
        cfg = TrainConfig(loss="logistic", learning_rate=5e-2, epochs=200,
                          batch_size=64, seed=0)
        state = train(init_scorer(MlpSpec((2, 8, 1)), 0), x, y, cfg)
        scores = forward(state, x)[:, 0]
        assert auroc(scores, y) >= 0.99

    def test_svdd_contracts_cluster(self):
        rng = np.random.default_rng(9)
        x = rng.normal([1.0, 1.0], 0.3, (200, 2))
        spec = MlpSpec((2, 16, 4), use_bias=False)
        state0 = init_scorer(spec, 1)
        center = init_svdd_center(state0, x)
        pipe0 = LossPipeline(state0, "svdd", center=center)
        before = float(np.mean(pipe0.scores(x)))
        cfg = TrainConfig(loss="svdd", learning_rate=1e-2, epochs=150,
                          batch_size=64, seed=1)
        trained = train(state0, x, None, cfg, center=center)
        after = float(np.mean(LossPipeline(trained, "svdd", center=center).scores(x)))
        assert after <= 0.5 * before

    def test_zero_learning_rate_keeps_params(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 2))
        state = init_scorer(MlpSpec((2, 4, 4), use_bias=False), 2)
        center = init_svdd_center(state, x)
        cfg = TrainConfig(loss="svdd", learning_rate=0.0, epochs=3, seed=2)
        trained = train(state, x, None, cfg, center=center)
        assert np.array_equal(trained.get_flat(), state.get_flat())

    def test_reproducible_bit_identical(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(80, 2))
        y = (rng.random(80) < 0.5).astype(int)
        y[:2] = [0, 1]
        cfg = TrainConfig(loss="hsc", learning_rate=1e-3, epochs=5,
                          batch_size=32, seed=7)
        a = train(init_scorer(MlpSpec((2, 6, 3)), 7), x, y, cfg)
        b = train(init_scorer(MlpSpec((2, 6, 3)), 7), x, y, cfg)
        assert np.array_equal(a.get_flat(), b.get_flat())

        # ssim training, and batched ssim gradients with and without a
        # calibrator, rerun bit for bit
        images = rng.uniform(0.05, 0.95, (40, 16))
        ssim_cfg = SsimConfig(window=3, pad_value=0.4)
        cfg = TrainConfig(loss="ssim", learning_rate=1e-3, epochs=3,
                          batch_size=16, seed=7)
        a, b = (train(init_scorer(MlpSpec((16, 10, 16)), 7), images, None, cfg,
                      ssim_cfg=ssim_cfg, image_shape=(4, 4)) for _ in range(2))
        assert np.array_equal(a.get_flat(), b.get_flat())
        for cal in (None, BetaParams(1.4, 0.7, 0.2)):
            pipe = LossPipeline(a, "ssim", calibrator=cal, ssim_cfg=ssim_cfg,
                                image_shape=(4, 4))
            for grads in (pipe.loss_and_input_grad, pipe.loss_and_param_grad):
                first, second = (grads(images[:19], y[:19]) for _ in range(2))
                assert np.array_equal(first[0], second[0])
                assert np.array_equal(first[1], second[1])

    def test_supervised_single_class_rejected(self):
        with pytest.raises(DataError):
            train(init_scorer(MlpSpec((2, 3, 1)), 0), np.ones((10, 2)),
                  np.zeros(10), TrainConfig(loss="logistic", epochs=1))

    def test_svdd_rejects_biased_network(self):
        with pytest.raises(ValueError):
            train(init_scorer(MlpSpec((2, 3, 2), use_bias=True), 0),
                  np.ones((10, 2)), None, TrainConfig(loss="svdd", epochs=1))

    def test_bias_free_structure(self):
        state = init_scorer(MlpSpec((2, 8, 4), use_bias=False), 0)
        assert all(b is None for b in state.biases)
        assert state.n_params() == 2 * 8 + 8 * 4

    def test_milestone_decay_changes_trajectory(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 2))
        base = TrainConfig(loss="svdd", learning_rate=1e-2, epochs=6, seed=3)
        with_decay = TrainConfig(loss="svdd", learning_rate=1e-2, epochs=6,
                                 milestones=(2,), seed=3)
        spec = MlpSpec((2, 4, 2), use_bias=False)
        center = init_svdd_center(init_scorer(spec, 3), x)
        a = train(init_scorer(spec, 3), x, None, base, center=center)
        b = train(init_scorer(spec, 3), x, None, with_decay, center=center)
        assert not np.array_equal(a.get_flat(), b.get_flat())


class TestFreezeIsAbsolute:
    def test_trunk_untouched_by_head_path(self):
        # fitting a head never moves frozen trunk parameters
        from calad.calibration import fit_head

        rng = np.random.default_rng(13)
        state = init_scorer(MlpSpec((3, 6, 4)), 4)
        state.frozen = [True] * state.n_layers
        before = state.get_flat().copy()
        feats = forward(state, rng.normal(size=(100, 3)))
        fit_head(feats, rng.integers(0, 2, 100))
        assert np.array_equal(state.get_flat(), before)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        state = init_scorer(MlpSpec((3, 5, 2)), 21)
        state.frozen = [True, False]
        save_scorer(tmp_path / "ckpt", state,
                    {"seed": 21, "epoch": 7, "loss": "hsc"})
        loaded, doc = load_scorer(tmp_path / "ckpt")
        assert doc["loss"] == "hsc" and doc["epoch"] == 7
        assert loaded.frozen == [True, False]
        # container stores float32, so compare at that precision
        assert np.allclose(loaded.get_flat(), state.get_flat(), atol=1e-7)

    def test_non_tanh_checkpoint_rejected(self, tmp_path):
        save_scorer(tmp_path / "ckpt", init_scorer(MlpSpec((3, 2)), 0), {})
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        assert doc["activation"] == "tanh"
        doc["activation"] = "softplus"
        (tmp_path / "ckpt.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match="activation"):
            load_scorer(tmp_path / "ckpt")
