import json

import numpy as np
import pytest

from calad.calibration import BetaParams, HeadParams, PlattParams, calibrated_logit
from calad.errors import DataError, NumericalError
from calad.losses import clamp_probability, logistic_loss, sigmoid
from calad.metrics import auroc
from calad.scorer import (LossPipeline, MlpSpec, ScorerState, TrainConfig, _Adam,
                          _backprop, _forward_cache, forward, init_scorer,
                          init_svdd_center, load_scorer, save_scorer, train)
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
    flat = pipeline.state.flat  # bumped in place, then restored
    grad = np.zeros_like(flat)
    for i in range(len(flat)):
        saved = flat[i]
        flat[i] += FD_STEP
        hi = float(np.mean(pipeline.loss_values(x, y)))
        flat[i] -= 2 * FD_STEP
        lo = float(np.mean(pipeline.loss_values(x, y)))
        flat[i] = saved
        grad[i] = (hi - lo) / (2 * FD_STEP)
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
        state = ScorerState(spec, np.eye(3).ravel())
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


class TestFlatParameters:
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_layers_are_views_of_one_vector(self, use_bias):
        state = init_scorer(MlpSpec((3, 5, 4, 2), use_bias=use_bias), 3)
        for w, b in zip(state.weights, state.biases):
            assert np.shares_memory(w, state.flat)
            assert (b is None) != use_bias
            assert b is None or np.shares_memory(b, state.flat)
        # layer by layer: the row-major weight, then the bias
        parts = [part.ravel() for w, b in zip(state.weights, state.biases)
                 for part in (w, b) if part is not None]
        assert np.array_equal(np.concatenate(parts), state.flat)

    def test_wrong_length_rejected(self):
        spec = MlpSpec((3, 2))
        for size in (7, 9):
            with pytest.raises(ValueError, match="8 parameters"):
                ScorerState(spec, np.zeros(size))


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
        state.flat[:] = 0.0
        pipeline = LossPipeline(state, "logistic")
        _, grad = pipeline.loss_and_input_grad(np.ones(3), 0)
        assert np.all(grad == 0.0)

    def test_input_gradient_forms_no_parameter_gradient(self):
        # perturbation reads only the input gradient, so the call stays far
        # below the memory of one parameter-sized vector
        import tracemalloc

        state = init_scorer(MlpSpec((3, 512, 512)), 5)
        pipeline = LossPipeline(state, "hsc")
        x = np.full((2, 3), 0.2)
        pipeline.loss_and_input_grad(x, 0)
        tracemalloc.start()
        try:
            pipeline.loss_and_input_grad(x, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.flat.nbytes / 4

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
            assert np.array_equal(v, np.mean(1.0 - res.similarity, axis=(1, 2)))


def pixel_pipeline(kind, seed):
    """An fcdd or ssim pipeline and a batch of its input rows."""
    pipeline, d, _ = make_pipeline(kind, seed=seed)
    return pipeline, np.random.default_rng(seed + 50).uniform(0.05, 0.95, (5, d))


class TestScoreMap:
    """Pixels read the row chain: score map -> link -> calibrate."""

    @pytest.mark.parametrize("kind", ["mlp-fcdd", "autoencoder-ssim"])
    def test_scores_are_row_means_of_the_map(self, kind):
        pipeline, x = pixel_pipeline(kind, seed=21)
        maps = pipeline.score_map(x)
        assert maps.shape == ((5, 3, 3) if kind == "mlp-fcdd" else (5, 4, 4))
        assert np.array_equal(pipeline.scores(x), np.mean(maps, axis=(1, 2)))

    def test_ssim_map_is_one_minus_similarity(self):
        pipeline, x = pixel_pipeline("autoencoder-ssim", seed=23)
        recon = forward(pipeline.state, x).reshape(5, 4, 4)
        s = ssim_loss(x.reshape(5, 4, 4), recon, pipeline.ssim_cfg).similarity
        maps = pipeline.score_map(x)
        assert np.array_equal(maps, 1.0 - s)
        # the link reads each pixel as the estimate (1 - S) / 2
        e = clamp_probability((1.0 - s) / 2.0)
        assert np.array_equal(pipeline.link(maps)[0], np.log(e) - np.log1p(-e))

    @pytest.mark.parametrize("cal", CALIBRATORS)
    @pytest.mark.parametrize("kind", ["mlp-fcdd", "autoencoder-ssim"])
    def test_pixels_take_the_row_link_and_calibrator(self, kind, cal):
        pipeline, x = pixel_pipeline(kind, seed=24)
        pipeline.calibrator = cal
        maps = pipeline.score_map(x)
        z = pipeline.link(maps)[0]
        assert z.shape == maps.shape
        assert np.array_equal(z, natural_logit(kind, maps))
        # pixel by pixel, the chain is the one rows take
        flat_z = pipeline.link(maps.ravel())[0]
        assert np.array_equal(z.ravel(), flat_z)
        zc, eta = pipeline.calibrate(z)
        assert np.array_equal(zc.ravel(), pipeline.calibrate(flat_z)[0])
        assert np.array_equal(eta, sigmoid(zc))
        if cal is None:
            assert np.array_equal(zc, z)

    @pytest.mark.parametrize("kind", ["mlp-svdd", "mlp-hsc", "mlp-logistic", "head"])
    def test_losses_without_pixels_have_no_map(self, kind):
        pipeline, d, _ = make_pipeline(kind, seed=25)
        with pytest.raises(ValueError, match="gives no score map"):
            pipeline.score_map(np.zeros((2, d)))


def ssim_per_row_reference(pipeline, x, y):
    """One-row passes of the ssim pipeline: scores, loss values, mean loss
    and flat parameter gradient, summed row by row."""
    h, w = pipeline.image_shape
    state, cfg = pipeline.state, pipeline.ssim_cfg
    scores, losses = [], []
    total, flat = 0.0, np.zeros_like(state.flat)
    for row, yi in zip(x, y):
        out, caches = _forward_cache(state, row[None, :])
        img, recon = row.reshape(h, w), out[0].reshape(h, w)
        res = ssim_loss(img, recon, cfg)
        est = float(np.mean((1.0 - res.similarity) / 2.0))
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
        _, drecon = ssim_map_backward(res, ds, cfg)
        grad = _backprop(state, caches, drecon.reshape(1, -1), params=True)
        total += loss
        flat += grad
    return np.array(scores), np.array(losses), total / len(x), flat / len(x)


class TestBatchedSsimEqualsPerRow:
    @pytest.mark.parametrize("cal", [None, BetaParams(1.4, 0.7, 0.2)])
    @pytest.mark.parametrize("bias_free", [False, True])
    def test_scores_losses_and_param_gradient(self, cal, bias_free):
        pipeline, d, _ = make_pipeline("autoencoder-ssim", seed=7, calibrator=cal)
        if bias_free:  # a flat vector without bias slots
            pipeline.state = init_scorer(MlpSpec((d, 10, d), use_bias=False), 7)
        x = np.random.default_rng(70).uniform(0.05, 0.95, (19, d))
        y = np.arange(19) % 2
        scores, losses, mean_loss, flat = ssim_per_row_reference(pipeline, x, y)
        assert_matches_per_row(pipeline.scores(x), scores)
        assert_matches_per_row(pipeline.loss_values(x, y), losses)
        got_loss, got_flat = pipeline.loss_and_param_grad(x, y)
        assert_matches_per_row(got_loss, mean_loss)
        assert_matches_per_row(got_flat, flat)


def test_ssim_param_gradient_runs_one_window_sum(monkeypatch):
    # the backward pass reads the forward's window terms, so one
    # loss_and_param_grad makes exactly one box-sum call
    import calad.segmentation

    calls = []
    box_sum_valid = calad.segmentation.box_sum_valid

    def counted(x, w):
        calls.append(x.shape)
        return box_sum_valid(x, w)

    monkeypatch.setattr(calad.segmentation, "box_sum_valid", counted)
    pipeline, d, _ = make_pipeline("autoencoder-ssim", seed=9)
    x = np.random.default_rng(90).uniform(0.05, 0.95, (5, d))
    pipeline.loss_and_param_grad(x, np.zeros(5))
    assert len(calls) == 1


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


def trained(loss, state, x, labels, cfg, **pipeline_args):
    """The pipeline of `state` after train."""
    pipeline = LossPipeline(state, loss, **pipeline_args)
    train(pipeline, x, labels, cfg)
    return pipeline


class TestTraining:
    def test_logistic_blobs_high_auroc(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal([-1.5, -1.5], 0.4, (120, 2))
        x1 = rng.normal([1.5, 1.5], 0.4, (120, 2))
        x = np.vstack([x0, x1])
        y = np.concatenate([np.zeros(120), np.ones(120)])
        cfg = TrainConfig(learning_rate=5e-2, epochs=200, batch_size=64, seed=0)
        pipe = trained("logistic", init_scorer(MlpSpec((2, 8, 1)), 0), x, y, cfg)
        scores = forward(pipe.state, x)[:, 0]
        assert auroc(scores, y) >= 0.99

    def test_svdd_contracts_cluster(self):
        rng = np.random.default_rng(9)
        x = rng.normal([1.0, 1.0], 0.3, (200, 2))
        spec = MlpSpec((2, 16, 4), use_bias=False)
        state0 = init_scorer(spec, 1)
        center = init_svdd_center(state0, x)
        pipe = LossPipeline(state0, "svdd", center=center)
        before = float(np.mean(pipe.scores(x)))
        cfg = TrainConfig(learning_rate=1e-2, epochs=150, batch_size=64, seed=1)
        train(pipe, x, None, cfg)
        after = float(np.mean(pipe.scores(x)))
        assert after <= 0.5 * before

    def test_zero_learning_rate_keeps_params(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 2))
        state = init_scorer(MlpSpec((2, 4, 4), use_bias=False), 2)
        before = state.flat.copy()
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=2)
        trained("svdd", state, x, None, cfg, center=init_svdd_center(state, x))
        assert np.array_equal(state.flat, before)

    def test_forward_reads_the_stepped_vector(self):
        # train steps state.flat in place, and the layer views follow it
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, 2))
        state = init_scorer(MlpSpec((2, 5, 3), use_bias=False), 4)
        before = forward(state, x)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=16, seed=4)
        pipe = trained("svdd", state, x, None, cfg, center=init_svdd_center(state, x))
        assert pipe.state is state
        after = forward(state, x)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, forward(ScorerState(state.spec, state.flat), x))

    def test_reproducible_bit_identical(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(80, 2))
        y = (rng.random(80) < 0.5).astype(int)
        y[:2] = [0, 1]
        cfg = TrainConfig(learning_rate=1e-3, epochs=5, batch_size=32, seed=7)
        a, b = (trained("hsc", init_scorer(MlpSpec((2, 6, 3)), 7), x, y, cfg)
                for _ in range(2))
        assert np.array_equal(a.state.flat, b.state.flat)

        # ssim training, and batched ssim gradients with and without a
        # calibrator, rerun bit for bit
        images = rng.uniform(0.05, 0.95, (40, 16))
        ssim_cfg = SsimConfig(window=3, pad_value=0.4)
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=16, seed=7)
        a, b = (trained("ssim", init_scorer(MlpSpec((16, 10, 16)), 7), images, None, cfg,
                        ssim_cfg=ssim_cfg, image_shape=(4, 4)) for _ in range(2))
        assert np.array_equal(a.state.flat, b.state.flat)
        for cal in (None, BetaParams(1.4, 0.7, 0.2)):
            a.calibrator = cal
            for grads in (a.loss_and_input_grad, a.loss_and_param_grad):
                first, second = (grads(images[:19], y[:19]) for _ in range(2))
                assert np.array_equal(first[0], second[0])
                assert np.array_equal(first[1], second[1])

    def test_non_finite_batch_loss_names_the_epoch(self):
        state = init_scorer(MlpSpec((2, 3, 1)), 0)
        x = np.ones((8, 2))
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4)
        pipeline = LossPipeline(state, "logistic")
        train(pipeline, x, np.arange(8) % 2, cfg)  # finite: trains
        state.flat[0] = np.nan
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalError, match="a batch loss of epoch 0 is nan"):
            train(pipeline, x, np.arange(8) % 2, cfg)

    def test_non_finite_parameters_after_the_last_step_rejected(self):
        # the one batch's loss is finite, but Adam's step at this rate
        # overflows and leaves the parameters non-finite
        x = np.array([[1e6, 0.0], [-1e6, 0.0]])
        pipeline = LossPipeline(init_scorer(MlpSpec((2, 1)), 0), "logistic")
        cfg = TrainConfig(learning_rate=1e305, epochs=1, batch_size=2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="parameters are not all finite"):
            train(pipeline, x, np.array([0, 1]), cfg)

    def test_supervised_single_class_rejected(self):
        with pytest.raises(DataError):
            trained("logistic", init_scorer(MlpSpec((2, 3, 1)), 0), np.ones((10, 2)),
                    np.zeros(10), TrainConfig(epochs=1))

    def test_svdd_rejects_biased_network(self):
        with pytest.raises(ValueError, match="bias-free"):
            LossPipeline(init_scorer(MlpSpec((2, 3, 2), use_bias=True), 0), "svdd",
                         center=np.ones(2))

    def test_bias_free_structure(self):
        state = init_scorer(MlpSpec((2, 8, 4), use_bias=False), 0)
        assert all(b is None for b in state.biases)
        assert state.flat.size == 2 * 8 + 8 * 4

    def test_milestone_decay_changes_trajectory(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 2))
        base = TrainConfig(learning_rate=1e-2, epochs=6, seed=3)
        with_decay = TrainConfig(learning_rate=1e-2, epochs=6, milestones=(2,), seed=3)
        spec = MlpSpec((2, 4, 2), use_bias=False)
        center = init_svdd_center(init_scorer(spec, 3), x)
        a, b = (trained("svdd", init_scorer(spec, 3), x, None, cfg, center=center)
                for cfg in (base, with_decay))
        assert not np.array_equal(a.state.flat, b.state.flat)


class TestAdam:
    def test_in_place_step_equals_textbook_update_bitwise(self):
        rng = np.random.default_rng(9)
        n, lr = 257, 1e-3
        adam = _Adam(n, lr)
        params = rng.normal(size=n)
        want, m, v = params.copy(), np.zeros(n), np.zeros(n)
        for t in range(1, 51):
            grad = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3)
            lr_scale = 1.0 if t <= 25 else 0.1
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad * grad
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            want = want - lr * lr_scale * mhat / (np.sqrt(vhat) + 1e-8)
            adam.step(params, grad, lr_scale)
            assert np.array_equal(params, want)


class TestFreezeIsAbsolute:
    def test_trunk_untouched_by_head_path(self):
        # fitting a head never moves the trunk parameters
        from calad.calibration import fit_head

        rng = np.random.default_rng(13)
        state = init_scorer(MlpSpec((3, 6, 4)), 4)
        before = state.flat.copy()
        feats = forward(state, rng.normal(size=(100, 3)))
        fit_head(feats, rng.integers(0, 2, 100))
        assert np.array_equal(state.flat, before)


class TestHeadTrunk:
    """The scorer under a calibration head is the trained base scorer,
    minus the output layer of logistic and ssim scorers."""

    @pytest.mark.parametrize("loss", ["svdd", "hsc", "fcdd"])
    def test_trunk_is_the_base_scorer(self, loss):
        from calad.harness import _head_trunk

        state = init_scorer(MlpSpec((3, 6, 4)), 4)
        assert _head_trunk(state, loss) is state

    @pytest.mark.parametrize("use_bias", [False, True])
    def test_logistic_trunk_drops_the_output_layer(self, use_bias):
        from calad.harness import _head_trunk

        state = init_scorer(MlpSpec((3, 6, 1), use_bias=use_bias), 4)
        trunk = _head_trunk(state, "logistic")
        assert trunk.spec == MlpSpec((3, 6), use_bias=use_bias)
        x = np.random.default_rng(4).normal(size=(5, 3))
        # the features are the hidden layer's pre-activations
        assert np.array_equal(forward(trunk, x), _forward_cache(state, x)[1][0][1])


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        state = init_scorer(MlpSpec((3, 5, 2)), 21)
        save_scorer(tmp_path / "ckpt", state,
                    {"seed": 21, "epoch": 7, "loss": "hsc"})
        loaded, doc = load_scorer(tmp_path / "ckpt")
        assert set(doc) == {"seed", "epoch", "loss", "widths", "activation", "use_bias"}
        assert doc["loss"] == "hsc" and doc["epoch"] == 7
        assert loaded.spec == state.spec
        # container stores float32, so compare at that precision
        assert np.allclose(loaded.flat, state.flat, atol=1e-7)

    def test_older_manifest_freeze_flags_ignored(self, tmp_path):
        manifest, _ = self.save(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["frozen"] = [True, False]
        manifest.write_text(json.dumps(doc))
        loaded, _ = load_scorer(tmp_path / "ckpt")
        assert loaded.spec == MlpSpec((3, 4, 2))

    def test_non_tanh_checkpoint_rejected(self, tmp_path):
        save_scorer(tmp_path / "ckpt", init_scorer(MlpSpec((3, 2)), 0), {})
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        assert doc["activation"] == "tanh"
        doc["activation"] = "softplus"
        (tmp_path / "ckpt.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match="activation"):
            load_scorer(tmp_path / "ckpt")

    def save(self, tmp_path):
        save_scorer(tmp_path / "ckpt", init_scorer(MlpSpec((3, 4, 2)), 0), {"seed": 0})
        return tmp_path / "ckpt.json", tmp_path / "ckpt.calt"

    def test_wrong_length_vector_is_data_error(self, tmp_path):
        from calad.tensorio import save_tensor

        _, calt = self.save(tmp_path)
        save_tensor(calt, np.zeros(5))
        with pytest.raises(DataError, match="ckpt.calt"):
            load_scorer(tmp_path / "ckpt")

    @pytest.mark.parametrize("key", ["widths", "use_bias", "activation"])
    def test_missing_manifest_key_is_data_error(self, tmp_path, key):
        manifest, _ = self.save(tmp_path)
        doc = json.loads(manifest.read_text())
        del doc[key]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="ckpt.json"):
            load_scorer(tmp_path / "ckpt")

    def test_malformed_manifest_is_data_error(self, tmp_path):
        manifest, _ = self.save(tmp_path)
        manifest.write_text(manifest.read_text()[:-5])
        with pytest.raises(DataError, match="ckpt.json"):
            load_scorer(tmp_path / "ckpt")
