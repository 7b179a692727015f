import numpy as np
import pytest
from mpmath import mp

from calad.calibration import (BetaParams, HeadParams, OptimizerConfig,
                               PlattParams, beta_transform, calibrated_logit,
                               ece, fit_beta,
                               fit_head, fit_platt, fitting_digest,
                               head_transform, load_calibrator, mce, minimize,
                               platt_transform, reliability, save_calibrator)
from calad.errors import DataError, NumericalError
from calad.losses import logistic_loss, logit, sigmoid
from calad.metrics import auroc

mp.dps = 40


def reliability_oracle(preds, labels, k):
    """Direct per-sample binning loop with the half-open rule."""
    counts = np.zeros(k, dtype=int)
    sums_y = np.zeros(k)
    sums_p = np.zeros(k)
    for p, y in zip(preds, labels):
        idx = 0
        for b in range(k):
            lo, hi = b / k, (b + 1) / k
            if lo < p <= hi:
                idx = b
                break
        counts[idx] += 1
        sums_y[idx] += y
        sums_p[idx] += p
    freq = np.where(counts > 0, sums_y / np.maximum(counts, 1), 0.0)
    conf = np.where(counts > 0, sums_p / np.maximum(counts, 1), 0.0)
    return counts, freq, conf


def ece_mce_oracle(preds, labels, k):
    counts, freq, conf = reliability_oracle(preds, labels, k)
    gaps = np.abs(freq - conf)
    e = float(np.sum(counts / counts.sum() * gaps))
    m = float(np.max(gaps[counts > 0]))
    return e, m


def make_platt_data(t_true, c_true, n, seed, spread=4.0):
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, spread, n)
    y = (rng.random(n) < sigmoid(z / t_true + c_true)).astype(int)
    return z, y


class TestPlattTransform:
    def test_identity(self):
        z = np.linspace(-5, 5, 11)
        zp, eta = platt_transform(z, PlattParams(1.0, 0.0))
        assert np.allclose(zp, z)
        assert np.allclose(eta, sigmoid(z))

    def test_hand_case(self):
        zp, eta = platt_transform(2.0, PlattParams(2.0, -1.0))
        assert zp == pytest.approx(0.0)
        assert eta == pytest.approx(0.5)

    def test_rank_preservation(self):
        rng = np.random.default_rng(0)
        z = np.sort(rng.normal(size=100))
        _, eta = platt_transform(z, PlattParams(0.7, 1.3))
        assert np.all(np.diff(eta) >= 0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            PlattParams(0.0, 0.0)
        with pytest.raises(ValueError):
            PlattParams(-2.0, 0.0)


class TestBetaTransform:
    def test_identity(self):
        e = np.linspace(0.01, 0.99, 50)
        _, out = beta_transform(e, BetaParams(1.0, 1.0, 0.0))
        assert np.max(np.abs(out - e)) < 1e-12

    def test_platt_equivalence(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-12, 12, 1000)
        for t, c in [(0.5, 0.3), (3.0, -1.0), (1.7, 2.0)]:
            _, eta_p = platt_transform(z, PlattParams(t, c))
            _, eta_b = beta_transform(sigmoid(z), BetaParams(1 / t, 1 / t, c))
            assert np.max(np.abs(eta_p - eta_b)) < 1e-12

    def test_asymmetric_hand_case(self):
        # z = 2 ln(0.5) - ln(0.5) = ln(0.5); sigmoid(ln 0.5) = 1/3
        zb, eta = beta_transform(0.5, BetaParams(2.0, 1.0, 0.0))
        assert zb == pytest.approx(float(mp.log(0.5)), abs=1e-14)
        assert eta == pytest.approx(float(1 / (1 + mp.exp(-mp.log(0.5)))), abs=1e-14)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            BetaParams(-0.1, 1.0, 0.0)

    def test_saturated_inputs_finite(self):
        zb, eta = beta_transform(np.array([0.0, 1.0]), BetaParams(2.0, 0.5, 0.1))
        assert np.all(np.isfinite(zb)) and np.all(np.isfinite(eta))


class TestCalibratedLogit:
    @pytest.mark.parametrize("params", [PlattParams(2.5, -0.4),
                                        BetaParams(1.4, 0.7, 0.2)])
    def test_derivative_matches_finite_differences(self, params):
        z = np.linspace(-6.0, 6.0, 25)
        step = 1e-6
        zc, dzc = calibrated_logit(params, z)
        fd = (calibrated_logit(params, z + step)[0]
              - calibrated_logit(params, z - step)[0]) / (2 * step)
        assert np.allclose(dzc, fd, rtol=1e-6, atol=1e-8)
        # the logit the estimate transforms put through the sigmoid
        if isinstance(params, PlattParams):
            assert np.array_equal(zc, platt_transform(z, params)[0])
        else:
            assert np.array_equal(zc, beta_transform(sigmoid(z), params)[0])

    def test_head_has_no_logit_map(self):
        with pytest.raises(ValueError):
            calibrated_logit(HeadParams(np.ones(2), 0.0), np.zeros(3))


class TestHeadTransform:
    def test_zero_head(self):
        z, eta = head_transform(np.array([1.0, -2.0]), HeadParams(np.zeros(2), 0.0))
        assert z == 0.0 and eta == 0.5

    def test_linearity_in_feature(self):
        w = HeadParams(np.array([2.0, 0.0]), 0.0)
        z1, _ = head_transform(np.array([1.0, 5.0]), w)
        z2, _ = head_transform(np.array([2.0, -3.0]), w)
        assert z2 == pytest.approx(2 * z1)

    def test_hand_case(self):
        z, eta = head_transform(np.array([0.5, 0.5, 0.25]),
                                HeadParams(np.array([1.0, -1.0, 2.0]), 0.5))
        assert z == pytest.approx(1.0, abs=1e-14)
        assert eta == pytest.approx(float(1 / (1 + mp.exp(-1))), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            head_transform(np.ones(3), HeadParams(np.ones(2), 0.0))


class TestFitPlatt:
    def test_recovers_generator(self):
        z, y = make_platt_data(3.0, 0.5, 20000, seed=42)
        params = fit_platt(z, y)
        assert abs(params.temperature - 3.0) < 0.1
        assert abs(params.intercept - 0.5) < 0.1

    def test_already_calibrated(self):
        z, y = make_platt_data(1.0, 0.0, 20000, seed=43, spread=2.0)
        params = fit_platt(z, y)
        assert abs(params.temperature - 1.0) < 0.05
        assert abs(params.intercept) < 0.05

    def test_overconfident_model_improves_ece(self):
        z, y = make_platt_data(1.0, 0.0, 8000, seed=44, spread=2.0)
        z_over = 5.0 * z
        pre = ece(reliability(sigmoid(z_over), y, 15))
        params = fit_platt(z_over, y)
        _, eta = platt_transform(z_over, params)
        post = ece(reliability(eta, y, 15))
        assert post <= pre

    def test_never_worse_than_identity_start(self):
        rng = np.random.default_rng(45)
        for seed in range(5):
            z = rng.normal(0, 3, 400)
            y = rng.integers(0, 2, 400)
            params = fit_platt(z, y)
            zp, _ = platt_transform(z, params)
            assert np.mean(logistic_loss(y, zp)) <= np.mean(logistic_loss(y, z)) + 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            fit_platt(np.array([0.1, 0.2]), np.array([1, 1]))


class TestFitBeta:
    def test_platt_family_reduces_to_symmetric(self):
        z, y = make_platt_data(2.0, 0.0, 20000, seed=46)
        params = fit_beta(sigmoid(z), y)
        assert abs(params.a - params.b) < 0.1

    def test_asymmetric_recovery(self):
        rng = np.random.default_rng(47)
        e = rng.uniform(0.02, 0.98, 20000)
        zb = 2.0 * np.log(e) - 0.5 * np.log1p(-e) + 0.0
        y = (rng.random(20000) < sigmoid(zb)).astype(int)
        params = fit_beta(e, y)
        assert abs(params.a - 2.0) < 0.15
        assert abs(params.b - 0.5) < 0.15
        assert abs(params.c) < 0.15

    def test_saturated_inputs_fit_finite(self):
        rng = np.random.default_rng(48)
        e = np.concatenate([np.zeros(50), np.ones(50), rng.uniform(0.3, 0.7, 100)])
        y = np.concatenate([np.zeros(50), np.ones(50),
                            rng.integers(0, 2, 100)])
        params = fit_beta(e, y)
        assert np.isfinite(params.a) and np.isfinite(params.b) and np.isfinite(params.c)

    def test_never_worse_than_identity_start(self):
        rng = np.random.default_rng(49)
        for _ in range(5):
            e = rng.uniform(0.05, 0.95, 300)
            y = rng.integers(0, 2, 300)
            params = fit_beta(e, y)
            zb, _ = beta_transform(e, params)
            z0, _ = beta_transform(e, BetaParams(1.0, 1.0, 0.0))
            assert np.mean(logistic_loss(y, zb)) <= np.mean(logistic_loss(y, z0)) + 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            fit_beta(np.array([0.1, 0.2]), np.array([0, 0]))


class TestFitHead:
    def test_separable_blobs_perfect_training_auroc(self):
        rng = np.random.default_rng(50)
        f0 = rng.normal([-2, -2], 0.3, (200, 2))
        f1 = rng.normal([2, 2], 0.3, (200, 2))
        feats = np.vstack([f0, f1])
        y = np.concatenate([np.zeros(200), np.ones(200)])
        params = fit_head(feats, y)
        z, _ = head_transform(feats, params)
        assert auroc(z, y) == 1.0

    def test_constant_features_recover_prior(self):
        rng = np.random.default_rng(51)
        feats = np.ones((1000, 3)) * 0.4
        y = (rng.random(1000) < 0.3).astype(int)
        params = fit_head(feats, y)
        _, eta = head_transform(feats, params)
        assert np.allclose(eta, y.mean(), atol=1e-6)
        assert ece(reliability(eta, y, 15)) < 0.05

    def test_true_logit_feature_recovers_identity(self):
        rng = np.random.default_rng(52)
        z = rng.normal(0, 3, 20000)
        y = (rng.random(20000) < sigmoid(z)).astype(int)
        params = fit_head(z[:, None], y)
        assert abs(params.weights[0] - 1.0) < 0.1
        assert abs(params.bias) < 0.1

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            fit_head(np.ones((3, 2)), np.zeros(3))


def beta_features(e):
    return np.column_stack([np.log(e), -np.log1p(-e), np.ones_like(e)])


def lbfgs_reference(features, y, x0, bounds=None):
    """Mean logistic loss of features @ x minimized by scipy's L-BFGS-B at
    tolerances far below the solver's."""
    from scipy import optimize

    def objective(x):
        z = features @ x
        return float(np.mean(logistic_loss(y, z))), features.T @ (sigmoid(z) - y) / len(y)

    result = optimize.minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                               options={"gtol": 1e-12, "ftol": 1e-300, "maxiter": 10000})
    return result.x


def beta_generator_data(a, b, c, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.02, 0.98, n)
    y = (rng.random(n) < sigmoid(beta_features(e) @ [a, b, c])).astype(int)
    return e, y


class TestNewtonSolver:
    def test_platt_matches_tight_lbfgs(self):
        z, y = make_platt_data(2.0, 0.3, 5000, seed=60)
        params = fit_platt(z, y)
        slope, intercept = lbfgs_reference(np.column_stack([z, np.ones_like(z)]), y,
                                           [1.0, 0.0])
        assert abs(1 / params.temperature - slope) < 1e-7
        assert abs(params.intercept - intercept) < 1e-7

    def test_beta_matches_tight_lbfgs(self):
        e, y = beta_generator_data(2.0, 0.5, 0.0, 5000, seed=61)
        params = fit_beta(e, y)
        want = lbfgs_reference(beta_features(e), y, [1.0, 1.0, 0.0])
        assert np.max(np.abs([params.a, params.b, params.c] - want)) < 1e-7

    # a generator on the boundary puts the unconstrained estimate on either
    # side of it; these seeds put it outside, so the constraint binds
    @pytest.mark.parametrize("pinned, generator, seed", [(1, (1.5, 0.0, 0.5), 0),
                                                         (0, (0.0, 1.5, -0.5), 1)])
    def test_active_set_pins_at_exactly_zero(self, pinned, generator, seed):
        e, y = beta_generator_data(*generator, 4000, seed)
        features = beta_features(e)
        assert minimize(features, y, [1.0, 1.0, 0.0], OptimizerConfig()).x[pinned] < 0
        params = fit_beta(e, y)
        x = np.array([params.a, params.b, params.c])
        assert x[pinned] == 0.0
        grad = features.T @ (sigmoid(features @ x) - y) / len(y)
        assert grad[pinned] >= 0
        assert np.max(np.abs(np.delete(grad, pinned))) <= OptimizerConfig().gtol
        want = lbfgs_reference(features, y, [1.0, 1.0, 0.0],
                               bounds=[(0, None), (0, None), (None, None)])
        # max|grad| <= gtol = 1e-8 leaves x within about gtol / (least
        # Hessian eigenvalue, here about 0.04) of the optimum
        assert np.max(np.abs(x - want)) < 1e-6

    def test_anti_correlated_platt_is_infinite_temperature(self, tmp_path):
        rng = np.random.default_rng(62)
        z = rng.normal(0.0, 2.0, 2000)
        y = (rng.random(2000) < sigmoid(-z)).astype(int)
        params = fit_platt(z, y)
        assert params.temperature == np.inf
        assert abs(params.intercept - logit(y.mean())) < 1e-9
        _, eta = platt_transform(z, params)
        assert np.all(eta == sigmoid(params.intercept))
        path = tmp_path / "cal.txt"
        save_calibrator(path, params, seed=0, digest="d")
        assert "temperature inf\n" in path.read_text()
        assert load_calibrator(path)[0] == params

    def test_constant_estimates_fit_without_linalg_error(self):
        rng = np.random.default_rng(63)
        y = (rng.random(500) < 0.3).astype(int)
        platt = fit_platt(np.full(500, 0.7), y)
        assert platt_transform(0.7, platt)[1] == pytest.approx(y.mean(), abs=1e-9)
        beta = fit_beta(np.full(500, 0.3), y)
        assert beta_transform(0.3, beta)[1] == pytest.approx(y.mean(), abs=1e-9)

    def test_separable_platt_returns(self):
        rng = np.random.default_rng(64)
        z = np.concatenate([rng.uniform(-3, -0.5, 200), rng.uniform(0.5, 3, 200)])
        y = (z > 0).astype(int)
        params = fit_platt(z, y)
        assert 0 < params.temperature < 0.1
        assert np.mean(logistic_loss(y, platt_transform(z, params)[0])) < 1e-6

    def test_iteration_budget_exhausted_raises(self):
        z, y = make_platt_data(2.0, 0.3, 2000, seed=65)
        with pytest.raises(NumericalError, match="did not converge"):
            fit_platt(z, y, OptimizerConfig(max_iter=1))
        e, y = beta_generator_data(2.0, 0.5, 0.0, 2000, seed=65)
        with pytest.raises(NumericalError, match="did not converge"):
            fit_beta(e, y, OptimizerConfig(max_iter=1))

    def test_fits_are_bit_identical_and_few_iterations(self):
        e, y = beta_generator_data(2.0, 0.5, 0.0, 5000, seed=66)
        first = minimize(beta_features(e), y, [1.0, 1.0, 0.0], OptimizerConfig(),
                         nonneg=(0, 1))
        again = minimize(beta_features(e), y, [1.0, 1.0, 0.0], OptimizerConfig(),
                         nonneg=(0, 1))
        assert np.array_equal(first.x, again.x)
        assert first.success and first.nit <= 15 and first.nfev >= first.nit
        assert fit_beta(e, y) == fit_beta(e, y)


class TestReliability:
    def test_single_bin_case(self):
        preds = np.full(10, 0.7)
        labels = np.array([1] * 7 + [0] * 3)
        hist = reliability(preds, labels, 10)
        nonempty = hist.counts > 0
        assert nonempty.sum() == 1
        assert hist.freq[nonempty][0] == pytest.approx(0.7)
        assert hist.conf[nonempty][0] == pytest.approx(0.7)

    def test_edge_value_falls_in_lower_bin(self):
        hist = reliability(np.array([0.2]), np.array([1]), 5)
        assert hist.counts[0] == 1
        assert hist.counts[1] == 0

    def test_zero_assigned_to_first_bin(self):
        hist = reliability(np.array([0.0]), np.array([0]), 15)
        assert hist.counts[0] == 1

    def test_matches_oracle(self):
        rng = np.random.default_rng(53)
        preds = rng.uniform(0, 1, 10)
        labels = rng.integers(0, 2, 10)
        hist = reliability(preds, labels, 7)
        counts, freq, conf = reliability_oracle(preds, labels, 7)
        assert np.array_equal(hist.counts, counts)
        assert np.allclose(hist.freq, freq)
        assert np.allclose(hist.conf, conf)

    def test_counts_conserved(self):
        rng = np.random.default_rng(54)
        preds = rng.uniform(0, 1, 321)
        hist = reliability(preds, rng.integers(0, 2, 321), 15)
        assert hist.n == 321


class TestEceMce:
    def test_perfectly_calibrated_bins(self):
        preds = np.array([0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.75])
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 0])
        hist = reliability(preds, labels, 2)
        assert ece(hist) == pytest.approx(0.0, abs=1e-12)
        assert mce(hist) == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_gap(self):
        preds = np.full(10, 0.9)
        labels = np.array([1] * 7 + [0] * 3)
        hist = reliability(preds, labels, 1)
        assert ece(hist) == pytest.approx(0.2, abs=1e-12)
        assert mce(hist) == pytest.approx(0.2, abs=1e-12)

    def test_two_bin_hand_case(self):
        # 60 samples with gap 0.1, 40 samples with gap 0.3
        preds = np.concatenate([np.full(60, 0.3), np.full(40, 0.8)])
        labels = np.concatenate([np.ones(24), np.zeros(36),   # freq 0.4 vs conf 0.3
                                 np.ones(20), np.zeros(20)])  # freq 0.5 vs conf 0.8
        hist = reliability(preds, labels, 2)
        assert ece(hist) == pytest.approx(0.18, abs=1e-12)
        assert mce(hist) == pytest.approx(0.3, abs=1e-12)

    def test_mce_dominates_ece(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            preds = rng.uniform(0, 1, 200)
            labels = rng.integers(0, 2, 200)
            hist = reliability(preds, labels, 15)
            assert mce(hist) >= ece(hist) - 1e-15

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            n = rng.integers(10, 1000)
            preds = rng.uniform(0, 1, n)
            labels = rng.integers(0, 2, n)
            hist = reliability(preds, labels, 15)
            e_o, m_o = ece_mce_oracle(preds, labels, 15)
            assert ece(hist) == e_o
            assert mce(hist) == m_o

    def test_empty_histogram_rejected(self):
        hist = reliability(np.array([]), np.array([]), 5)
        with pytest.raises(DataError):
            ece(hist)
        with pytest.raises(DataError):
            mce(hist)


class TestSerialization:
    @pytest.mark.parametrize("params", [
        PlattParams(2.7182818, -0.33),
        BetaParams(1.25, 0.5, 0.125),
        HeadParams(np.array([0.1, -0.7, 2.5]), 0.875),
    ])
    def test_round_trip(self, tmp_path, params):
        digest = fitting_digest(np.arange(5.0), np.array([0, 1, 0, 1, 1]))
        path = tmp_path / "cal.txt"
        save_calibrator(path, params, seed=9, digest=digest)
        loaded, seed, dig = load_calibrator(path)
        assert seed == 9 and dig == digest
        assert type(loaded) is type(params)
        if isinstance(params, HeadParams):
            assert np.array_equal(loaded.weights, params.weights)
            assert loaded.bias == params.bias
        else:
            assert loaded == params

    def test_digest_tracks_data(self):
        a = fitting_digest(np.arange(5.0), np.array([0, 1, 0, 1, 1]))
        b = fitting_digest(np.arange(5.0) + 1e-12, np.array([0, 1, 0, 1, 1]))
        assert a != b

    def test_refit_determinism(self):
        z, y = make_platt_data(2.0, 0.3, 2000, seed=57)
        p1 = fit_platt(z, y, OptimizerConfig(seed=3))
        p2 = fit_platt(z, y, OptimizerConfig(seed=3))
        assert p1 == p2
