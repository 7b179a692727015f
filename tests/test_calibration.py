import importlib.machinery
import json
import logging
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import calad
from calad import calibration
from calad.calibration import (BLOCK_ROWS, GTOL, BetaParams, HeadParams,
                               PlattParams, beta_transform, calibrated_logit,
                               ece, fit_beta,
                               fit_head, fit_platt, fitting_digest,
                               load_calibrator, mce, minimize,
                               platt_transform, reliability, save_calibrator)
from calad.errors import DataError, NumericalError
from calad.losses import logistic_loss, logit, sigmoid
from calad.metrics import auroc
from calad.scorer import LossPipeline, MlpSpec, ScorerState

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


def head_pipeline(head):
    """The calibration head over an identity scorer, so rows are features."""
    d = len(head.weights)
    state = ScorerState(MlpSpec((d, d)), np.concatenate([np.eye(d).ravel(), np.zeros(d)]))
    return LossPipeline(state, "logistic", head=head)


class TestHeadTransform:
    def test_zero_head(self):
        pipeline = head_pipeline(HeadParams(np.zeros(2), 0.0))
        z, eta = pipeline.calibrate(pipeline.logits(np.array([[1.0, -2.0]])))
        assert z[0] == 0.0 and eta[0] == 0.5

    def test_linearity_in_feature(self):
        pipeline = head_pipeline(HeadParams(np.array([2.0, 0.0]), 0.0))
        z1, z2 = pipeline.logits(np.array([[1.0, 5.0], [2.0, -3.0]]))
        assert z2 == pytest.approx(2 * z1)

    def test_hand_case(self):
        pipeline = head_pipeline(HeadParams(np.array([1.0, -1.0, 2.0]), 0.5))
        z, eta = pipeline.calibrate(pipeline.logits(np.array([[0.5, 0.5, 0.25]])))
        assert z[0] == pytest.approx(1.0, abs=1e-14)
        assert eta[0] == pytest.approx(float(1 / (1 + mp.exp(-1))), abs=1e-14)


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
            assert np.mean(logistic_loss(y, zp)[0]) <= np.mean(logistic_loss(y, z)[0]) + 1e-12

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
            assert np.mean(logistic_loss(y, zb)[0]) <= np.mean(logistic_loss(y, z0)[0]) + 1e-12

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
        assert auroc(feats @ params.weights + params.bias, y) == 1.0

    def test_constant_features_recover_prior(self):
        rng = np.random.default_rng(51)
        feats = np.ones((1000, 3)) * 0.4
        y = (rng.random(1000) < 0.3).astype(int)
        params = fit_head(feats, y)
        eta = sigmoid(feats @ params.weights + params.bias)
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

    # fit_head drives scipy's compiled setulb itself; these tests pin it to
    # scipy.optimize.minimize bit for bit, which also guards the private
    # setulb signature the driver depends on
    @staticmethod
    def assert_scipy_bits(features, labels, seed):
        params = fit_head(features, labels, seed)
        want = scipy_head(features, labels, seed)
        assert np.array_equal(np.append(params.weights, params.bias), want.x)
        return want

    @pytest.mark.parametrize("d", [1, 9])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_scipy_lbfgsb(self, d, seed):
        rng = np.random.default_rng(100 + 10 * d + seed)
        f = rng.normal(size=(300, d)) * rng.choice([0.01, 1.0, 10.0], size=d)
        y = (rng.random(300) < sigmoid(f @ rng.normal(0, 3, d))).astype(int)
        assert self.assert_scipy_bits(f, y, seed).success

    def test_equals_scipy_lbfgsb_near_separable(self):
        rng = np.random.default_rng(53)
        f = np.vstack([rng.normal([-2, -2], 0.3, (200, 2)), rng.normal([2, 2], 0.3, (200, 2))])
        y = np.repeat([0, 1], 200)
        y[[0, 399]] = 1 - y[[0, 399]]
        self.assert_scipy_bits(f, y, 3)

    def test_equals_scipy_lbfgsb_constant_features(self):
        rng = np.random.default_rng(54)
        y = (rng.random(500) < 0.3).astype(int)
        self.assert_scipy_bits(np.full((500, 3), 0.4), y, 4)

    def test_budget_stop_equals_scipy_and_logs_one_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(calibration, "MAX_ITER", 3)
        f, y = head_problem(9, 55)
        with caplog.at_level(logging.WARNING, logger="calad.calibration"):
            want = self.assert_scipy_bits(f, y, 5)
        assert not want.success and want.nit == 3
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "iteration budget" in message and "after 3 iterations" in message
        assert "max|grad|" in message

    def test_line_search_failure_logs_one_warning_and_equals_scipy(self, caplog):
        from scipy import optimize

        def uphill(x):  # the gradient of -|x|^2, so no step decreases |x|^2
            return float(x @ x), -2.0 * x

        with caplog.at_level(logging.WARNING, logger="calad.calibration"):
            x = calibration._lbfgsb_minimize(uphill, np.ones(3))
        want = optimize.minimize(uphill, np.ones(3), jac=True, method="L-BFGS-B",
                                 options={"maxiter": calibration.MAX_ITER, "gtol": GTOL})
        assert np.array_equal(x, want.x) and not want.success
        assert len(caplog.records) == 1
        assert "line search failed after 0 iterations" in caplog.records[0].getMessage()

    def test_converged_fit_logs_nothing(self, caplog):
        f, y = head_problem(1, 56)
        with caplog.at_level(logging.DEBUG, logger="calad.calibration"):
            fit_head(f, y, 6)
        assert caplog.records == []

    def test_missing_extension_names_the_scipy_requirement(self, monkeypatch):
        monkeypatch.delitem(sys.modules, calibration.LBFGSB_MODULE, raising=False)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"scipy>=1\.15"):
            fit_head(*head_problem(1, 57))

    def test_one_process_fit_then_scipy_agree(self):
        """fit_head registers the extension before scipy.optimize is
        imported; scipy then reuses it and returns the same bits."""
        child = textwrap.dedent("""
            import json, sys
            import numpy as np
            from calad.calibration import GTOL, MAX_ITER, fit_head
            from calad.losses import logistic_loss, sigmoid
            rng = np.random.default_rng(58)
            problems = []
            for d in (1, 4, 9):
                f = rng.normal(size=(200, d))
                problems.append((f, (rng.random(200) < sigmoid(f.sum(axis=1))).astype(float)))
            ours = [fit_head(f, y, seed) for seed, (f, y) in enumerate(problems)]
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            from scipy import optimize
            same_module = optimize._lbfgsb_py._lbfgsb is sys.modules["scipy.optimize._lbfgsb"]
            equal = []
            for seed, ((f, y), params) in enumerate(zip(problems, ours)):
                d = f.shape[1]
                rng = np.random.default_rng(seed)
                x0 = np.concatenate([rng.uniform(-1, 1, d) / np.sqrt(d), [0.0]])
                def objective(p):
                    z = f @ p[:d] + p[d]
                    g = sigmoid(z) - y
                    return (float(np.mean(logistic_loss(y, z)[0])),
                            np.concatenate([f.T @ g / len(y), [np.mean(g)]]))
                x = optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                                      options={"maxiter": MAX_ITER, "gtol": GTOL}).x
                equal.append(bool(np.array_equal(np.append(params.weights, params.bias), x)))
            print(json.dumps({"loaded": loaded, "same_module": same_module, "equal": equal}))
        """)
        package_parent = Path(calad.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(package_parent)})
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {"loaded": [calibration.LBFGSB_MODULE], "same_module": True,
                        "equal": [True, True, True]}


def head_problem(d, seed, n=300):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(n, d))
    return f, (rng.random(n) < sigmoid(f @ rng.normal(0, 2, d))).astype(int)


def scipy_head(features, labels, seed):
    """fit_head's start point and objective handed to scipy.optimize.minimize,
    with fit_head's tolerances: the oracle for its L-BFGS-B driver."""
    from scipy import optimize

    f = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    d = f.shape[1]
    rng = np.random.default_rng(seed)
    x0 = np.concatenate([rng.uniform(-1, 1, d) / np.sqrt(d), [0.0]])

    def objective(p):
        z = f @ p[:d] + p[d]
        g = sigmoid(z) - y
        return (float(np.mean(logistic_loss(y, z)[0])),
                np.concatenate([f.T @ g / len(y), [np.mean(g)]]))

    return optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                             options={"maxiter": calibration.MAX_ITER, "gtol": GTOL})


def beta_features(e):
    return np.column_stack([np.log(e), -np.log1p(-e), np.ones_like(e)])


def lbfgs_reference(features, y, x0, bounds=None):
    """Mean logistic loss of features @ x minimized by scipy's L-BFGS-B at
    tolerances far below the solver's."""
    from scipy import optimize

    def objective(x):
        z = features @ x
        return float(np.mean(logistic_loss(y, z)[0])), features.T @ (sigmoid(z) - y) / len(y)

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
        assert minimize(features, y, [1.0, 1.0, 0.0]).x[pinned] < 0
        params = fit_beta(e, y)
        x = np.array([params.a, params.b, params.c])
        assert x[pinned] == 0.0
        grad = features.T @ (sigmoid(features @ x) - y) / len(y)
        assert grad[pinned] >= 0
        assert np.max(np.abs(np.delete(grad, pinned))) <= GTOL
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
        assert np.mean(logistic_loss(y, platt_transform(z, params)[0])[0]) < 1e-6

    def test_iteration_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(calibration, "MAX_ITER", 1)
        z, y = make_platt_data(2.0, 0.3, 2000, seed=65)
        with pytest.raises(NumericalError, match="did not converge"):
            fit_platt(z, y)
        e, y = beta_generator_data(2.0, 0.5, 0.0, 2000, seed=65)
        with pytest.raises(NumericalError, match="did not converge"):
            fit_beta(e, y)

    def test_fits_are_bit_identical_and_few_iterations(self):
        e, y = beta_generator_data(2.0, 0.5, 0.0, 5000, seed=66)
        first = minimize(beta_features(e), y, [1.0, 1.0, 0.0], nonneg=(0, 1))
        again = minimize(beta_features(e), y, [1.0, 1.0, 0.0], nonneg=(0, 1))
        assert np.array_equal(first.x, again.x)
        assert first.success and first.nit <= 15 and first.nfev >= first.nit
        assert fit_beta(e, y) == fit_beta(e, y)


def unblocked_minimize(features, y, x0, nonneg=()):
    """The whole-array Newton fit, kept as the reference for the blocked
    one: a loss pass and a sigmoid pass per iteration over every row, and
    a copy of the free design columns; (x, iterations, loss evaluations)."""
    x0 = np.asarray(x0, dtype=float)
    free = np.ones(len(x0), dtype=bool)
    nit = nfev = 0
    while True:
        f = features[:, free]
        n, x = len(y), x0[free]
        z = f @ x
        loss = float(np.mean(logistic_loss(y, z)[0]))
        evals = 1
        for its in range(calibration.MAX_ITER + 1):
            p = sigmoid(z)
            grad = f.T @ (p - y) / n
            if np.max(np.abs(grad)) <= GTOL or its == calibration.MAX_ITER:
                break
            hess = (f * (p * (1.0 - p))[:, None]).T @ f / n
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            decrement = -float(grad @ step)
            for t in 0.5 ** np.arange(34):
                x_new = x + t * step
                z_new = f @ x_new
                loss_new = float(np.mean(logistic_loss(y, z_new)[0]))
                evals += 1
                if (decrement < calibration.FULL_STEP_DECREMENT
                        or loss_new <= loss - 1e-4 * t * decrement):
                    break
            x, z, loss = x_new, z_new, loss_new
        full = np.zeros_like(x0)
        full[free] = x
        nit, nfev = nit + its, nfev + evals
        negative = [j for j in nonneg if full[j] < 0]
        if not negative:
            return full, nit, nfev
        free[negative[0]] = False


def newton_cases(n):
    """(design, labels, start, nonneg, pinned coordinate or None) of a
    Platt fit, a Beta fit, and a Beta fit whose active set pins b at 0
    (a generator of test_active_set_pins_at_exactly_zero, with a seed that
    puts the unconstrained b below 0 at every n the tests use)."""
    z, y = make_platt_data(2.0, 0.3, n, seed=67)
    yield np.column_stack([z, np.ones_like(z)]), y.astype(float), [1.0, 0.0], (0,), None
    e, y = beta_generator_data(2.0, 0.5, 0.0, n, seed=68)
    yield beta_features(e), y.astype(float), [1.0, 1.0, 0.0], (0, 1), None
    e, y = beta_generator_data(1.5, 0.0, 0.5, n, seed=5)
    yield beta_features(e), y.astype(float), [1.0, 1.0, 0.0], (0, 1), 1


class TestBlockedNewton:
    """The Newton fit reads its design in blocks of BLOCK_ROWS rows."""

    def test_many_blocks_agree_with_the_whole_array_fit(self):
        for features, y, x0, nonneg, pinned in newton_cases(3 * BLOCK_ROWS + 17):
            got = minimize(features, y, x0, nonneg=nonneg)
            want, _, _ = unblocked_minimize(features, y, x0, nonneg=nonneg)
            if pinned is not None:
                assert got.x[pinned] == 0.0 and want[pinned] == 0.0
            # the blocks sum the same terms in another order
            assert np.max(np.abs(got.x - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1000, BLOCK_ROWS])
    def test_one_block_is_bit_identical_to_the_whole_array_fit(self, n):
        for features, y, x0, nonneg, pinned in newton_cases(n):
            got = minimize(features, y, x0, nonneg=nonneg)
            want, nit, nfev = unblocked_minimize(np.asfortranarray(features), y, x0,
                                                 nonneg=nonneg)
            if pinned is not None:
                assert got.x[pinned] == 0.0
            assert np.array_equal(got.x, want)
            assert (got.nit, got.nfev) == (nit, nfev)
        # the fits write the column-major design the reference reads
        z, y = make_platt_data(2.0, 0.3, n, seed=69)
        slope, intercept = unblocked_minimize(
            np.asfortranarray(np.column_stack([z, np.ones_like(z)])), y.astype(float),
            [1.0, 0.0], nonneg=(0,))[0]
        assert fit_platt(z, y) == PlattParams(1.0 / slope, intercept)
        e, y = beta_generator_data(2.0, 0.5, 0.0, n, seed=69)
        a, b, c = unblocked_minimize(np.asfortranarray(beta_features(e)), y.astype(float),
                                     [1.0, 1.0, 0.0], nonneg=(0, 1))[0]
        assert fit_beta(e, y) == BetaParams(a, b, c)

    @pytest.mark.parametrize("fit", [fit_platt, fit_beta])
    def test_fit_allocates_at_most_48_bytes_per_row(self, fit):
        # the whole-array fit allocated 80 (Platt) and 112 (Beta) bytes per
        # row: the design, its column copy and a dozen full-length temporaries
        n = 200_000
        z, y = make_platt_data(2.0, 0.3, n, seed=70)
        scores = z if fit is fit_platt else sigmoid(z)
        tracemalloc.start()
        try:
            fit(scores, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n

    @staticmethod
    def calibrate(tmp_path, rows, kind):
        """`calad calibrate --kind kind` on a score CSV of (score, label) rows."""
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n" + "".join(f"{s},{y}\n" for s, y in rows))
        return subprocess.run([sys.executable, "-m", "calad.cli", "calibrate", str(path),
                               "--kind", kind, "--out", str(tmp_path / kind)],
                              capture_output=True, text=True)

    def test_overflowing_fit_prints_only_its_error_line(self, tmp_path):
        proc = self.calibrate(tmp_path, [(1e308, 1), (-1e308, 0), (1e307, 0), (0.5, 1)],
                              "platt")
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: calibrator fit: loss"), \
            proc.stderr
        assert not (tmp_path / "platt").exists()

    def test_overflow_at_the_start_point_names_the_loss(self, tmp_path):
        # the start point (1, 0) is finite; the loss of the +-1e308 scores is not
        rows = [(s, y) for s in (1e308, -1e308, 1e300, -1e300) for y in (0, 1)]
        proc = self.calibrate(tmp_path, rows, "platt")
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: calibrator fit: loss"), \
            proc.stderr
        assert "non-finite iterate" not in lines[0]
        assert "at [1. 0.]" in lines[0] and "1e+308" in lines[0]
        assert self.calibrate(tmp_path, rows, "beta").returncode == 0


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

    @pytest.mark.parametrize("text", [
        "temperature 2.0\nintercept 0.1\nseed 0\ndigest d\n",           # no kind
        "kind platt\ntemperature abc\nintercept 0.1\nseed 0\ndigest d\n",
        "kind gamma\nseed 0\ndigest d\n",
        "kind platt\ntemperature -1\nintercept 0.1\nseed 0\ndigest d\n",
        "kind beta\na 1\nb 1\nc 0\nseed 0.5\ndigest d\n",
    ])
    def test_malformed_document_is_data_error(self, tmp_path, text):
        path = tmp_path / "cal.txt"
        path.write_text(text)
        with pytest.raises(DataError, match="cal.txt"):
            load_calibrator(path)

    @pytest.mark.parametrize("text, key", [
        ("kind platt\ntemperature 2.0\nintercept nan\n", "intercept"),
        ("kind beta\na nan\nb 1\nc 0\n", "a"),
        ("kind beta\na 1\nb nan\nc 0\n", "b"),
        ("kind beta\na 1\nb 1\nc nan\n", "c"),
        ("kind beta\na 1\nb 1\nc -inf\n", "c"),
        ("kind head\nweights 0.5 nan\nbias 0\n", "weights"),
        ("kind head\nweights 0.5 1\nbias nan\n", "bias"),
    ])
    def test_non_finite_coefficient_is_data_error(self, tmp_path, text, key):
        path = tmp_path / "cal.txt"
        path.write_text(text + "seed 0\ndigest d\n")
        with pytest.raises(DataError, match=f"cal.txt: calibrator {key} is"):
            load_calibrator(path)

    def test_digest_tracks_data(self):
        a = fitting_digest(np.arange(5.0), np.array([0, 1, 0, 1, 1]))
        b = fitting_digest(np.arange(5.0) + 1e-12, np.array([0, 1, 0, 1, 1]))
        assert a != b

    def test_refit_determinism(self):
        z, y = make_platt_data(2.0, 0.3, 2000, seed=57)
        p1 = fit_platt(z, y)
        p2 = fit_platt(z, y)
        assert p1 == p2
