import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from calad.losses import (EPS_CLAMP, REGISTRY, check_stationarity,
                          check_strict_propriety, conditional_risk, hsc_loss,
                          logistic_loss, logit, pseudo_huber, sigmoid)
from calad.scorer import LossPipeline, MlpSpec, ScorerState

mp.dps = 40


def mpf_float(x):
    return float(x)


def masked_sigmoid(v):
    """The two-branch form: 1 / (1 + e^-v) where v >= 0, e^v / (1 + e^v)
    elsewhere, each on its own masked copy."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out if out.ndim else float(out)


class TestLinks:
    def test_sigmoid_symmetry_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_logit_of_half(self):
        assert logit(0.5) == 0.0

    def test_sigmoid_of_ln3(self):
        # high-precision oracle: 1 / (1 + e^(-ln 3)) = 3/4
        expected = mpf_float(1 / (1 + mp.exp(-mp.log(3))))
        assert sigmoid(float(np.log(3.0))) == pytest.approx(expected, abs=1e-15)

    def test_round_trip(self):
        grid = np.concatenate([np.array([1e-9, 1 - 1e-9]),
                               np.linspace(1e-6, 1 - 1e-6, 501)])
        back = sigmoid(logit(grid))
        assert np.max(np.abs(back - grid)) < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 30.0, 300.0])
    def test_sigmoid_matches_masked_branches_bit_for_bit(self, scale):
        v = np.random.default_rng(3).normal(size=10_000) * scale
        assert np.array_equal(sigmoid(v), masked_sigmoid(v))

    def test_sigmoid_special_values_match_masked_branches(self):
        v = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0,
                      1e-300, -1e-300, 5e-324, -5e-324])
        assert np.array_equal(sigmoid(v), masked_sigmoid(v), equal_nan=True)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sigmoid(v[np.isfinite(v)])  # exp(-|v|) cannot overflow
        for x in (0.0, -0.0, 2.5, -2.5, np.float64(800.0), np.array(-3.0)):
            out = sigmoid(x)
            assert type(out) is float and out == masked_sigmoid(x)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_logit_domain_error(self, bad):
        with pytest.raises(ValueError) as err:
            logit(bad)
        assert repr(bad) in str(err.value)


def log_loss(y, eta_hat):
    """The log loss of labels y: the conditional risk at eta = y."""
    return conditional_risk(y, eta_hat, REGISTRY["log"])


class TestLogLoss:
    def test_half_anomalous(self):
        assert log_loss(1, 0.5) == pytest.approx(float(mp.log(2)), abs=1e-15)

    def test_half_normal_symmetry(self):
        assert log_loss(0, 0.5) == log_loss(1, 0.5)

    def test_perfect_prediction_clamped(self):
        v = log_loss(1, 1.0)
        assert 0.0 <= v <= float(-mp.log(1 - mp.mpf(EPS_CLAMP))) + 1e-15

    def test_vectorized(self):
        out = log_loss(np.array([0, 1]), np.array([0.5, 0.5]))
        assert np.allclose(out, np.log(2.0))


class TestLogisticLoss:
    def test_ln2_at_zero(self):
        assert logistic_loss(0, 0.0) == pytest.approx(float(mp.log(2)), abs=1e-15)
        assert logistic_loss(1, 0.0) == pytest.approx(float(mp.log(2)), abs=1e-15)

    def test_large_logit_stable(self):
        # oracle: ln(1 + e^100) evaluated at 40 digits
        expected = mpf_float(mp.log(1 + mp.exp(100)))
        with np.errstate(over="raise"):
            assert logistic_loss(0, 100.0) == pytest.approx(expected, rel=1e-12)
            assert np.isfinite(logistic_loss(0, 1000.0))

    def test_is_logaddexp_bit_for_bit(self):
        """logistic_loss stays np.logaddexp(0, (1 - 2y) v). The equal form
        max(u, 0) + log1p(e^-|u|) differs in the last bits, and the head
        calibrator's L-BFGS-B stopping point follows those bits: with it,
        seed 1's CalHead Spectral AUROC on gauss2d hsc/head (spectral
        anomalies) moves by 4.4e-5, from 0.9066222 to 0.9065778."""
        rng = np.random.default_rng(11)
        v = np.concatenate([rng.normal(size=5000) * 30, [0.0, -0.0, 800.0, -800.0]])
        y = rng.integers(0, 2, len(v))
        assert np.array_equal(logistic_loss(y, v), np.logaddexp(0.0, (1 - 2 * y) * v))

    def test_link_composition_identity(self):
        # 1e-10 agreement is only attainable where 1 - sigmoid(z) keeps
        # enough bits; beyond |z| ~ 13 the cancellation error grows like
        # 2e-16 * e^|z| and the probability clamp kicks in near 16.1
        rng = np.random.default_rng(7)
        z = rng.uniform(-13, 13, 200)
        y = rng.integers(0, 2, 200)
        assert np.max(np.abs(logistic_loss(y, z) - log_loss(y, sigmoid(z)))) < 1e-10

    def test_link_composition_identity_wide_range(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(-30, 30, 200)
        y = rng.integers(0, 2, 200)
        # the unclamped log loss: the registry's clamp would cap it near 16.1
        e = sigmoid(z)
        gap = np.abs(logistic_loss(y, z) - (-y * np.log(e) - (1 - y) * np.log1p(-e)))
        assert np.max(gap) < 2e-16 * np.exp(30.0)


class TestHscLoss:
    def test_normal_branch_is_score(self):
        assert hsc_loss(0, 2.0) == 2.0

    def test_ln2_case(self):
        assert hsc_loss(1, float(np.log(2.0))) == pytest.approx(float(mp.log(2)), abs=1e-12)

    def test_anomalous_at_three(self):
        expected = mpf_float(-mp.log(1 - mp.exp(-3)))
        assert hsc_loss(1, 3.0) == pytest.approx(expected, abs=1e-14)

    def test_clamp_warns_and_stays_finite(self):
        with pytest.warns(UserWarning):
            v = hsc_loss(1, 0.0)
        assert np.isfinite(v)

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError):
            hsc_loss(0, -1.0)


class TestPseudoHuber:
    @pytest.mark.parametrize("s,expected", [(0.0, 0.0), (3.0, 1.0), (99.0, 9.0)])
    def test_values(self, s, expected):
        assert pseudo_huber(s) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_lipschitz_in_root(self, s1, s2):
        a, b = sorted([s1, s2])
        va, vb = pseudo_huber(a), pseudo_huber(b)
        assert vb >= va
        # 1-Lipschitz in sqrt(s): |v(b) - v(a)| <= |sqrt(b) - sqrt(a)|
        assert vb - va <= np.sqrt(b) - np.sqrt(a) + 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pseudo_huber(-0.5)


def svdd_score(embedding, center):
    """The svdd pipeline's score over an identity scorer, so the rows are
    the embeddings."""
    d = len(center)
    state = ScorerState(MlpSpec((d, d), use_bias=False), np.eye(d).ravel())
    return LossPipeline(state, "svdd", center=center).scores(np.atleast_2d(embedding))[0]


class TestSvddScore:
    def test_at_center(self):
        assert svdd_score([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert svdd_score([1.0, 0.0], [0.0, 0.0]) == 1.0

    def test_three_four_five(self):
        assert svdd_score([3.0, 4.0], [0.0, 0.0]) == 25.0


class TestConditionalRisk:
    def test_entropy_at_half(self):
        assert conditional_risk(0.5, 0.5, REGISTRY["log"]) == pytest.approx(
            float(mp.log(2)), abs=1e-12)

    def test_eta_zero_collapses(self):
        for eta_hat in (0.2, 0.5, 0.9):
            assert conditional_risk(0.0, eta_hat, REGISTRY["log"]) == pytest.approx(
                -np.log1p(-eta_hat), abs=1e-12)

    def test_off_diagonal_oracle(self):
        # 0.3 * (-ln 0.7) + 0.7 * (-ln 0.3) at 40 digits
        expected = mpf_float(mp.mpf("0.3") * -mp.log(mp.mpf("0.7"))
                             + mp.mpf("0.7") * -mp.log(mp.mpf("0.3")))
        assert conditional_risk(0.3, 0.7, REGISTRY["log"]) == pytest.approx(
            expected, abs=1e-12)


class TestPropriety:
    def test_strict_propriety_grid(self):
        # equality of risks only on the diagonal, for both strictly proper losses
        grid = np.linspace(0.01, 0.99, 99)
        for name in ("log", "logistic"):
            spec = REGISTRY[name]
            diag = np.array([conditional_risk(e, e, spec) for e in grid])
            for i, eta in enumerate(grid):
                risks = conditional_risk(eta, grid, spec)
                assert np.all(risks >= diag[i] - 1e-12)
                better = np.flatnonzero(risks < diag[i] + 1e-12)
                assert np.all(np.abs(grid[better] - eta) < 1e-6)

    def test_hsc_impropriety(self):
        # an off-diagonal estimate beats the diagonal under the probe pair
        spec = REGISTRY["hsc"]
        eta = 0.3
        diag = conditional_risk(eta, eta, spec)
        grid = np.linspace(0.01, 0.99, 99)
        risks = conditional_risk(eta, grid, spec)
        best = grid[np.argmin(risks)]
        assert np.min(risks) < diag - 1e-6
        assert abs(best - eta) > 0.05

    def test_stationarity_log(self):
        grid = np.linspace(0.1, 0.9, 9)
        residuals = check_stationarity(REGISTRY["log"], grid)
        assert np.max(np.abs(residuals)) < 1e-6

    def test_stationarity_logistic_via_link(self):
        grid = np.linspace(0.1, 0.9, 9)
        residuals = check_stationarity(REGISTRY["logistic"], grid)
        assert np.max(np.abs(residuals)) < 1e-6

    def test_stationarity_hsc_fails_with_eta_residual(self):
        residuals = check_stationarity(REGISTRY["hsc"], np.array([0.4]))
        assert abs(abs(residuals[0]) - 0.4) < 1e-4

    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            check_stationarity(REGISTRY["log"], [0.0, 0.5])

    def test_nonfinite_derivative_reported_not_fatal(self):
        from calad.losses import LossSpec

        spiky = LossSpec("spiky",
                         partial_0=lambda e: np.where(np.asarray(e) > 0.5,
                                                      np.inf, 1.0),
                         partial_1=lambda e: np.zeros_like(np.asarray(e, dtype=float)))
        residuals = check_stationarity(spiky, [0.2, 0.5])
        assert np.isfinite(residuals[0])
        assert np.isnan(residuals[1])

    def test_second_derivative_log_at_half(self):
        # analytic: eta/eta^2 + (1-eta)/(1-eta)^2 = 2 + 2
        d2 = check_strict_propriety(REGISTRY["log"], np.array([0.5]))
        assert d2[0] == pytest.approx(4.0, abs=1e-3)

    def test_second_derivative_log_at_quarter(self):
        expected = 0.25 / 0.25 ** 2 + 0.75 / 0.75 ** 2  # 16/3
        d2 = check_strict_propriety(REGISTRY["log"], np.array([0.25]))
        assert d2[0] == pytest.approx(expected, abs=1e-3)

    def test_second_derivative_positive_everywhere(self):
        grid = np.linspace(0.01, 0.99, 99)
        for name in ("log", "logistic"):
            d2 = check_strict_propriety(REGISTRY[name], grid)
            assert np.all(d2 > 0)


class TestRegistry:
    def test_keys(self):
        assert set(REGISTRY) == {"log", "logistic", "hsc"}

    def test_partials_finite_on_open_interval(self):
        grid = np.linspace(0.01, 0.99, 99)
        for name in ("log", "logistic", "hsc"):
            spec = REGISTRY[name]
            assert np.all(np.isfinite(spec.partial_0(grid)))
            assert np.all(np.isfinite(spec.partial_1(grid)))

    def test_conditional_risk_at_labels_matches_partials(self):
        spec = REGISTRY["log"]
        assert conditional_risk(1, 0.25, spec) == float(spec.partial_1(0.25))
        assert conditional_risk(0, 0.25, spec) == float(spec.partial_0(0.25))
