import numpy as np
import pytest

from calad.errors import NumericalError
from calad.losses import REGISTRY, conditional_risk, pseudo_huber
from calad.metrics import aupro
from calad.scorer import LossPipeline, MlpSpec, ScorerState
from calad.segmentation import (gaussian_kernel, gaussian_upsample, ssim_loss,
                                ssim_map_backward)


def ssim_map(p, q):
    return ssim_loss(p, q).similarity


def ssim_map_oracle(p, q):
    """Naive per-window sliding loop over zero-padded inputs: an 11-cell
    window, c1 = (0.01)^2 and c2 = (0.03)^2 at unit dynamic range."""
    window, c1, c2 = 11, 1e-4, 9e-4
    pp = np.pad(p, window // 2)
    qp = np.pad(q, window // 2)
    h, w = p.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            wp = pp[i:i + window, j:j + window]
            wq = qp[i:i + window, j:j + window]
            mp_, mq = wp.mean(), wq.mean()
            vp = (wp * wp).mean() - mp_ * mp_
            vq = (wq * wq).mean() - mq * mq
            cov = (wp * wq).mean() - mp_ * mq
            out[i, j] = ((2 * mp_ * mq + c1) * (2 * cov + c2)) / \
                ((mp_ ** 2 + mq ** 2 + c1) * (vp + vq + c2))
    return out


class TestSsimPatch:
    """SSIM of two whole patches: the centre cell of a map whose window
    there sees no border."""

    def test_identical_patches(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(size=(11, 11))
        assert ssim_map(p, p)[5, 5] == pytest.approx(1.0, abs=1e-12)

    def test_constant_patches_formula(self):
        # no variance inside the window, so S is the luminance term alone
        a, b, c1 = 0.3, 0.8, 1e-4
        p = np.full((21, 21), a)
        q = np.full((21, 21), b)
        expected = (2 * a * b + c1) / (a * a + b * b + c1)
        assert ssim_map(p, q)[10, 10] == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        p, q = rng.uniform(size=(2, 7, 7))
        assert np.allclose(ssim_map(p, q), ssim_map(q, p), rtol=0, atol=1e-14)

    def test_opposed_constants_approach_minus_one(self):
        p = np.full((21, 21), 50.0)
        assert ssim_map(p, -p)[10, 10] < -0.9999

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim_map(np.zeros((3, 3)), np.zeros((4, 4)))


class TestSsimMap:
    def test_identical_images(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(size=(16, 16))
        s = ssim_map(p, p)
        assert np.allclose(s, 1.0, atol=1e-9)

    def test_conformal_shape_default_window(self):
        p = np.zeros((20, 14))
        assert ssim_map(p, p).shape == (20, 14)

    @pytest.mark.parametrize("shape", [(8, 8), (16, 16), (16, 24), (32, 32)])
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=shape)
        q = rng.uniform(size=shape)
        assert np.max(np.abs(ssim_map(p, q) - ssim_map_oracle(p, q))) < 1e-10

    def test_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = rng.uniform(size=(12, 12))
            q = rng.uniform(size=(12, 12))
            s = ssim_map(p, q)
            assert np.all(s >= -1 - 1e-9) and np.all(s <= 1 + 1e-9)


class TestSsimLoss:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(16, 16))
        assert ssim_loss(x, x).loss == pytest.approx(0.0, abs=1e-9)

    def test_worst_case_bound(self):
        # loss = mean(1 - S) and S >= -1, so 2 bounds the loss from above
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(10, 10))
        res = ssim_loss(x, -x + 2.0)
        assert 0.0 <= res.loss <= 2.0

    def test_loss_equals_oracle_mean(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(16, 16))
        r = rng.uniform(size=(16, 16))
        expected = np.mean(1.0 - ssim_map_oracle(x, r))
        assert ssim_loss(x, r).loss == pytest.approx(expected, abs=1e-10)


class TestSsimBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(size=(6, 6))
        q = rng.uniform(size=(6, 6))
        ds = rng.normal(size=(6, 6))
        dp, dq = ssim_map_backward(ssim_loss(p, q), ds)
        step = 1e-6
        for arr, grad in ((p, dp), (q, dq)):
            for idx in [(0, 0), (2, 3), (5, 5), (1, 4)]:
                bump = arr.copy()
                bump[idx] += step
                hi = np.sum(ds * (ssim_map(bump, q) if arr is p
                                  else ssim_map(p, bump)))
                bump[idx] -= 2 * step
                lo = np.sum(ds * (ssim_map(bump, q) if arr is p
                                  else ssim_map(p, bump)))
                fd = (hi - lo) / (2 * step)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_loss_grad_wrapper(self):
        # mean(1 - S) has the map gradient ds = -1 / (h * w) on every pixel
        rng = np.random.default_rng(10)
        x = rng.uniform(size=(6, 6))
        r = rng.uniform(size=(6, 6))
        _, dr = ssim_map_backward(ssim_loss(x, r), np.full((6, 6), -1.0 / 36))
        step = 1e-6
        bump = r.copy()
        bump[3, 3] += step
        hi = ssim_loss(x, bump).loss
        bump[3, 3] -= 2 * step
        lo = ssim_loss(x, bump).loss
        assert dr[3, 3] == pytest.approx((hi - lo) / (2 * step), rel=1e-5, abs=1e-9)


class TestStacks:
    """(n, h, w) stacks give exactly the per-image results."""

    def pair(self, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(size=(5, 16, 12)), rng.uniform(size=(5, 16, 12)), rng

    def test_ssim_map_and_loss(self):
        p, q, _ = self.pair(14)
        s = ssim_map(p, q)
        res = ssim_loss(p, q)
        for i in range(len(p)):
            single = ssim_loss(p[i], q[i])
            assert isinstance(single.loss, float)
            assert np.array_equal(s[i], ssim_map(p[i], q[i]))
            assert res.loss[i] == single.loss

    def test_ssim_map_backward(self):
        p, q, rng = self.pair(15)
        ds = rng.normal(size=p.shape)
        dp, dq = ssim_map_backward(ssim_loss(p, q), ds)
        for i in range(len(p)):
            dpi, dqi = ssim_map_backward(ssim_loss(p[i], q[i]), ds[i])
            assert np.array_equal(dp[i], dpi)
            assert np.array_equal(dq[i], dqi)

    def test_gaussian_upsample(self):
        a = np.random.default_rng(16).uniform(size=(6, 8, 8))
        out = gaussian_upsample(a, 16, 16)
        for i in range(len(a)):
            assert np.array_equal(out[i], gaussian_upsample(a[i], 16, 16))


def fcdd_map(features):
    """The fcdd score map of one image whose feature cells are `features`:
    an identity scorer passes the input row through as the feature map."""
    f = np.asarray(features, dtype=float).ravel()
    state = ScorerState(MlpSpec((f.size, f.size)),
                        np.concatenate([np.eye(f.size).ravel(), np.zeros(f.size)]))
    return LossPipeline(state, "fcdd").score_map(f)[0]


class TestFcddHeatmap:
    """The fcdd heatmap before upsampling: an fcdd pipeline's score map."""

    def test_zero_features(self):
        assert np.all(fcdd_map(np.zeros((4, 4))) == 0.0)

    def test_sqrt_three_entry(self):
        out = fcdd_map(np.array([[np.sqrt(3.0)]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_mean_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(4, 4))
        expected = np.mean([pseudo_huber(v * v) for v in f.ravel()])
        assert np.mean(fcdd_map(f)) == pytest.approx(expected, abs=1e-12)

    def test_nonfinite_rejected(self):
        # a non-finite feature cell reaches the heatmap, and AUPRO names it
        heatmap = gaussian_upsample(fcdd_map(np.array([[0.5, np.nan], [1.0, 2.0]])), 4, 4)
        mask = np.zeros((4, 4))
        mask[:2, :2] = 1
        with pytest.raises(NumericalError, match="non-finite"):
            aupro([heatmap], [mask])


class TestGaussianUpsample:
    def test_linearity(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(size=(4, 4))
        b = rng.uniform(size=(4, 4))
        lhs = gaussian_upsample(2.0 * a + 3.0 * b, 16, 16)
        rhs = 2.0 * gaussian_upsample(a, 16, 16) + 3.0 * gaussian_upsample(b, 16, 16)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_zero_input(self):
        assert np.all(gaussian_upsample(np.zeros((4, 4)), 8, 8) == 0.0)

    def test_one_hot_bump_mass(self):
        a = np.zeros((8, 8))
        a[4, 4] = 1.0
        out = gaussian_upsample(a, 32, 32)
        kern = gaussian_kernel(17, 4.0)  # stride 4: 4 * 4 + 1 cells, sigma 4
        # the bump lands fully inside, so the scattered mass is the kernel sum
        assert out.sum() == pytest.approx(kern.sum(), abs=1e-12)
        assert np.all(out >= 0.0)

    def test_convolution_oracle(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(size=(3, 3))
        s = 2  # 3 -> 6 is stride 2: a 9-cell kernel with sigma = stride
        g = np.exp(-(np.arange(9) - 4.0) ** 2 / (2.0 * s * s))
        kern = np.outer(g, g) / np.outer(g, g).sum()
        full = np.zeros((2 * s + 4 * s + 1, 2 * s + 4 * s + 1))
        for i in range(3):
            for j in range(3):
                full[i * s:i * s + 9, j * s:j * s + 9] += a[i, j] * kern
        margin = full.shape[0] - 6
        top = margin // 2
        expected = full[top:top + 6, top:top + 6]
        assert np.allclose(gaussian_upsample(a, 6, 6), expected, atol=1e-12)

    def test_incompatible_geometry(self):
        with pytest.raises(ValueError):
            gaussian_upsample(np.zeros((4, 4)), 10, 10)
        with pytest.raises(ValueError):
            gaussian_upsample(np.zeros((4, 4)), 8, 12)
        with pytest.raises(ValueError):
            gaussian_upsample(np.zeros((4, 4)), 2, 2)


class TestPixelwiseLoss:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_propriety_diagonal_minimizer(self, seed):
        # grid search over per-pixel estimates confirms the aggregate of a
        # strictly proper reference is minimized at the true probabilities
        rng = np.random.default_rng(seed)
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
        etas = rng.choice(grid, size=(3, 3))
        spec = REGISTRY["log"]
        for i in range(3):
            for j in range(3):
                risks = conditional_risk(etas[i, j], grid, spec)
                assert grid[np.argmin(risks)] == pytest.approx(etas[i, j])
