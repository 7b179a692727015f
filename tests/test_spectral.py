import numpy as np
import pytest
from scipy import stats

from calad.spectral import (SpectralConfig, dft2, draw_exponent_pairs,
                            hermitian_symmetrize, idft2, magnitude_grid,
                            synthesize, synthesize_batch)


def dft2_oracle(x):
    """Direct O(n^4) definition of the 2-D DFT."""
    x = np.asarray(x, dtype=complex)
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for i in range(h):
                for j in range(w):
                    acc += x[i, j] * np.exp(-2j * np.pi * (u * i / h + v * j / w))
            out[u, v] = acc
    return out


class TestDft:
    def test_matches_direct_definition(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 16))
        got = dft2(x)
        want = dft2_oracle(x)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        back = idft2(dft2(x))
        assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9

    def test_rectangular_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 20))
        assert np.max(np.abs(idft2(dft2(x)) - x)) < 1e-9

    def test_impulse_flat_spectrum(self):
        x = np.zeros((8, 8))
        x[0, 0] = 1.0
        assert np.allclose(dft2(x), 1.0)

    def test_constant_concentrates_in_dc(self):
        spec = dft2(np.full((8, 8), 3.0))
        assert spec[0, 0] == pytest.approx(3.0 * 64)
        off = spec.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(16, 16))
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(dft2(x)) ** 2) / x.size
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestSymmetrization:
    @pytest.mark.parametrize("shape", [(8, 8), (7, 9), (8, 6)])
    def test_forces_real_signal(self, shape):
        rng = np.random.default_rng(4)
        spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        sym = hermitian_symmetrize(spec)
        signal = idft2(sym)
        assert np.max(np.abs(signal.imag)) < 1e-12 * max(1.0, np.max(np.abs(signal.real)))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        spec = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        once = hermitian_symmetrize(spec)
        twice = hermitian_symmetrize(once)
        assert np.allclose(once, twice)


class TestMagnitudeGrid:
    def test_dc_bin_zeroed(self):
        grid = magnitude_grid(8, 8, 1.0, 2.0)
        assert grid[0, 0] == 0.0

    def test_axis_decay(self):
        grid = magnitude_grid(16, 16, 2.0, 1.0)
        assert grid[0, 1] == pytest.approx(1.0)
        assert grid[0, 2] == pytest.approx(1.0 / 4.0)
        assert grid[1, 0] == pytest.approx(1.0)
        assert grid[2, 0] == pytest.approx(1.0 / 2.0)

    def test_symmetric_in_frequency_sign(self):
        grid = magnitude_grid(12, 10, 1.3, 0.7)
        assert grid[0, 1] == pytest.approx(grid[0, -1])
        assert grid[1, 0] == pytest.approx(grid[-1, 0])


class TestSynthesize:
    def test_deterministic(self):
        cfg = SpectralConfig(32, 32, channels=2, seed=77)
        a, meta_a = synthesize(cfg)
        b, meta_b = synthesize(cfg)
        assert np.array_equal(a, b)
        assert meta_a == meta_b

    def test_output_in_unit_interval(self):
        img, _ = synthesize(SpectralConfig(32, 32, seed=3))
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.min() == pytest.approx(0.0) and img.max() == pytest.approx(1.0)

    def test_metadata_draws_in_range(self):
        _, meta = synthesize(SpectralConfig(16, 16, channels=3, seed=5))
        assert len(meta["exponents"]) == 3
        for a, b in meta["exponents"]:
            assert 0.5 <= a <= 3.5 and 0.5 <= b <= 3.5

    def test_spectral_slope_recovered(self):
        # regress log |spectrum| on log fx along the zero-fy row
        for seed in (11, 12, 13):
            img, meta = synthesize(SpectralConfig(64, 64, seed=seed))
            a_drawn = meta["exponents"][0][0]
            spec = np.abs(dft2(img[0]))
            fx = np.arange(1, 32)
            slope = np.polyfit(np.log(fx), np.log(spec[0, 1:32]), 1)[0]
            assert abs(-slope - a_drawn) < 0.3

    def test_batch_draws_are_independent(self):
        images, metas = synthesize_batch(SpectralConfig(16, 16, seed=9), 4)
        assert images.shape == (4, 1, 16, 16)
        assert len({m["exponents"][0] for m in metas}) == 4

    def test_exponent_uniformity_ks(self):
        rng = np.random.default_rng(2024)
        draws = draw_exponent_pairs(rng, 10000, 0.5, 3.5)
        for column in (draws[:, 0], draws[:, 1]):
            result = stats.kstest(column, stats.uniform(0.5, 3.0).cdf)
            assert result.pvalue > 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpectralConfig(1, 8)
