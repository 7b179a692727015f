import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import calad.spectral
from calad.cli import SYNTH_MAX_VALUES
from calad.errors import NumericalError
from calad.spectral import (SYNTH_BLOCK, SpectralConfig, dft2, draw_exponent_pairs,
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
        draws = draw_exponent_pairs(rng, 10000)
        for column in (draws[:, 0], draws[:, 1]):
            result = stats.kstest(column, stats.uniform(0.5, 3.0).cdf)
            assert result.pvalue > 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpectralConfig(1, 8)


def synthesize_batch_oracle(cfg, n):
    """The per-image, per-channel synthesis loop the stacked transform
    replaced: one generator, FFT pair and min-max per channel image."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(n)
    images = np.empty((n, cfg.channels, cfg.height, cfg.width))
    for i in range(n):
        rng = np.random.default_rng(int(seeds[i]))
        for ch in range(cfg.channels):
            a, b = draw_exponent_pairs(rng, 1)[0]
            donor = rng.uniform(0.0, 255.0, size=(cfg.height, cfg.width))
            phase = np.angle(np.fft.fft2(donor))
            fy = np.fft.fftfreq(cfg.height, d=1.0 / cfg.height)
            fx = np.fft.fftfreq(cfg.width, d=1.0 / cfg.width)
            denom = np.abs(fx)[None, :] ** a + np.abs(fy)[:, None] ** b
            denom[0, 0] = np.inf
            spectrum = (1.0 / denom) * np.exp(1j * phase)
            reflected = np.conj(np.roll(np.flip(spectrum, axis=(0, 1)), shift=(1, 1),
                                        axis=(0, 1)))
            real = np.fft.ifft2(0.5 * (spectrum + reflected)).real
            lo, hi = real.min(), real.max()
            images[i, ch] = (real - lo) / (hi - lo) if hi > lo else np.zeros_like(real)
    return images


class TestStackedSynthesis:
    @pytest.mark.parametrize("shape", [(100, 1, 16, 16), (30, 1, 64, 64),
                                       (30, 2, 17, 23), (164, 1, 16, 16)],
                             ids=str)
    def test_stack_equals_per_image_loop(self, shape):
        n, c, h, w = shape
        cfg = SpectralConfig(h, w, channels=c, seed=n + h)
        images, _ = synthesize_batch(cfg, n)
        assert np.array_equal(images, synthesize_batch_oracle(cfg, n))

    def test_single_image_is_a_stack_of_one(self):
        cfg = SpectralConfig(12, 10, channels=2, seed=4)
        images, metas = synthesize_batch(cfg, 3)
        seed = int(np.random.SeedSequence(4).generate_state(3)[1])
        img, meta = synthesize(SpectralConfig(12, 10, channels=2, seed=seed))
        assert np.array_equal(img, images[1])
        assert meta == metas[1]

    def test_stacked_grids_and_reflection_equal_per_slice(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0.5, 3.5, size=(4, 1, 1))
        b = rng.uniform(0.5, 3.5, size=(4, 1, 1))
        grids = magnitude_grid(9, 6, a, b)
        spec = rng.normal(size=(4, 9, 6)) + 1j * rng.normal(size=(4, 9, 6))
        sym = hermitian_symmetrize(spec)
        for i in range(4):
            assert np.array_equal(grids[i], magnitude_grid(9, 6, a[i, 0, 0], b[i, 0, 0]))
            assert np.array_equal(sym[i], hermitian_symmetrize(spec[i]))

    def test_empty_batch(self):
        images, metas = synthesize_batch(SpectralConfig(8, 8, seed=1), 0)
        assert images.shape == (0, 1, 8, 8) and metas == []

    def test_residue_on_one_image_raises(self, monkeypatch):
        def leaky_idft2(grid):
            out = np.fft.ifft2(grid)
            out[2] += 1j  # only the third image keeps an imaginary part
            return out

        monkeypatch.setattr(calad.spectral, "idft2", leaky_idft2)
        with pytest.raises(NumericalError, match="image 2 channel 0"):
            synthesize_batch(SpectralConfig(16, 16, seed=0), 5)


class TestBlockedSynthesis:
    """A batch is synthesized SYNTH_BLOCK images at a time."""

    def test_residue_in_a_later_block_names_the_batch_index(self, monkeypatch):
        calls = []

        def leaky_idft2(grid):
            out = np.fft.ifft2(grid)
            calls.append(len(out))
            if len(calls) == 2:
                out[2] += 1j  # the third image of the second block
            return out

        monkeypatch.setattr(calad.spectral, "idft2", leaky_idft2)
        with pytest.raises(NumericalError, match=f"image {SYNTH_BLOCK + 2} channel 0"):
            synthesize_batch(SpectralConfig(16, 16, seed=0), 2 * SYNTH_BLOCK + 3)
        assert calls == [SYNTH_BLOCK, SYNTH_BLOCK]

    def test_each_pass_takes_at_most_a_block_of_seeds(self, monkeypatch):
        sizes = []
        real = calad.spectral._synthesize_seeds

        def spy(cfg, seeds, first):
            sizes.append((first, len(seeds)))
            return real(cfg, seeds, first)

        monkeypatch.setattr(calad.spectral, "_synthesize_seeds", spy)
        images, metas = synthesize_batch(SpectralConfig(8, 8, seed=2), 2 * SYNTH_BLOCK + 5)
        assert sizes == [(0, SYNTH_BLOCK), (SYNTH_BLOCK, SYNTH_BLOCK), (2 * SYNTH_BLOCK, 5)]
        assert len(images) == len(metas) == 2 * SYNTH_BLOCK + 5

    def test_100_images_allocate_at_most_1_mb(self):
        # one whole-stack pass over these 100 16x16 images allocated 1.72 MB,
        # most of it complex temporaries; the result itself is 0.2 MB
        cfg = SpectralConfig(16, 16, seed=3)
        tracemalloc.start()
        try:
            synthesize_batch(cfg, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6

    def test_synth_at_the_cap_fits_under_800_mb_of_address_space(self, tmp_path):
        # a whole-stack pass at the cap peaked at 1.06 GB RSS and failed
        # here with an allocation error
        side = 256
        count = SYNTH_MAX_VALUES // (side * side)
        out = tmp_path / "big"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (800_000 * 1024, 800_000 * 1024))

        proc = subprocess.run(
            [sys.executable, "-m", "calad.cli", "synth", "--count", str(count),
             "--height", str(side), "--width", str(side), "--out", str(out)],
            capture_output=True, text=True, preexec_fn=limit)
        assert proc.returncode == 0, proc.stderr
        assert len(list(out.glob("*.calt"))) == count == 256
