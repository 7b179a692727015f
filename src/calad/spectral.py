"""Random image synthesis following the 1/f^alpha spectra of natural images.

Per channel, two exponents are drawn uniformly from [0.5, 3.5],
a magnitude grid 1/(|fx|^a + |fy|^b) is laid over integer frequencies with
the singular DC bin zeroed, and the phase is taken from the spectrum of a
fully random image. The combined spectrum is Hermitian-symmetrized so the
inverse transform is real by construction, which is asserted numerically
on every synthesis; the result is min-max rescaled into [0, 1]. A batch
is synthesized ``SYNTH_BLOCK`` images at a time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

IMAG_RESIDUE_LIMIT = 1e-9
EXPONENT_RANGE = (0.5, 3.5)  # each spectral exponent is uniform on this interval
# images per FFT pass: a pass holds about 8x its images in complex
# temporaries, so a block bounds them while the result is filled in place
SYNTH_BLOCK = 16


@dataclass(frozen=True)
class SpectralConfig:
    height: int
    width: int
    channels: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.height < 2 or self.width < 2 or self.channels < 1:
            raise ValueError("need at least a 2x2 image with one channel")


def dft2(grid: np.ndarray) -> np.ndarray:
    """2-D discrete Fourier transform (direct-definition convention)."""
    return np.fft.fft2(np.asarray(grid))


def idft2(grid: np.ndarray) -> np.ndarray:
    """Inverse 2-D transform; idft2(dft2(x)) recovers x."""
    return np.fft.ifft2(np.asarray(grid))


def hermitian_symmetrize(spectrum: np.ndarray) -> np.ndarray:
    """Average the spectrum, or each spectrum of a stack over the last two
    axes, with its reflected conjugate.

    The result satisfies S[-k] = conj(S[k]) on the periodic index grid, so
    its inverse transform is real.
    """
    s = np.asarray(spectrum, dtype=complex)
    axes = (-2, -1)
    reflected = np.conj(np.roll(np.flip(s, axis=axes), shift=(1, 1), axis=axes))
    return 0.5 * (s + reflected)


def magnitude_grid(height: int, width: int, a, b) -> np.ndarray:
    """1 / (|fx|^a + |fy|^b) over integer frequencies, DC bin zeroed.

    Scalar exponents give one (height, width) grid; arrays of exponents
    shaped (..., 1, 1) give one grid per exponent pair, (..., height, width).
    """
    fy = np.fft.fftfreq(height, d=1.0 / height)
    fx = np.fft.fftfreq(width, d=1.0 / width)
    ay = np.abs(fy)[:, None] ** b
    ax = np.abs(fx)[None, :] ** a
    denom = ax + ay
    denom[..., 0, 0] = np.inf  # kills the singular DC bin
    return 1.0 / denom


def draw_exponent_pairs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n rows of (a, b), each uniform on EXPONENT_RANGE."""
    return rng.uniform(*EXPONENT_RANGE, size=(n, 2))


def _synthesize_seeds(cfg: SpectralConfig, seeds, first: int):
    """One image per seed, shape (len(seeds), channels, height, width).

    Each image draws, channel by channel, its exponent pair and then its
    donor image from its own generator; the transforms then run once over
    the whole stack. ``first`` is the batch index of seeds[0], which a
    residue error names.
    """
    n, c, h, w = len(seeds), cfg.channels, cfg.height, cfg.width
    exponents = np.empty((n, c, 2))
    donors = np.empty((n, c, h, w))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for ch in range(c):
            exponents[i, ch] = draw_exponent_pairs(rng, 1)[0]
            donors[i, ch] = rng.uniform(0.0, 255.0, size=(h, w))
    phase = np.angle(dft2(donors))
    a = exponents[..., 0, None, None]
    b = exponents[..., 1, None, None]
    spectrum = hermitian_symmetrize(magnitude_grid(h, w, a, b) * np.exp(1j * phase))
    signal = idft2(spectrum)
    residue = np.max(np.abs(signal.imag), axis=(-2, -1))
    scale = np.max(np.abs(signal.real), axis=(-2, -1))
    ratio = residue / np.where(scale > 0, scale, 1.0)
    bad = np.argwhere((scale > 0) & (ratio > IMAG_RESIDUE_LIMIT))
    if len(bad):
        i, ch = bad[0]
        raise NumericalError(
            f"image {first + i} channel {ch}: imaginary residue {ratio[i, ch]:.3e} "
            f"exceeds {IMAG_RESIDUE_LIMIT}")
    real = signal.real
    lo = real.min(axis=(-2, -1), keepdims=True)
    span = real.max(axis=(-2, -1), keepdims=True) - lo
    images = np.where(span > 0, (real - lo) / np.where(span > 0, span, 1.0), 0.0)
    metas = [{"exponents": [(float(ea), float(eb)) for ea, eb in exponents[i]],
              "seed": int(seed), "shape": [c, h, w]} for i, seed in enumerate(seeds)]
    return images, metas


def synthesize(cfg: SpectralConfig):
    """One random spectral image of shape (channels, height, width) in [0, 1].

    Returns (image, metadata); metadata records the per-channel exponent
    draws and the seed.
    """
    images, metas = _synthesize_seeds(cfg, [cfg.seed], 0)
    return images[0], metas[0]


def synthesize_batch(cfg: SpectralConfig, n: int):
    """n independent draws with per-image seeds derived from cfg.seed,
    synthesized SYNTH_BLOCK at a time; each image is the one a whole-stack
    pass gives, bit for bit."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(n)
    images = np.empty((n, cfg.channels, cfg.height, cfg.width))
    metas = []
    for start in range(0, n, SYNTH_BLOCK):
        block = slice(start, start + SYNTH_BLOCK)
        images[block], block_metas = _synthesize_seeds(cfg, seeds[block], start)
        metas += block_metas
    return images, metas
