"""Random image synthesis following the 1/f^alpha spectra of natural images.

Per channel, two exponents are drawn uniformly from [0.5, 3.5],
a magnitude grid 1/(|fx|^a + |fy|^b) is laid over integer frequencies with
the singular DC bin zeroed, and the phase is taken from the spectrum of a
fully random image. The combined spectrum is Hermitian-symmetrized so the
inverse transform is real by construction, which is asserted numerically
on every synthesis; the result is min-max rescaled into [0, 1].
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError

IMAG_RESIDUE_LIMIT = 1e-9


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
    """Average the spectrum with its reflected conjugate.

    The result satisfies S[-k] = conj(S[k]) on the periodic index grid, so
    its inverse transform is real.
    """
    s = np.asarray(spectrum, dtype=complex)
    reflected = np.conj(np.roll(np.flip(s, axis=(0, 1)), shift=(1, 1), axis=(0, 1)))
    return 0.5 * (s + reflected)


def magnitude_grid(height: int, width: int, a: float, b: float) -> np.ndarray:
    """1 / (|fx|^a + |fy|^b) over integer frequencies, DC bin zeroed."""
    fy = np.fft.fftfreq(height, d=1.0 / height)
    fx = np.fft.fftfreq(width, d=1.0 / width)
    ay = np.abs(fy)[:, None] ** b
    ax = np.abs(fx)[None, :] ** a
    denom = ax + ay
    denom[0, 0] = np.inf  # kills the singular DC bin
    return 1.0 / denom


def draw_exponent_pairs(rng: np.random.Generator, n: int,
                        lo: float = 0.5, hi: float = 3.5) -> np.ndarray:
    """n rows of (a, b), each uniform on [lo, hi]."""
    return rng.uniform(lo, hi, size=(n, 2))


def synthesize(cfg: SpectralConfig):
    """One random spectral image of shape (channels, height, width) in [0, 1].

    Returns (image, metadata); metadata records the per-channel exponent
    draws and the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    image = np.empty((cfg.channels, cfg.height, cfg.width))
    exponents = []
    for ch in range(cfg.channels):
        a, b = draw_exponent_pairs(rng, 1)[0]
        exponents.append((float(a), float(b)))
        donor = rng.uniform(0.0, 255.0, size=(cfg.height, cfg.width))
        phase = np.angle(dft2(donor))
        spectrum = magnitude_grid(cfg.height, cfg.width, a, b) * np.exp(1j * phase)
        spectrum = hermitian_symmetrize(spectrum)
        signal = idft2(spectrum)
        residue = np.max(np.abs(signal.imag))
        scale = np.max(np.abs(signal.real))
        if scale > 0 and residue / scale > IMAG_RESIDUE_LIMIT:
            raise NumericalError(
                f"imaginary residue {residue / scale:.3e} exceeds {IMAG_RESIDUE_LIMIT}")
        real = signal.real
        lo, hi = real.min(), real.max()
        image[ch] = (real - lo) / (hi - lo) if hi > lo else np.zeros_like(real)
    meta = {"exponents": exponents, "seed": cfg.seed,
            "shape": [cfg.channels, cfg.height, cfg.width]}
    return image, meta


def synthesize_batch(cfg: SpectralConfig, n: int):
    """n independent draws with per-image seeds derived from cfg.seed."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(n)
    images = np.empty((n, cfg.channels, cfg.height, cfg.width))
    metas = []
    for i in range(n):
        img, meta = synthesize(replace(cfg, seed=int(seeds[i])))
        images[i] = img
        metas.append(meta)
    return images, metas
