"""Pixel-wise localization machinery: SSIM maps, feature heatmaps,
Gaussian upsampling, and pixel-wise aggregation of a reference loss.

Images are (channels, height, width) float arrays; heatmaps and masks are
2-D. SSIM statistics are plain (population) window means, so the sliding
map reduces to box filters over constant-padded inputs, and its adjoint is
the transposed box filter. The SSIM functions and the Gaussian upsampling
also take (n, height, width) stacks and treat each image exactly as a
single 2-D call would.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import box_sum_valid, upsample_scatter
from .losses import LossSpec

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass(frozen=True)
class SsimConfig:
    window: int = 11
    pad_value: float = 0.0
    c1: float = 1e-4  # (0.01 * L)^2 at unit dynamic range
    c2: float = 9e-4  # (0.03 * L)^2

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be an odd positive integer")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("stabilizers c1, c2 must be positive")

    @property
    def pad(self) -> int:
        """Border width (window - 1) / 2, which keeps the map conformal."""
        return (self.window - 1) // 2


@dataclass(frozen=True)
class SsimLoss:
    loss: float             # one per image (an array) for an (n, h, w) stack
    similarity: np.ndarray  # S map, same height/width as the inputs
    estimates: np.ndarray   # per-pixel (1 - S) / 2


def grayscale(image: np.ndarray) -> np.ndarray:
    """Collapse a (c, h, w) image to 2-D luminance."""
    img = np.asarray(image, dtype=float)
    if img.ndim == 2:
        return img
    if img.shape[0] == 1:
        return img[0]
    if img.shape[0] == 3:
        return np.tensordot(np.asarray(LUMA_WEIGHTS), img, axes=1)
    return img.mean(axis=0)


def ssim_patch(p, q, c1: float, c2: float) -> float:
    """SSIM of two equally shaped patches; 1 for identical patches."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"patch shapes differ: {p.shape} vs {q.shape}")
    if c1 <= 0 or c2 <= 0:
        raise ValueError("stabilizers c1, c2 must be positive")
    mp, mq = p.mean(), q.mean()
    vp = np.mean(p * p) - mp * mp
    vq = np.mean(q * q) - mq * mq
    cov = np.mean(p * q) - mp * mq
    return float(((2 * mp * mq + c1) * (2 * cov + c2))
                 / ((mp * mp + mq * mq + c1) * (vp + vq + c2)))


def _pad(img: np.ndarray, pad: int, value: float) -> np.ndarray:
    """img with a constant border of pad cells on its last two axes."""
    h, w = img.shape[-2:]
    out = np.full(img.shape[:-2] + (h + 2 * pad, w + 2 * pad), value, dtype=float)
    out[..., pad:pad + h, pad:pad + w] = img
    return out


def _window_stats(ppad, qpad, cfg):
    n = cfg.window * cfg.window
    mup, muq, mpp, mqq, mpq = box_sum_valid(
        np.stack([ppad, qpad, ppad * ppad, qpad * qpad, ppad * qpad]), cfg.window) / n
    return mup, muq, mpp - mup * mup, mqq - muq * muq, mpq - mup * muq


def ssim_map(p: np.ndarray, q: np.ndarray, cfg: SsimConfig = SsimConfig()) -> np.ndarray:
    """Sliding-window SSIM of two single-channel images, or of two
    (n, h, w) stacks image by image.

    Both images are constant-padded by cfg.pad with cfg.pad_value, so the
    map is conformal with the inputs.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim not in (2, 3) or p.shape != q.shape:
        raise ValueError(
            f"need equal 2-D images or (n, h, w) stacks, got {p.shape} vs {q.shape}")
    mup, muq, sp2, sq2, spq = _window_stats(_pad(p, cfg.pad, cfg.pad_value),
                                            _pad(q, cfg.pad, cfg.pad_value), cfg)
    a = 2 * mup * muq + cfg.c1
    b = 2 * spq + cfg.c2
    c = mup * mup + muq * muq + cfg.c1
    d = sp2 + sq2 + cfg.c2
    return (a * b) / (c * d)


def _box_adjoint(grid: np.ndarray, window: int) -> np.ndarray:
    # transpose of the valid-mode box sum: full-mode box sum
    return box_sum_valid(_pad(grid, window - 1, 0.0), window)


def ssim_map_backward(p, q, ds, cfg: SsimConfig = SsimConfig()):
    """Gradients of sum(ds * S(p, q)) with respect to p and q, image by
    image for (n, h, w) stacks.

    The constant pad border carries no gradient, so the adjoint crops back
    to the input extent.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ds = np.asarray(ds, dtype=float)
    ppad = _pad(p, cfg.pad, cfg.pad_value)
    qpad = _pad(q, cfg.pad, cfg.pad_value)
    mup, muq, sp2, sq2, spq = _window_stats(ppad, qpad, cfg)
    a = 2 * mup * muq + cfg.c1
    b = 2 * spq + cfg.c2
    c = mup * mup + muq * muq + cfg.c1
    d = sp2 + sq2 + cfg.c2
    s = (a * b) / (c * d)

    g_a = ds * b / (c * d)
    g_b = ds * a / (c * d)
    g_c = -ds * s / c
    g_d = -ds * s / d

    g_spq = 2 * g_b
    g_mup = 2 * muq * g_a + 2 * mup * g_c - 2 * mup * g_d - muq * g_spq
    g_muq = 2 * mup * g_a + 2 * muq * g_c - 2 * muq * g_d - mup * g_spq

    n = cfg.window * cfg.window
    adj_mup, adj_muq, adj_d, adj_spq = _box_adjoint(
        np.stack([g_mup, g_muq, g_d, g_spq]), cfg.window) / n
    dppad = adj_mup + 2 * ppad * adj_d + qpad * adj_spq
    dqpad = adj_muq + 2 * qpad * adj_d + ppad * adj_spq
    h, wd = p.shape[-2:]
    dp = dppad[..., cfg.pad:cfg.pad + h, cfg.pad:cfg.pad + wd]
    dq = dqpad[..., cfg.pad:cfg.pad + h, cfg.pad:cfg.pad + wd]
    return dp, dq


def ssim_loss(x, recon, cfg: SsimConfig = SsimConfig()) -> SsimLoss:
    """Mean (1 - S) reconstruction loss with its per-pixel estimates; for
    (n, h, w) stacks the loss is one value per image."""
    s = ssim_map(x, recon, cfg)
    loss = np.mean(1.0 - s, axis=(-2, -1))
    return SsimLoss(loss=float(loss) if s.ndim == 2 else loss, similarity=s,
                    estimates=(1.0 - s) / 2.0)


def ssim_loss_grad(x, recon, cfg: SsimConfig = SsimConfig()):
    """ssim_loss value plus its gradients with respect to both images."""
    x = np.asarray(x, dtype=float)
    res = ssim_loss(x, recon, cfg)
    ds = np.full(x.shape, -1.0 / (x.shape[-2] * x.shape[-1]))
    dx, drecon = ssim_map_backward(x, recon, ds, cfg)
    return res, dx, drecon


def fcdd_heatmap(features: np.ndarray) -> np.ndarray:
    """Element-wise pseudo-Huber heatmap sqrt(f^2 + 1) - 1 of a feature map."""
    f = np.asarray(features, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("features must be finite")
    return np.sqrt(f * f + 1.0) - 1.0


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Truncated 2-D Gaussian, normalized to unit sum."""
    r = (size - 1) / 2
    ax = np.arange(size) - r
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    k = np.outer(g, g)
    return k / k.sum()


def gaussian_upsample(heatmap, out_h: int, out_w: int, sigma: float) -> np.ndarray:
    """Upsample a heatmap, or each map of an (n, h, w) stack, by transposed
    convolution with a fixed Gaussian.

    The stride is the integer ratio of output to input extent (it must
    divide evenly and match on both axes), the kernel spans 4*stride + 1
    cells, and the full scatter is center-cropped to the requested shape.
    The operator is linear and preserves nonnegativity.
    """
    a = np.asarray(heatmap, dtype=float)
    if a.ndim not in (2, 3):
        raise ValueError("heatmap must be 2-D or an (n, h, w) stack")
    in_h, in_w = a.shape[-2:]
    if out_h < in_h or out_w < in_w:
        raise ValueError("output dims must not be smaller than the input")
    if out_h % in_h or out_w % in_w or out_h // in_h != out_w // in_w:
        raise ValueError(
            f"incompatible shapes: ({in_h}, {in_w}) -> ({out_h}, {out_w}) needs one "
            "integer stride on both axes")
    stride = out_h // in_h
    if stride == 1 and sigma <= 0:
        return a.copy()
    kern = gaussian_kernel(4 * stride + 1, sigma)
    full = upsample_scatter(a, kern, stride)
    margin_h = full.shape[-2] - out_h
    margin_w = full.shape[-1] - out_w
    top, left = margin_h // 2, margin_w // 2
    return full[..., top:top + out_h, left:left + out_w]


def pixelwise_loss(masks, estimates, reference: LossSpec) -> float:
    """Average of the reference CPE loss over pixels.

    Inherits (strict) propriety from the reference loss, since the mean of
    element-wise (strictly) proper losses is (strictly) proper.
    """
    y = np.asarray(masks, dtype=float)
    e = np.asarray(estimates, dtype=float)
    if y.shape != e.shape:
        raise ValueError(f"shape mismatch: masks {y.shape} vs estimates {e.shape}")
    return float(np.mean(reference(y.ravel(), e.ravel())))
