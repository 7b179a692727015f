"""Pixel-wise localization machinery: SSIM maps and Gaussian upsampling.

Images are (channels, height, width) float arrays; heatmaps and masks are
(height, width) maps or (n, height, width) stacks of them. SSIM statistics
are plain (population) window means over images framed by a zero border,
so the sliding map reduces to one box sum on the unpadded pixels; at that
border the box sum is symmetric and carries the gradients back as well.
The SSIM functions and the Gaussian upsampling take single images or
(n, height, width) stacks and treat each image of a stack exactly as a
single 2-D call would, so a stack can be taken in blocks of images with
the same bits; the scorer's SSIM head does so.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import box_sum_valid, upsample_scatter

SSIM_WINDOW = 11  # side of the square SSIM window
SSIM_BORDER = (SSIM_WINDOW - 1) // 2  # zero cells around each image: a conformal map
SSIM_C1 = 1e-4  # (0.01 * L)^2 at unit dynamic range
SSIM_C2 = 9e-4  # (0.03 * L)^2


@dataclass(frozen=True)
class SsimLoss:
    loss: float             # one per image (an array) for an (n, h, w) stack
    similarity: np.ndarray  # S map, same height/width as the inputs
    # window terms that ssim_map_backward reads: the unpadded images p and
    # q, their window means, and the factors of S = a * b / (c * d)
    p: np.ndarray
    q: np.ndarray
    mup: np.ndarray
    muq: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def ssim_loss(x, recon) -> SsimLoss:
    """Sliding-window SSIM of two single-channel images, or of two
    (n, h, w) stacks image by image, as the mean (1 - S) reconstruction
    loss (one per image for stacks), the map S, and its window terms.

    Both images get a zero border of SSIM_BORDER cells, so the map is
    conformal with the inputs.
    """
    p = np.asarray(x, dtype=float)
    q = np.asarray(recon, dtype=float)
    if p.ndim not in (2, 3) or p.shape != q.shape:
        raise ValueError(
            f"need equal 2-D images or (n, h, w) stacks, got {p.shape} vs {q.shape}")
    terms = np.empty((5,) + p.shape)
    terms[0], terms[1] = p, q
    np.multiply(terms[:2], terms[:2], out=terms[2:4])
    np.multiply(p, q, out=terms[4])
    sums = box_sum_valid(terms, SSIM_WINDOW, SSIM_BORDER)
    mup, muq, mpp, mqq, mpq = sums / SSIM_WINDOW ** 2
    # each product of the means enters two factors and is taken once
    # (doubling is exact, so 2 * pq has the bits of 2 * mup * muq)
    pq, pp, qq = mup * muq, mup * mup, muq * muq
    a = 2 * pq + SSIM_C1
    b = 2 * (mpq - pq) + SSIM_C2
    c = pp + qq + SSIM_C1
    d = (mpp - pp) + (mqq - qq) + SSIM_C2
    s = (a * b) / (c * d)
    loss = np.mean(1.0 - s, axis=(-2, -1))
    return SsimLoss(loss=float(loss) if s.ndim == 2 else loss, similarity=s,
                    p=p, q=q, mup=mup, muq=muq, a=a, b=b, c=c, d=d)


def ssim_map_backward(fwd: SsimLoss, ds):
    """Gradients of sum(ds * S(p, q)) with respect to p and q, image by
    image for (n, h, w) stacks, from the window terms of the forward pass
    fwd = ssim_loss(p, q).

    The zero border carries no gradient, and at that border the box sum
    is its own adjoint, so the forward's window sum maps the window
    gradients back onto the pixels.
    """
    ds = np.asarray(ds, dtype=float)
    mup, muq, s, cd = fwd.mup, fwd.muq, fwd.similarity, fwd.c * fwd.d
    g_a = ds * fwd.b / cd
    g_b = ds * fwd.a / cd
    nds = -ds * s  # shared by g_c and g_d, as 2 mup and 2 muq are below
    g_c = nds / fwd.c

    # the four window gradients fill one buffer, as the forward's terms do
    grads = np.empty((4,) + s.shape)
    g_mup, g_muq, g_d, g_spq = grads
    np.divide(nds, fwd.d, out=g_d)
    np.multiply(2, g_b, out=g_spq)
    mup2, muq2 = 2 * mup, 2 * muq
    np.subtract(muq2 * g_a + mup2 * g_c - mup2 * g_d, muq * g_spq, out=g_mup)
    np.subtract(mup2 * g_a + muq2 * g_c - muq2 * g_d, mup * g_spq, out=g_muq)

    sums = box_sum_valid(grads, SSIM_WINDOW, SSIM_BORDER)
    adj_mup, adj_muq, adj_d, adj_spq = sums / SSIM_WINDOW ** 2
    dp = adj_mup + 2 * fwd.p * adj_d + fwd.q * adj_spq
    dq = adj_muq + 2 * fwd.q * adj_d + fwd.p * adj_spq
    return dp, dq


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Truncated 2-D Gaussian, normalized to unit sum."""
    r = (size - 1) / 2
    ax = np.arange(size) - r
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    k = np.outer(g, g)
    return k / k.sum()


def gaussian_upsample(heatmap, out_h: int, out_w: int) -> np.ndarray:
    """Upsample a heatmap, or each map of an (n, h, w) stack, by transposed
    convolution with a fixed Gaussian.

    The stride is the integer ratio of output to input extent (it must
    divide evenly and match on both axes), the kernel spans 4*stride + 1
    cells with sigma = stride, and the full scatter is center-cropped to
    the requested shape. The operator is linear and preserves
    nonnegativity.
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
    kern = gaussian_kernel(4 * stride + 1, float(stride))
    full = upsample_scatter(a, kern, stride)
    margin_h = full.shape[-2] - out_h
    margin_w = full.shape[-1] - out_w
    top, left = margin_h // 2, margin_w // 2
    return full[..., top:top + out_h, left:left + out_w]
