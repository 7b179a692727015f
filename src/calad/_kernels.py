"""Hot numeric kernels in numpy.

Both kernels work over the last two axes, so they take one 2-D image or a
``(..., H, W)`` stack; each slice of a stack gets exactly the arithmetic
of the matching 2-D call, in the same order.

Kernels:
  box_sum_valid(x, w)   windowed sums of a padded image, valid mode
  upsample_scatter(a, kern, stride)   transpose-convolution scatter
"""

import numpy as np

BACKEND = "numpy"


def box_sum_valid(x: np.ndarray, w: int) -> np.ndarray:
    """Sum of every w-by-w window of x via an integral image.

    Input (..., H+w-1, W+w-1) produces output (..., H, W).
    """
    hp, wp = x.shape[-2:]
    # integral image with a zero first row and column
    c = np.zeros(x.shape[:-2] + (hp + 1, wp + 1))
    inner = c[..., 1:, 1:]
    np.cumsum(x, axis=-2, out=inner)
    np.cumsum(inner, axis=-1, out=inner)
    return c[..., w:, w:] - c[..., :-w, w:] - c[..., w:, :-w] + c[..., :-w, :-w]


def upsample_scatter(a: np.ndarray, kern: np.ndarray, stride: int) -> np.ndarray:
    """Scatter each input cell through kern at spacing stride (full extent)."""
    n, m = a.shape[-2:]
    k = kern.shape[0]
    out = np.zeros(a.shape[:-2] + ((n - 1) * stride + k, (m - 1) * stride + k))
    hi = (n - 1) * stride + 1
    wi = (m - 1) * stride + 1
    for di in range(k):
        for dj in range(k):
            out[..., di:di + hi:stride, dj:dj + wi:stride] += a * kern[di, dj]
    return out
