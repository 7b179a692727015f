"""Hot numeric kernels in numpy.

The kernels work over the last two axes, so they take one 2-D image or a
``(..., H, W)`` stack; each slice of a stack gets exactly the arithmetic
of the matching 2-D call, in the same order.

Kernels:
  box_sum_valid(x, w)   windowed sums of a padded image, valid mode
  box_sum_adjoint(g, w)   its transpose, restricted to the unpadded cells
  upsample_scatter(a, kern, stride)   transpose-convolution scatter
"""

from functools import lru_cache

import numpy as np

BACKEND = "numpy"


@lru_cache(maxsize=64)
def band(n: int, w: int) -> np.ndarray:
    """(n, n + w - 1) 0/1 matrix whose row i has ones in columns i ... i + w - 1,
    so band(n, w) @ v sums every w-long window of v. Read-only."""
    i = np.arange(n)[:, None]
    j = np.arange(n + w - 1)[None, :]
    out = ((j >= i) & (j < i + w)).astype(float)
    out.flags.writeable = False
    return out


def box_sum_valid(x: np.ndarray, w: int) -> np.ndarray:
    """Sum of every w-by-w window of x as the band product A @ x @ B.T.

    Input (..., H+w-1, W+w-1) produces output (..., H, W).
    """
    hp, wp = x.shape[-2:]
    return band(hp - w + 1, w) @ x @ band(wp - w + 1, w).T


def box_sum_adjoint(g: np.ndarray, w: int) -> np.ndarray:
    """Transpose of x -> box_sum_valid(zero-padded x, w) for a border of
    (w - 1) / 2 cells (w odd): an (..., H, W) input gives (..., H, W).

    The bands are cropped to the unpadded columns, so no padded copy is
    made.
    """
    h, wd = g.shape[-2:]
    pad = (w - 1) // 2
    return band(h, w)[:, pad:pad + h].T @ g @ band(wd, w)[:, pad:pad + wd]


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
