"""Hot numeric kernels in numpy.

The kernels work over the last two axes, so they take one 2-D image or a
``(..., H, W)`` stack; each slice of a stack gets exactly the arithmetic
of the matching 2-D call, in the same order.

Kernels:
  box_sum_valid(x, w, pad)   windowed sums of an image framed by pad zero cells
  upsample_scatter(a, kern, stride)   transpose-convolution scatter
"""

from functools import lru_cache

import numpy as np

BACKEND = "numpy"


@lru_cache(maxsize=64)
def _bands(n: int, w: int, pad: int):
    """(left, right) 0/1 matrices that sum every w-long window of an
    n-long axis framed by pad zero cells: left @ v sums the windows of a
    column v, and u @ right those of a row u. Only the n real cells get a
    column (left) or row (right); both are contiguous and read-only."""
    i = np.arange(n + 2 * pad - w + 1)[:, None]
    j = np.arange(n)[None, :] + pad
    left = ((j >= i) & (j < i + w)).astype(float)
    right = np.ascontiguousarray(left.T)
    left.flags.writeable = right.flags.writeable = False
    return left, right


def box_sum_valid(x: np.ndarray, w: int, pad: int = 0) -> np.ndarray:
    """Sum of every w-by-w window of x framed by pad zero cells, as the
    band product L @ x @ R on x itself (no padded copy is made).

    Input (..., H, W) produces output (..., H + 2*pad - w + 1, W + 2*pad - w + 1);
    pad=0 is valid mode. With w odd and pad = (w - 1) / 2 the output
    keeps x's shape and the operator is symmetric, so it is its own
    adjoint.
    """
    h, wd = x.shape[-2:]
    return _bands(h, w, pad)[0] @ x @ _bands(wd, w, pad)[1]


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
