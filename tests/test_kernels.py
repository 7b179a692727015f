import math

import numpy as np
import pytest

from calad import _kernels


def box_sum_oracle(x, w):
    """Direct per-window double loop."""
    hp, wp = x.shape
    out = np.zeros((hp - w + 1, wp - w + 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = x[i:i + w, j:j + w].sum()
    return out


def scatter_oracle(a, kern, stride):
    n, m = a.shape
    k = kern.shape[0]
    out = np.zeros(((n - 1) * stride + k, (m - 1) * stride + k))
    for i in range(n):
        for j in range(m):
            for di in range(k):
                for dj in range(k):
                    out[i * stride + di, j * stride + dj] += a[i, j] * kern[di, dj]
    return out


@pytest.mark.parametrize("shape,w", [((13, 13), 3), ((18, 14), 5), ((21, 21), 11)])
def test_box_sum_numpy_matches_oracle(shape, w):
    rng = np.random.default_rng(0)
    x = rng.normal(size=shape)
    got = _kernels.box_sum_valid(x, w)
    assert np.allclose(got, box_sum_oracle(x, w), atol=1e-10)


@pytest.mark.parametrize("shape,k,s", [((4, 4), 5, 1), ((5, 3), 9, 2), ((8, 8), 13, 3)])
def test_scatter_numpy_matches_oracle(shape, k, s):
    rng = np.random.default_rng(1)
    a = rng.normal(size=shape)
    kern = rng.normal(size=(k, k))
    got = _kernels.upsample_scatter(a, kern, s)
    assert np.allclose(got, scatter_oracle(a, kern, s), atol=1e-12)


@pytest.mark.parametrize("w", [3, 11])
def test_box_sum_stack_equals_per_slice(w):
    x = np.random.default_rng(2).normal(size=(2, 3, 26, 21))
    got = _kernels.box_sum_valid(x, w)
    for idx in np.ndindex(x.shape[:2]):
        assert np.array_equal(got[idx], _kernels.box_sum_valid(x[idx], w))


def test_scatter_stack_equals_per_slice():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 8, 8))
    kern = rng.normal(size=(9, 9))
    got = _kernels.upsample_scatter(a, kern, 2)
    for i in range(len(a)):
        assert np.array_equal(got[i], _kernels.upsample_scatter(a[i], kern, 2))


def test_box_sum_matches_fsum_to_last_bits():
    # nonnegative windows, as of SSIM intensities and their products: the
    # band product sums each window directly, so no integral-image
    # cancellation creeps in
    x = np.random.default_rng(4).uniform(size=(64, 26, 26))
    got = _kernels.box_sum_valid(x, 11)
    want = np.array([[[math.fsum(x[k, i:i + 11, j:j + 11].ravel()) for j in range(16)]
                      for i in range(16)] for k in range(64)])
    assert np.max(np.abs(got - want) / want) <= 1e-15


@pytest.mark.parametrize("shape,w", [((16, 16), 11), ((7, 12), 3), ((3, 9, 5), 5)])
def test_box_sum_adjoint_dot_product(shape, w):
    # at a (w - 1) / 2 zero border the window sum S is its own adjoint:
    # <S x, g> == <x, S g>
    rng = np.random.default_rng(5)
    x = rng.normal(size=shape)
    g = rng.normal(size=shape)
    pad = (w - 1) // 2
    lhs = np.sum(_kernels.box_sum_valid(x, w, pad) * g)
    rhs = np.sum(x * _kernels.box_sum_valid(g, w, pad))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_box_sum_adjoint_stack_equals_per_slice():
    g = np.random.default_rng(6).normal(size=(4, 3, 16, 16))
    got = _kernels.box_sum_valid(g, 11, 5)
    for idx in np.ndindex(g.shape[:2]):
        assert np.array_equal(got[idx], _kernels.box_sum_valid(g[idx], 11, 5))


@pytest.mark.parametrize("shape,w,pad", [((16, 16), 11, 5), ((7, 12), 3, 1),
                                         ((2, 9, 5), 5, 3), ((4, 4), 11, 5)])
def test_zero_border_equals_padded_copy(shape, w, pad):
    # the bands cropped to x's cells sum exactly what the zero-padded copy sums
    x = np.random.default_rng(7).normal(size=shape)
    padded = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad)] * 2)
    assert np.array_equal(_kernels.box_sum_valid(x, w, pad),
                          _kernels.box_sum_valid(padded, w))


def test_zero_border_matches_fsum_to_last_bits():
    x = np.random.default_rng(8).uniform(size=(16, 16, 16))
    got = _kernels.box_sum_valid(x, 11, 5)
    padded = np.pad(x, [(0, 0), (5, 5), (5, 5)])
    want = np.array([[[math.fsum(padded[k, i:i + 11, j:j + 11].ravel())
                       for j in range(16)] for i in range(16)] for k in range(16)])
    assert np.max(np.abs(got - want) / want) <= 1e-15
