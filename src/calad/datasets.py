"""Dataset records and the built-in synthetic datasets.

A dataset record is ``{"class_id", "normal", "test", "image_shape"}``: the
raw normal training rows, the ``Holdout`` test set with normals first, and
the (h, w) tile shape (None for rows). The built-in families return one: a
2-D Gaussian cluster with ring anomalies (plus a steep-basin variant whose
anomalies sit where a saturating scorer plateaus), and textured 16x16 tiles
with square defects and their masks.
"""

from typing import NamedTuple, Optional

import numpy as np


class Holdout(NamedTuple):
    """Seed-independent test inputs: raw rows with normals first."""
    x: np.ndarray
    y: np.ndarray                 # 0 normal, 1 anomalous
    masks: Optional[np.ndarray]   # tiles only, aligned with the rows


def rows_dataset(class_id, train, test_normal, test_anomalous) -> dict:
    """Dataset record of tabular rows."""
    test = Holdout(np.concatenate([test_normal, test_anomalous]),
                   np.concatenate([np.zeros(len(test_normal)),
                                   np.ones(len(test_anomalous))]), None)
    return {"class_id": class_id, "normal": train, "test": test, "image_shape": None}


def tiles_dataset(class_id, train_images, test_images, test_masks) -> dict:
    """Dataset record of (n, c, h, w) tiles, flattened into rows; a test
    tile is anomalous when its mask marks any pixel."""
    anomalous = test_masks.sum(axis=(1, 2)) > 0
    order = np.argsort(anomalous, kind="stable")  # normal tiles first
    test = Holdout(test_images[order].reshape(len(order), -1),
                   anomalous[order].astype(float), test_masks[order])
    return {"class_id": class_id, "normal": train_images.reshape(len(train_images), -1),
            "test": test, "image_shape": train_images.shape[-2:]}


def _ring(rng, n, r_lo, r_hi):
    radius = rng.uniform(r_lo, r_hi, n)
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def gaussian_ring(seed: int, n_train: int = 400, n_test: int = 150,
                  basin: bool = False) -> dict:
    """2-D cluster at the origin with ring anomalies, class gauss2d or
    gauss2d-basin.

    The default layout keeps the anomalies close enough for imperfect
    separation. The basin variant pushes them into a far ring where a
    saturating scorer plateaus (so their loss gradients vanish), while the
    normal cluster stays in its steep, responsive region.
    """
    rng = np.random.default_rng(seed)
    sigma = 0.5
    train = rng.normal(0.0, sigma, (n_train, 2))
    test_normal = rng.normal(0.0, sigma, (n_test, 2))
    if basin:
        test_anom = _ring(rng, n_test, 1.75, 3.0)
    else:
        test_anom = _ring(rng, n_test, 1.0, 2.5)
    return rows_dataset("gauss2d-basin" if basin else "gauss2d", train, test_normal,
                        test_anom)


def _texture(rng, ii, jj):  # ii, jj: the tile's row and column index grids
    fy, fx = rng.uniform(0.5, 2.0, 2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    tile = 0.5 + 0.22 * np.sin(2.0 * np.pi * (fy * ii + fx * jj) / len(ii) + phase)
    return tile + rng.normal(0.0, 0.03, ii.shape)


def _defect(rng, tile, size):
    side = rng.integers(3, 7)
    top = rng.integers(0, size - side)
    left = rng.integers(0, size - side)
    mask = np.zeros((size, size), dtype=np.uint8)
    mask[top:top + side, left:left + side] = 1
    out = tile.copy()
    out[mask == 1] = np.clip(out[mask == 1] + rng.uniform(0.3, 0.45), 0.0, 1.0)
    return out, mask


def textured_tiles(seed: int, n_train: int = 200, n_test: int = 60,
                   size: int = 16) -> dict:
    """Textured tiles, class tiles; half the test tiles carry a bright
    square defect."""
    rng = np.random.default_rng(seed)
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    train = np.stack([_texture(rng, ii, jj) for _ in range(n_train)])[:, None]
    n_good = n_test // 2
    good = np.stack([_texture(rng, ii, jj) for _ in range(n_good)])
    bad, masks = [], []
    for _ in range(n_test - n_good):
        tile, mask = _defect(rng, _texture(rng, ii, jj), size)
        bad.append(tile)
        masks.append(mask)
    test = np.concatenate([good, np.stack(bad)])[:, None]
    test_masks = np.concatenate([np.zeros((n_good, size, size), dtype=np.uint8),
                                 np.stack(masks)])
    return tiles_dataset("tiles", np.clip(train, 0.0, 1.0), np.clip(test, 0.0, 1.0),
                         test_masks)
