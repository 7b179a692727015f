"""Built-in synthetic datasets exercising every pipeline path offline.

Two families: a 2-D Gaussian cluster with ring anomalies for detection
(plus a steep-basin variant whose anomalies sit far out where a saturating
scorer plateaus), and textured 16x16 tiles with square defect regions and
masks for localization.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DetectionData:
    train_normal: np.ndarray
    test_normal: np.ndarray
    test_anomalous: np.ndarray


@dataclass(frozen=True)
class TileData:
    train_images: np.ndarray       # (n, 1, s, s) defect-free
    test_images: np.ndarray        # (m, 1, s, s) mixed
    test_masks: np.ndarray         # (m, s, s) binary


def _ring(rng, n, r_lo, r_hi):
    radius = rng.uniform(r_lo, r_hi, n)
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def gaussian_ring(seed: int, n_train: int = 400, n_test: int = 150,
                  basin: bool = False) -> DetectionData:
    """2-D cluster at the origin with ring anomalies.

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
    return DetectionData(train_normal=train, test_normal=test_normal,
                         test_anomalous=test_anom)


def _texture(rng, size):
    fy, fx = rng.uniform(0.5, 2.0, 2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    tile = 0.5 + 0.22 * np.sin(2.0 * np.pi * (fy * ii + fx * jj) / size + phase)
    return tile + rng.normal(0.0, 0.03, (size, size))


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
                   size: int = 16) -> TileData:
    """Textured tiles; half the test tiles carry a bright square defect."""
    rng = np.random.default_rng(seed)
    train = np.stack([_texture(rng, size) for _ in range(n_train)])[:, None]
    n_good = n_test // 2
    good = np.stack([_texture(rng, size) for _ in range(n_good)])
    bad, masks = [], []
    for _ in range(n_test - n_good):
        tile, mask = _defect(rng, _texture(rng, size), size)
        bad.append(tile)
        masks.append(mask)
    test = np.concatenate([good, np.stack(bad)])[:, None]
    test_masks = np.concatenate([np.zeros((n_good, size, size), dtype=np.uint8),
                                 np.stack(masks)])
    return TileData(train_images=np.clip(train, 0.0, 1.0),
                    test_images=np.clip(test, 0.0, 1.0),
                    test_masks=test_masks)
