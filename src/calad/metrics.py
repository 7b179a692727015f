"""Ranking and localization metrics.

Ties are handled with midranks throughout, which makes the AUROC the exact
rank-statistic estimator P(s_pos > s_neg) + P(tie)/2 and keeps every metric
deterministic. AUPRO follows the per-region-overlap convention: region
true-positive rates averaged over connected anomalous regions
(4-connectivity), swept over all score thresholds, integrated over false
positive rates up to a cap and normalized by that cap.
"""

import numpy as np

from .errors import DataError, NumericalError

AUPRO_FPR_CAP = 0.3  # AUPRO integrates FPR over [0, this cap]


def _require_finite(x, what):
    """NumericalError naming how many values of the 1-D x are not finite."""
    n_bad = int(np.sum(~np.isfinite(x)))
    if n_bad:
        raise NumericalError(f"{what} got {n_bad} non-finite values of {len(x)}")


def _midranks(x, what):
    """1-based ranks with ties given their mean rank; raises
    NumericalError on non-finite values, which have no rank.

    A midrank is a whole or half integer, so it is exact in float64 and
    equals scipy.stats.rankdata(x, method="average") bit for bit.
    """
    _require_finite(x, what)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def auroc(scores, labels) -> float:
    """Midrank (tie-aware) area under the ROC curve, from one sort.

    Each tie group of the sorted scores adds its positives times its
    midrank to the positives' rank sum. Every partial sum is a multiple
    of 0.5 below 2^53 (n up to about 1.3e8), so the sum is exact and
    equals the sum of the positives' ``_midranks`` bit for bit.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC needs at least one sample of each class")
    _require_finite(s, "AUROC")
    order = np.argsort(s)
    ranked = s[order]
    # 1-based rank of each tie group's last member
    ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, len(ranked))
    positives = np.diff(np.cumsum((y == 1)[order])[ends - 1], prepend=0)
    midranks = ends - (np.diff(ends, prepend=0) - 1) / 2.0
    rank_sum = np.sum(positives * midranks)
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pixel_auroc(heatmaps, masks) -> float:
    """AUROC over all pixels of a stack of heatmaps against binary masks."""
    return auroc(np.asarray(heatmaps, dtype=float).ravel(),
                 (np.asarray(masks) > 0).astype(int).ravel())


def mask_regions(masks) -> np.ndarray:
    """Connected anomalous regions of a 2-D binary mask or an (n, h, w)
    stack of them, 4-connectivity: an int array of masks' shape, 0 off
    the mask and 1, 2, ... on the regions, numbered mask by mask in
    raster order of each region's first pixel.

    The masks are laid one under the other with a zero row between them,
    so no region joins across masks. The horizontal runs of every row are
    found with numpy; runs in adjacent rows whose column ranges overlap
    are joined by a union-find over runs, so the cost grows with the
    number of runs, not with region diameter.
    """
    m = np.asarray(masks) > 0
    h, w = m.shape[-2:]
    # each row followed by a zero column that keeps runs from wrapping onto
    # the next row, each mask by a zero row; all laid end to end after one zero
    grid = np.zeros(m.shape[:-2] + (h + 1, w + 1), dtype=np.int8)
    grid[..., :h, :w] = m
    flat = np.concatenate([[0], grid.ravel()])
    step = flat[1:] - flat[:-1]
    starts = np.flatnonzero(step == 1)
    stops = np.flatnonzero(step == -1)  # one past each run's last pixel
    if not len(starts):
        return np.zeros(m.shape, dtype=np.int64)
    # runs sorted in raster order are disjoint, so the runs of the row
    # above that overlap run b are the contiguous range lo[b]..hi[b]-1
    lo = np.searchsorted(stops, starts - (w + 1), side="right").tolist()
    hi = np.searchsorted(starts, stops - (w + 1), side="left").tolist()
    parent = list(range(len(starts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for b in range(len(starts)):
        for a in range(lo[b], hi[b]):
            ra, rb = find(a), find(b)
            # the smaller root wins, so a region's root is its first run
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(i) for i in range(len(starts))])
    # regions numbered 1, 2, ... in the order of their roots
    numbers = np.cumsum(roots == np.arange(len(roots)))
    marks = np.zeros(grid.size, dtype=np.int64)
    marks[starts] = numbers[roots]
    marks[stops] = -numbers[roots]
    return np.cumsum(marks).reshape(grid.shape)[..., :h, :w]


def _integrate_to_cap(fpr, pro, cap: float) -> float:
    """Trapezoid area under the (fpr, pro) curve from 0 to cap, over cap.

    fpr is nondecreasing. The whole segments up to the last point at or
    below the cap are summed left to right by a running sum; then the
    segment that crosses the cap adds its part below the cap.
    """
    k = int(np.searchsorted(fpr, cap, side="right"))  # points at or below cap
    x0, x1 = fpr[:k - 1], fpr[1:k]
    y0, y1 = pro[:k - 1], pro[1:k]
    area = np.cumsum((x1 - x0) * (y0 + y1) / 2.0)[-1] if k > 1 else 0.0
    if 0 < k < len(fpr) and fpr[k - 1] < cap:
        x0, x1 = fpr[k - 1], fpr[k]
        y0, y1 = pro[k - 1], pro[k]
        y_cap = y0 + (y1 - y0) * (cap - x0) / (x1 - x0)
        area += (cap - x0) * (y0 + y_cap) / 2.0
    return area / cap


def aupro(heatmaps, masks, fpr_cap: float = AUPRO_FPR_CAP) -> float:
    """Mean per-region overlap integrated over FPR in [0, fpr_cap].

    ``heatmaps`` and ``masks`` are (n, h, w) stacks, or sequences of
    equal-shaped 2-D arrays. The result is normalized by the cap, so a
    perfect detector scores 1 and a constant heatmap scores
    fpr_cap / 2 / fpr_cap = 0.5 at cap 1.

    Each anomalous pixel weighs 1 / (regions * its region's size), so the
    weight at or above a threshold is the mean region overlap there. One
    descending sort then gives the FPR and the PRO at every threshold as
    cumulative sums, read at the last pixel of each run of tied scores.
    """
    if not 0 < fpr_cap <= 1:
        raise ValueError("fpr_cap must lie in (0, 1]")
    scores = np.asarray(heatmaps, dtype=float)
    labels = mask_regions(masks)
    if scores.shape != labels.shape:
        raise ValueError(f"shape mismatch: heatmaps {scores.shape} vs masks {labels.shape}")
    scores, labels = scores.ravel(), labels.ravel()
    _require_finite(scores, "AUPRO")  # NaN would fall out of every threshold
    sizes = np.bincount(labels)
    if len(sizes) < 2:
        raise DataError("AUPRO needs at least one anomalous region")
    if not sizes[0]:
        raise DataError("AUPRO needs at least one normal pixel")
    region_weights = 1.0 / ((len(sizes) - 1) * sizes)
    region_weights[0] = 0.0
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    fpr = np.cumsum(labels[order] == 0)[last] / sizes[0]
    pro = np.cumsum(region_weights[labels[order]])[last]
    # threshold above the max: nothing predicted positive
    fpr, pro = np.concatenate([[0.0], fpr]), np.concatenate([[0.0], pro])
    return float(_integrate_to_cap(fpr, pro, fpr_cap))


def spearman(xs, ys) -> float:
    """Pearson correlation of midranks; NaN when either rank vector is
    constant, NumericalError on non-finite input."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("need two equal-length vectors of size >= 2")
    rx = _midranks(x, "Spearman correlation")
    ry = _midranks(y, "Spearman correlation")
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return float("nan")
    return float(np.corrcoef(rx, ry)[0, 1])
