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
    """Midrank (tie-aware) area under the ROC curve."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC needs at least one sample of each class")
    ranks = _midranks(s, "AUROC")
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pixel_auroc(heatmaps, masks) -> float:
    """AUROC over all pixels of a batch of heatmaps against binary masks."""
    s = np.concatenate([np.asarray(h, dtype=float).ravel() for h in heatmaps])
    y = np.concatenate([(np.asarray(m) > 0).astype(int).ravel() for m in masks])
    return auroc(s, y)


def mask_regions(mask) -> list:
    """Connected anomalous regions of a 2-D binary mask, 4-connectivity,
    in raster order of each region's first pixel. _pro_curve sums the
    per-region curves in this order, so it fixes AUPRO's last bits.

    The horizontal runs of every row are found with numpy; runs in
    adjacent rows whose column ranges overlap are joined by a union-find
    over runs, so the cost grows with the number of runs, not with region
    diameter.
    """
    m = np.asarray(mask) > 0
    h, w = m.shape
    # rows laid end to end after one zero, each followed by a zero column
    # that keeps runs from wrapping onto the next row
    flat = np.zeros(1 + h * (w + 1), dtype=np.int8)
    flat[1:].reshape(h, w + 1)[:, :w] = m
    step = flat[1:] - flat[:-1]
    starts = np.flatnonzero(step == 1)
    stops = np.flatnonzero(step == -1)  # one past each run's last pixel
    if not len(starts):
        return []
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
    marks = np.zeros(h * (w + 1), dtype=np.int64)
    marks[starts] = numbers[roots]
    marks[stops] = -numbers[roots]
    labeled = np.cumsum(marks).reshape(h, w + 1)[:, :w]
    return [labeled == r for r in range(1, numbers[-1] + 1)]


def _pro_curve(heatmaps, masks):
    region_scores = []
    neg_scores = []
    all_scores = []
    for hm, mask in zip(heatmaps, masks):
        hm = np.asarray(hm, dtype=float)
        m = np.asarray(mask) > 0
        if hm.shape != m.shape:
            raise ValueError(f"shape mismatch: heatmap {hm.shape} vs mask {m.shape}")
        for region in mask_regions(m):
            region_scores.append(np.sort(hm[region]))
        neg_scores.append(hm[~m])
        all_scores.append(hm.ravel())
    scores = np.concatenate(all_scores)
    _require_finite(scores, "AUPRO")  # NaN would fall out of every threshold
    if not region_scores:
        raise DataError("AUPRO needs at least one anomalous region")
    negs = np.sort(np.concatenate(neg_scores))
    if len(negs) == 0:
        raise DataError("AUPRO needs at least one normal pixel")
    thresholds = np.unique(scores)[::-1]
    fpr = (len(negs) - np.searchsorted(negs, thresholds, side="left")) / len(negs)
    pro = np.zeros(len(thresholds))
    for reg in region_scores:
        pro += (len(reg) - np.searchsorted(reg, thresholds, side="left")) / len(reg)
    pro /= len(region_scores)
    # threshold above the max: nothing predicted positive
    return np.concatenate([[0.0], fpr]), np.concatenate([[0.0], pro])


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


def aupro(heatmaps, masks, fpr_cap: float = 0.3) -> float:
    """Mean per-region overlap integrated over FPR in [0, fpr_cap].

    ``heatmaps`` and ``masks`` are parallel sequences of 2-D arrays. The
    result is normalized by the cap, so a perfect detector scores 1 and a
    constant heatmap scores fpr_cap / 2 / fpr_cap = 0.5 at cap 1.
    """
    if not 0 < fpr_cap <= 1:
        raise ValueError("fpr_cap must lie in (0, 1]")
    fpr, pro = _pro_curve(heatmaps, masks)
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
