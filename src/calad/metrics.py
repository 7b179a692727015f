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

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def _midranks(x, what):
    """1-based ranks with ties given their mean rank; raises
    NumericalError on non-finite values, which have no rank.

    A midrank is a whole or half integer, so it is exact in float64 and
    equals scipy.stats.rankdata(x, method="average") bit for bit.
    """
    n_bad = int(np.sum(~np.isfinite(x)))
    if n_bad:
        raise NumericalError(f"{what} got {n_bad} non-finite values of {len(x)}")
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
    """Connected anomalous regions of a binary mask, 4-connectivity."""
    from scipy import ndimage

    labeled, n = ndimage.label(np.asarray(mask) > 0, structure=FOUR_CONNECTED)
    return [labeled == r for r in range(1, n + 1)]


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
    if not region_scores:
        raise DataError("AUPRO needs at least one anomalous region")
    negs = np.sort(np.concatenate(neg_scores))
    if len(negs) == 0:
        raise DataError("AUPRO needs at least one normal pixel")
    thresholds = np.unique(np.concatenate(all_scores))[::-1]
    fpr = (len(negs) - np.searchsorted(negs, thresholds, side="left")) / len(negs)
    pro = np.zeros(len(thresholds))
    for reg in region_scores:
        pro += (len(reg) - np.searchsorted(reg, thresholds, side="left")) / len(reg)
    pro /= len(region_scores)
    # threshold above the max: nothing predicted positive
    return np.concatenate([[0.0], fpr]), np.concatenate([[0.0], pro])


def _integrate_to_cap(fpr, pro, cap: float) -> float:
    area = 0.0
    for i in range(1, len(fpr)):
        x0, x1 = fpr[i - 1], fpr[i]
        y0, y1 = pro[i - 1], pro[i]
        if x1 <= cap:
            area += (x1 - x0) * (y0 + y1) / 2.0
        elif x0 < cap:
            y_cap = y0 + (y1 - y0) * (cap - x0) / (x1 - x0)
            area += (cap - x0) * (y0 + y_cap) / 2.0
            break
        else:
            break
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


def kappa_improvement(auroc_0: float, auroc_p: float) -> float:
    """(AUROC_p - AUROC_0) / (1 - AUROC_0); NaN when the base is perfect."""
    if auroc_0 >= 1.0:
        return float("nan")
    return (auroc_p - auroc_0) / (1.0 - auroc_0)


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
