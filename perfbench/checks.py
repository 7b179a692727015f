"""Output checks the benchmark computes itself.

Every oracle here is written from the definitions, not from calad's code:
midrank AUROC via ``np.unique``, AUROC by counting every positive/negative
pair, equal-width reliability bins, and the calibrators' logistic-loss
objectives. A failed check raises ``CheckFailure`` and counts the
invocation as failed.
"""

import csv
import hashlib
from pathlib import Path

import numpy as np

EXACT = 1e-12      # quantities recomputed from the very floats calad wrote
REFERENCE = 1e-6   # stored seed-0 metrics; below one AUROC pair flip (1/22500)
# L-BFGS stops once a step gains less than about 2e-9 of the loss, so a fit
# is stationary when a Newton step from it would gain less than this
STATIONARY = 1e-8
EPS_CLAMP = 1e-7   # calad clamps probability estimates into [eps, 1 - eps]


class CheckFailure(Exception):
    pass


def _close(what, got, want, tol):
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r} (tol {tol:g})")


def midrank_auroc(scores, labels) -> float:
    """AUROC as the normalized Mann-Whitney statistic over midranks."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    midranks = (upper - (counts - 1) / 2.0)[inverse]
    n_pos = int(np.sum(y == 1))
    n_neg = len(y) - n_pos
    return float((midranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pair_count_auroc(scores, labels) -> float:
    """AUROC by counting, for every positive, the negatives below it and
    half the negatives tied with it (binary search over sorted negatives)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    neg = np.sort(s[y == 0])
    pos = s[y == 1]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (len(pos) * len(neg)))


def reliability_gaps(estimates, labels, bins):
    """(ECE, MCE) over equal-width bins (k/K, (k+1)/K], 0 in the first bin."""
    e = np.asarray(estimates, dtype=float)
    y = np.asarray(labels, dtype=float)
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.clip(np.searchsorted(edges, e, side="left") - 1, 0, bins - 1)
    gaps = []
    for k in range(bins):
        sel = idx == k
        if sel.any():
            gaps.append((sel.sum(), abs(y[sel].mean() - e[sel].mean())))
    n = len(e)
    return (float(sum(c / n * g for c, g in gaps)), float(max(g for _, g in gaps)))


def sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -np.asarray(z, dtype=float)))


def platt_gradient(p, scores, labels):
    """Gradient of calad's Platt objective in its (log 1/T, c) parameters."""
    slope = np.exp(p[0])
    g = sigmoid(slope * scores + p[1]) - labels
    return np.array([np.mean(g * slope * scores), np.mean(g)])


def beta_gradient(p, scores, labels):
    """Gradient of calad's Beta objective in its (log a, log b, c)
    parameters, on estimates sigmoid(score) clamped into [eps, 1 - eps]."""
    e = np.clip(sigmoid(scores), EPS_CLAMP, 1.0 - EPS_CLAMP)
    log_e, log_1me = np.log(e), np.log1p(-e)
    a, b = np.exp(p[0]), np.exp(p[1])
    g = sigmoid(a * log_e - b * log_1me + p[2]) - labels
    return np.array([np.mean(g * a * log_e), np.mean(-g * b * log_1me), np.mean(g)])


def newton_gain(gradient, p, step=1e-5):
    """Loss decrease a Newton step from p would predict, g' H^-1 g / 2, with
    the Hessian from central differences of the gradient; None when the
    Hessian is not positive definite (p is no minimum)."""
    g = gradient(p)
    hess = np.column_stack([(gradient(p + step * e) - gradient(p - step * e)) / (2 * step)
                            for e in np.eye(len(p))])
    hess = (hess + hess.T) / 2
    if np.linalg.eigvalsh(hess).min() <= 0:
        return None
    return float(g @ np.linalg.solve(hess, g)) / 2


def read_calibrator(path):
    fields = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def check_calibrator(path, kind, scores, labels, seed):
    """A fitted Platt/Beta document names its fitting set and sits at a
    stationary point of its objective on that set."""
    doc = read_calibrator(path)
    if doc.get("kind") != kind or doc.get("seed") != str(seed):
        raise CheckFailure(f"{path}: kind/seed {doc.get('kind')}/{doc.get('seed')}")
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(scores, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    if doc.get("digest") != digest.hexdigest():
        raise CheckFailure(f"{path}: digest does not match the score CSV")
    y = labels.astype(float)
    if kind == "platt":
        params = {"temperature": float(doc["temperature"]), "intercept": float(doc["intercept"])}
        p = np.array([-np.log(params["temperature"]), params["intercept"]])
        gain = newton_gain(lambda q: platt_gradient(q, scores, y), p)
    else:
        params = {key: float(doc[key]) for key in "abc"}
        p = np.array([np.log(params["a"]), np.log(params["b"]), params["c"]])
        gain = newton_gain(lambda q: beta_gradient(q, scores, y), p)
    if gain is None or not gain <= STATIONARY:
        raise CheckFailure(f"{path}: not a stationary minimum (Newton gain {gain})")
    return params


def check_eval(stdout, scores, labels, oracle_auroc, bins=15):
    """``calad eval`` output against the pair-counting AUROC and
    independently binned ECE/MCE."""
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key in ("auroc", "ece", "mce"):
            values[key] = float(value)
    if set(values) != {"auroc", "ece", "mce"}:
        raise CheckFailure(f"eval printed {sorted(values)}, expected auroc/ece/mce")
    _close("eval auroc", values["auroc"], oracle_auroc, EXACT)
    ece, mce = reliability_gaps(sigmoid(scores), labels, bins)
    _close("eval ece", values["ece"], ece, 1e-9)
    _close("eval mce", values["mce"], mce, 1e-9)
    return values


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def slug(method):
    return method.replace(" ", "_").replace("β", "beta").lower()


def check_run(out_dir, seeds, n_normal, n_anomalous):
    """Checks on one ``calad run`` directory; returns (summary rows, score
    rows checked).

    - every per-seed AUROC and perturbed AUROC equals the midrank AUROC of
      the matching deltas file's score columns, whose rows follow the test
      set's normal-then-anomalous order;
    - every summary value is the mean of its per-seed values.
    """
    out_dir = Path(out_dir)
    per_seed = _read_rows(out_dir / "per_seed.csv")
    summary = _read_rows(out_dir / "summary.csv")
    methods = [row["method"] for row in summary]
    if len(methods) != 2 or len(per_seed) != len(seeds) * len(methods):
        raise CheckFailure(f"{out_dir}: {len(per_seed)} per-seed rows for "
                           f"{len(seeds)} seeds and methods {methods}")
    labels = np.r_[np.zeros(n_normal), np.ones(n_anomalous)]
    score_rows = 0
    for row in per_seed:
        deltas = np.loadtxt(out_dir / f"deltas_{slug(row['method'])}_seed{row['seed']}.csv",
                            delimiter=",", skiprows=1, ndmin=2)
        if len(deltas) != len(labels) or not np.all(deltas[:, 0] == np.arange(len(labels))):
            raise CheckFailure(f"deltas for {row['method']} seed {row['seed']}: "
                               f"{len(deltas)} rows, expected {len(labels)}")
        score_rows += len(deltas)
        for column, key in ((3, "auroc"), (4, "auroc_perturbed")):
            _close(f"{row['method']} seed {row['seed']} {key}", float(row[key]),
                   midrank_auroc(deltas[:, column], labels), EXACT)
    if sorted(int(r["seed"]) for r in per_seed) != sorted(list(seeds) * len(methods)):
        raise CheckFailure(f"{out_dir}: per-seed rows cover the wrong seeds")
    for agg in summary:
        group = [r for r in per_seed if r["method"] == agg["method"]]
        for key, value in agg.items():
            if key in ("class_id", "method"):
                continue
            _close(f"summary {agg['method']} {key}", float(value),
                   float(np.mean([float(r[key]) for r in group])), EXACT)
    return summary, score_rows


def compare_reference(what, got, want):
    """Stored seed-0 outputs: same keys, strings equal, every number within
    REFERENCE."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise CheckFailure(f"{what}: keys differ from the reference")
        for key in want:
            compare_reference(f"{what} {key}", got[key], want[key])
    elif isinstance(want, str):
        if got != want:
            raise CheckFailure(f"{what}: {got!r} != reference {want!r}")
    else:
        _close(f"{what} vs reference", float(got), want, REFERENCE)
