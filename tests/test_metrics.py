import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage
from scipy.stats import rankdata

from calad.errors import DataError, NumericalError
from calad.metrics import (_integrate_to_cap, _midranks, aupro, auroc,
                           mask_regions, pixel_auroc, spearman)

# one 4-connected path that turns at each end of every other row
SERPENTINE = np.zeros((19, 20), dtype=bool)
SERPENTINE[::2] = True
SERPENTINE[1::4, -1] = True
SERPENTINE[3::4, 0] = True


def auroc_oracle(scores, labels):
    """O(n^2) pairwise count: P(pos > neg) + P(tie)/2."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


FOUR = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]  # 4-connectivity for ndimage.label


def aupro_oracle(heatmaps, masks, cap):
    """Dense sweep: recompute region overlaps and FPR per threshold, with
    each mask's regions labeled by scipy.ndimage."""
    regions = []
    for hm, mask in zip(heatmaps, masks):
        labeled, n = ndimage.label(np.asarray(mask) > 0, structure=FOUR)
        regions += [np.asarray(hm)[labeled == r] for r in range(1, n + 1)]
    negs = np.concatenate([np.asarray(hm)[np.asarray(mask) == 0]
                           for hm, mask in zip(heatmaps, masks)])
    thresholds = np.unique(np.concatenate([np.asarray(h).ravel() for h in heatmaps]))
    fprs, pros = [0.0], [0.0]
    for t in thresholds[::-1]:
        fprs.append(np.mean(negs >= t))
        pros.append(np.mean([np.mean(reg >= t) for reg in regions]))
    area = 0.0
    for i in range(1, len(fprs)):
        x0, x1, y0, y1 = fprs[i - 1], fprs[i], pros[i - 1], pros[i]
        if x1 <= cap:
            area += (x1 - x0) * (y0 + y1) / 2
        elif x0 < cap:
            y_cap = y0 + (y1 - y0) * (cap - x0) / (x1 - x0)
            area += (cap - x0) * (y0 + y_cap) / 2
            break
        else:
            break
    return area / cap


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([1, 2, 3, 10, 11], [0, 0, 0, 1, 1]) == 1.0

    def test_hand_case(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_all_tied(self):
        assert auroc([5.0] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auroc([1, 2], [1, 1])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(NumericalError, match="1 non-finite"):
            auroc([np.nan, 1.0, 2.0, 3.0], [0, 1, 0, 1])
        heatmap = np.array([[0.1, np.inf], [np.nan, 0.4]])
        with pytest.raises(NumericalError, match="2 non-finite"):
            pixel_auroc([heatmap], [np.array([[0, 1], [0, 1]])])

    @pytest.mark.parametrize("n", [10, 100, 500])
    def test_matches_pairwise_oracle(self, n):
        rng = np.random.default_rng(n)
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        assert abs(auroc(scores, labels) - auroc_oracle(scores, labels)) < 1e-12

    def test_invariance_under_increasing_transform(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=200)
        labels = rng.integers(0, 2, 200)
        labels[:2] = [0, 1]
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == base
        assert auroc(3.0 * scores + 7.0, labels) == base
        assert auroc(np.arctan(scores), labels) == base


class TestAupro:
    def test_perfect_heatmap(self):
        mask = np.zeros((8, 8))
        mask[2:5, 2:5] = 1
        assert aupro([mask.astype(float)], [mask], 0.3) == pytest.approx(1.0)

    def test_constant_heatmap_is_half_cap_normalized(self):
        mask = np.zeros((8, 8))
        mask[1:3, 1:3] = 1
        hm = np.full((8, 8), 0.5)
        assert aupro([hm], [mask], 1.0) == pytest.approx(0.5, abs=1e-12)
        assert aupro([hm], [mask], 0.3) == pytest.approx(0.15, abs=1e-12)

    def test_non_finite_heatmaps_rejected(self):
        mask = np.zeros((8, 8))
        mask[2:5, 2:5] = 1
        hm = np.random.default_rng(4).uniform(size=(8, 8))
        hm[0, 0] = np.nan
        with pytest.raises(NumericalError, match="AUPRO got 1 non-finite values of 128"):
            aupro([hm, np.zeros((8, 8))], [mask, mask])
        with pytest.raises(NumericalError, match="64 non-finite"):
            aupro([np.full((8, 8), np.nan)], [mask])
        hm[0, 0] = -np.inf
        with pytest.raises(NumericalError, match="1 non-finite"):
            aupro([hm], [mask])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_threshold_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mask = np.zeros((8, 8), dtype=int)
        mask[1:4, 2:5] = 1
        mask[6:8, 6:8] = 1
        hm = rng.uniform(size=(8, 8))
        for cap in (0.3, 1.0):
            assert abs(aupro([hm], [mask], cap)
                       - aupro_oracle([hm], [mask], cap)) < 1e-9

    def test_multiple_images(self):
        rng = np.random.default_rng(4)
        masks = []
        maps = []
        for _ in range(3):
            m = np.zeros((8, 8), dtype=int)
            m[rng.integers(0, 4):rng.integers(5, 8), 2:6] = 1
            masks.append(m)
            maps.append(rng.uniform(size=(8, 8)))
        assert abs(aupro(maps, masks, 0.3)
                   - aupro_oracle(maps, masks, 0.3)) < 1e-9

    def test_one_labeling_per_call(self, monkeypatch):
        import calad.metrics

        calls = []
        label = calad.metrics.mask_regions
        monkeypatch.setattr(calad.metrics, "mask_regions",
                            lambda masks: calls.append(1) or label(masks))
        masks = np.zeros((5, 6, 6), dtype=int)
        masks[:, 1:4, 2:5] = 1
        aupro(np.random.default_rng(2).uniform(size=masks.shape), masks)
        assert len(calls) == 1

    def test_degenerates_to_pixel_auroc(self):
        # single region covering all anomalous pixels, cap 1
        rng = np.random.default_rng(5)
        mask = np.zeros((10, 10), dtype=int)
        mask[3:7, 3:7] = 1
        hm = rng.uniform(size=(10, 10))
        assert abs(aupro([hm], [mask], 1.0) - pixel_auroc([hm], [mask])) < 1e-9

    def test_no_region_rejected(self):
        with pytest.raises(DataError):
            aupro([np.ones((4, 4))], [np.zeros((4, 4))], 0.3)

    def test_four_connectivity(self):
        mask = np.zeros((4, 4), dtype=int)
        mask[0, 0] = 1
        mask[1, 1] = 1  # diagonal neighbors are distinct regions
        assert mask_regions(mask).max() == 2
        mask[0, 1] = 1  # now they join
        assert mask_regions(mask).max() == 1

    def test_regions_do_not_join_across_stacked_masks(self):
        # two squares that touch across the boundary of two stacked masks
        masks = np.zeros((2, 4, 4), dtype=int)
        masks[0, 2:, 1:3] = 1
        masks[1, :2, 1:3] = 1
        labels = mask_regions(masks)
        assert labels.shape == masks.shape
        assert np.array_equal(labels, masks * [[[1]], [[2]]])
        hm = np.random.default_rng(8).uniform(size=masks.shape)
        assert aupro(hm, masks, 0.3) == aupro(list(hm), list(masks), 0.3)
        assert abs(aupro(hm, masks, 0.3) - aupro_oracle(hm, masks, 0.3)) < 1e-9

    @given(st.one_of(
        arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, max_side=20)),
        array_shapes(min_dims=2, max_dims=2, max_side=20).map(np.zeros),
        array_shapes(min_dims=2, max_dims=2, max_side=20).map(np.ones)))
    @example(np.ones((20, 20)))
    @example(SERPENTINE)
    @settings(max_examples=300, deadline=None)
    def test_regions_equal_ndimage_label_in_order(self, mask):
        labeled, _ = ndimage.label(mask, structure=FOUR)
        assert np.array_equal(mask_regions(mask), labeled)

    @given(arrays(np.bool_, array_shapes(min_dims=3, max_dims=3, max_side=12)))
    @example(np.stack([SERPENTINE, SERPENTINE[::-1]]))
    @example(np.ones((3, 5, 5), dtype=bool))
    @settings(max_examples=200, deadline=None)
    def test_stacked_labels_equal_ndimage_labels_offset_mask_by_mask(self, masks):
        expected, offset = [], 0
        for mask in masks:
            labeled, n = ndimage.label(mask, structure=FOUR)
            expected.append(np.where(labeled > 0, labeled + offset, 0))
            offset += n
        assert np.array_equal(mask_regions(masks), np.stack(expected))


def integrate_to_cap_loop(fpr, pro, cap):
    """The segment-by-segment trapezoid loop the running sum replaced."""
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


@st.composite
def pro_curves(draw):
    """A PRO curve as aupro builds it, and a cap: off the grid, on a
    point (so the next segment starts at the cap), or past the last point."""
    n_neg = draw(st.integers(1, 40))
    counts = sorted(draw(st.lists(st.integers(0, n_neg), max_size=40)))
    fpr = np.concatenate([[0.0], np.asarray(counts, dtype=float) / n_neg])
    pro = np.concatenate([[0.0], sorted(draw(st.lists(
        st.floats(0.0, 1.0), min_size=len(counts), max_size=len(counts))))])
    on_grid = [float(f) for f in fpr if f > 0]
    caps = st.floats(1e-6, 1.0)
    if on_grid:
        caps = caps | st.sampled_from(on_grid)
    if fpr[-1] < 1.0:
        caps = caps | st.floats(float(fpr[-1]), 1.0, exclude_min=True)
    return fpr, pro, draw(caps)


class TestIntegrateToCap:
    @given(pro_curves())
    @example((np.array([0.0, 0.25, 0.25, 0.5]), np.array([0.0, 0.5, 0.6, 0.9]), 0.25))
    # a segment that ends on the cap; interpolating it to the cap would
    # give 0.059 + (0.876 - 0.059) != 0.876
    @example((np.array([0.0, 0.25, 0.5, 0.75]), np.array([0.0, 0.059, 0.876, 0.9]), 0.5))
    @example((np.array([0.0, 0.1, 0.2]), np.array([0.0, 0.4, 0.7]), 0.9))
    @example((np.array([0.0]), np.array([0.0]), 0.3))
    @settings(max_examples=300, deadline=None)
    def test_equals_segment_loop_bitwise(self, curve):
        fpr, pro, cap = curve
        got = float(_integrate_to_cap(fpr, pro, cap))
        want = integrate_to_cap_loop(fpr, pro, cap)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def rankdata_auroc(scores, labels):
    """The midrank AUROC formula over scipy's rankdata."""
    s, y = np.asarray(scores, dtype=float), np.asarray(labels)
    n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    ranks = rankdata(s, method="average")
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class TestMidranks:
    @pytest.mark.parametrize("x", [
        np.array([3.0, 1.0, 3.0, 3.0, 2.0, 1.0, 3.0, 0.5, 3.0]),  # heavy ties
        np.repeat(np.arange(5.0), 7)[::-1],
        np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0]),  # -0.0 ties with 0.0
        np.array([4.2]),
        np.round(np.random.default_rng(11).normal(size=200_000), 4),
    ], ids=["ties", "blocks", "signed-zero", "one", "200k-4-decimals"])
    def test_equal_to_scipy_rankdata(self, x):
        expected = rankdata(x, method="average")
        got = _midranks(x, "test")
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericalError, match="1 non-finite"):
            _midranks(np.array([1.0, bad, 2.0]), "test")

    @pytest.mark.parametrize("n", [10, 100, 500])
    def test_auroc_unchanged_from_rankdata(self, n):
        rng = np.random.default_rng(n)
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        assert auroc(scores, labels) == rankdata_auroc(scores, labels)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_sort_auroc_bitwise_equals_midrank_formula(self, data):
        # rankdata_auroc is the midrank formula auroc evaluated before it took
        # one sort; its ranks equal _midranks bit for bit (above)
        n = data.draw(st.integers(2, 300))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        # a few distinct values, signed zeros among them, force heavy ties
        few = data.draw(st.lists(finite | st.sampled_from([0.0, -0.0]),
                                 min_size=1, max_size=4))
        scores = data.draw(arrays(np.float64, n, elements=st.sampled_from(few) | finite))
        labels = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
        labels[:2] = [0, 1]
        want = rankdata_auroc(scores, labels)
        assert np.float64(auroc(scores, labels)).tobytes() == np.float64(want).tobytes()

    def test_pixel_auroc_unchanged_from_rankdata(self):
        rng = np.random.default_rng(12)
        heatmaps = [np.round(rng.random((8, 8)), 2) for _ in range(3)]
        masks = [rng.random((8, 8)) < 0.2 for _ in range(3)]
        expected = rankdata_auroc(np.concatenate([h.ravel() for h in heatmaps]),
                                  np.concatenate([m.ravel() for m in masks]).astype(int))
        assert pixel_auroc(heatmaps, masks) == expected


class TestSpearman:
    def test_identical_orderings(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=50)
        assert spearman(x, x) == pytest.approx(1.0)

    def test_reversed_orderings(self):
        x = np.arange(20.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_rank_difference_formula(self):
        # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with d = (0, 1, 1, 0)
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_input_undefined(self):
        assert np.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert spearman(x, y) == pytest.approx(-spearman(x, -y), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericalError, match="1 non-finite"):
            spearman([1.0, bad, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NumericalError, match="2 non-finite"):
            spearman([1.0, 2.0, 3.0, 4.0], [bad, 2.0, bad, 4.0])
