"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; runtime budgets are asserted with the
kernel JIT warmed up front so they measure the work, not compilation.
"""

import contextlib
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from calad.calibration import (BetaParams, PlattParams, beta_transform, ece,
                               fit_platt, mce, platt_transform, reliability)
from calad.harness import ExperimentConfig, run_experiment, split
from calad.losses import REGISTRY, check_stationarity, check_strict_propriety, sigmoid
from calad.metrics import auroc, aupro, spearman
from calad.perturbation import evaluate_pair, perturb
from calad.scorer import LossPipeline, MlpSpec, init_scorer
from calad.spectral import (SpectralConfig, dft2, draw_exponent_pairs, idft2,
                            synthesize)
from calad.tensorio import save_tensor

from test_metrics import aupro_oracle, auroc_oracle
from test_calibration import ece_mce_oracle
from test_scorer import ARCHITECTURES, fd_input_grad, fd_param_grad, make_pipeline, rel_err
from test_spectral import dft2_oracle


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # exclude one-time JIT compilation from the runtime budgets
    from calad._kernels import box_sum_valid, upsample_scatter

    box_sum_valid(np.zeros((8, 8)), 3)
    upsample_scatter(np.zeros((2, 2)), np.ones((5, 5)), 2)


def test_criterion_1_propriety_suite():
    with criterion(1, "propriety suite: stationarity and strict-propriety probes"):
        start = time.perf_counter()
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
        for name in ("log", "logistic"):
            residuals = check_stationarity(REGISTRY[name], grid)
            assert np.max(np.abs(residuals)) < 1e-4
        hsc_res = check_stationarity(REGISTRY["hsc"], grid)
        assert np.max(np.abs(np.abs(hsc_res) - grid)) < 1e-4
        for name in ("log", "logistic"):
            d2 = check_strict_propriety(REGISTRY[name], grid)
            assert np.all(d2 > 0)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_beta_generalizes_platt():
    with criterion(2, "beta with a = b = 1/T matches Platt to 1e-12"):
        start = time.perf_counter()
        rng = np.random.default_rng(20)
        z = rng.uniform(-12.0, 12.0, 1000)
        for _ in range(100):
            t = rng.uniform(0.3, 5.0)
            c = rng.uniform(-3.0, 3.0)
            _, eta_platt = platt_transform(z, PlattParams(t, c))
            _, eta_beta = beta_transform(sigmoid(z), BetaParams(1 / t, 1 / t, c))
            assert np.max(np.abs(eta_platt - eta_beta)) < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_3_rank_invariance():
    with criterion(3, "AUROC exactly unchanged by Platt and Beta calibration"):
        start = time.perf_counter()
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(20, 200))
            scores = rng.normal(0.0, 2.0, n)
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            base = auroc(scores, labels)
            _, eta_p = platt_transform(scores, PlattParams(
                float(rng.uniform(0.5, 4.0)), float(rng.uniform(-2.0, 2.0))))
            assert auroc(eta_p, labels) == base
            _, eta_b = beta_transform(sigmoid(scores), BetaParams(
                float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)),
                float(rng.uniform(-2.0, 2.0))))
            assert auroc(eta_b, labels) == base
        assert time.perf_counter() - start < 1.0


def test_criterion_4_calibration_recovery():
    with criterion(4, "Platt fit recovers (T, c) = (3, 0.5) and repairs ECE"):
        start = time.perf_counter()
        rng = np.random.default_rng(40)
        n = 20000
        z = rng.normal(0.0, 4.0, n)
        y = (rng.random(n) < sigmoid(z / 3.0 + 0.5)).astype(int)
        params = fit_platt(z, y)
        assert abs(params.temperature - 3.0) < 0.1
        assert abs(params.intercept - 0.5) < 0.1
        pre = ece(reliability(sigmoid(z), y, 15))
        _, eta = platt_transform(z, params)
        post = ece(reliability(eta, y, 15))
        assert pre > 0.05
        assert post < 0.02
        assert time.perf_counter() - start < 10.0


def test_criterion_5_metric_oracles():
    with criterion(5, "AUROC/ECE/MCE/AUPRO/Spearman match independent oracles"):
        rng = np.random.default_rng(50)
        for n in (50, 200, 500):
            scores = np.round(rng.normal(size=n), 2)
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            assert abs(auroc(scores, labels) - auroc_oracle(scores, labels)) < 1e-12
        for _ in range(5):
            m = int(rng.integers(20, 800))
            preds = rng.uniform(0, 1, m)
            labels = rng.integers(0, 2, m)
            hist = reliability(preds, labels, 15)
            e_oracle, m_oracle = ece_mce_oracle(preds, labels, 15)
            assert ece(hist) == e_oracle
            assert mce(hist) == m_oracle
        for seed in range(3):
            r2 = np.random.default_rng(seed)
            mask = np.zeros((8, 8), dtype=int)
            mask[1:4, 2:5] = 1
            mask[6:8, 0:2] = 1
            hm = r2.uniform(size=(8, 8))
            assert abs(aupro([hm], [mask], 0.3)
                       - aupro_oracle([hm], [mask], 0.3)) < 1e-9
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_criterion_6_gradient_contract():
    with criterion(6, "input and parameter gradients match finite differences"):
        start = time.perf_counter()
        for kind in ARCHITECTURES:
            pipeline, d, _ = make_pipeline(kind, seed=60)
            rng = np.random.default_rng(61)
            for probe in range(20):
                x = rng.uniform(0.05, 0.95, d)
                y = probe % 2
                _, grad = pipeline.loss_and_input_grad(x, y)
                assert rel_err(grad, fd_input_grad(pipeline, x, y)) < 1e-5
            for probe in range(20):
                xb = rng.uniform(0.05, 0.95, (2, d))
                yb = np.array([probe % 2, (probe + 1) % 2])
                _, grad = pipeline.loss_and_param_grad(xb, yb)
                assert rel_err(grad, fd_param_grad(pipeline, xb, yb)) < 1e-5
        assert time.perf_counter() - start < 5.0


def test_criterion_7_perturbation_first_order_law():
    with criterion(7, "loss drop per epsilon approaches the gradient l1 norm"):
        assert ExperimentConfig().epsilon == 1.4e-3
        state = init_scorer(MlpSpec((4, 12, 1)), seed=70)
        pipeline = LossPipeline(state, "logistic")
        rng = np.random.default_rng(71)
        for _ in range(10):
            x = rng.normal(size=4)
            loss, grad = pipeline.loss_and_input_grad(x, 0)
            l1 = float(np.sum(np.abs(grad)))
            if l1 < 1e-8:
                continue
            for eps in (1e-4, 1e-5, 1e-6):
                moved = perturb(x, grad, eps)
                drop = (loss - pipeline.loss_values(moved, 0)[0]) / eps
                assert drop == pytest.approx(l1, rel=0.10)
        x = rng.normal(size=(30, 4))
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        report = evaluate_pair(pipeline, x, labels, 0.0)
        assert report.auroc_before == report.auroc_after
        assert np.array_equal(report.deltas[:, 3], report.deltas[:, 4])


def test_criterion_8_directional_replication(tmp_path):
    with criterion(8, "calibration lowers ECE; perturbation helps on the basin"):
        start = time.perf_counter()
        ece_cfg = ExperimentConfig(
            normal="builtin:gauss2d", loss="svdd", calibrator="platt",
            anomaly_source="spectral", seeds=(0, 1, 2, 3, 4), epochs=4,
            learning_rate=1e-3, batch_size=64, out_dir=str(tmp_path / "ece"))
        result = run_experiment(ece_cfg)
        base_ece = np.mean([r["ece"] for r in result.per_seed_rows
                            if r["method"] == "Fully Trained"])
        platt_ece = np.mean([r["ece"] for r in result.per_seed_rows
                             if r["method"] == "Platt Spectral"])
        assert platt_ece < base_ece

        basin_cfg = ExperimentConfig(
            normal="builtin:gauss2d-basin", loss="svdd", calibrator="platt",
            anomaly_source="spectral", seeds=(0, 1, 2, 3, 4), epochs=2,
            learning_rate=1e-4, batch_size=64, epsilon=0.05,
            out_dir=str(tmp_path / "basin"))
        result = run_experiment(basin_cfg)
        rows = [r for r in result.per_seed_rows if r["method"] == "Platt Spectral"]
        assert len(rows) == 5
        wins = sum(r["auroc_perturbed"] >= r["auroc"] for r in rows)
        assert wins >= 4
        assert time.perf_counter() - start < 120.0


def test_criterion_9_spectral_synthesis():
    with criterion(9, "spectral synthesis: residue, DFT oracle, slope, KS"):
        start = time.perf_counter()
        # the residue guard runs inside synthesize on every draw
        img, meta = synthesize(SpectralConfig(64, 64, seed=90))
        rng = np.random.default_rng(91)
        x = rng.normal(size=(16, 16))
        spectrum = dft2(x)
        oracle = dft2_oracle(x)
        assert np.max(np.abs(spectrum - oracle)) / np.max(np.abs(oracle)) < 1e-9
        back = idft2(spectrum)
        assert np.max(np.abs(back - x)) < 1e-9
        for seed in (92, 93, 94):
            img, meta = synthesize(SpectralConfig(64, 64, seed=seed))
            a_drawn = meta["exponents"][0][0]
            mags = np.abs(dft2(img[0]))
            fx = np.arange(1, 32)
            slope = np.polyfit(np.log(fx), np.log(mags[0, 1:32]), 1)[0]
            assert abs(-slope - a_drawn) < 0.3
        draws = draw_exponent_pairs(np.random.default_rng(95), 10000)
        for column in (draws[:, 0], draws[:, 1]):
            ks = scipy_stats.kstest(column, scipy_stats.uniform(0.5, 3.0).cdf)
            assert ks.pvalue > 0.01
        assert time.perf_counter() - start < 30.0


def test_criterion_10_harness_determinism(tmp_path):
    with criterion(10, "byte-identical reruns, disjoint OE pools, exact 3:1 split"):
        oe_dir = tmp_path / "oe"
        oe_dir.mkdir()
        rng = np.random.default_rng(100)
        for i in range(6):
            save_tensor(oe_dir / f"oe_{i}.calt", rng.uniform(-3, 3, (40, 2)))
        runs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig(
                normal="builtin:gauss2d", loss="svdd", calibrator="platt",
                anomaly_source="oe", oe_dir=str(oe_dir), seeds=(0, 1), epochs=2,
                learning_rate=1e-3, batch_size=64,
                out_dir=str(tmp_path / f"run_{name}"))
            runs.append(run_experiment(cfg))
        sa = (runs[0].out_dir / "summary.csv").read_bytes()
        sb = (runs[1].out_dir / "summary.csv").read_bytes()
        assert sa == sb

        from calad.harness import _anomaly_pools, _load_oe_dir
        cfg = ExperimentConfig(
            normal="builtin:gauss2d", loss="svdd", calibrator="platt",
            anomaly_source="oe", oe_dir=str(oe_dir), seeds=(0,),
            out_dir=str(tmp_path / "pools"))
        pools = _anomaly_pools(cfg, {"oe": _load_oe_dir(oe_dir)}, 0,
                               (np.zeros(2), np.ones(2)), n_each=40)
        train_set = set(map(tuple, pools["train"]))
        calib_set = set(map(tuple, pools["calib"]))
        eval_set = set(map(tuple, pools["eval"]))
        assert not train_set & calib_set
        assert not train_set & eval_set
        assert not calib_set & eval_set

        train, calib = split(np.arange(100), 0.75, 0)
        assert len(train) == 75 and len(calib) == 25
