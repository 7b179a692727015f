import ast
import csv
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import calad
from calad.calibration import RELIABILITY_BINS
from calad.cli import _read_score_csv, main as cli_main
from calad.errors import ConfigError, DataError, NumericalError
from calad.harness import (SPLIT_RATIO, ExperimentConfig, _anomaly_pools,
                           _dir_dataset, _load_dataset, _load_oe_dir, fit_normalizer,
                           normalize, run_experiment, split)
from calad.metrics import AUPRO_FPR_CAP, aupro
from calad.tensorio import load_tensor, save_tensor, write_pgm

FAST = dict(epochs=2, learning_rate=1e-3, batch_size=64)


def fast_cfg(tmp_path, **kw):
    base = dict(normal="builtin:gauss2d", loss="svdd", calibrator="platt",
                anomaly_source="spectral", seeds=(0, 1),
                out_dir=str(tmp_path / "run"), **FAST)
    base.update(kw)
    return ExperimentConfig(**base)


class TestSplit:
    def test_three_to_one(self):
        train, calib = split(np.arange(100), 0.75, 0)
        assert len(train) == 75 and len(calib) == 25

    def test_union_and_disjointness(self):
        data = np.arange(41)
        train, calib = split(data, 0.75, 3)
        assert sorted(np.concatenate([train, calib])) == list(range(41))
        assert not set(train) & set(calib)

    def test_seed_determinism(self):
        a = split(np.arange(50), 0.6, 7)
        b = split(np.arange(50), 0.6, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        a = split(np.arange(50), 0.6, 7)
        b = split(np.arange(50), 0.6, 8)
        assert not np.array_equal(a[0], b[0])

    def test_empty_side_rejected(self):
        with pytest.raises(DataError):
            split(np.arange(3), 0.9, 0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            split(np.arange(10), 1.5, 0)


class TestNormalize:
    def test_training_data_standardized(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, (500, 4))
        stats = fit_normalizer(x)
        z = normalize(x, stats)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_floored(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = normalize(x, fit_normalizer(x))
        assert np.all(z[:, 0] == 0.0)

    def test_held_out_uses_training_stats(self):
        rng = np.random.default_rng(1)
        train = rng.normal(0, 1, (100, 2))
        held = rng.normal(5, 1, (100, 2))
        stats = fit_normalizer(train)
        z = normalize(held, stats)
        assert z.mean() > 3.0  # not re-centered


class TestConfig:
    def test_oe_source_requires_dir(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(anomaly_source="oe")

    def test_method_label_vocabulary(self):
        labels = {(calibrator, source): ExperimentConfig(
                      calibrator=calibrator, anomaly_source=source,
                      oe_dir="oe" if source == "oe" else None).method_label
                  for calibrator in calad.CALIBRATORS for source in calad.ANOMALY_SOURCES}
        assert labels == {
            ("none", "oe"): "Fully Trained", ("none", "spectral"): "Fully Trained",
            ("head", "oe"): "CalHead OE", ("head", "spectral"): "CalHead Spectral",
            ("platt", "oe"): "Platt OE", ("platt", "spectral"): "Platt Spectral",
            ("beta", "oe"): "β OE", ("beta", "spectral"): "β Spectral"}

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=())

    @pytest.mark.parametrize("seeds", [(0, 0), (1, 0, 1)])
    def test_repeated_seeds_rejected(self, seeds):
        # a repeated seed would train twice, count twice in summary.csv and
        # overwrite its own deltas files
        with pytest.raises(ConfigError, match="repeat"):
            ExperimentConfig(seeds=seeds)


class TestAnomalyPools:
    def test_oe_pools_disjoint(self, tmp_path):
        oe_dir = tmp_path / "oe"
        oe_dir.mkdir()
        rng = np.random.default_rng(5)
        for i in range(6):
            save_tensor(oe_dir / f"pool_{i}.calt", rng.normal(size=(30, 2)))
        cfg = fast_cfg(tmp_path, anomaly_source="oe", oe_dir=str(oe_dir))
        stats = (np.zeros(2), np.ones(2))
        pools = _anomaly_pools(cfg, {"oe": _load_oe_dir(oe_dir)}, 0, stats, n_each=40)
        seen = [set(map(tuple, pools[k])) for k in ("train", "calib", "eval")]
        assert not seen[0] & seen[1]
        assert not seen[0] & seen[2]
        assert not seen[1] & seen[2]
        assert sum(len(s) for s in seen) == 180

    def test_spectral_pools_wider_than_one_image(self, tmp_path):
        # 300 features exceed the 16x16 pixels of a default spectral image
        cfg = fast_cfg(tmp_path)
        stats = (np.zeros(300), np.ones(300))
        pools = _anomaly_pools(cfg, {"image_shape": None}, 0, stats, n_each=5)
        for key in ("train", "calib", "eval"):
            assert pools[key].shape == (5, 300)
            assert np.all(np.isfinite(pools[key]))

    def test_spectral_pools_disjoint_by_seed(self, tmp_path):
        cfg = fast_cfg(tmp_path)
        stats = (np.zeros(2), np.ones(2))
        pools = _anomaly_pools(cfg, {"image_shape": None}, 0, stats, n_each=20)
        a = set(map(tuple, pools["calib"]))
        b = set(map(tuple, pools["eval"]))
        assert not a & b


class TestPoolDraws:
    """Each arm synthesizes only the pools it reads. Pool i of seed s
    (train, calib, eval) is drawn with spectral seed 3 * s + 211 + i."""

    def drawn(self, tmp_path, monkeypatch, **kw):
        import calad.harness

        seeds = []
        real = calad.harness.synthesize_batch

        def counting(cfg, n):
            seeds.append(cfg.seed - 211)
            return real(cfg, n)

        monkeypatch.setattr(calad.harness, "synthesize_batch", counting)
        run_experiment(fast_cfg(tmp_path, seeds=(0,), epochs=1, **kw))
        return [("train", "calib", "eval")[i] for i in seeds]

    def test_svdd_draws_no_training_pool(self, tmp_path, monkeypatch):
        # baseline arm: eval; calibrated arm: calib, eval
        assert self.drawn(tmp_path, monkeypatch) == ["eval", "calib", "eval"]

    def test_baseline_arm_draws_no_calibration_pool(self, tmp_path, monkeypatch):
        assert self.drawn(tmp_path, monkeypatch, loss="hsc",
                          calibrator="none") == ["train", "eval"]

    def test_supervised_calibrated_arm_draws_all_three(self, tmp_path, monkeypatch):
        assert self.drawn(tmp_path, monkeypatch, normal="builtin:tiles", loss="fcdd",
                          batch_size=32) == ["train", "eval", "train", "calib", "eval"]


class TestRunExperiment:
    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = fast_cfg(tmp_path / "a")
        cfg2 = fast_cfg(tmp_path / "b")
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        for name in ("summary.csv", "per_seed.csv"):
            b1 = (r1.out_dir / name).read_bytes()
            b2 = (r2.out_dir / name).read_bytes()
            assert b1 == b2

    def test_csv_schema_detection(self, tmp_path):
        r = run_experiment(fast_cfg(tmp_path))
        with open(r.out_dir / "summary.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["class_id", "method", "auroc", "auroc_perturbed",
                          "mce", "ece"]

    def test_rows_carry_baseline_and_method(self, tmp_path):
        r = run_experiment(fast_cfg(tmp_path))
        methods = {row["method"] for row in r.summary_rows}
        assert methods == {"Fully Trained", "Platt Spectral"}
        for row in r.per_seed_rows:
            for key in ("auroc", "auroc_perturbed", "mce", "ece"):
                assert 0.0 <= row[key] <= 1.0

    def test_platt_and_beta_share_unperturbed_auroc(self, tmp_path):
        rp = run_experiment(fast_cfg(tmp_path / "p", calibrator="platt"))
        rb = run_experiment(fast_cfg(tmp_path / "b", calibrator="beta"))
        for seed_rows in zip(rp.per_seed_rows, rb.per_seed_rows):
            assert seed_rows[0]["auroc"] == seed_rows[1]["auroc"]
        # the fully trained baseline does not depend on the calibrator
        rn = run_experiment(fast_cfg(tmp_path / "n", calibrator="none"))
        runs = (rn, rp, rb)
        baseline = [[row for row in r.per_seed_rows if row["method"] == "Fully Trained"]
                    for r in runs]
        assert len(baseline[0]) == 2
        assert baseline[0] == baseline[1] == baseline[2]
        for name in ("deltas_fully_trained_seed0.csv", "deltas_fully_trained_seed1.csv",
                     "scorer_fully_trained_seed0.calt"):
            contents = {(r.out_dir / name).read_bytes() for r in runs}
            assert len(contents) == 1, name

    def test_head_calibrator_runs(self, tmp_path):
        r = run_experiment(fast_cfg(tmp_path, calibrator="head", seeds=(0,)))
        assert {row["method"] for row in r.summary_rows} == \
            {"Fully Trained", "CalHead Spectral"}
        # a head maps features, not logits: its document is written, no curve
        assert sorted(p.name for p in r.out_dir.iterdir()) == [
            "calibrator_calhead_spectral.txt", "deltas_calhead_spectral_seed0.csv",
            "deltas_fully_trained_seed0.csv", "manifest.json", "per_seed.csv",
            "reliability_calhead_spectral.svg", "reliability_fully_trained.svg",
            "scorer_calhead_spectral_seed0.calt", "scorer_calhead_spectral_seed0.json",
            "scorer_fully_trained_seed0.calt", "scorer_fully_trained_seed0.json",
            "summary.csv"]

    def test_zero_epsilon_pairs_identical(self, tmp_path):
        r = run_experiment(fast_cfg(tmp_path, calibrator="none", epsilon=0.0,
                                    seeds=(0,)))
        row = r.per_seed_rows[0]
        assert row["auroc"] == row["auroc_perturbed"]

    def test_svg_artifacts_are_xml(self, tmp_path):
        r = run_experiment(fast_cfg(tmp_path, seeds=(0,)))
        svgs = list(r.out_dir.glob("*.svg"))
        assert len(svgs) >= 2
        for svg in svgs:
            ET.parse(svg)  # raises on malformed XML

    def test_manifest_records_config_and_conventions(self, tmp_path):
        cfg = fast_cfg(tmp_path, seeds=(0,))
        r = run_experiment(cfg)
        doc = json.loads((r.out_dir / "manifest.json").read_text())
        assert doc["config"] == json.loads(json.dumps(asdict(cfg)))
        assert doc["config"]["loss"] == "svdd" and doc["config"]["seeds"] == [0]
        assert "milestones" not in doc["config"]
        # constants, recorded once, among the conventions
        assert not {"bins", "split_ratio"} & set(doc["config"])
        assert doc["conventions"]["bins"] == RELIABILITY_BINS == 15
        assert doc["conventions"]["split_ratio"] == SPLIT_RATIO == 0.75
        assert doc["conventions"]["tie_handling"] == "midranks"
        assert "aupro" in doc["conventions"]
        # read from the code that applies them
        assert doc["conventions"]["aupro_fpr_cap"] == AUPRO_FPR_CAP == 0.3
        assert doc["conventions"]["ssim"] == {"window": 11, "c1": 1e-4, "c2": 9e-4,
                                              "border_value": 0.0}
        assert inspect.signature(aupro).parameters["fpr_cap"].default == AUPRO_FPR_CAP

    def test_deltas_streamed(self, tmp_path):
        r = run_experiment(fast_cfg(tmp_path, seeds=(0,)))
        deltas = list(r.out_dir.glob("deltas_*_seed0.csv"))
        assert deltas
        with open(deltas[0], newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["id", "loss_before", "loss_after",
                          "score_before", "score_after"]

    def test_tiles_localization_columns(self, tmp_path):
        cfg = fast_cfg(tmp_path, normal="builtin:tiles", loss="fcdd",
                       seeds=(0,), batch_size=32)
        r = run_experiment(cfg)
        with open(r.out_dir / "summary.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header[-4:] == ["aupro", "aupro_perturbed", "pixel_auroc",
                               "pixel_auroc_perturbed"]
        for row in r.per_seed_rows:
            assert 0.0 <= row["aupro"] <= 1.0
            assert 0.0 <= row["pixel_auroc"] <= 1.0

    def test_wide_csv_runs(self, tmp_path):
        path = tmp_path / "wide.csv"
        rows = np.random.default_rng(2).normal(size=(40, 300))
        np.savetxt(path, rows, delimiter=",")
        r = run_experiment(fast_cfg(tmp_path, normal=str(path), seeds=(0,),
                                    epochs=1))
        assert {row["method"] for row in r.per_seed_rows} == \
            {"Fully Trained", "Platt Spectral"}

    def test_unreadable_data_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            run_experiment(fast_cfg(tmp_path, normal="missing.csv"))

    def test_head_on_tiles_uses_detection_schema(self, tmp_path):
        cfg = fast_cfg(tmp_path, normal="builtin:tiles", loss="fcdd",
                       calibrator="head", seeds=(0,), batch_size=32)
        r = run_experiment(cfg)
        for row in r.per_seed_rows:
            assert "aupro" not in row

    def test_scorer_checkpoint_artifacts(self, tmp_path):
        r = run_experiment(fast_cfg(tmp_path, seeds=(0,)))
        assert (r.out_dir / "scorer_fully_trained_seed0.calt").exists()
        assert (r.out_dir / "scorer_platt_spectral_seed0.json").exists()

    def test_saved_calibrator_reloads(self, tmp_path, monkeypatch):
        import calad.harness
        from calad.calibration import fitting_digest, load_calibrator

        fitted = []
        fit_platt = calad.harness.fit_platt

        def recording(logits, labels):
            fitted.append((fit_platt(logits, labels), fitting_digest(logits, labels)))
            return fitted[-1][0]

        monkeypatch.setattr(calad.harness, "fit_platt", recording)
        r = run_experiment(fast_cfg(tmp_path, seeds=(0,)))
        params, seed, digest = load_calibrator(
            r.out_dir / "calibrator_platt_spectral.txt")
        assert (params, digest) == fitted[0]
        assert seed == 0

    @pytest.mark.parametrize("normal, loss", [("builtin:gauss2d", "svdd"),
                                              ("builtin:tiles", "fcdd")])
    def test_beta_digest_covers_the_fitted_estimates(self, tmp_path, monkeypatch,
                                                     normal, loss):
        import calad.harness
        from calad.calibration import fitting_digest, load_calibrator

        fitted = []
        fit_beta = calad.harness.fit_beta

        def recording(estimates, labels):
            fitted.append(fitting_digest(estimates, labels))
            return fit_beta(estimates, labels)

        monkeypatch.setattr(calad.harness, "fit_beta", recording)
        r = run_experiment(fast_cfg(tmp_path, normal=normal, loss=loss, calibrator="beta",
                                    seeds=(0,), batch_size=32))
        digest = load_calibrator(r.out_dir / "calibrator_beta_spectral.txt")[2]
        assert digest == fitted[0]

    def test_directory_dataset_with_pgm_masks(self, tmp_path):
        from calad.datasets import textured_tiles
        from calad.tensorio import write_pgm

        tiles = textured_tiles(7, n_train=40, n_test=10)
        test = tiles["test"]
        train_dir = tmp_path / "train"
        test_dir = tmp_path / "test"
        train_dir.mkdir()
        test_dir.mkdir()
        for i, row in enumerate(tiles["normal"]):
            save_tensor(train_dir / f"tile_{i:03d}.calt", row.reshape(1, 16, 16))
        for i, (row, mask) in enumerate(zip(test.x, test.masks)):
            save_tensor(test_dir / f"tile_{i:03d}.calt", row.reshape(1, 16, 16))
            write_pgm(test_dir / f"tile_{i:03d}.pgm", mask)
        cfg = fast_cfg(tmp_path, normal=str(train_dir), masks_dir=str(test_dir),
                       loss="fcdd", seeds=(0,), batch_size=16)
        r = run_experiment(cfg)
        assert r.per_seed_rows[0]["class_id"] == "train"
        assert 0.0 <= r.per_seed_rows[0]["aupro"] <= 1.0
        heatmaps = list(r.out_dir.glob("heatmaps_*.calt"))
        assert heatmaps


def write_tile_dirs(root, train_shape, test_shape, mask_shape, n_train=2):
    """A training directory of random tiles and a test directory holding
    one tile with an all-anomalous mask."""
    rng = np.random.default_rng(0)
    train, test = root / "train", root / "test"
    train.mkdir()
    test.mkdir()
    for i in range(n_train):
        save_tensor(train / f"t{i:03d}.calt", rng.uniform(size=train_shape))
    save_tensor(test / "a.calt", rng.uniform(size=test_shape))
    write_pgm(test / "a.pgm", np.ones(mask_shape))
    return train, test


class TestResizeStub:
    """Tiles are used at their stored size; nothing is resized."""

    def test_matching_shapes_pass(self, tmp_path):
        train, test = write_tile_dirs(tmp_path, (1, 8, 8), (8, 8), (8, 8))
        dataset = _dir_dataset(train, test)
        assert dataset["class_id"] == "train"
        assert dataset["normal"].shape == (2, 64)
        assert dataset["image_shape"] == (8, 8)
        assert dataset["test"].x.shape == (1, 64)
        assert dataset["test"].masks.shape == (1, 8, 8)
        assert dataset["test"].y.tolist() == [1.0]

    def test_resize_request_rejected(self, tmp_path):
        train, test = write_tile_dirs(tmp_path, (1, 8, 8), (1, 16, 16), (16, 16))
        with pytest.raises(DataError, match="a.calt"):
            _dir_dataset(train, test)


class TestRowsCsv:
    """write_rows_csv takes its columns from the rows: a seed column for
    per-seed rows, the localization columns for rows that carry aupro."""

    @pytest.mark.parametrize("seed", [False, True])
    @pytest.mark.parametrize("localization", [False, True])
    def test_columns_follow_the_rows(self, tmp_path, seed, localization):
        from calad import reports

        metrics = reports.CSV_COLUMNS[2:] + (reports.CSV_LOCALIZATION if localization
                                             else [])
        row = {"class_id": "c", "method": "m", **dict.fromkeys(metrics, 0.5)}
        if seed:
            row["seed"] = 3
        reports.write_rows_csv(tmp_path / "rows.csv", [row])
        header, values = (tmp_path / "rows.csv").read_text().splitlines()
        want = ["seed"] * seed + reports.CSV_COLUMNS + reports.CSV_LOCALIZATION * localization
        assert header.split(",") == want
        assert values.split(",") == [str(row[c]) for c in want]


class TestDatasetRecord:
    """A loaded dataset carries its raw normal rows, its test set with
    normals first, and its tile shape (None for tabular rows); a built-in
    generator's output is that record."""

    def test_rows(self):
        from calad.datasets import gaussian_ring

        for basin, class_id, ring in ((False, "gauss2d", 1.0),
                                      (True, "gauss2d-basin", 1.75)):
            dataset = gaussian_ring(54172, basin=basin)
            assert dataset["class_id"] == class_id
            assert dataset["image_shape"] is None
            assert dataset["normal"].shape == (400, 2)
            test = dataset["test"]
            assert test.x.shape == (300, 2)
            assert test.y.tolist() == [0.0] * 150 + [1.0] * 150
            assert test.masks is None
            # the ring anomalies come after the normals
            assert np.linalg.norm(test.x[150:], axis=1).min() >= ring
            loaded = _load_dataset(ExperimentConfig(normal=f"builtin:{class_id}"))
            assert np.array_equal(loaded["normal"], dataset["normal"])
            assert np.array_equal(loaded["test"].x, test.x)

    def test_tiles(self):
        from calad.datasets import textured_tiles

        dataset = textured_tiles(54172)
        assert dataset["class_id"] == "tiles"
        assert dataset["image_shape"] == (16, 16)
        assert dataset["normal"].shape == (200, 256)
        test = dataset["test"]
        assert test.x.shape == (60, 256) and test.masks.shape == (60, 16, 16)
        # normal tiles first, and a tile is anomalous exactly when its mask is
        assert test.y.tolist() == sorted(test.y.tolist())
        assert np.array_equal(test.y, test.masks.sum(axis=(1, 2)) > 0)
        loaded = _load_dataset(ExperimentConfig(normal="builtin:tiles", loss="fcdd"))
        assert np.array_equal(loaded["normal"], dataset["normal"])
        assert np.array_equal(loaded["test"].x, test.x)

    def test_tiles_equal_per_tile_index_grids(self, monkeypatch):
        # each tile once built its own meshgrid; the shared grids give the
        # same draws and the same bits
        import calad.datasets

        def texture_with_own_grid(rng, ii, jj):
            size = len(ii)
            fy, fx = rng.uniform(0.5, 2.0, 2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
            tile = 0.5 + 0.22 * np.sin(2.0 * np.pi * (fy * ii + fx * jj) / size + phase)
            return tile + rng.normal(0.0, 0.03, (size, size))

        dataset = calad.datasets.textured_tiles(54172)
        monkeypatch.setattr(calad.datasets, "_texture", texture_with_own_grid)
        want = calad.datasets.textured_tiles(54172)
        assert np.array_equal(dataset["normal"], want["normal"])
        assert np.array_equal(dataset["test"].x, want["test"].x)
        assert np.array_equal(dataset["test"].masks, want["test"].masks)

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = np.arange(20.0).reshape(10, 2)
        np.savetxt(path, rows, delimiter=",")
        dataset = _load_dataset(ExperimentConfig(normal=str(path)))
        assert dataset["class_id"] == "rows" and dataset["image_shape"] is None
        assert np.array_equal(dataset["normal"], rows[:8])
        test = dataset["test"]
        assert np.array_equal(test.x[:2], rows[8:])
        assert test.y.tolist() == [0.0, 0.0, 1.0, 1.0]
        # the synthesized anomalies lie outside every training row
        assert np.all(np.abs(test.x[2:]).max(axis=1) > np.abs(rows[:8]).max())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_csv_anomalies_lie_on_the_ring(self, tmp_path, d):
        path = tmp_path / "rows.csv"
        np.savetxt(path, np.random.default_rng(5).normal(0.0, 0.5, (100, d)),
                   delimiter=",")
        dataset = _load_dataset(ExperimentConfig(normal=str(path)))
        test = dataset["test"]
        radius = np.abs(dataset["normal"]).max() * 2.0 + 1.0
        norms = np.linalg.norm(test.x[test.y == 1], axis=1)
        assert len(norms) == 20 and np.allclose(norms, radius, rtol=1e-12, atol=0.0)


class TestTileShapes:
    def run(self, tmp_path, train, test, *flags):
        return cli_main(["run", "--normal", str(train), "--masks-dir", str(test),
                         "--seeds", "0", "--epochs", "1", "--batch-size", "16",
                         "--out", str(tmp_path / "out"), *flags])

    @pytest.mark.parametrize("test_shape,mask_shape,bad", [
        ((3, 8, 8), (8, 8), "a.calt"), ((1, 8, 8), (6, 6), "a.pgm")],
        ids=["channels", "mask-size"])
    def test_masks_dir_shape_mismatch_exits_2(self, tmp_path, capsys, test_shape,
                                              mask_shape, bad):
        train, test = write_tile_dirs(tmp_path, (1, 8, 8), test_shape, mask_shape)
        assert self.run(tmp_path, train, test, "--loss", "fcdd") == 2
        assert str(test / bad) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["--loss", "ssim"], ["--loss", "fcdd", "--anomaly-source", "spectral"]],
        ids=" ".join)
    def test_multichannel_ssim_or_spectral_exits_2(self, tmp_path, capsys, flags):
        train, test = write_tile_dirs(tmp_path, (3, 8, 8), (3, 8, 8), (8, 8))
        assert self.run(tmp_path, train, test, *flags) == 2
        err = capsys.readouterr().err
        assert "3 channels" in err and "single-channel" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape,flags", [
        ((1, 12, 12), ["--loss", "fcdd"]), ((1, 8, 16), ["--loss", "fcdd"]),
        ((1, 1, 1), ["--loss", "ssim"])], ids=["fcdd-12x12", "fcdd-8x16", "spectral-1x1"])
    def test_tiles_the_run_cannot_use_exit_2_before_training(self, tmp_path, capsys,
                                                             monkeypatch, shape, flags):
        monkeypatch.setattr("calad.harness.train", no_training)
        train, test = write_tile_dirs(tmp_path, shape, shape, shape[1:])
        save_tensor(test / "b.calt", np.full(shape, 0.5))
        write_pgm(test / "b.pgm", np.zeros(shape[1:]))
        assert self.run(tmp_path, train, test, "--calibrator", "platt", *flags) == 2
        err = capsys.readouterr().err
        assert f"tiles of shape {shape[1:]}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mask_value", [0, 1], ids=["no-anomalous", "no-normal"])
    def test_masks_dir_with_one_class_exits_2_before_training(self, tmp_path, capsys,
                                                              monkeypatch, mask_value):
        monkeypatch.setattr("calad.harness.train", no_training)
        train, test = write_tile_dirs(tmp_path, (1, 8, 8), (1, 8, 8), (8, 8))
        write_pgm(test / "a.pgm", np.full((8, 8), mask_value))
        assert self.run(tmp_path, train, test, "--loss", "ssim") == 2
        err = capsys.readouterr().err
        assert f"{test}: {mask_value} of 1 test masks" in err
        assert "normal and anomalous tiles" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["normal", "oe", "masks"])
    def test_unreadable_file_in_a_directory_exits_2(self, tmp_path, capsys, monkeypatch,
                                                    where):
        # a directory stands in for any file that cannot be read
        monkeypatch.setattr("calad.harness.train", no_training)
        train, test = write_tile_dirs(tmp_path, (1, 8, 8), (1, 8, 8), (8, 8))
        save_tensor(test / "b.calt", np.zeros((1, 8, 8)))
        write_pgm(test / "b.pgm", np.zeros((8, 8)))
        oe = tmp_path / "oe"
        oe.mkdir()
        save_tensor(oe / "pool.calt", np.zeros((6, 1, 8, 8)))
        if where == "masks":
            save_tensor(test / "t1.calt", np.zeros((1, 8, 8)))
        bad = {"normal": train / "zz.calt", "oe": oe / "zz.calt",
               "masks": test / "t1.pgm"}[where]
        bad.mkdir()
        assert self.run(tmp_path, train, test, "--loss", "fcdd", "--anomaly-source", "oe",
                        "--oe-dir", str(oe)) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot read {bad}: ")
        assert not (tmp_path / "out").exists()

    def test_image_shape_error_names_the_shape_the_file_holds(self, tmp_path, capsys):
        train, test = write_tile_dirs(tmp_path, (1, 16, 16), (8, 8), (8, 8))
        assert self.run(tmp_path, train, test, "--loss", "fcdd") == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"error: {test / 'a.calt'}: shape (8, 8) differs from "
                        f"{train / 't000.calt'}'s (1, 16, 16)")
        assert not (tmp_path / "out").exists()

    def test_training_files_of_either_rank_load_alike(self, tmp_path):
        # an (h, w) file is one channel, in the training directory as in the
        # masks directory
        train, test = write_tile_dirs(tmp_path, (1, 16, 16), (16, 16), (16, 16),
                                      n_train=3)
        expected = _dir_dataset(train, test)
        save_tensor(train / "t001.calt", load_tensor(train / "t001.calt")[0])
        dataset = _dir_dataset(train, test)
        assert np.array_equal(dataset["normal"], expected["normal"])
        assert np.array_equal(dataset["test"].x, expected["test"].x)
        assert dataset["image_shape"] == (16, 16)

    def test_missing_masks_dir_is_reported_before_any_tensor_is_read(self, tmp_path,
                                                                     capsys):
        train = tmp_path / "train"
        train.mkdir()
        (train / "a.calt").write_bytes(b"not a raw tensor")
        assert cli_main(["run", "--normal", str(train), "--loss", "fcdd", "--seeds", "0",
                         "--out", str(tmp_path / "out")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"error: {train} holds image tensors; provide a masks directory "
                        "with the test images and their PGM masks")
        assert not (tmp_path / "out").exists()

    def test_multichannel_fcdd_with_oe_runs(self, tmp_path):
        rng = np.random.default_rng(1)
        train, test = write_tile_dirs(tmp_path, (3, 16, 16), (3, 16, 16), (16, 16),
                                      n_train=8)
        normal = test / "b.calt"
        save_tensor(normal, rng.uniform(size=(3, 16, 16)))
        write_pgm(normal.with_suffix(".pgm"), np.zeros((16, 16)))
        oe = tmp_path / "oe"
        oe.mkdir()
        save_tensor(oe / "pool.calt", rng.uniform(size=(12, 3, 16, 16)))
        assert self.run(tmp_path, train, test, "--loss", "fcdd",
                        "--anomaly-source", "oe", "--oe-dir", str(oe)) == 0
        assert (tmp_path / "out" / "summary.csv").exists()


def no_training(*args, **kwargs):
    raise AssertionError("the error must come before training")


class TestLocalizingLoss:
    @pytest.mark.parametrize("loss", ["svdd", "hsc", "logistic"])
    def test_loss_without_heatmap_on_tiles_exits_1(self, tmp_path, capsys,
                                                   monkeypatch, loss):
        monkeypatch.setattr("calad.harness.train", no_training)
        out = tmp_path / "out"
        rc = cli_main(["run", "--normal", "builtin:tiles", "--loss", loss,
                       "--calibrator", "platt", "--seeds", "0", "--epochs", "1",
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"loss {loss!r} gives no pixel heatmap" in err and "ssim and fcdd" in err
        assert not out.exists()

    @pytest.mark.parametrize("normal, calibrator", [
        ("builtin:gauss2d", "platt"), ("builtin:gauss2d", "head"), ("csv", "platt")])
    def test_ssim_on_rows_exits_1_before_work(self, tmp_path, capsys, monkeypatch,
                                              normal, calibrator):
        monkeypatch.setattr("calad.harness.train", no_training)
        if normal == "csv":
            normal = tmp_path / "rows.csv"
            np.savetxt(normal, np.arange(20.0).reshape(10, 2), delimiter=",")
        out = tmp_path / "out"
        rc = cli_main(["run", "--normal", str(normal), "--loss", "ssim",
                       "--calibrator", calibrator, "--seeds", "0", "--epochs", "1",
                       "--out", str(out)])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: loss 'ssim' reconstructs images")
        assert "holds rows, not tiles" in line
        assert not out.exists()

    def test_head_calibrator_still_runs(self, tmp_path):
        r = run_experiment(fast_cfg(tmp_path, normal="builtin:tiles", loss="svdd",
                                    calibrator="head", seeds=(0,), epochs=1,
                                    batch_size=32))
        assert "aupro" not in r.per_seed_rows[0]


class TestPixelChain:
    """A tiles calibrator fits the pipeline's link of the tile heatmaps,
    which are its score map (for fcdd, Gaussian-upsampled)."""

    @pytest.mark.parametrize("loss", ["ssim", "fcdd"])
    def test_calibrator_fits_the_link_of_the_map(self, tmp_path, loss):
        from calad.calibration import fitting_digest
        from calad.harness import _fit_calibrator, _tile_heatmaps
        from calad.scorer import LossPipeline, MlpSpec, forward, init_scorer
        from calad.segmentation import gaussian_upsample, ssim_loss

        x = np.random.default_rng(31).uniform(size=(6, 64))
        y = np.r_[np.zeros(3), np.ones(3)]
        if loss == "ssim":
            state = init_scorer(MlpSpec((64, 16, 64)), 3)
            pipeline = LossPipeline(state, "ssim", image_shape=(8, 8))
            recon = forward(state, x).reshape(6, 8, 8)
            maps = 1.0 - ssim_loss(x.reshape(6, 8, 8), recon).similarity
        else:
            state = init_scorer(MlpSpec((64, 16, 16)), 3)
            pipeline = LossPipeline(state, "fcdd", image_shape=(8, 8))
            f = forward(state, x).reshape(6, 4, 4)
            maps = gaussian_upsample(np.sqrt(f * f + 1.0) - 1.0, 8, 8)
        assert np.array_equal(_tile_heatmaps(pipeline, x), maps)
        cfg = fast_cfg(tmp_path, normal="builtin:tiles", loss=loss)
        _, (_, digest) = _fit_calibrator(cfg, pipeline, x, y, 0, localization=True)
        z = pipeline.link(maps)[0]
        assert digest == fitting_digest(z.ravel(), np.repeat(y, 64))


def oe_run(tmp_path, oe, *flags, out="out"):
    """`calad run` on builtin:gauss2d with the OE pool `oe`; its exit code."""
    return cli_main(["run", "--normal", "builtin:gauss2d", "--anomaly-source", "oe",
                     "--oe-dir", str(oe), "--seeds", "0", "--epochs", "1",
                     "--out", str(tmp_path / out), *flags])


def write_oe_dir(tmp_path, *pools):
    """An OE directory holding the arrays `pools`, one file each, in order."""
    oe = tmp_path / "oe"
    oe.mkdir()
    for i, pool in enumerate(pools):
        save_tensor(oe / f"pool{i}.calt", pool)
    return oe


class TestOeWidth:
    def test_pool_of_another_width_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("calad.harness.train", no_training)
        oe = tmp_path / "oe"
        oe.mkdir()
        save_tensor(oe / "pool.calt", np.zeros((10, 3)))
        out = tmp_path / "out"
        rc = cli_main(["run", "--normal", "builtin:gauss2d", "--anomaly-source", "oe",
                       "--oe-dir", str(oe), "--seeds", "0", "--out", str(out)])
        assert rc == 2
        assert f"{oe}: OE samples are 3 values wide, but the data rows are 2 wide" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,code", [
        (["--loss", "ssim"], 1), (["--loss", "svdd", "--calibrator", "platt"], 2)],
        ids=["ssim-on-rows", "svdd-platt"])
    def test_config_errors_come_before_the_pool_width(self, tmp_path, capsys,
                                                      monkeypatch, flags, code):
        # a run that the config cannot make on this data is exit 1 whatever
        # the pool holds; a pool of the wrong width alone is exit 2
        monkeypatch.setattr("calad.harness.train", no_training)
        assert oe_run(tmp_path, write_oe_dir(tmp_path, np.zeros((10, 3))), *flags) == code
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape,width", [
        ((6, 0), 0), ((0, 0), 0), ((0, 1, 4, 4), 16)],
        ids=["zero-width", "empty-zero-width-batch", "empty-image-batch"])
    def test_pool_of_empty_samples_exits_2(self, tmp_path, capsys, monkeypatch, shape,
                                           width):
        monkeypatch.setattr("calad.harness.train", no_training)
        oe = write_oe_dir(tmp_path, np.zeros(shape))
        assert oe_run(tmp_path, oe) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"error: {oe}: OE samples are {width} values wide, but the data "
                        "rows are 2 wide")
        assert not (tmp_path / "out").exists()


class TestOeRead:
    def test_empty_batch_adds_no_samples(self, tmp_path):
        oe = write_oe_dir(tmp_path, np.random.default_rng(3).uniform(-3, 3, (40, 2)))
        assert oe_run(tmp_path, oe, "--calibrator", "platt", out="full") == 0
        save_tensor(oe / "pool1.calt", np.zeros((0, 2)))
        assert np.array_equal(_load_oe_dir(oe), load_tensor(oe / "pool0.calt"))
        assert oe_run(tmp_path, oe, "--calibrator", "platt", out="padded") == 0
        assert (tmp_path / "full" / "summary.csv").read_bytes() == \
            (tmp_path / "padded" / "summary.csv").read_bytes()

    def test_oe_dir_is_read_once_per_run(self, tmp_path, monkeypatch):
        import calad.harness

        reads = []

        def counted(directory):
            reads.append(directory)
            return _load_oe_dir(directory)

        monkeypatch.setattr(calad.harness, "_load_oe_dir", counted)
        oe = write_oe_dir(tmp_path, np.random.default_rng(4).uniform(-3, 3, (60, 2)))
        assert oe_run(tmp_path, oe, "--calibrator", "platt", "--seeds", "0,1,2") == 0
        assert reads == [str(oe)]


class TestCli:
    def test_synth_writes_images(self, tmp_path, capsys):
        rc = cli_main(["synth", "--count", "2", "--height", "16", "--width", "16",
                       "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert len(list(tmp_path.glob("*.ppm"))) == 2
        assert len(list(tmp_path.glob("*.calt"))) == 2

    def test_eval_reports_metrics(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        rng = np.random.default_rng(0)
        with open(path, "w") as fh:
            fh.write("score,label\n")
            for _ in range(50):
                y = rng.integers(0, 2)
                fh.write(f"{rng.normal() + 2 * y},{y}\n")
        rc = cli_main(["eval", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "auroc" in out and "ece" in out and "mce" in out

    def test_calibrate_writes_document(self, tmp_path):
        path = tmp_path / "scores.csv"
        rng = np.random.default_rng(1)
        with open(path, "w") as fh:
            fh.write("score,label\n")
            for _ in range(100):
                y = rng.integers(0, 2)
                fh.write(f"{rng.normal() + 2 * y},{y}\n")
        rc = cli_main(["calibrate", str(path), "--kind", "platt",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "calibrator_platt.txt").exists()

    def test_run_and_report_round_trip(self, tmp_path, capsys):
        rc = cli_main(["run", "--normal", "builtin:gauss2d", "--loss", "svdd",
                       "--calibrator", "platt", "--seeds", "0,1",
                       "--epochs", "2", "--learning-rate", "1e-3",
                       "--out", str(tmp_path / "r")])
        assert rc == 0
        rc = cli_main(["report", str(tmp_path / "r" / "per_seed.csv"),
                       "--out", str(tmp_path / "rerender")])
        assert rc == 0
        assert (tmp_path / "rerender" / "summary.csv").read_bytes() == \
            (tmp_path / "r" / "summary.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["run", "--batch-size", "0"],
        ["run", "--learning-rate", "-1"], ["run", "--learning-rate", "nan"],
        ["run", "--epochs", "-1"], ["run", "--seeds", "-1"], ["run", "--seeds", "0,-1"],
        ["run", "--seeds", "0,0"], ["run", "--seeds", "1,0,1"],
        ["run", "--epsilon", "nan"]], ids=" ".join)
    def test_bad_setting_is_config_error_before_work(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = cli_main(["run", "--normal", "builtin:gauss2d", "--seeds", "0",
                       "--out", str(out)] + argv[1:])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("setting", [
        ["run", "--split-ratio", "0.75"], ["run", "--bins", "15"], ["eval", "--bins", "15"],
        ["eval", "--bins", "0"], ["eval", "--bins", "-1"],
        ["run", "--config", "cfg.json"]], ids=" ".join)
    def test_removed_setting_is_rejected(self, tmp_path, capsys, monkeypatch, setting):
        """The split ratio and the bin count are constants, and flags are the
        only way to set a run: these flags are usage errors, exit 1 before
        work, and a config file is never read."""
        monkeypatch.setattr("calad.harness.gaussian_ring", no_training)
        monkeypatch.setattr("calad.cli._read_score_csv", no_training)
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"loss": "hsc"}))
        out = tmp_path / "out"
        verb, flag, value = setting
        target = [str(tmp_path / "scores.csv")] if verb == "eval" else ["--out", str(out)]
        assert cli_main([verb, *target, flag, value]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"error: calad: unrecognized arguments: {flag} {value}"
        assert not out.exists()

    @pytest.mark.parametrize("normal,flag", [
        ("builtin:gauss2d", "--oe-dir"), ("builtin:tiles", "--oe-dir"),
        ("builtin:gauss2d", "--masks-dir"), ("builtin:tiles", "--masks-dir"),
        ("normal.csv", "--masks-dir")])
    def test_unread_path_setting_is_config_error_before_work(self, tmp_path, capsys,
                                                             monkeypatch, normal, flag):
        """--oe-dir is read only with anomaly source oe, and --masks-dir only
        with a tiles directory as normal data; either one set where the run
        would not read it is a config error before any data loads."""
        for loader in ("gaussian_ring", "textured_tiles", "loadtxt"):
            monkeypatch.setattr(f"calad.harness.{loader}", no_training)
        if normal.endswith(".csv"):
            normal = tmp_path / normal
            normal.write_text("0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        given = tmp_path / "data"
        given.mkdir()
        out = tmp_path / "out"
        assert cli_main(["run", "--normal", str(normal), flag, str(given), "--seeds", "0",
                         "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {flag[2:].replace('-', '_')} {given} is read only")
        assert not out.exists()

    def test_calibrate_negative_seed_is_config_error_before_work(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("score,label\n0.1,0\n0.7,1\n")
        out = tmp_path / "out"
        assert cli_main(["calibrate", str(scores), "--seed", "-1",
                         "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: seed must be nonnegative")

    @pytest.mark.parametrize("loss", ["ssim", "fcdd", "hsc"])
    def test_diverged_training_exits_3(self, tmp_path, loss):
        # in a child process, which runs with numpy's default warning
        # state: the overflow must print no RuntimeWarning there either
        normal = "builtin:gauss2d" if loss == "hsc" else "builtin:tiles"
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "calad.cli", "run", "--normal", normal,
             "--loss", loss, "--calibrator", "platt", "--seeds", "0", "--epochs", "1",
             "--learning-rate", "1e300", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: training diverged: a batch loss of epoch 0 is")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_overflow_is_one_numerical_error_line(self, tmp_path):
        # in a child process, which starts with numpy's default warning
        # state: at the parent, ssim's window products overflowed with five
        # RuntimeWarnings and the run failed later, at the AUROC check
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "calad.cli", "run", "--normal", "builtin:tiles",
             "--loss", "ssim", "--calibrator", "beta", "--epsilon", "1e300",
             "--seeds", "0", "--epochs", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: calad run: overflow encountered in multiply"]
        assert "Warning" not in proc.stderr
        assert not out.exists()

    def test_report_overflow_is_numerical_error_before_writing(self, tmp_path, capsys):
        # two finite AUROC cells whose sum overflows: the mean is not inf
        rows = tmp_path / "per_seed.csv"
        rows.write_text("seed,class_id,method,auroc,auroc_perturbed,mce,ece\n"
                        "0,0,Fully Trained,1e308,0.8,0.1,0.05\n"
                        "1,0,Fully Trained,1e308,0.8,0.1,0.05\n")
        out = tmp_path / "out"
        assert cli_main(["report", str(rows), "--out", str(out)]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: calad report: overflow encountered in ")
        assert not out.exists()

    def test_missing_data_exit_code(self, tmp_path, capsys):
        rc = cli_main(["eval", str(tmp_path / "nope.csv")])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ["--height", "1"], ["--channels", "0"], ["--count", "-1"], ["--seed", "-1"],
        # over the value cap, even with no image: one image's grids are laid out
        ["--height", "100000000", "--width", "100000000"],
        ["--count", "0", "--height", "100000000000000", "--width", "2"]], ids=" ".join)
    def test_synth_bad_size_is_config_error_before_writing(self, tmp_path, capsys,
                                                           flags):
        out = tmp_path / "out"
        assert cli_main(["synth", "--out", str(out)] + flags) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text,expect", [
        ("x,y\n0.1,0.2\n0.3,0.4\n", "'x' to float64 at row 1, column 1."),
        ("0.1,0.2\n0.3,oops\n", "'oops' to float64 at row 2, column 2."),
        ("0.1,0.2\n", "need at least two rows of normal data, got 1")],
        ids=["header", "non-number", "single-row"])
    def test_run_malformed_normal_csv_exits_2(self, tmp_path, capsys, text, expect):
        path = tmp_path / "normal.csv"
        path.write_text(text)
        rc = cli_main(["run", "--normal", str(path), "--seeds", "0",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and expect in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_run_non_finite_normal_csv_exits_2(self, tmp_path, capsys, cell):
        path = tmp_path / "normal.csv"
        path.write_text(f"0.1,0.2\n0.3,{cell}\n0.5,0.6\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--normal", str(path), "--seeds", "0",
                         "--out", str(out)]) == 2
        assert f"{path}: data row 2 holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_rows, calibrator, left", [(3, "none", "there are 2"),
                                                         (3, "platt", "on 2 of the 2"),
                                                         (4, "beta", "on 2 of the 3")])
    def test_svdd_on_too_few_training_rows_exits_2_before_work(self, tmp_path, capsys,
                                                               monkeypatch, n_rows,
                                                               calibrator, left):
        # two normalized rows are x and -x, whose svdd center is 0 at every seed
        path = tmp_path / "normal.csv"
        path.write_text("0.1,0.2\n0.5,0.9\n-0.3,0.4\n0.7,0.1\n"[:8 * n_rows])
        monkeypatch.setattr("calad.harness.train", no_training)
        out = tmp_path / "out"
        assert cli_main(["run", "--normal", str(path), "--loss", "svdd", "--calibrator",
                         calibrator, "--seeds", "0,1", "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}: svdd needs at least 3 training rows")
        assert left in line
        assert not out.exists()

    def test_run_empty_normal_csv_prints_only_its_error(self, tmp_path):
        # in a child process, where numpy's empty-input UserWarning would print
        path = tmp_path / "normal.csv"
        path.write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "calad.cli", "run", "--normal", str(path),
             "--seeds", "0", "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line == f"error: {path}: need at least two rows of normal data, got 0"

    @pytest.mark.parametrize("scale, loss", [(1e200, "hsc"), (1e307, "svdd")])
    def test_overflowing_normal_csv_exits_2_before_work(self, tmp_path, scale, loss):
        # in a child process, where numpy's overflow RuntimeWarning would print;
        # the std overflowed to inf and normalized every row to 0
        path = tmp_path / "normal.csv"
        np.savetxt(path, np.random.default_rng(0).normal(size=(60, 2)) * scale,
                   delimiter=",")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "calad.cli", "run", "--normal", str(path), "--loss", loss,
             "--calibrator", "platt", "--seeds", "0", "--epochs", "2", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: feature column 1 of the training data has a mean "
                               "or standard deviation beyond float64's range")
        assert not out.exists()

    # the ids name the empty path's one source, the --out flag
    @pytest.mark.parametrize("verb", ["run", "synth", "calibrate", "report"],
                             ids=lambda verb: f"{verb}-flag")
    def test_empty_out_dir_exits_1_before_work(self, tmp_path, capsys, monkeypatch, verb):
        scores = tmp_path / "scores.csv"
        scores.write_text("score,label\n0.1,0\n0.7,1\n0.3,0\n0.9,1\n")
        rows = tmp_path / "per_seed.csv"
        rows.write_text("seed,class_id,method,auroc,auroc_perturbed,mce,ece\n"
                        "0,0,Fully Trained,0.9,0.8,0.1,0.05\n")
        argv = {"run": ["run", "--normal", "builtin:gauss2d", "--seeds", "0"],
                "synth": ["synth", "--count", "1", "--height", "8", "--width", "8"],
                "calibrate": ["calibrate", str(scores)],
                "report": ["report", str(rows)]}[verb] + ["--out", ""]
        for name in ("calad.harness._load_dataset", "calad.cli._read_score_csv",
                     "calad.cli._read_seed_rows", "calad.spectral.synthesize_batch"):
            monkeypatch.setattr(name, no_training)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert cli_main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == ("error: the output directory is empty; name one, or '.' for "
                        "the working directory")
        assert not list(cwd.iterdir())

    def test_run_normal_dir_of_mixed_shapes_exits_2(self, tmp_path, capsys):
        train = tmp_path / "train"
        train.mkdir()
        save_tensor(train / "a.calt", np.zeros((1, 8, 8)))
        save_tensor(train / "b.calt", np.zeros((1, 6, 6)))
        rc = cli_main(["run", "--normal", str(train), "--masks-dir", str(tmp_path),
                       "--seeds", "0", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert str(train / "b.calt") in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["run", "--seeds", "a"], ["run", "--seeds", "1,"],
                                      ["run", "--loss", "nope"]], ids=" ".join)
    def test_usage_error_exits_1(self, capsys, argv):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: calad run")
        line = err.splitlines()[-1]
        # the message names the flag, never the function that parses it
        assert line.startswith(f"error: calad run: argument {argv[1]}: ")
        assert "<lambda>" not in line
        if argv[1] == "--seeds":
            assert line.endswith(
                f"expected comma-separated nonnegative integers, got {argv[2]!r}")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        assert "usage: calad" in capsys.readouterr().out

    def test_out_dir_env_default(self, tmp_path, monkeypatch, capsys):
        """Every writing verb without --out writes under ./runs, whatever
        CALAD_OUT_DIR holds: calad reads no such variable."""
        env = tmp_path / "env"
        monkeypatch.setenv("CALAD_OUT_DIR", str(env))
        scores = tmp_path / "scores.csv"
        scores.write_text("score,label\n0.1,0\n0.7,1\n0.3,0\n0.9,1\n")
        rows = tmp_path / "per_seed.csv"
        rows.write_text("seed,class_id,method,auroc,auroc_perturbed,mce,ece\n"
                        "0,0,Fully Trained,0.9,0.8,0.1,0.05\n")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for argv, written in (
                (["synth", "--count", "1", "--height", "8", "--width", "8"],
                 "spectral_0000.ppm"),
                (["calibrate", str(scores)], "calibrator_platt.txt"),
                (["report", str(rows)], "summary.csv"),
                (["run", "--normal", "builtin:gauss2d", "--seeds", "0", "--epochs", "1"],
                 "per_seed.csv")):
            assert cli_main(argv) == 0, argv
            assert (cwd / "runs" / written).exists(), argv
        assert not env.exists()
        assert [p.name for p in cwd.iterdir()] == ["runs"]

    def test_synth_failure_leaves_no_out_dir(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericalError("synthesis failed")

        monkeypatch.setattr("calad.spectral.synthesize_batch", fail)
        out = tmp_path / "out"
        assert cli_main(["synth", "--count", "1", "--height", "8", "--width", "8",
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: synthesis failed\n"
        assert not out.exists()

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "calad.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "run" in proc.stdout and "synth" in proc.stdout

    def test_scipy_loaded_only_as_lbfgsb_extension_by_head_fits(self, tmp_path):
        """Start-up, the verbs that fit nothing, the Platt and Beta fits and
        a tiles run with AUPRO load no scipy module; a run with a Platt
        calibrator loads no scipy.optimize, and a head run loads scipy's
        compiled L-BFGS-B extension and no other scipy module."""
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.3,0\n1.2,1\n-0.5,0\n0.9,1\n0.95,0\n")
        child = textwrap.dedent(f"""
            import json, sys
            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            seen = {{}}
            import calad.cli
            seen["import"] = scipy_modules()
            try:
                calad.cli.main(["--help"])
            except SystemExit:
                pass
            seen["help"] = scipy_modules()
            assert calad.cli.main(["eval", {str(path)!r}]) == 0
            assert calad.cli.main(["synth", "--count", "1", "--height", "8",
                                   "--width", "8", "--out", {str(tmp_path)!r}]) == 0
            seen["eval+synth"] = scipy_modules()
            for kind in ("platt", "beta"):
                assert calad.cli.main(["calibrate", {str(path)!r}, "--kind", kind,
                                       "--out", {str(tmp_path)!r}]) == 0
            seen["calibrate"] = scipy_modules()
            assert calad.cli.main(["run", "--normal", "builtin:tiles", "--loss", "fcdd",
                                   "--calibrator", "platt", "--epochs", "1", "--seeds", "0",
                                   "--out", {str(tmp_path / "tiles")!r}]) == 0
            seen["tiles run"] = scipy_modules()
            assert calad.cli.main(["run", "--normal", "builtin:gauss2d", "--loss", "svdd",
                                   "--calibrator", "platt", "--epochs", "1", "--seeds", "0",
                                   "--out", {str(tmp_path / "run")!r}]) == 0
            seen["run"] = scipy_modules()
            assert calad.cli.main(["run", "--normal", "builtin:gauss2d", "--loss", "hsc",
                                   "--calibrator", "head", "--epochs", "1", "--seeds", "0",
                                   "--out", {str(tmp_path / "head")!r}]) == 0
            seen["head run"] = scipy_modules()
            print(json.dumps(seen))
        """)
        package_parent = Path(calad.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(package_parent)})
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["import"] == seen["help"] == seen["eval+synth"] == seen["calibrate"] == []
        assert seen["tiles run"] == []
        assert not [m for m in seen["run"] if m.startswith("scipy.optimize")]
        assert seen["head run"] == ["scipy.optimize._lbfgsb"]
        assert (tmp_path / "head" / "calibrator_calhead_spectral.txt").exists()

    def test_score_verbs_load_no_run_stack(self, tmp_path):
        """Start-up, --help, eval, calibrate and report load none of the
        modules that train, perturb or synthesize; start-up, --help, eval
        and report load neither json nor hashlib's C extension, which only
        the manifest and the fitting digest need; run still works after
        them in the same process."""
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.3,0\n1.2,1\n-0.5,0\n0.9,1\n0.95,0\n")
        rows = tmp_path / "per_seed.csv"
        rows.write_text("seed,class_id,method,auroc,auroc_perturbed,mce,ece\n"
                        "0,c,Fully Trained,0.9,0.8,0.1,0.05\n")
        # the child prints a repr, so that it imports no json itself
        child = textwrap.dedent(f"""
            import sys
            WATCHED = ["calad." + m for m in ("harness", "scorer", "perturbation",
                       "segmentation", "spectral", "datasets", "tensorio")]
            WATCHED += ["json", "_hashlib"]
            def loaded():
                return [m for m in WATCHED if m in sys.modules]
            seen = {{}}
            import calad.cli
            seen["import"] = loaded()
            try:
                calad.cli.main(["--help"])
            except SystemExit:
                pass
            seen["help"] = loaded()
            assert calad.cli.main(["eval", {str(path)!r}]) == 0
            seen["eval"] = loaded()
            assert calad.cli.main(["report", {str(rows)!r}, "--out",
                                   {str(tmp_path / "report")!r}]) == 0
            seen["report"] = loaded()
            for kind in ("platt", "beta"):
                assert calad.cli.main(["calibrate", {str(path)!r}, "--kind", kind,
                                       "--out", {str(tmp_path)!r}]) == 0
            seen["calibrate"] = loaded()
            assert calad.cli.main(["run", "--normal", "builtin:gauss2d", "--loss", "svdd",
                                   "--calibrator", "platt", "--epochs", "1", "--seeds", "0",
                                   "--out", {str(tmp_path / "run")!r}]) == 0
            seen["run"] = loaded()
            print(repr(seen))
        """)
        package_parent = Path(calad.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(package_parent)})
        assert proc.returncode == 0, proc.stderr
        seen = ast.literal_eval(proc.stdout.splitlines()[-1])
        assert seen["import"] == seen["help"] == seen["eval"] == seen["report"] == []
        assert seen["calibrate"] == ["_hashlib"]
        assert "calad.harness" in seen["run"] and "calad.scorer" in seen["run"]
        assert "json" in seen["run"]
        assert (tmp_path / "run" / "summary.csv").exists()

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_cli_sets_one_blas_thread_unless_user_set(self, preset):
        child = textwrap.dedent("""
            import ctypes, json, os
            import calad.cli
            try:
                from numpy._core import _multiarray_umath
            except ImportError:  # numpy < 2
                from numpy.core import _multiarray_umath
            lib = ctypes.CDLL(_multiarray_umath.__file__)
            getters = [name for name in ("scipy_openblas_get_num_threads64_",
                                         "openblas_get_num_threads") if hasattr(lib, name)]
            threads = getattr(lib, getters[0])() if getters else None
            print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"], threads]))
        """)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(calad.__file__).resolve().parents[1])
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        variable, threads = json.loads(proc.stdout.splitlines()[-1])
        assert variable == (preset or "1")
        if threads is not None:
            # OpenBLAS caps its threads at the CPUs it may run on
            assert threads == min(int(variable), len(os.sched_getaffinity(0)))

    @pytest.mark.parametrize("rows, message", [
        ("0,0,Fully Trained,abc,0.8,0.1,0.05\n", "row 2 column auroc is 'abc', not a number"),
        ("0,0,Fully Trained,0.9,0.8\n", "row 2 column mce is missing"),
        ("0,0,Fully Trained,0.9,0.8,0.1,0.05,7\n", "row 2 has more cells than the header"),
        ("0,0,Fully Trained,nan,0.8,0.1,0.05\n",
         "row 2 column auroc is 'nan', not a finite number"),
        ("0,0,Fully Trained,0.9,0.8,0.1,-inf\n",
         "row 2 column ece is '-inf', not a finite number"),
        ("abc,0,Fully Trained,0.9,0.8,0.1,0.05\n",
         "row 2 column seed is 'abc', not a nonnegative integer"),
        (",0,Fully Trained,0.9,0.8,0.1,0.05\n",
         "row 2 column seed is '', not a nonnegative integer"),
        ("-1,0,Fully Trained,0.9,0.8,0.1,0.05\n",
         "row 2 column seed is '-1', not a nonnegative integer"),
        ("1,0,Fully Trained,0.7,0.6,0.2,0.1\n",
         "row 2 repeats the seed and method of row 1"),
    ], ids=["not-a-number", "short-row", "long-row", "nan", "inf", "seed-text",
            "seed-empty", "seed-negative", "repeated-seed-method"])
    def test_report_malformed_row_exits_2(self, tmp_path, capsys, rows, message):
        path = tmp_path / "per_seed.csv"
        path.write_text("seed,class_id,method,auroc,auroc_perturbed,mce,ece\n"
                        "1,0,Fully Trained,0.9,0.8,0.1,0.05\n" + rows)
        assert cli_main(["report", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("verb", ["run", "synth", "calibrate", "report"])
    def test_out_path_through_a_file_exits_1(self, tmp_path, capsys, monkeypatch, verb,
                                              under):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "sub" if under else taken
        scores = tmp_path / "scores.csv"
        scores.write_text("score,label\n0.1,0\n0.7,1\n0.3,0\n0.9,1\n")
        rows = tmp_path / "per_seed.csv"
        rows.write_text("seed,class_id,method,auroc,auroc_perturbed,mce,ece\n"
                        "0,0,Fully Trained,0.9,0.8,0.1,0.05\n")
        argv = {"run": ["run", "--normal", "builtin:gauss2d", "--seeds", "0"],
                "synth": ["synth", "--count", "1", "--height", "8", "--width", "8"],
                "calibrate": ["calibrate", str(scores)],
                "report": ["report", str(rows)]}[verb]
        # run checks its output path before it loads data, calibrate before it fits
        monkeypatch.setattr("calad.harness._load_dataset", no_training)
        monkeypatch.setattr("calad.cli.fit_platt", no_training)
        assert cli_main(argv + ["--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot create output directory {out}: ")
        assert taken.read_text() == "not a directory\n"

    def test_report_keeps_classes_apart(self, tmp_path):
        # per-class files concatenated: the same seeds and methods in two classes
        header = "seed,class_id,method,auroc,auroc_perturbed,mce,ece\n"
        body = ("0,a,Fully Trained,0.9,0.8,0.1,0.05\n1,a,Fully Trained,0.7,0.6,0.3,0.15\n"
                "0,a,Platt Spectral,0.5,0.5,0.5,0.5\n")
        path = tmp_path / "per_seed.csv"
        other = body.replace(",a,", ",b,").replace(",0.9,", ",0.1,")
        path.write_text(header + body + other)
        assert cli_main(["report", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert [(r["class_id"], r["method"]) for r in summary] == [
            ("a", "Fully Trained"), ("a", "Platt Spectral"),
            ("b", "Fully Trained"), ("b", "Platt Spectral")]
        assert [float(r["auroc"]) for r in summary] == pytest.approx([0.8, 0.5, 0.4, 0.5])

    def test_report_missing_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "per_seed.csv"
        path.write_text("seed,class_id,method,auroc,mce,ece,aupro\n0,0,x,0.9,0.1,0.05,0.7\n")
        assert cli_main(["report", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "missing columns auroc_perturbed, aupro_perturbed" in err

    def test_bug_propagates_as_traceback(self, tmp_path, monkeypatch):
        def broken(args):
            raise RuntimeError("a bug, not a numerical failure")
        monkeypatch.setattr("calad.cli._cmd_synth", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            cli_main(["synth", "--out", str(tmp_path)])


class TestScoreCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        return path

    @pytest.mark.parametrize("label", ["inf", "nan", "2", "-1", "0.5"])
    @pytest.mark.parametrize("verb", ["eval", "calibrate"])
    def test_label_not_0_or_1_exits_2(self, tmp_path, capsys, verb, label):
        path = self.write(tmp_path, f"score,label\n0.1,0\n0.7,1\n0.4,{label}\n0.2,0\n")
        rc = cli_main([verb, str(path), "--out", str(tmp_path)] if verb == "calibrate"
                      else [verb, str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "score row 3" in err and "expected 0 or 1" in err
        assert not (tmp_path / "calibrator_platt.txt").exists()

    def test_layout_variants_parse_alike(self, tmp_path):
        plain = _read_score_csv(self.write(tmp_path, "score,label\n1.5,0\n-2.25,1\n"))
        for text in ['"score","label"\r\n"1.5","0"\r\n\r\n-2.25,1\r\n',
                     " score , label ,extra\n 1.5 , 0 ,x\n\n-2.25,1.0,y,z",
                     "score,label\r1.5,-0\r-2.25,1e0\r"]:
            scores, labels = _read_score_csv(self.write(tmp_path, text))
            assert scores.dtype == np.float64 and labels.dtype == np.int64
            assert np.array_equal(scores, plain[0]) and np.array_equal(labels, plain[1])

    @pytest.mark.parametrize("text", [
        "", "score,label\n", "score,label\n\n\n", "a,b\n1,0\n", "score\n1\n",
        " label , score \n0,1\n", "score;label\n1;0\n",
        "score,label\n1.5\n", "score,label\n1.5,\n", "score,label\n   \n",
        "score,label\n1_0,1\n", "score,label\n#1,0\n", "score,label\n1.5,0\x00\n",
        'score,label\n"1,5",0\n', "score,label\n0.5,1\nabc,0\n",
        "score,label\n0.5,1\n\n0.5,0\n1.5\n"])
    def test_malformed_body_is_data_error(self, tmp_path, text):
        with pytest.raises(DataError) as info:
            _read_score_csv(self.write(tmp_path, text))
        header, _, body = text.partition("\n")
        rows = [line for line in body.split("\n") if line]
        if header == "score,label" and rows:
            # the fault is in the last row, numbered from 1 among the data rows
            assert re.search(rf"\bat row {len(rows)}\b", str(info.value)), info.value

    @pytest.mark.parametrize("text", ["label,score\n1,0\n0,1\n1,1\n0,0\n1,0\n",
                                      "label,score\n1,0.9\n0,0.2\n1,0.7\n"])
    @pytest.mark.parametrize("verb", ["eval", "calibrate"])
    def test_swapped_header_exits_2(self, tmp_path, capsys, verb, text):
        # the score is read from the first column, so the header must say so
        path = self.write(tmp_path, text)
        rc = cli_main([verb, str(path), "--out", str(tmp_path)] if verb == "calibrate"
                      else [verb, str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "expected a header starting score,label, found 'label,score'" in captured.err
        assert captured.out == "" and not (tmp_path / "calibrator_platt.txt").exists()

    @pytest.mark.parametrize("bad", ["1.5", "-0.25", "nan", "inf"])
    def test_eval_probabilities_outside_unit_interval_exits_2(self, tmp_path, capsys, bad):
        path = self.write(tmp_path, f"score,label\n0.1,0\n1.0,1\n{bad},0\n0.0,1\n")
        assert cli_main(["eval", str(path), "--probabilities"]) == 2
        err = capsys.readouterr().err
        # the reader rejects a non-finite score before the range check
        assert "score row 3" in err and ("finite" if bad in ("nan", "inf") else "[0, 1]") in err

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [["eval"], ["calibrate", "--kind", "platt"],
                                      ["calibrate", "--kind", "beta"]], ids=" ".join)
    def test_non_finite_score_exits_2(self, tmp_path, capsys, argv, score):
        path = self.write(tmp_path, f"score,label\n0.1,0\n0.7,1\n{score},1\n0.2,0\n")
        verb, *flags = argv
        out = ["--out", str(tmp_path)] if verb == "calibrate" else []
        assert cli_main([verb, str(path), *flags, *out]) == 2
        err = capsys.readouterr().err
        assert f"score row 3 has score {float(score)!r}, expected a finite number" in err
        assert not list(tmp_path.glob("calibrator_*"))

    def test_eval_probabilities_accepts_closed_unit_interval(self, tmp_path, capsys):
        path = self.write(tmp_path, "score,label\n0.0,0\n1.0,1\n0.25,0\n0.75,1\n")
        assert cli_main(["eval", str(path), "--probabilities"]) == 0
        assert "ece 0.125" in capsys.readouterr().out
