"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They check that every wrapped binding records calls on the workload meant
to exercise it, that traced counts repeat exactly, that the output checks
reject wrong outputs, and that the printed metrics match BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# span -> the workloads whose cycle must call it
EXERCISED_BY = {
    "cli.main": list(WORKLOADS),
    "cli.read_score_csv": ["scores-csv"],
    "harness.run_experiment": ["detect-gauss2d", "localize-ssim", "localize-fcdd", "run-mix"],
    "datasets.load": ["detect-gauss2d", "localize-fcdd", "run-mix"],
    "spectral.synthesize_batch": ["detect-gauss2d", "localize-fcdd", "run-mix"],
    "scorer.train": ["detect-gauss2d", "localize-ssim", "localize-fcdd", "run-mix"],
    "scorer.param_grad": ["detect-gauss2d", "localize-ssim", "run-mix"],
    "scorer.input_grad": ["detect-gauss2d", "localize-fcdd", "run-mix"],
    "scorer.scores": ["detect-gauss2d", "run-mix"],
    "scorer.logits": ["detect-gauss2d", "run-mix"],
    "scorer.loss_values": ["detect-gauss2d", "run-mix"],
    "perturbation.evaluate_pair": ["detect-gauss2d", "localize-fcdd", "run-mix"],
    "perturbation.perturb_batch": ["detect-gauss2d", "localize-fcdd", "run-mix"],
    "segmentation.ssim_loss": ["localize-ssim", "run-mix"],
    "segmentation.ssim_map_backward": ["localize-ssim", "run-mix"],
    "segmentation.gaussian_upsample": ["localize-fcdd", "run-mix"],
    "kernels.box_sum_valid": ["localize-ssim", "run-mix"],
    "kernels.upsample_scatter": ["localize-fcdd", "run-mix"],
    "calibration.fit": list(WORKLOADS),
    "calibration.lbfgs": list(WORKLOADS),
    "metrics.auroc": list(WORKLOADS),
    "metrics.aupro": ["localize-fcdd", "run-mix"],
    "metrics.pixel_auroc": ["localize-fcdd", "run-mix"],
    "reports.emit_reports": ["detect-gauss2d", "localize-fcdd", "run-mix"],
    "reports.write_file": ["detect-gauss2d", "localize-fcdd", "run-mix"],
    "reports.render_svg": ["detect-gauss2d", "localize-fcdd", "run-mix"],
    "tensorio.save_tensor": ["detect-gauss2d", "localize-fcdd", "run-mix"],
}


def traced_cycle(name, work, seed=0):
    workload = WORKLOADS[name]
    ctx = workload.prepare(seed, work)
    runner = run.Runner(work, workload, ctx, None)
    tracer, _ = run.trace_cycle(runner, workload.calls(seed, ctx))
    assert runner.failed == 0
    return tracer


@pytest.fixture(scope="module")
def tracers(tmp_path_factory):
    return {name: traced_cycle(name, tmp_path_factory.mktemp(name)) for name in WORKLOADS}


def test_every_span_is_exercised_by_its_workload(tracers):
    assert set(EXERCISED_BY) == ({name for name, _ in spans.FUNCTION_BINDINGS}
                                 | {name for name, _ in spans.METHOD_BINDINGS})
    for span, names in EXERCISED_BY.items():
        for name in names:
            assert tracers[name].summary()["calls"][span] > 0, (span, name)


def test_every_binding_records_calls(tracers):
    hit = set()
    for tracer in tracers.values():
        hit |= {key for key, count in tracer.binding_calls.items() if count}
    expected = {f"{module}.{attr}" for _, bindings in spans.FUNCTION_BINDINGS
                for module, attr in bindings}
    expected |= {f"LossPipeline.{attr}" for _, attr in spans.METHOD_BINDINGS}
    assert expected <= hit, sorted(expected - hit)


def test_self_times_partition_the_traced_wall(tracers):
    tracer = tracers["detect-gauss2d"]
    summary = tracer.summary()
    top = sum(end - start for name, start, end, parent, _ in tracer.spans if parent is None)
    assert sum(summary["layer_self_s"].values()) == pytest.approx(top, rel=1e-9)
    assert all(own >= -1e-6 for own in tracer.self_times())


def test_traced_counts_repeat_exactly(tracers, tmp_path_factory):
    # same-length directory: the manifest, counted in reports.bytes, holds the path
    first = tracers["detect-gauss2d"].summary()
    again = traced_cycle("detect-gauss2d", tmp_path_factory.mktemp("detect-gauss2d")).summary()
    assert dict(first["calls"]) == dict(again["calls"])
    assert dict(first["counters"]) == dict(again["counters"])
    assert first["counters"]["calibration.lbfgs.nit"] > 0


def test_wrappers_are_removed_after_the_cycle(tracers):
    import calad.harness
    import calad.scorer

    assert not hasattr(calad.harness.train, "__wrapped__")
    assert not hasattr(calad.scorer.LossPipeline.loss_and_input_grad, "__wrapped__")


def test_auroc_oracles_agree_with_brute_force():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 20, 400).astype(float)  # heavy ties
    labels = rng.integers(0, 2, 400)
    pos, neg = scores[labels == 1], scores[labels == 0]
    brute = ((pos[:, None] > neg[None, :]).sum()
             + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (len(pos) * len(neg))
    assert checks.midrank_auroc(scores, labels) == pytest.approx(brute, abs=1e-15)
    assert checks.pair_count_auroc(scores, labels) == pytest.approx(brute, abs=1e-15)


def _run_dir(tmp_path):
    workload = WORKLOADS["detect-gauss2d"]
    ctx = workload.prepare(0, tmp_path)
    call = workload.calls(0, ctx)[0]
    runner = run.Runner(tmp_path, workload, ctx, None)
    assert runner.call(call).ok
    return ctx["out"], call


def test_run_checks_reject_tampered_outputs(tmp_path):
    out, call = _run_dir(tmp_path)
    per_seed = (out / "per_seed.csv").read_text().splitlines()
    # bump one per-seed AUROC: it no longer matches its deltas file or the summary
    fields = per_seed[1].split(",")
    fields[4] = repr(float(fields[4]) + 1e-3)
    (out / "per_seed.csv").write_text("\n".join([per_seed[0], ",".join(fields)]
                                                + per_seed[2:]) + "\n")
    with pytest.raises(checks.CheckFailure):
        checks.check_run(out, call.seeds, 150, 150)


def test_reference_comparison_rejects_drift():
    want = {"Platt Spectral": {"method": "Platt Spectral", "auroc": 0.9}}
    checks.compare_reference("x", {"Platt Spectral": {"method": "Platt Spectral",
                                                      "auroc": 0.9 + 1e-9}}, want)
    with pytest.raises(checks.CheckFailure):
        checks.compare_reference("x", {"Platt Spectral": {"method": "Platt Spectral",
                                                          "auroc": 0.9 + 1e-4}}, want)


def test_score_checks_reject_wrong_outputs(tmp_path):
    workload = WORKLOADS["scores-csv"]
    ctx = workload.prepare(1, tmp_path)
    runner = run.Runner(tmp_path, workload, ctx, None)
    for call in workload.calls(1, ctx)[:1]:
        assert runner.call(call).ok
    doc = ctx["out"] / "calibrator_platt.txt"
    fields = checks.read_calibrator(doc)
    doc.write_text(doc.read_text().replace(fields["temperature"],
                                           repr(float(fields["temperature"]) * 1.01)))
    with pytest.raises(checks.CheckFailure):
        checks.check_calibrator(doc, "platt", ctx["scores"], ctx["labels"], 1)
    wrong = f"auroc {ctx['auroc']!r}\nece 0.0\nmce 0.0\n"
    with pytest.raises(checks.CheckFailure):
        checks.check_eval(wrong, ctx["scores"], ctx["labels"], ctx["auroc"])


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_printed_metrics_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = _bench(["--workload", "scores-csv", "--seed", "0", "--seconds", "1",
                       "--trace", trace], HERE.parent)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "detect-gauss2d", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
