"""The benchmark workloads: which CLI invocations one cycle makes, the
inputs they get from the workload seed, and how each output is checked.

BENCHMARK.json declares two of them, run-mix and scores-csv. On a shared
2-CPU machine the speed of the host drifts by up to a factor of two over
minutes, so a run must be long to be steady, and two workloads are all
that fit long runs into the time a comparison may take. The three
single-config run workloads that run-mix combines stay runnable, to see
one config at a time; no comparison gates on them.

Why each workload exists, and which layers it bypasses:

run-mix         one cycle runs the four configs of the other run workloads
                with one seed each: gauss2d svdd/platt, gauss2d hsc/head,
                tiles ssim/beta (two epochs) and tiles fcdd/platt. It
                reaches every layer a run reaches: start-up, parameter and
                one-row input gradients, the SSIM loop, upsampling, spectral
                pools, the head, Beta and per-pixel Platt fits, AUPRO and
                the reports. It bypasses the CLI score reader.
detect-gauss2d  gauss2d/svdd/platt and gauss2d/hsc/head alternate, three
                seeds each. Start-up is about half of each invocation; in
                process, parameter gradients and the one-row input
                gradients of the perturbation step dominate. Import
                trimming, perturbation batching and BLAS threading show
                here. It makes no SSIM or upsample kernel call.
localize-ssim   tiles/ssim/beta, one seed, two epochs. The per-sample SSIM
                loop (box_sum_valid on 26x26 and 36x36 inputs,
                ssim_map_backward, ssim_loss) dominates: the workload for
                batching the SSIM path. The default 40 epochs take about
                30 s per invocation, too long for a run.
localize-fcdd   tiles/fcdd/platt, two seeds. Same data and harness path as
                localize-ssim but no SSIM call, so it is the control for
                SSIM work; per-tile gaussian_upsample, 16x16 spectral pool
                synthesis, the per-pixel Platt fit over 128k logits, AUPRO
                and the duplicated test-set perturbation show here.
scores-csv      calibrate --kind platt, calibrate --kind beta and eval on a
                generated 200k-row score CSV. No training: the row-by-row
                score reader and L-BFGS at large n dominate, behind start-up.
                The only workload through the CLI score reader and the only
                one that runs calibration and metrics at large n. It
                bypasses training, perturbation and images.

The workload seed is a benchmark argument. Builtin datasets are fixed by
calad's DATA_SEED, so for the run workloads the seed picks the ``--seeds``
list; for scores-csv it generates the CSV.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a cycle."""
    label: str
    argv: tuple
    seeds: tuple = ()


@dataclass(frozen=True)
class Outcome:
    """What a checked invocation completed: run seeds (a score-set verb
    counts its one seeded score set), score rows, and the values compared
    with the stored reference."""
    seeds: int
    rows: int
    record: dict = field(default_factory=dict)


class RunWorkload:
    """``calad run`` configs, each a (label, builtin dataset, flags) triple."""

    # (normal, anomalous) test rows of each builtin dataset, in test-set order
    TEST_COUNTS = {"builtin:gauss2d": (150, 150), "builtin:tiles": (30, 30)}

    def __init__(self, name, why, configs, n_seeds):
        self.name = name
        self.why = why
        self.configs = configs
        self.n_seeds = n_seeds
        self.datasets = {label: dataset for label, dataset, _ in configs}

    def prepare(self, seed, work: Path):
        return {"out": work / "out"}

    def calls(self, seed, ctx):
        seeds = tuple(range(self.n_seeds * seed, self.n_seeds * (seed + 1)))
        return [Call(label, ("run", "--normal", dataset, *flags,
                             "--anomaly-source", "spectral",
                             "--seeds", ",".join(map(str, seeds)),
                             "--out", str(ctx["out"])), seeds)
                for label, dataset, flags in self.configs]

    def check(self, call, stdout, ctx):
        summary, rows = checks.check_run(ctx["out"], call.seeds,
                                         *self.TEST_COUNTS[self.datasets[call.label]])
        record = {row["method"]: {k: v if k in ("class_id", "method") else float(v)
                                  for k, v in row.items()}
                  for row in summary}
        return Outcome(len(call.seeds), rows, record)


class ScoresWorkload:
    """``calad calibrate`` twice and ``calad eval`` on one generated score CSV."""

    name = "scores-csv"
    why = ("calibrate platt/beta and eval on a 200k-row score CSV: the CLI "
           "score reader, L-BFGS and metrics at large n, no training")
    n_rows = 200_000

    def prepare(self, seed, work: Path):
        rng = np.random.default_rng(seed)
        labels = (rng.random(self.n_rows) < 0.3).astype(np.int64)
        raw = np.where(labels == 1, rng.normal(1.2, 1.3, self.n_rows),
                       rng.normal(-0.8, 1.0, self.n_rows))
        path = work / "scores.csv"
        # four decimals leave many tied scores, exercising midrank ties
        path.write_text("score,label\n" + "".join(
            f"{s:.4f},{y}\n" for s, y in zip(raw.tolist(), labels.tolist())))
        scores = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
        return {"csv": path, "out": work / "out", "seed": seed, "scores": scores,
                "labels": labels, "auroc": checks.pair_count_auroc(scores, labels)}

    def calls(self, seed, ctx):
        out = str(ctx["out"])
        return [Call("calibrate-platt", ("calibrate", str(ctx["csv"]), "--kind", "platt",
                                         "--seed", str(seed), "--out", out)),
                Call("calibrate-beta", ("calibrate", str(ctx["csv"]), "--kind", "beta",
                                        "--seed", str(seed), "--out", out)),
                Call("eval", ("eval", str(ctx["csv"])))]

    def check(self, call, stdout, ctx):
        if call.label == "eval":
            record = checks.check_eval(stdout, ctx["scores"], ctx["labels"], ctx["auroc"])
        else:
            kind = call.argv[3]
            record = checks.check_calibrator(ctx["out"] / f"calibrator_{kind}.txt", kind,
                                             ctx["scores"], ctx["labels"], ctx["seed"])
        return Outcome(1, self.n_rows, record)


SVDD_PLATT = ("svdd-platt", "builtin:gauss2d", ("--loss", "svdd", "--calibrator", "platt"))
HSC_HEAD = ("hsc-head", "builtin:gauss2d", ("--loss", "hsc", "--calibrator", "head"))
SSIM_BETA = ("ssim-beta", "builtin:tiles", ("--loss", "ssim", "--calibrator", "beta",
                                            "--epochs", "2"))
FCDD_PLATT = ("fcdd-platt", "builtin:tiles", ("--loss", "fcdd", "--calibrator", "platt"))

WORKLOADS = {w.name: w for w in [
    RunWorkload("run-mix",
                "gauss2d svdd/platt and hsc/head, tiles ssim/beta (2 epochs) and "
                "fcdd/platt, 1 seed each: every run layer, SSIM and upsampling",
                [SVDD_PLATT, HSC_HEAD, SSIM_BETA, FCDD_PLATT], n_seeds=1),
    ScoresWorkload(),
    RunWorkload("detect-gauss2d",
                "gauss2d svdd/platt and hsc/head, 3 seeds: start-up, parameter "
                "gradients and one-row perturbation gradients; no SSIM or upsample",
                [SVDD_PLATT, HSC_HEAD], n_seeds=3),
    RunWorkload("localize-ssim",
                "tiles ssim/beta, 1 seed, 2 epochs: the per-sample SSIM loop and "
                "box_sum_valid dominate",
                [SSIM_BETA], n_seeds=1),
    RunWorkload("localize-fcdd",
                "tiles fcdd/platt, 2 seeds: same path as localize-ssim without SSIM; "
                "upsampling, spectral pools, per-pixel Platt, AUPRO",
                [FCDD_PLATT], n_seeds=2),
]}
