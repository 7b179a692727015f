"""End-to-end benchmark of the calad CLI, with an outside-in per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run-mix --seed 0 --seconds 55 --trace 0

``--trace 0`` runs the workload as a closed loop with one client: each
cycle starts the workload's ``python -m calad.cli ...`` invocations one
after another, the next only when the previous one has exited, until the
next cycle would overrun ``--seconds``. Every output is checked. Before
the loop, stale bytecode is compiled, then ``SETUP_REPEATS`` timed
``calad --help`` give the start-up cost.

``--trace 1`` measures the per-layer numbers instead: ``-X importtime``
start-up imports, one untraced cycle, then the same cycle in process
through ``calad.cli.main(argv)`` with the layer wrappers of spans.py
installed, and the kernel timings of kernel_bench.py. Span metrics are
per cycle. This run also prints the environment the numbers depend on.

The program runs in the machine's default environment (no BLAS-thread or
CALAD_NUMBA override), so the numbers are what users get. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import kernel_bench
import spans
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the traced run imports calad from this checkout
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
INVOCATION_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile

END_TO_END = [("setup_s", "s"), ("wall_s_p50", "s"), ("cpu_s_p50", "s"), ("peak_rss_mb", "MB")]

LAYER_METRICS = [
    "cli.self_s", "cli.read_score_csv.rows", "cli.read_score_csv.self_s",
    "harness.run_experiment.self_s",
    "datasets.self_s",
    "spectral.synthesize_batch.calls", "spectral.synthesize_batch.images",
    "spectral.synthesize_batch.self_s",
    "scorer.self_s", "scorer.train.self_s",
    "scorer.param_grad.calls", "scorer.param_grad.rows", "scorer.param_grad.self_s",
    "scorer.input_grad.calls", "scorer.input_grad.rows", "scorer.input_grad.self_s",
    "perturbation.self_s", "perturbation.perturb_batch.calls",
    "perturbation.perturb_batch.self_s", "perturbation.evaluate_pair.total_s",
    "segmentation.self_s", "segmentation.ssim_loss.calls", "segmentation.ssim_loss.self_s",
    "segmentation.ssim_map_backward.calls", "segmentation.ssim_map_backward.self_s",
    "segmentation.gaussian_upsample.calls", "segmentation.gaussian_upsample.self_s",
    "kernels.self_s", "kernels.box_sum_valid.calls", "kernels.box_sum_valid.self_s",
    "kernels.box_sum_valid.bytes_computed", "kernels.upsample_scatter.calls",
    "kernels.upsample_scatter.self_s", "kernels.upsample_scatter.bytes_computed",
    "calibration.self_s", "calibration.fit.calls", "calibration.fit.rows",
    "calibration.fit.self_s", "calibration.lbfgs.calls", "calibration.lbfgs.nit",
    "calibration.lbfgs.nfev", "calibration.lbfgs.converged_ratio",
    "metrics.self_s", "metrics.auroc.calls", "metrics.auroc.rows", "metrics.auroc.self_s",
    "metrics.aupro.self_s", "metrics.pixel_auroc.self_s",
    "reports.self_s", "reports.files", "reports.bytes",
    "tensorio.self_s", "tensorio.save_tensor.calls", "tensorio.save_tensor.bytes",
]
IMPORT_MODULES = [("import.total_s", "calad.cli"), ("import.scipy_stats_s", "scipy.stats"),
                  ("import.scipy_optimize_s", "scipy.optimize"),
                  ("import.scipy_ndimage_s", "scipy.ndimage")]


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("us_per_call"):
        return "us"
    return "count"


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    ok: bool
    seeds: int = 0
    rows: int = 0


class Runner:
    """Spawns CLI invocations and checks their outputs; counts failures."""

    def __init__(self, work: Path, workload, ctx, reference):
        self.work = work
        self.workload = workload
        self.ctx = ctx
        self.reference = reference
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.records = {}  # call label -> values compared with the reference

    def spawn(self, args):
        """Run ``python <args>``; returns (wall, cpu, rss MB, exit code, stdout, stderr)."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, out_path.read_text(), err_path.read_text())

    def setup(self):
        """Median wall of SETUP_REPEATS ``calad --help``, after compiling
        any stale bytecode so no timed start-up pays for it."""
        _, _, _, code, _, err = self.spawn(["-m", "compileall", "-q", str(SRC / "calad")])
        self._count(code == 0, f"compileall exited {code}: {err[-500:]}")
        return statistics.median(self.help() for _ in range(SETUP_REPEATS))

    def help(self):
        wall, _, _, code, _, err = self.spawn(["-m", "calad.cli", "--help"])
        self._count(code == 0, f"calad --help exited {code}: {err[-500:]}")
        return wall

    def call(self, call):
        shutil.rmtree(self.ctx["out"], ignore_errors=True)
        wall, cpu, rss, code, out, err = self.spawn(["-m", "calad.cli", *call.argv])
        if code != 0:
            self._count(False, f"{call.label} exited {code}: {err[-500:]}")
            return Invocation(wall, cpu, rss, False)
        return self._checked(call, out, Invocation(wall, cpu, rss, True))

    def call_in_process(self, call, main):
        """``main(argv)`` in this process; returns its wall time."""
        shutil.rmtree(self.ctx["out"], ignore_errors=True)
        buffer = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buffer):
            code = main(list(call.argv))
        wall = time.perf_counter() - t0
        if code != 0:
            self._count(False, f"in-process {call.label} returned {code}")
        else:
            self._checked(call, buffer.getvalue(), Invocation(wall, 0, 0, True))
        return wall

    def _checked(self, call, stdout, inv):
        try:
            outcome = self.workload.check(call, stdout, self.ctx)
            if self.reference is not None:
                checks.compare_reference(f"{self.workload.name} {call.label}",
                                         outcome.record,
                                         self.reference[self.workload.name][call.label])
        except (checks.CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
            self._count(False, f"{call.label}: {exc}")
            inv.ok = False
            return inv
        self._count(True)
        self.records[call.label] = outcome.record
        inv.seeds, inv.rows = outcome.seeds, outcome.rows
        return inv

    def _count(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {why}", file=sys.stderr)


def closed_loop(runner, calls, seconds):
    """Cycles of ``calls`` until the next cycle would overrun ``seconds``;
    returns the per-cycle lists of invocations."""
    cycles = []
    start = time.perf_counter()
    while not cycles or (time.perf_counter() - start
                         + sum(inv.wall for inv in cycles[-1])) <= seconds:
        cycles.append([runner.call(call) for call in calls])
    return cycles


def tail(walls):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples beyond it, or None when there are too few samples."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the tail sample
    return 100.0 * rank / n, sorted(walls)[rank - 1]


def end_to_end(setup_s, cycles):
    invocations = [inv for cycle in cycles for inv in cycle]
    per_cycle = len(cycles[0])

    def per_cycle_sums(field):
        return [sum(getattr(inv, field) for inv in cycle) for cycle in cycles]

    walls, cpus = per_cycle_sums("wall"), per_cycle_sums("cpu")

    # Medians over cycles: a cycle holds the workload's whole invocation mix,
    # so the mix never splits a median, and one slow invocation moves one sample.
    metrics = {
        "setup_s": setup_s,
        "wall_s_p50": statistics.median(walls) / per_cycle,
        "cpu_s_p50": statistics.median(cpus) / per_cycle,
        "peak_rss_mb": max(inv.rss_mb for inv in invocations),
    }
    # Every cycle of a workload completes the same seeds and rows, so the
    # rates are fixed multiples of 1 / wall_s_p50: printed, not declared.
    seeds, rows = max(per_cycle_sums("seeds")), max(per_cycle_sums("rows"))
    failed = sum(not inv.ok for inv in invocations)
    lines = [f"closed loop, 1 client: {len(cycles)} cycles x {per_cycle} invocations "
             f"in {sum(walls):.3f} s of invocation wall",
             "invocation walls s: " + " ".join(f"{inv.wall:.3f}" for inv in invocations),
             f"seeds_per_s {seeds / statistics.median(walls):.6g} 1/s ({seeds} seeds), "
             f"rows_per_s {rows / statistics.median(walls):.6g} 1/s ({rows} rows) per cycle",
             f"failed_ratio {failed / len(invocations):.6f} ratio "
             f"({failed} of {len(invocations)} invocations)"]
    t = tail([inv.wall for inv in invocations])
    lines.append(f"wall_s_tail {t[1]:.6f} s (p{t[0]:.1f}, {len(invocations)} invocations)"
                 if t else f"wall_s_tail not reported: {len(invocations)} invocations, "
                           f"a tail needs more than {TAIL_BEYOND}")
    return metrics, lines


def import_times(runner):
    """Median cumulative ``-X importtime`` seconds of calad.cli and the
    scipy subpackages where they are first imported. A package whose own
    line is missing (scipy.ndimage's is) counts as its shallowest
    submodule lines."""
    samples = {name: [] for name, _ in IMPORT_MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        _, _, _, code, _, err = runner.spawn(["-X", "importtime", "-c", "import calad.cli"])
        runner._count(code == 0, f"importtime exited {code}")
        lines = []  # (depth, module, cumulative seconds)
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                depth = (len(parts[2]) - len(parts[2].lstrip(" ")) - 1) // 2
                lines.append((depth, parts[2].strip(), int(parts[1]) / 1e6))
        for name, module in IMPORT_MODULES:
            mine = [(d, t) for d, m, t in lines if m == module or m.startswith(module + ".")]
            top = min((d for d, _ in mine), default=0)
            samples[name].append(sum(t for d, t in mine if d == top))
    return {name: statistics.median(values) for name, values in samples.items()}


def layer_metric(summary, name):
    head, _, stat = name.rpartition(".")
    if stat == "calls":
        return summary["calls"][head]
    if stat == "self_s":
        return summary["layer_self_s"][head] if head in spans.LAYERS \
            else summary["self_s"][head]
    if stat == "total_s":
        return summary["total_s"][head]
    if stat == "converged_ratio":
        return summary["counters"][head + ".converged"] / max(1, summary["calls"][head])
    return summary["counters"][name]


def trace_cycle(runner, calls):
    """One cycle in process through ``calad.cli.main`` with the layer
    wrappers installed; returns (tracer, per-invocation walls)."""
    import calad.cli

    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        walls = []
        for index, call in enumerate(calls):
            tracer.invocation = index
            walls.append(runner.call_in_process(call, calad.cli.main))
    finally:
        restore()
    return tracer, walls


def traced(runner, calls, setup_s, spans_path):
    """Per-layer metrics of one cycle: imports, untraced vs traced walls,
    spans, kernels. The spans go to ``spans_path`` as JSON rows of
    [name, start s, end s, parent index, invocation]."""
    import calad._kernels

    metrics = import_times(runner)
    untraced = sum(runner.call(call).wall for call in calls)
    tracer, walls = trace_cycle(runner, calls)
    origin = tracer.spans[0][1]
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps([[name, start - origin, end - origin, parent, inv]
                                      for name, start, end, parent, inv in tracer.spans]))
    summary = tracer.summary()
    for name in LAYER_METRICS:
        metrics[name] = layer_metric(summary, name)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_ratio"] = sum(walls) / (untraced - len(calls) * setup_s)
    for case, (us, ops, nbytes) in kernel_bench.measure(calad._kernels).items():
        metrics[f"kbench.{case}.us_per_call"] = us
        metrics[f"kbench.{case}.ops"] = ops
        metrics[f"kbench.{case}.bytes_computed"] = nbytes
    return metrics, [f"traced one cycle of {len(calls)} invocations in process: "
                     f"{sum(walls):.3f} s traced, {untraced:.3f} s untraced with start-up"]


def environment():
    """What the numbers depend on: CPUs, versions, BLAS and its threads,
    and calad's kernel backend."""
    from importlib import metadata
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = fn()
                break
    from calad import _kernels
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": threads, "kernel_backend": _kernels.BACKEND}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its invocation, and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "calad" / "cli.py").is_file():
        print(f"error: no calad sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()) if args.seed == DEFAULT_SEED else None
    # a fixed path: the run manifest records it, and reports.bytes counts the manifest
    work = ROOT / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = workload.prepare(args.seed, work)
        calls = workload.calls(args.seed, ctx)
        runner = Runner(work, workload, ctx, reference)
        setup_s = runner.setup()
        if args.trace:
            spans_path = ROOT / ".perfbench-spans" / f"{args.workload}-seed{args.seed}.json"
            metrics, lines = traced(runner, calls, setup_s, spans_path)
            lines.append(f"spans written to {spans_path}")
            lines.insert(0, "environment " + json.dumps(environment(), sort_keys=True))
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, lines = end_to_end(setup_s, closed_loop(runner, calls, args.seconds))
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
