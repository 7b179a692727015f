"""Outside-in tracing of calad's layers for the traced benchmark run.

Nothing under ``src/`` knows about this module. ``install`` replaces the
public names each layer exposes with timing wrappers, at the binding the
caller actually looks up: most calad modules import names with
``from .x import y``, so wrapping ``calad.x.y`` alone would miss every
call made through the importer's own copy of ``y``. ``LossPipeline``
methods are patched on the class.

Every call becomes one span (name, start, end, parent span, invocation
id) kept in memory; metrics are derived from the spans when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

import os
import time
from collections import defaultdict

# (span name, [(module, attribute), ...]); the span name's first dotted
# component is the layer the time is charged to.
FUNCTION_BINDINGS = [
    ("cli.main", [("calad.cli", "main")]),
    ("cli.read_score_csv", [("calad.cli", "_read_score_csv")]),
    ("harness.run_experiment", [("calad.harness", "run_experiment")]),
    ("datasets.load", [("calad.harness", "gaussian_ring"),
                       ("calad.harness", "textured_tiles")]),
    ("spectral.synthesize_batch", [("calad.harness", "synthesize_batch")]),
    ("scorer.train", [("calad.harness", "train")]),
    ("perturbation.evaluate_pair", [("calad.harness", "evaluate_pair")]),
    ("perturbation.perturb_batch", [("calad.harness", "perturb_batch"),
                                    ("calad.perturbation", "perturb_batch")]),
    ("segmentation.ssim_loss", [("calad.scorer", "ssim_loss")]),
    ("segmentation.ssim_map_backward", [("calad.scorer", "ssim_map_backward")]),
    ("segmentation.gaussian_upsample", [("calad.harness", "gaussian_upsample")]),
    ("kernels.box_sum_valid", [("calad.segmentation", "box_sum_valid")]),
    ("kernels.upsample_scatter", [("calad.segmentation", "upsample_scatter")]),
    ("calibration.fit", [("calad.harness", "fit_platt"), ("calad.harness", "fit_beta"),
                         ("calad.harness", "fit_head"), ("calad.cli", "fit_platt"),
                         ("calad.cli", "fit_beta")]),
    ("calibration.lbfgs", [("calad.calibration", "minimize")]),
    ("metrics.auroc", [("calad.metrics", "auroc"), ("calad.cli", "auroc")]),
    ("metrics.aupro", [("calad.harness", "aupro")]),
    ("metrics.pixel_auroc", [("calad.harness", "pixel_auroc")]),
    ("reports.emit_reports", [("calad.harness", "emit_reports")]),
    ("reports.write_file", [("calad.reports", "write_rows_csv"),
                            ("calad.reports", "write_deltas_csv"),
                            ("calad.reports", "write_manifest")]),
    ("reports.render_svg", [("calad.reports", "reliability_diagram_svg"),
                            ("calad.reports", "calibrator_curve_svg")]),
    # harness and scorer import save_tensor inside functions, so the
    # defining module's binding is the one they look up
    ("tensorio.save_tensor", [("calad.tensorio", "save_tensor")]),
]

METHOD_BINDINGS = [
    ("scorer.param_grad", "loss_and_param_grad"),
    ("scorer.input_grad", "loss_and_input_grad"),
    ("scorer.scores", "scores"),
    ("scorer.logits", "logits"),
    ("scorer.loss_values", "loss_values"),
]

LAYERS = ("cli", "harness", "datasets", "spectral", "scorer", "perturbation",
          "segmentation", "kernels", "calibration", "metrics", "reports", "tensorio")


def _count(name, counters, args, result):
    """Work counters recorded at the span boundary, keyed '<span>.<what>'."""
    if name == "spectral.synthesize_batch":
        counters[name + ".images"] += args[1]
    elif name in ("scorer.param_grad", "scorer.input_grad"):
        counters[name + ".rows"] += 1 if args[1].ndim == 1 else len(args[1])
    elif name == "calibration.fit":
        counters[name + ".rows"] += len(args[1])
    elif name == "calibration.lbfgs":
        counters[name + ".nit"] += int(result.nit)
        counters[name + ".nfev"] += int(result.nfev)
        counters[name + ".converged"] += bool(result.success)
    elif name == "metrics.auroc":
        counters[name + ".rows"] += len(args[0])
    elif name == "cli.read_score_csv":
        counters[name + ".rows"] += len(result[0])
    elif name == "kernels.box_sum_valid":
        # compulsory traffic computed from array sizes: input read, output written
        counters[name + ".bytes_computed"] += args[0].nbytes + result.nbytes
    elif name == "kernels.upsample_scatter":
        counters[name + ".bytes_computed"] += (args[0].nbytes + args[1].nbytes
                                               + result.nbytes)
    elif name == "reports.write_file":
        counters["reports.files"] += 1
        counters["reports.bytes"] += os.path.getsize(args[0])
    elif name == "reports.render_svg":
        counters["reports.files"] += 1
        counters["reports.bytes"] += len(result.encode())
    elif name == "tensorio.save_tensor":
        counters[name + ".bytes"] += os.path.getsize(args[0])


class Tracer:
    """In-memory span recorder. ``invocation`` tags the spans of one CLI call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, invocation]
        self.counters = defaultdict(float)
        self.binding_calls = defaultdict(int)  # "module.attr" -> calls through it
        self.invocation = 0
        self._stack = []

    def wrap(self, name, fn, binding):
        spans, stack, counters = self.spans, self._stack, self.counters
        binding_calls = self.binding_calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            binding_calls[binding] += 1
            span = [name, clock(), None, stack[-1] if stack else None, self.invocation]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _count(name, counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Per-span self time: duration minus the child spans' durations."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def summary(self):
        """Per-span-name calls, total and self seconds, per-layer self
        seconds, and the counters."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            name = span[0]
            calls[name] += 1
            total[name] += span[2] - span[1]
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "layer_self_s": layer_self, "counters": self.counters}


def install(tracer):
    """Patch every binding; returns a function that restores the originals."""
    import importlib

    from calad.scorer import LossPipeline

    saved = []
    for name, bindings in FUNCTION_BINDINGS:
        for module_name, attr in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, f"{module_name}.{attr}"))
    for name, attr in METHOD_BINDINGS:
        original = LossPipeline.__dict__[attr]
        saved.append((LossPipeline, attr, original))
        setattr(LossPipeline, attr, tracer.wrap(name, original, f"LossPipeline.{attr}"))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
