"""Kernel timings at the shapes the workloads actually call.

localize-ssim runs box_sum_valid forward on 26x26 inputs (16x16 tiles
padded by 5, window 11) and in the adjoint on 36x36 inputs (the 16x16
gradient grid padded by 10); localize-fcdd runs upsample_scatter on 8x8
feature maps with stride 2 and a 9x9 kernel. Operation counts follow the
algorithms (two cumulative sums plus three adds per output; one
multiply-add per input cell and kernel tap). Bytes are compulsory traffic
computed from array sizes (inputs read once, output written once), not
measured.
"""

import statistics
import time

import numpy as np

BATCHES = 5
CALLS = 400


def _cases(kernels):
    rng = np.random.default_rng(0)
    fwd, adj = rng.random((26, 26)), rng.random((36, 36))
    heat, kern = rng.random((8, 8)), rng.random((9, 9))
    item = 8  # float64
    return [
        ("box_sum_valid_26x26_w11", kernels.box_sum_valid, (fwd, 11),
         2 * 26 * 26 + 3 * 16 * 16, (26 * 26 + 16 * 16) * item),
        ("box_sum_valid_36x36_w11", kernels.box_sum_valid, (adj, 11),
         2 * 36 * 36 + 3 * 26 * 26, (36 * 36 + 26 * 26) * item),
        ("upsample_scatter_8x8_s2_k9", kernels.upsample_scatter, (heat, kern, 2),
         2 * 8 * 8 * 9 * 9, (8 * 8 + 9 * 9 + 23 * 23) * item),
    ]


def measure(kernels):
    """{case: (microseconds per call, ops per call, bytes per call)}; the
    per-call time is the median over batches of CALLS calls."""
    results = {}
    for name, fn, args, ops, nbytes in _cases(kernels):
        fn(*args)
        per_call = []
        for _ in range(BATCHES):
            t0 = time.perf_counter()
            for _ in range(CALLS):
                fn(*args)
            per_call.append((time.perf_counter() - t0) / CALLS)
        results[name] = (statistics.median(per_call) * 1e6, ops, nbytes)
    return results
