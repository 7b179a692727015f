"""Record the seed-0 outputs that every seed-0 benchmark run is checked
against, into reference.json.

    python3 perfbench/make_reference.py

Run it only when calad's outputs are meant to change; the file pins them.
"""

import json
import os
import shutil

from run import REFERENCE, ROOT, Runner
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    reference = {}
    work = ROOT / ".perfbench-work" / f"reference-{os.getpid()}"
    for name, workload in WORKLOADS.items():
        work.mkdir(parents=True, exist_ok=True)
        try:
            ctx = workload.prepare(DEFAULT_SEED, work)
            runner = Runner(work, workload, ctx, None)
            for call in workload.calls(DEFAULT_SEED, ctx):
                runner.call(call)
            if runner.failed:
                raise SystemExit(f"{name}: {runner.failed} failed invocations")
            reference[name] = runner.records
        finally:
            shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
