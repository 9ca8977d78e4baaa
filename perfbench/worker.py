"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --run-dir DIR --round-dir DIR --trace 0|1

Builds the round's inputs, then starts the clock at the first
`import eulergmm`, runs the workload's job, and writes `round.json` (phase
times, CPU time, peak memory, counts) and `outputs.npz` (what the checks
read) into the round directory. With `--trace 1` the tracing wrappers are
installed after the import and removed when the job ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

import workloads


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.JOBS))
    p.add_argument("--run-dir", required=True)
    p.add_argument("--round-dir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    inputs = workloads.prepare(args.workload, args.run_dir)
    inputs["round_dir"] = args.round_dir

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    import eulergmm.cli
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    job = workloads.JOBS[args.workload](inputs, tracer)
    if tracer is not None:
        tracer.uninstall()
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    eval_s = job["eval_s"]
    result = {
        "module": eulergmm.cli.__file__,
        "import_s": import_s,
        "evals": job["evals"],
        "errors": job["errors"],
        "cli_threads": job.get("cli_threads"),
        "lab": job.get("lab"),
        "metrics": {
            "setup_s": import_s + job["prep_s"],
            "wall_s": import_s + job["prep_s"] + eval_s + job.get("lab_s", 0.0),
            "evals_per_s": job["evals"] / eval_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, import_s, job.get("export_bytes", 0))
        result["absent"] = tracer.absent
        tracer.dump(os.path.join(args.round_dir, "spans.json"))
    np.savez(os.path.join(args.round_dir, "outputs.npz"), **job["arrays"])
    with open(os.path.join(args.round_dir, "round.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
