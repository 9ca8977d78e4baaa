"""Benchmark of eulergmm's confidence-set and test-size jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. Each round of a run is a
fresh worker process (perfbench/worker.py) that imports eulergmm from `src/`
with BLAS and OpenMP pinned to one thread, runs the workload's job once and
saves its outputs. Rounds repeat until the next one would end after
`--seconds`; there is always at least one (with `--trace 1`, at least one
untraced and one traced, alternating). The outputs are then checked against
the independent oracle (perfbench/oracle.py), and the checks themselves are
self-tested. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
(medians over rounds) for `--trace 0` and the per-layer metrics for
`--trace 1`. Work files go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# The oracle in this process runs on one BLAS thread too, so its sums are
# taken in the same order on every run.
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

UNITS = {
    "setup_s": "s", "wall_s": "s", "evals_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "design.systems": "count", "inference.evals": "count", "inference.minimize_calls": "count",
    "inference.cue_calls": "count", "inference.cue_per_minimize": "ratio",
    "inference.qll_b_calls": "count", "hac.calls": "count", "hac.calls_per_eval": "ratio",
    "quantiles.calls": "count", "grids.export_bytes": "bytes", "misspec.simulate_calls": "count",
}
ROUND_TIMEOUT_S = 150.0
#: No round starts later than this into a run, so a run ends well within 180 s.
LAST_START_S = 100.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_facts(cli_threads) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "cli_threads": cli_threads,
    }


def run_round(root: str, workload: str, run_dir: str, index: int, trace: int) -> dict:
    round_dir = os.path.join(run_dir, f"round{index:02d}")
    os.makedirs(round_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--run-dir", run_dir, "--round-dir", round_dir, "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"round {index} did not end within {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} exited with {proc.returncode}:\n{out}{err}")
    with open(os.path.join(round_dir, "round.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    expected = os.path.join(root, "src", "eulergmm")
    if os.path.dirname(os.path.abspath(result["module"])) != expected:
        raise RuntimeError(f"worker imported eulergmm from {result['module']}, not {expected}")
    result["round_s"] = time.perf_counter() - start
    result["trace"] = trace
    with np.load(os.path.join(round_dir, "outputs.npz")) as npz:
        outputs = {k: npz[k] for k in npz.files}
    if workload == "iac_s_cli":
        outputs.update(checks.read_grid_csv(os.path.join(round_dir, "out", "grid.csv")))
    if result.get("lab") is not None:
        outputs["lab"] = result["lab"]
    result["outputs"] = outputs
    return result


def median_metrics(rounds: list[dict], key: str) -> dict:
    names = rounds[0][key].keys()
    return {n: statistics.median(r[key][n] for r in rounds) for n in names}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.JOBS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eulergmm", "cli.py")):
        log(f"error: {root} holds no eulergmm source tree (src/eulergmm); run from a checkout")
        return 2

    run_dir = os.path.join(root, ".bench_out", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "iac_s_cli.ini"), "w", encoding="utf-8") as fh:
        fh.write(workloads.iac_config_text())

    # Untimed warm-up: byte-compiles the package and loads numpy, scipy and
    # the package into the file cache, so the first round's set-up is not an outlier.
    subprocess.run([sys.executable, "-c", "import eulergmm.cli"], cwd=root,
                   env=worker_env(root), check=True, timeout=ROUND_TIMEOUT_S)

    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        trace = args.trace if args.trace == 0 else len(rounds) % 2
        rounds.append(run_round(root, args.workload, run_dir, len(rounds), trace))
        elapsed = time.perf_counter() - start
        longest = max(r["round_s"] for r in rounds)
        if args.trace and len(rounds) < 2:
            continue
        if elapsed + longest > args.seconds or elapsed > LAST_START_S:
            break
    measure_s = time.perf_counter() - start

    first = rounds[0]["outputs"]
    ref = checks.REFERENCES[args.workload](first, args.seed)
    failures, counted = [], 0
    for i, r in enumerate(rounds):
        out = r["outputs"]
        for check, _ in checks.CHECKS[args.workload]:
            found = check(out, ref)
            if check in checks.COUNTED_AS_FAILED:
                counted += len(found)
                if i == 0:
                    for msg in found:
                        log(f"failed operation ({check.__name__}): {msg}")
            else:
                failures += [f"round {i} {check.__name__}: {m}" for m in found]
        if i:
            failures += [f"round {i}: {m}" for m in checks.same_as_first(out, first)]
    failures += checks.self_test(args.workload, first, ref)

    attempted = sum(r["evals"] for r in rounds)
    failed = sum(r["errors"] for r in rounds) + counted
    facts = machine_facts(rounds[0].get("cli_threads"))
    summary = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
               "measure_s": measure_s, "facts": facts, "failures": failures}
    if args.workload == "mc_size":
        summary["rejection_rates"] = checks.rejection_rates(first)
    untraced = [r for r in rounds if not r["trace"]]
    traced = [r for r in rounds if r["trace"]]
    if args.trace:
        layers = median_metrics(traced, "layers")
        # The import is the same with and without wrappers; leaving it out
        # keeps its noise out of the difference.
        layers["trace.overhead_s"] = (
            statistics.median(r["metrics"]["wall_s"] - r["import_s"] for r in traced)
            - statistics.median(r["metrics"]["wall_s"] - r["import_s"] for r in untraced)
        )
        absent = sorted({a for r in traced for a in r.get("absent", [])})
        if absent:
            log("absent from the program: " + ", ".join(absent))
        summary["absent"] = absent
        metrics = {n: {"value": v, "unit": LAYER_UNITS.get(n, "s")} for n, v in layers.items()}
    else:
        metrics = {n: {"value": v, "unit": UNITS[n]}
                   for n, v in median_metrics(untraced, "metrics").items()}
    summary["metrics"] = metrics
    with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, default=str)
    for msg in failures:
        log(f"check failed: {msg}")
    log(f"{args.workload}: {len(rounds)} rounds in {measure_s:.1f} s; facts {json.dumps(facts)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
