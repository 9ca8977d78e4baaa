"""Alternating parent/change pairs of the benchmark, and each metric's verdict.

    python3 tools/ab_bench.py --parent DIR --change DIR --workload NAME --pairs N
        [--seed0 S]

DIR is the root of a checkout. Pair i runs `perfbench/run.py --trace 0` on
both checkouts, each with its own benchmark files, the parent first in even
pairs and the change first in odd ones, with seed S + i (S is 0 unless
given) on both sides and the run length `run_seconds` of the parent's
BENCHMARK.json. For every
end-to-end metric of that file it prints each side's median and quartiles
over the pairs, the change/parent ratio of the two medians and the median
of the pairs' own change/parent ratios (each pair's ratio on the line
below), the change's wins, the parent's wins and the ties, and whether
the change counts as a gain: it wins at least nine tenths of the
pairs, and the medians differ by more than the distance between the
parent's quartiles. Beside it stands the metric's regression verdict
against its `bound` (a fraction of the parent's median): "worse" when the
change's median is worse than the parent's by more than the bound,
"unresolved" when the parent's quartiles lie further apart than the bound
and not every change run beats every parent run, and "within bound"
otherwise. A run that is not correct, that counts failed
operations, that exits non-zero or that prints no JSON summary line is
reported as not clean, and the script exits 1 after the last pair; a pair
with a run that gave no metrics is left out of the verdicts.

It writes the same numbers to `BENCH_<workload>_<REV>.json` at the change
checkout's root (`bench_record`): the machine's CPU count and the Python and
numpy versions, the seeds, the clean runs of each side, and per metric the
medians, quartiles, pair ratios, wins and verdicts. REV is the parent's
short revision, `git rev-parse --short HEAD` in the parent checkout
("unknown" when that gives none).

It exits 2 before any run when one checkout's `src/eulergmm/__pycache__`
holds `.pyc` files and the other's does not: one side would import from
bytecode, which moves set-up time and memory on code that did not change.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
#: The package's bytecode cache, relative to a checkout's root.
BYTECODE = os.path.join("src", "eulergmm", "__pycache__")


def holds_bytecode(root: str) -> bool:
    """Whether the checkout at `root` has `.pyc` files in its package's cache."""
    path = os.path.join(root, BYTECODE)
    return os.path.isdir(path) and any(name.endswith(".pyc") for name in os.listdir(path))


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The benchmark's summary line of one run in the checkout at `root`.

    A run that exits non-zero, or whose last line of output is not a JSON
    summary (an object with `correct`, `failed` and `metrics`), has its
    standard error printed and gives a summary with `correct` false, no
    metrics and the fault in `error`.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        summary = None
    if isinstance(summary, dict) and {"correct", "failed", "metrics"} <= summary.keys():
        return summary
    error = f"exited with {proc.returncode}" if proc.returncode else "printed no JSON summary line"
    print(f"{' '.join(cmd)} in {root} {error}:\n{proc.stderr}", file=sys.stderr, flush=True)
    return {"correct": False, "failed": None, "error": error, "metrics": None}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdicts(runs: dict[str, list[dict]], end_to_end: list[dict]) -> list[dict]:
    """Per metric: both sides' quartiles, the wins of each side, the gain rule
    and the regression verdict."""
    out = []
    for m in end_to_end:
        name, higher = m["name"], m["better"] == "higher"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        ratios = [c / p if p else float("nan") for p, c in zip(vals["parent"], vals["change"])]
        wins = {"change": 0, "parent": 0, "ties": 0}
        for p, c in zip(vals["parent"], vals["change"]):
            if p == c:
                wins["ties"] += 1
            else:
                wins["change" if (c > p) == higher else "parent"] += 1
        (p1, pm, p3), (c1, cm, c3) = quartiles(vals["parent"]), quartiles(vals["change"])
        better = cm > pm if higher else cm < pm
        bound = m["bound"] * abs(pm)
        if (pm - cm if higher else cm - pm) > bound:
            regression = "worse"
        elif p3 - p1 > bound and not (
                min(vals["change"]) > max(vals["parent"]) if higher
                else max(vals["change"]) < min(vals["parent"])):
            regression = "unresolved"
        else:
            regression = "within bound"
        out.append({
            "name": name, "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins,
            "ratio": cm / pm if pm else float("nan"),
            "pair_ratios": ratios, "pair_ratio": statistics.median(ratios),
            "gain": better and wins["change"] >= 0.9 * len(vals["parent"])
            and abs(cm - pm) > p3 - p1,
            "regression": regression,
        })
    return out


def clean(run: dict) -> bool:
    return bool(run["correct"]) and not run["failed"]


def bench_record(workload: str, parent_rev: str, seconds: float, seeds: list[int],
                 compared: list[int], runs: dict[str, list[dict]], rows: list[dict]) -> dict:
    """The BENCH file of one comparison: machine facts, the seeds of all pairs
    and of the pairs compared, each side's clean runs, and each metric's row
    of `verdicts`."""
    return {
        "workload": workload,
        "parent_rev": parent_rev,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "run_seconds": seconds,
        "seeds": seeds,
        "seeds_compared": compared,
        "clean_runs": {side: sum(map(clean, runs[side])) for side in SIDES},
        "metrics": rows,
    }


def parent_revision(root: str) -> str:
    """The short revision checked out at `root`, or "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, text=True,
                              capture_output=True)
    except OSError:
        return "unknown"
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", required=True, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed0", type=int, default=0, help="seed of the first pair")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    cached = [side for side in SIDES if holds_bytecode(roots[side])]
    if len(cached) == 1:
        print(f"{os.path.join(roots[cached[0]], BYTECODE)} holds .pyc files and the other "
              "checkout's does not: remove them, or cache both", file=sys.stderr)
        return 2
    with open(os.path.join(roots["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    parent_rev = parent_revision(roots["parent"])
    seeds = [args.seed0 + i for i in range(args.pairs)]

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, seed, seconds))
        line = ", ".join(
            f"{side} {runs[side][-1]['metrics']['evals_per_s']['value']:.1f} evals/s"
            if runs[side][-1]["metrics"] else f"{side} {runs[side][-1]['error']}"
            for side in order)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {line}", file=sys.stderr, flush=True)

    pairs = [i for i in range(args.pairs) if all(runs[side][i]["metrics"] for side in SIDES)]
    rows = verdicts({side: [runs[side][i] for i in pairs] for side in SIDES},
                    bench["end_to_end"]) if pairs else []
    print(f"{args.workload}: {len(pairs)} of {args.pairs} pairs of {seconds:g} s runs "
          "compared; median [q1, q3]; change/parent: of the medians, median of the pairs; "
          "wins change:parent:ties")
    for r in rows:
        (p1, pm, p3), (c1, cm, c3), w = r["parent"], r["change"], r["wins"]
        print(f"  {r['name']:<12} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
              f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {r['unit']}  "
              f"x{r['ratio']:.3f}  pairs x{r['pair_ratio']:.3f}  "
              f"{w['change']}:{w['parent']}:{w['ties']}  {r['regression']}"
              + ("  gain" if r["gain"] else ""))
        print("    pair ratios: " + " ".join(f"{x:.3f}" for x in r["pair_ratios"]))
    bad = [f"{side} pair {i + 1}: " + (r["error"] if r["metrics"] is None
                                        else f"correct={r['correct']} failed={r['failed']}")
           for side in SIDES for i, r in enumerate(runs[side]) if not clean(r)]
    for msg in bad:
        print(f"  not clean: {msg}")
    path = os.path.join(roots["change"], f"BENCH_{args.workload}_{parent_rev}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench_record(args.workload, parent_rev, seconds, seeds,
                               [seeds[i] for i in pairs], runs, rows), fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
