"""Per-point time of two checkouts in one process, round by round.

    python3 tools/ab_points.py --parent DIR --change DIR --rounds N [--points K]

DIR is the root of a checkout. Each checkout's `src/eulergmm` is copied to a
temporary directory and imported under its own name (`eulergmm_parent`,
`eulergmm_change`), so both sides run in one process on the same inputs.
Three per-point loops of K points (default 200) each:

- `semi_qll`: `qll_s_statistic` at rho 0.9 on K points spread over the
  50 x 50 SEMI lattice (at most its 2,500), on the snapshot's SEMI system,
  made and run once before the first round (warm);
- `ma2_s`: `s_statistic` at b = 1 with 2 Bartlett lags on a fresh T = 200
  MA(2) system per point (`perfbench/workloads.py`'s `ma2_null`);
- `weak_iv_split`: `split_sample_s_statistic` at theta = 1 on a fresh weak-IV
  system per point (`weak_iv` of the same file).

The change checkout's `perfbench/workloads.py` supplies the inputs and the
coefficient maps of `mc_size`; the inputs are drawn before the first round.
A round times each side's loop in CPU time, the parent first in even rounds
and the change first in odd ones. Per loop it prints the median of the
rounds' change/parent ratios, their quartiles, the rounds each side won,
each side's median time a point, and whether both sides gave the same
statistics bit for bit.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from ab_bench import SIDES, quartiles

LOOPS = ("semi_qll", "ma2_s", "weak_iv_split")


def load_package(root: str, name: str, tmp: str):
    """The package `src/eulergmm` of the checkout at `root`, with its snapshot
    module, imported as `name` from a copy in `tmp` (which must be on sys.path)."""
    shutil.copytree(os.path.join(root, "src", "eulergmm"), os.path.join(tmp, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{name}.snapshot")
    return importlib.import_module(name)


def load_workloads(root: str):
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("ab_points_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def loops(pkg, workloads, points: int) -> dict:
    """Each loop of one side: a function of no argument that evaluates its
    points and returns their statistics."""
    inference, design = pkg.inference, pkg.design
    data = pkg.snapshot.transform_snapshot(pkg.pipeline.TransformSpec())
    semi = design.build_design(data, "SEMI", design.BASELINE_INSTRUMENTS)
    lattice = pkg.grids.make_grid(pkg.grids.default_semi_grid())
    lattice = lattice[::max(1, len(lattice) // points)][:points]
    semi_points = [pkg.models.SemiStructuralParams(0.9, *p) for p in lattice.tolist()]
    ma2 = [workloads.ma2_null(workloads.STREAM_S, i) for i in range(points)]
    weak = [workloads.weak_iv(i) for i in range(points)]
    ma_hac = pkg.hac.HACConfig(bandwidth=workloads.MA_BANDWIDTH)

    def system(Y, Z, coeff, jacobian):  # as the benchmark's mc_size builds it
        return design.MomentSystem(
            Y=Y, X=np.ones((len(Y), 1)), Z=Z, coeff=coeff, jacobian=jacobian,
            y_labels=[f"y{j}" for j in range(Y.shape[1])],
            z_labels=["const"] + [f"z{j}" for j in range(1, Z.shape[1])])

    one, unit = np.array([1.0]), workloads._unit_coeff
    iv, iv_jacobian = workloads._iv_coeff, workloads._iv_jacobian
    return {
        "semi_qll": lambda: [inference.qll_s_statistic(p, semi).statistic for p in semi_points],
        "ma2_s": lambda: [inference.s_statistic(one, system(Y, Z, unit, None), ma_hac).statistic
                          for Y, Z in ma2],
        "weak_iv_split": lambda: [
            inference.split_sample_s_statistic(1.0, system(Y, Z, iv, iv_jacobian)).statistic
            for Y, Z in weak],
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", required=True, help="root of the changed checkout")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--points", type=int, default=200, help="points of each loop a round")
    args = p.parse_args(argv)
    if args.rounds < 1 or args.points < 1:
        p.error("--rounds and --points must be at least 1")

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads = load_workloads(roots["change"])
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            side_loops = {side: loops(load_package(roots[side], f"eulergmm_{side}", tmp),
                                      workloads, args.points) for side in SIDES}
        finally:
            sys.path.remove(tmp)
        outputs = {side: side_loops[side]["semi_qll"]() for side in SIDES}  # the warm-up
        times = {loop: {side: [] for side in SIDES} for loop in LOOPS}
        same = {loop: True for loop in LOOPS}
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for loop in LOOPS:
                for side in order:
                    t = time.process_time()
                    outputs[side] = side_loops[side][loop]()
                    times[loop][side].append(time.process_time() - t)
                same[loop] &= np.array_equal(outputs["parent"], outputs["change"], equal_nan=True)

    print(f"{args.rounds} rounds of {args.points} points a loop, CPU time; change/parent: "
          "median [q1, q3] of the rounds' ratios; wins change:parent:ties")
    for loop in LOOPS:
        parent, change = times[loop]["parent"], times[loop]["change"]
        ratios = [c / pt if pt else float("nan") for pt, c in zip(parent, change)]
        q1, med, q3 = quartiles(ratios)
        wins = (sum(c < pt for pt, c in zip(parent, change)),
                sum(c > pt for pt, c in zip(parent, change)),
                sum(c == pt for pt, c in zip(parent, change)))
        per_point = [1e6 * statistics.median(t) / args.points for t in (parent, change)]
        print(f"  {loop:<14} x{med:.3f} [{q1:.3f}, {q3:.3f}]  {wins[0]}:{wins[1]}:{wins[2]}  "
              f"parent {per_point[0]:.1f} us, change {per_point[1]:.1f} us a point  "
              + ("same statistics" if same[loop] else "STATISTICS DIFFER"))
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
