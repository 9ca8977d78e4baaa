"""Test inversion over parameter lattices and confidence-set export."""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .design import MomentSystem
from .hac import HACConfig
from .inference import Columns, SplitSpec, TestResult, lattice_columns
from .models import ModelKind
from .pipeline import _csv_rows, _data_rows


@dataclass(frozen=True)
class AxisSpec:
    """One lattice axis; excluded endpoints are offset inward by one step."""

    name: str
    lower: float
    upper: float
    points: int
    include_lower: bool = True
    include_upper: bool = True

    def __post_init__(self):
        for end in ("lower", "upper"):
            if not math.isfinite(getattr(self, end)):
                raise ValueError(f"axis {self.name!r} {end} bound is not finite: "
                                 f"{getattr(self, end)!r}")
        if isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral):
            raise ValueError(f"axis {self.name!r} point count must be an integer, "
                             f"got {self.points!r}")
        if self.points < 2:
            raise ValueError(f"axis {self.name!r} needs >= 2 points, got {self.points}")
        if self.upper <= self.lower:
            raise ValueError(
                f"axis {self.name!r} upper bound must exceed lower "
                f"({self.lower} .. {self.upper})"
            )

    def values(self) -> np.ndarray:
        n = self.points
        excluded = (not self.include_lower) + (not self.include_upper)
        step = (self.upper - self.lower) / (n - 1 + excluded)
        lo = self.lower + (0.0 if self.include_lower else step)
        return lo + step * np.arange(n)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[AxisSpec, ...]
    extra_points: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        for p in self.extra_points:
            if len(p) != len(self.axes):
                raise ValueError(
                    f"extra point {p} has {len(p)} coordinates, expected {len(self.axes)}"
                )
            if not all(math.isfinite(x) for x in p):
                raise ValueError(f"extra point {p} has a non-finite coordinate")

    @property
    def names(self) -> list[str]:
        return [a.name for a in self.axes]


def make_grid(spec: GridSpec) -> np.ndarray:
    """Row-major lattice (last axis fastest), extra points appended at the end."""
    values = [a.values() for a in spec.axes]
    mesh = np.meshgrid(*values, indexing="ij")
    lattice = np.column_stack([m.ravel() for m in mesh])
    if spec.extra_points:
        lattice = np.vstack([lattice, np.array(spec.extra_points, dtype=float)])
    return lattice


#: Default (rho, kappa, zeta) lattice respecting the parameter box.
def default_structural_grid(extra_points: tuple = ()) -> GridSpec:
    return GridSpec(
        axes=(
            AxisSpec("rho", 0.0, 1.0, 20, include_upper=False),
            AxisSpec("kappa", 0.0, 20.0, 40, include_lower=False),
            AxisSpec("zeta", 0.0, 10.0, 20, include_lower=False),
        ),
        extra_points=tuple(extra_points),
    )


#: Default (rho, sigma, zeta) lattice of the CAC model: the structural box.
def default_cac_grid(extra_points: tuple = ()) -> GridSpec:
    rho, kappa, zeta = default_structural_grid(extra_points).axes
    return GridSpec(axes=(rho, replace(kappa, name="sigma"), zeta), extra_points=tuple(extra_points))


#: Default (varphi, phi) lattice at fixed rho.
def default_semi_grid(extra_points: tuple = ()) -> GridSpec:
    return GridSpec(
        axes=(
            AxisSpec("varphi", 0.0, 10.0, 50),
            AxisSpec("phi", 0.0, 20.0, 50),
        ),
        extra_points=tuple(extra_points),
    )


@dataclass
class ConfidenceGrid:
    """Evaluated lattice: the inverted-test confidence set at `level`."""

    spec: GridSpec
    level: float
    points: np.ndarray
    stats: np.ndarray
    dfs: np.ndarray
    crits: np.ndarray
    accepts: np.ndarray
    errors: np.ndarray
    variant: str = "S"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.points.shape[0]
        for name in ("stats", "dfs", "crits", "accepts", "errors"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValueError(f"{name} has length {arr.shape[0]}, expected {n}")


def confidence_grid(
    spec: GridSpec,
    level: float,
    points: np.ndarray,
    cols: Columns,
    metadata: Optional[dict] = None,
) -> ConfidenceGrid:
    """The confidence set from the outcome columns of its lattice's points.

    The set takes the columns' `variant` as its label. An error row is
    recorded as rejected with its error flag set (NaN statistic and critical
    value, df 0); more than 50% failing points aborts the run, naming the
    first 10 failures in lattice order.
    """
    n = points.shape[0]
    failed = sorted(cols.errors)
    if len(failed) > 0.5 * n:
        raise RuntimeError(
            f"evaluator failed on {len(failed)}/{n} lattice points; first failures: "
            + "; ".join(f"point {points[i].tolist()}: {cols.errors[i]}" for i in failed[:10])
        )
    errors = np.zeros(n, dtype=int)
    errors[failed] = 1
    blank = errors.astype(bool)
    stats, crits = np.where(blank, np.nan, cols.stat), np.where(blank, np.nan, cols.crit)
    return ConfidenceGrid(
        spec=spec,
        level=level,
        points=points,
        stats=stats,
        dfs=np.where(blank, 0, cols.df),
        crits=crits,
        accepts=(stats <= crits).astype(int),
        errors=errors,
        variant=cols.variant,
        metadata=dict(metadata or {}),
    )


def collect_results(
    spec: GridSpec,
    level: float,
    points: np.ndarray,
    outcomes: Sequence,
    metadata: Optional[dict] = None,
) -> ConfidenceGrid:
    """The confidence set from one TestResult, or the exception raised, per point,
    by `confidence_grid` on the outcomes' columns. Results of more than one
    test are a ValueError, once the set has passed its 50% abort."""
    n = points.shape[0]
    if len(outcomes) != n:
        raise ValueError(f"{len(outcomes)} outcomes for {n} lattice points")
    stat, crit, df = np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=int)
    errors, variants = {}, set()
    for i, r in enumerate(outcomes):
        if isinstance(r, Exception):
            errors[i] = r
            continue
        variants.add(r.variant)
        stat[i], df[i], crit[i] = r.statistic, r.df, r.critical_value
    variants = sorted(variants) or ["S"]
    cols = Columns(variants[0], stat, df, crit, level, None, errors, None, np.zeros(n, bool))
    grid = confidence_grid(spec, level, points, cols, metadata)
    if len(variants) > 1:
        raise ValueError(f"results of more than one test: {', '.join(variants)}")
    return grid


def invert_lattice(
    sys: MomentSystem,
    model: ModelKind | str,
    spec: GridSpec,
    statistic: str = "S",
    level: float = 0.90,
    cfg: HACConfig = HACConfig(),
    fixed: Optional[dict] = None,
    split: SplitSpec = SplitSpec(),
    metadata: Optional[dict] = None,
) -> ConfidenceGrid:
    """Invert the test named `statistic` over the lattice of `spec` in one batch.

    The lattice's points are points of `model`, the system's (SEMI's rho
    goes in `fixed`), evaluated by `inference.lattice_columns`: the set
    `invert_test` gives with that test's per-point function.
    """
    points = make_grid(spec)
    cols = lattice_columns(statistic, model, points, sys, fixed, cfg, level, split)
    return confidence_grid(spec, level, points, cols, metadata)


def invert_test(
    evaluator: Callable[[np.ndarray], TestResult],
    spec: GridSpec,
    level: float,
    metadata: Optional[dict] = None,
) -> ConfidenceGrid:
    """Evaluate the test at every lattice point and collect acceptance flags.

    A point where the evaluator raises is recorded as by `collect_results`.
    """
    points = make_grid(spec)
    outcomes = []
    for point in points:
        try:
            outcomes.append(evaluator(point))
        except Exception as exc:  # recorded, not fatal (unless >50% fail)
            outcomes.append(exc)
    return collect_results(spec, level, points, outcomes, metadata)


def set_summary(g: ConfidenceGrid) -> dict:
    """Accepted fraction, per-axis projection bounds, and marginal profiles."""
    accepted = g.accepts.astype(bool)
    n = g.points.shape[0]
    summary: dict = {
        "level": g.level,
        "variant": g.variant,
        "total_points": int(n),
        "accepted_points": int(accepted.sum()),
        "accepted_fraction": float(accepted.mean()),
        "error_points": int(g.errors.sum()),
        "projections": {},
        "marginals": {},
    }
    for j, name in enumerate(g.spec.names):
        coords = g.points[:, j]
        if accepted.any():
            summary["projections"][name] = [
                float(coords[accepted].min()),
                float(coords[accepted].max()),
            ]
        else:
            summary["projections"][name] = None
        # distinct values as np.unique gives them, without its lazy numpy.ma import
        ordered = np.sort(coords)
        profile = []
        for v in ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]:
            mask = coords == v
            profile.append([float(v), float(accepted[mask].mean())])
        summary["marginals"][name] = profile
    return summary


def _fmt(column: np.ndarray) -> list[str]:
    """A float column's cells: 6 significant digits, `nan` for any non-finite value."""
    return [f"{x:.6g}" if math.isfinite(x) else "nan" for x in column.tolist()]


def _ints(column: np.ndarray) -> list[str]:
    return [str(int(x)) for x in column.tolist()]


def export_grid(g: ConfidenceGrid, path: str | os.PathLike) -> tuple[str, str]:
    """Write `<path>.csv` (one row per lattice point, 6 significant digits)
    and `<path>.json` (metadata sidecar); returns both file paths."""
    base = os.fspath(path)
    if base.endswith(".csv"):
        base = base[:-4]
    csv_path, json_path = base + ".csv", base + ".json"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(g.spec.names + ["stat", "df", "crit", "accept", "error"])
        columns = [_fmt(g.points[:, j]) for j in range(g.points.shape[1])]
        columns += [_fmt(g.stats), _ints(g.dfs), _fmt(g.crits), _ints(g.accepts), _ints(g.errors)]
        writer.writerows(zip(*columns))
    sidecar = {
        "level": g.level,
        "variant": g.variant,
        "axes": [
            {
                "name": a.name,
                "lower": a.lower,
                "upper": a.upper,
                "points": a.points,
                "include_lower": a.include_lower,
                "include_upper": a.include_upper,
            }
            for a in g.spec.axes
        ],
        "extra_points": [list(p) for p in g.spec.extra_points],
        "metadata": g.metadata,
        "summary": set_summary(g),
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def read_grid_csv(path: str | os.PathLike) -> dict:
    """Read an exported grid CSV back into column arrays keyed by header name. A
    file the panel reader cannot read, a ragged row or a non-numeric cell is a
    ValueError naming the file (and the row; row 1 follows the header)."""
    path = os.fspath(path)
    rows = _csv_rows(path)
    if not rows or not rows[0]:
        raise ValueError(f"{path}: empty file, no grid CSV header")
    values = []
    for row_no, row in _data_rows(path, rows):
        for cell in row:
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: row {row_no}: non-numeric value {cell!r}") from None
    return dict(zip(rows[0], np.reshape(values, (-1, len(rows[0]))).T))
