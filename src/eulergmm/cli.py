"""Command-line front end.

Subcommands: `transform` (raw series -> panel.csv), `estimate` (single test at
a hypothesized point), `grid` (test inversion over a lattice), `misspec` (the
misspecification laboratory), and `report` (human-readable grid summary).
Exit codes reflect operational health only; statistical rejection is not an
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, grids, inference, snapshot
from .config import ConfigError, RunConfig, parse_config
from .design import MODELS, InstrumentSpec, build_design
from .hac import HACConfig
from .inference import SplitSpec
from .models import ModelKind, constants_from_calibration
from .pipeline import (
    Dataset,
    PipelineError,
    TransformSpec,
    load_series_dir,
    read_panel_csv,
    transform_raw,
    write_panel_csv,
)


def _transform_spec(cfg: RunConfig) -> TransformSpec:
    sample = None
    if cfg.sample_start is not None or cfg.sample_end is not None:
        sample = (cfg.sample_start, cfg.sample_end)
    return TransformSpec(
        investment_measure=cfg.investment_measure,
        rate_scale=cfg.rate_scale,
        sample=sample,
    )


def _dataset(cfg: RunConfig) -> Dataset:
    if cfg.panel:
        return read_panel_csv(cfg.panel)
    if cfg.snapshot:
        return snapshot.transform_snapshot(_transform_spec(cfg), external=cfg.external)
    if cfg.series_dir:
        return transform_raw(load_series_dir(cfg.series_dir), _transform_spec(cfg), cfg.external)
    raise PipelineError(
        "no data source configured: set [data] panel, series_dir, or snapshot=true"
    )


def _build_system(cfg: RunConfig, data: Dataset):
    constants = constants_from_calibration(cfg.beta, cfg.delta)
    instruments = InstrumentSpec(lags=cfg.lags(), external=cfg.external)
    return build_design(data, cfg.model, instruments, constants)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_transform(cfg: RunConfig, out_dir: str) -> int:
    data = _dataset(cfg)
    os.makedirs(out_dir, exist_ok=True)
    panel = os.path.join(out_dir, "panel.csv")
    write_panel_csv(data, panel)
    _write_json(os.path.join(out_dir, "effective_config.json"), cfg.effective())
    print(f"wrote {panel} ({len(data)} quarters, {data.start}..{data.end})")
    return 0


def cmd_estimate(cfg: RunConfig, out_dir: str) -> int:
    if cfg.theta0 is None:
        raise ConfigError("estimate requires [inference] theta0")
    data = _dataset(cfg)
    sys_ = _build_system(cfg, data)
    theta0, free = tuple(float(x) for x in cfg.theta0), MODELS[cfg.model].free
    if len(theta0) != len(free):
        raise ValueError(f"{cfg.model.value} needs theta0 = {','.join(free)}; got {theta0}")
    [result] = inference.lattice_columns(
        cfg.statistic, cfg.model, np.array([theta0]), sys_, **_inference_args(cfg)).results()
    if isinstance(result, Exception):
        raise result
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "test_result.json")
    _write_json(path, {"config": cfg.effective(), "result": result.to_dict()})
    verdict = "accepted" if result.accept else "rejected"
    print(
        f"{result.variant} at theta0={list(cfg.theta0)}: statistic {result.statistic:.4f} "
        f"vs critical {result.critical_value:.4f} (df={result.df}) -> {verdict}"
    )
    return 0


_DEFAULT_GRIDS = {
    ModelKind.IAC: grids.default_structural_grid,
    ModelKind.SEMI: grids.default_semi_grid,
    ModelKind.CAC: grids.default_cac_grid,
}


def _grid_spec(cfg: RunConfig) -> grids.GridSpec:
    spec = _DEFAULT_GRIDS[cfg.model](cfg.extra_points)
    if not cfg.grid_points:
        return spec
    if len(cfg.grid_points) != len(spec.axes):
        raise ConfigError(
            f"{cfg.model.value} grid needs {len(spec.axes)} point counts "
            f"({', '.join(spec.names)})"
        )
    axes = tuple(dataclasses.replace(a, points=n) for a, n in zip(spec.axes, cfg.grid_points))
    return grids.GridSpec(axes=axes, extra_points=spec.extra_points)


def _inference_args(cfg: RunConfig) -> dict:
    """The model's fixed parameters, HAC, level and split layout of a run."""
    return {
        "fixed": {name: getattr(cfg, name) for name in MODELS[cfg.model].fixed},
        "cfg": HACConfig(bandwidth=cfg.bandwidth),
        "level": cfg.level,
        "split": SplitSpec(cfg.split_fraction, cfg.split_gap),
    }


def cmd_grid(cfg: RunConfig, out_dir: str) -> int:
    data = _dataset(cfg)
    sys_ = _build_system(cfg, data)
    spec = _grid_spec(cfg)
    metadata = {
        "config": cfg.effective(),
        "sample": [str(data.start), str(data.end)],
        "bandwidth": HACConfig(bandwidth=cfg.bandwidth).resolve_bandwidth(sys_.T),
    }
    result = grids.invert_lattice(sys_, cfg.model, spec, cfg.statistic, metadata=metadata,
                                  **_inference_args(cfg))
    os.makedirs(out_dir, exist_ok=True)
    csv_path, json_path = grids.export_grid(result, os.path.join(out_dir, "grid"))
    accepted, total = int(result.accepts.sum()), len(result.accepts)
    print(
        f"wrote {csv_path} and {json_path}: accepted {accepted}/{total} "
        f"({accepted / total:.1%}) at level {cfg.level}"
    )
    return 0


def cmd_misspec(args: argparse.Namespace) -> int:
    from . import misspec  # only this command needs it; `eulergmm grid` starts without it

    cfg = misspec.MisspecConfig(
        gamma=args.gamma,
        zeta_true=args.zeta,
        T=args.T,
        reps=args.reps,
        seed=args.seed,
    )
    report = misspec.lab_report(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "misspec_report.json")
    _write_json(path, report)
    demo, mc = report["bias_demo"], report["monte_carlo_cov"]
    print(
        f"wrote {path}: theta*={report['pseudo_true']['theta_star']:.4f}, "
        f"misspecified slope {demo['zeta_hat_misspecified']:.4f} vs "
        f"correct {demo['zeta_hat_correct']:.4f} "
        f"(closed-form plim {demo['theoretical_plim']:.4f}, z {demo['z_score']:+.2f}); "
        f"cov(z*, z-z*) {mc['estimate']:+.6f} vs closed form "
        f"{report['pseudo_true']['cov_zstar_err']:+.6f} (z {mc['z_score']:+.2f})"
    )
    return 0


def _report_lines(sidecar: dict) -> list[str]:
    s = sidecar["summary"]
    lines = [
        f"confidence set at level {s['level']} (variant {s['variant']})",
        f"  accepted {s['accepted_points']}/{s['total_points']} points "
        f"({s['accepted_fraction']:.1%}), {s['error_points']} evaluation errors",
    ]
    for name, bounds in s["projections"].items():
        if bounds is None:
            lines.append(f"  {name}: empty projection")
        else:
            lines.append(f"  {name}: [{bounds[0]:.6g}, {bounds[1]:.6g}]")
    meta = sidecar.get("metadata", {})
    if "config" in meta:
        lines.append("  settings: " + json.dumps(meta["config"], sort_keys=True))
    return lines


def cmd_report(grid_json: str) -> int:
    if not os.path.exists(grid_json):
        raise PipelineError(f"no such grid sidecar: {grid_json}")
    try:
        with open(grid_json, encoding="utf-8") as fh:
            lines = _report_lines(json.load(fh))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        kind = type(exc).__name__
        raise PipelineError(f"{grid_json}: not a grid sidecar: {kind} {exc}") from None
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulergmm",
        description="Weak-identification-robust GMM inference for investment Euler equations",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (
        ("transform", "build panel.csv from raw series"),
        ("estimate", "evaluate a single test at theta0"),
        ("grid", "invert the test over a parameter lattice"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        if name == "grid":
            # perfbench/workloads.py reads this default as a machine fact; no
            # flag sets it, and it goes once that read does
            p.set_defaults(threads=1)

    p = sub.add_parser("misspec", help="run the misspecification laboratory")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--T", type=int, default=100_000)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")

    p = sub.add_parser("report", help="summarize an exported grid")
    p.add_argument("--grid", required=True, help="path to the grid JSON sidecar")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "misspec":
            return cmd_misspec(args)
        if args.command == "report":
            return cmd_report(args.grid)
        cfg = parse_config(args.config)
        out_dir = args.out or cfg.out_dir
        if args.command == "transform":
            return cmd_transform(cfg, out_dir)
        if args.command == "estimate":
            return cmd_estimate(cfg, out_dir)
        if args.command == "grid":
            return cmd_grid(cfg, out_dir)
        raise ValueError(f"unknown command {args.command!r}")
    except (ConfigError, PipelineError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
