"""The benchmark's workloads: their inputs and the job one round runs.

Input functions use numpy only and run before a round's clock starts. Job
functions run in a fresh worker process after `import eulergmm.cli`; each
returns the round's phase times, its evaluation and error counts, and the
outputs the checks read.
"""

from __future__ import annotations

import os
import time

import numpy as np

LEVEL = 0.90

# --- iac_s_cli ---------------------------------------------------------------

#: Coarsened copy of the default (rho, kappa, zeta) lattice: same box, fewer points.
IAC_POINTS = (8, 8, 8)

#: The published (kappa, zeta) calibrations of `eulergmm.models.LITERATURE_POINTS`.
LITERATURE = {
    "CEE": (2.48, 0.01), "ACEL": (1.50, 11.42), "JPT": (2.85, 5.30), "CTW": (14.30, 0.30),
    "CMR": (10.78, 2.48), "SW": (5.26, 1.74), "AABC": (3.77, 0.92), "IKR": (2.06, 5.63),
}


def iac_rhos() -> np.ndarray:
    """The rho axis of the coarsened lattice: [0, 1) with the upper end excluded."""
    n = IAC_POINTS[0]
    return 0.0 + (1.0 / n) * np.arange(n)


def iac_config_text() -> str:
    extras = "; ".join(
        f"{float(rho)!r},{kappa!r},{zeta!r}"
        for kappa, zeta in LITERATURE.values() for rho in iac_rhos()
    )
    return (
        "[data]\nsnapshot = true\ninvestment_measure = SW\n\n"
        "[model]\nkind = IAC\n\n"
        "[instruments]\nlags = delta_i:1, r_p:2, u:1\n\n"
        f"[inference]\nstatistic = S\nlevel = {LEVEL}\n\n"
        f"[grid]\npoints = {', '.join(map(str, IAC_POINTS))}\nextra_points = {extras}\n"
    )


def run_iac_s_cli(inputs: dict, tracer) -> dict:
    from eulergmm import cli, config, design, models, pipeline, snapshot

    out_dir = os.path.join(inputs["round_dir"], "out")
    t_prep = None
    if tracer is None:
        # The steps cli.main takes before its first evaluation, timed alone
        # for setup_s; cli.main below repeats them.
        t = time.perf_counter()
        cfg = config.parse_config(inputs["config"])
        data = snapshot.transform_snapshot(
            pipeline.TransformSpec(cfg.investment_measure, cfg.rate_scale), external=cfg.external
        )
        system = design.build_design(
            data, cfg.model, design.InstrumentSpec(cfg.instrument_lags, cfg.external),
            models.constants_from_calibration(cfg.beta, cfg.delta),
        )
        t_prep = time.perf_counter() - t
    t = time.perf_counter()
    rc = cli.main(["grid", "--config", inputs["config"], "--out", out_dir])
    t_main = time.perf_counter() - t
    if rc != 0:
        raise RuntimeError(f"eulergmm grid exited with {rc}")
    if tracer is not None:
        system = design.build_design(
            snapshot.transform_snapshot(pipeline.TransformSpec()), "IAC",
            design.BASELINE_INSTRUMENTS,
        )
    with open(os.path.join(out_dir, "grid.csv"), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    # cli.main's own set-up is counted once, in the evaluation-and-export phase.
    prep = t_prep or 0.0
    return {
        "prep_s": prep,
        "eval_s": t_main - prep,
        "evals": len(rows),
        "errors": sum(int(r[-1]) for r in rows),
        "export_bytes": sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in ("grid.csv", "grid.json")
        ),
        "arrays": {"Y": system.Y, "Z": system.Z, "y_labels": np.array(system.y_labels)},
        "cli_threads": cli.build_parser().parse_args(["grid", "--config", "-"]).threads,
    }


# --- semi_qll_contrast -------------------------------------------------------

SEMI_RHOS = (0.0, 0.9)
#: Points per axis on the default (varphi, phi) box.
SEMI_POINTS = 20


def run_semi_qll_contrast(inputs: dict, tracer) -> dict:
    from eulergmm import design, grids, inference, models, pipeline, snapshot

    t = time.perf_counter()
    data = snapshot.transform_snapshot(pipeline.TransformSpec())
    system = design.build_design(data, "SEMI", design.BASELINE_INSTRUMENTS)
    t_prep = time.perf_counter() - t
    spec = grids.GridSpec(axes=tuple(
        grids.AxisSpec(a.name, a.lower, a.upper, SEMI_POINTS, a.include_lower, a.include_upper)
        for a in grids.default_semi_grid().axes
    ))
    t = time.perf_counter()
    sets = []
    for rho in SEMI_RHOS:
        def evaluator(point, rho=rho):
            return inference.qll_s_statistic(models.SemiStructuralParams(rho, *point), system)

        sets.append(grids.invert_test(evaluator, spec, LEVEL))
    t_eval = time.perf_counter() - t
    arrays = {"Y": system.Y, "Z": system.Z, "y_labels": np.array(system.y_labels)}
    for rho, g in zip(SEMI_RHOS, sets):
        for field in ("points", "stats", "dfs", "crits", "accepts", "errors"):
            arrays[f"{field}_{rho}"] = getattr(g, field)
    return {
        "prep_s": t_prep,
        "eval_s": t_eval,
        "evals": sum(g.points.shape[0] for g in sets),
        "errors": int(sum(g.errors.sum() for g in sets)),
        "arrays": arrays,
    }


# --- mc_size -----------------------------------------------------------------

MC_T = 200
S_REPS, QLL_REPS, SPLIT_REPS = 600, 400, 1000
#: MA(2) null: y = 0.7 + e_t + 0.3 e_{t-1} + 0.1 e_{t-2}, three iid instruments.
MA_COEFFS, D_TRUE, MA_INSTRUMENTS = (0.3, 0.1), 0.7, 3
#: Bartlett lags for the MA(2) null: the error's MA order.
MA_BANDWIDTH = 2
#: Many weak instruments: x = Z pi + v, y = x + u, corr(u, v) = 0.8.
WEAK_K, WEAK_PI = 12, 0.02
#: Streams of the three Monte Carlo designs (fixed; see README).
STREAM_S, STREAM_QLL, STREAM_SPLIT = 1, 2, 3
LAB = {"gamma": 0.4, "T": 100_000, "reps": 10}


def ma2_null(stream: int, rep: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([stream, rep])
    e = rng.normal(size=MC_T + 2)
    y = D_TRUE + e[2:] + MA_COEFFS[0] * e[1:-1] + MA_COEFFS[1] * e[:-2]
    Z = np.column_stack([np.ones(MC_T), rng.normal(size=(MC_T, MA_INSTRUMENTS))])
    return y[:, None], Z


def weak_iv(rep: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([STREAM_SPLIT, rep])
    Z = rng.normal(size=(MC_T, WEAK_K))
    v = rng.normal(size=MC_T)
    u = 0.8 * v + 0.6 * rng.normal(size=MC_T)
    x = Z @ np.full(WEAK_K, WEAK_PI) + v
    return np.column_stack([x + u, x]), np.column_stack([np.ones(MC_T), Z])


def mc_inputs() -> dict:
    return {
        "S": [ma2_null(STREAM_S, i) for i in range(S_REPS)],
        "qLL": [ma2_null(STREAM_QLL, i) for i in range(QLL_REPS)],
        "split": [weak_iv(i) for i in range(SPLIT_REPS)],
    }


def _unit_coeff(theta):
    return np.asarray(theta, dtype=float)


def _iv_coeff(theta):
    return np.array([1.0, -float(theta)])


def _iv_jacobian(theta):
    return np.array([[0.0], [-1.0]])


def run_mc_size(inputs: dict, tracer) -> dict:
    from eulergmm import design, hac, inference, misspec

    def system(Y, Z, coeff, jacobian):
        kwargs = dict(
            Y=Y, X=np.ones((Y.shape[0], 1)), Z=Z, coeff=coeff, jacobian=jacobian,
            y_labels=[f"y{j}" for j in range(Y.shape[1])],
            z_labels=["const"] + [f"z{j}" for j in range(1, Z.shape[1])],
        )
        if tracer is None:
            return design.MomentSystem(**kwargs)
        return tracer.call("design.MomentSystem", design.MomentSystem, **kwargs)

    ma_hac = hac.HACConfig(bandwidth=MA_BANDWIDTH)
    one = np.array([1.0])
    tests = {
        "S": lambda Y, Z: inference.s_statistic(
            one, system(Y, Z, _unit_coeff, None), ma_hac, LEVEL),
        "qLL": lambda Y, Z: inference.qll_s_statistic(
            one, system(Y, Z, _unit_coeff, None), ma_hac, LEVEL),
        "split": lambda Y, Z: inference.split_sample_s_statistic(
            1.0, system(Y, Z, _iv_coeff, _iv_jacobian), inference.SplitSpec(),
            hac.HACConfig(), LEVEL),
    }
    arrays, errors = {}, 0
    t = time.perf_counter()
    for name, test in tests.items():
        draws = inputs["mc"][name]
        stats, crits, accepts = np.full(len(draws), np.nan), np.full(len(draws), np.nan), []
        for i, (Y, Z) in enumerate(draws):
            try:
                r = test(Y, Z)
            except Exception:  # counted as a failed evaluation
                errors += 1
                accepts.append(-1)
                continue
            stats[i], crits[i] = r.statistic, r.critical_value
            accepts.append(int(r.accept))
        arrays.update({f"stats_{name}": stats, f"crits_{name}": crits,
                       f"accepts_{name}": np.array(accepts)})
    t_eval = time.perf_counter() - t
    t = time.perf_counter()
    report = misspec.lab_report(misspec.MisspecConfig(**LAB))
    t_lab = time.perf_counter() - t
    return {
        "prep_s": 0.0,
        "eval_s": t_eval,
        "lab_s": t_lab,
        "evals": sum(len(d) for d in inputs["mc"].values()),
        "errors": errors,
        "arrays": arrays,
        "lab": report,
    }


def prepare(workload: str, run_dir: str) -> dict:
    """Inputs of one round; built before the round's clock starts."""
    if workload == "iac_s_cli":
        return {"config": os.path.join(run_dir, "iac_s_cli.ini")}
    if workload == "mc_size":
        return {"mc": mc_inputs()}
    return {}


JOBS = {
    "iac_s_cli": run_iac_s_cli,
    "semi_qll_contrast": run_semi_qll_contrast,
    "mc_size": run_mc_size,
}
