"""Checks of each workload's outputs, and their self-tests.

A check takes one round's outputs and the reference values that `reference`
computed with the independent oracle, and returns one message per failure.
The outputs of every round of a run must also equal those of its first round.

Every failure makes the run incorrect, except the failures of
`semi_oracle_fixed`: those are operations that fail every time on inputs that
do not depend on the seed, because of a fault in the program (see README), and
the runner counts them as failed operations instead.

`self_test` feeds every check a copy of real outputs with one defect put in
(a flipped accept flag, a statistic off by 1e-4 relative, a rejection rate
outside its band, ...) and expects the check to report it.
"""

from __future__ import annotations

import copy
import math

import numpy as np

import oracle
import workloads

LEVEL = workloads.LEVEL
#: Relative tolerance of a statistic kept at full precision against the oracle.
RTOL = 1e-6


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _six_digits_tol(x: float) -> float:
    """Half a unit in the sixth significant digit of x, plus room for 1e-8 relative."""
    if x == 0.0:
        return 1e-300
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 5) + 1e-8 * abs(x)


def read_grid_csv(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    cols = {name: data[:, j] for j, name in enumerate(header)}
    cols["csv_text"] = text
    return cols


# --- iac_s_cli ---------------------------------------------------------------

IAC_SAMPLE = 16


def _iac_point(out: dict, i: int) -> tuple[float, float, float]:
    return float(out["rho"][i]), float(out["kappa"][i]), float(out["zeta"][i])


def iac_reference(out: dict, seed: int) -> dict:
    n = out["stat"].size
    idx = np.sort(_rng(seed, "iac_s_cli").choice(n, IAC_SAMPLE, replace=False))
    Y, Z = out["Y"], out["Z"]
    return {
        "labels_ok": tuple(out["y_labels"]) == oracle.IAC_REGRESSORS,
        "df": Z.shape[1] - 1,
        "crit": oracle.chi2_critical(Z.shape[1] - 1, LEVEL),
        "idx": idx,
        "S": np.array([oracle.s_statistic(Y @ oracle.iac_b(*_iac_point(out, i)), Z)[0]
                       for i in idx]),
    }


def iac_no_errors(out, ref):
    bad = np.flatnonzero((out["error"] != 0) | ~np.isfinite(out["stat"]))
    return [f"row {i}: evaluation error" for i in bad]


def iac_flags(out, ref):
    fails = []
    if not ref["labels_ok"]:
        fails.append("regressor order differs from the IAC equation's")
    crit = ref["crit"]
    if np.any(np.abs(out["crit"] - crit) > _six_digits_tol(crit)):
        fails.append(f"crit column differs from chdtri({ref['df']}, {1 - LEVEL:.2f}) = {crit}")
    if np.any(out["df"] != ref["df"]):
        fails.append(f"df column differs from {ref['df']}")
    # A stat within the CSV's rounding of crit could be on either side of it.
    clear = np.abs(out["stat"] - crit) > _six_digits_tol(crit)
    bad = np.flatnonzero(clear & ((out["accept"] == 1) != (out["stat"] <= crit)))
    return fails + [f"row {i}: accept {out['accept'][i]:.0f} but stat {out['stat'][i]}" for i in bad]


def iac_oracle(out, ref):
    fails = []
    for i, s in zip(ref["idx"], ref["S"]):
        stat = out["stat"][i]
        if abs(stat - s) > _six_digits_tol(s):
            fails.append(f"row {i} {_iac_point(out, i)}: S {stat} vs oracle {s}")
        if (out["accept"][i] == 1) != (s <= ref["crit"]):
            fails.append(f"row {i}: accept {out['accept'][i]:.0f} vs oracle S {s}")
    return fails


def iac_literature(out, ref):
    n_rho = workloads.IAC_POINTS[0]
    extra = out["accept"][-len(workloads.LITERATURE) * n_rho:]
    per_point = extra.reshape(len(workloads.LITERATURE), n_rho)
    return [f"{name} rejected at every rho"
            for name, row in zip(workloads.LITERATURE, per_point) if not row.any()]


def _mutate(out, key, i, fn):
    new = copy.deepcopy(out)
    new[key][i] = fn(new[key][i])
    return new


# --- semi_qll_contrast -------------------------------------------------------

SEMI_FIXED = 8
SEMI_SAMPLE = 4


def semi_fixed_indices() -> np.ndarray:
    """Oracle points of the qLL-S comparison; they do not depend on the seed."""
    n = workloads.SEMI_POINTS ** 2
    return np.round(np.linspace(0, n - 1, SEMI_FIXED)).astype(int)


def semi_reference(out: dict, seed: int) -> dict:
    Y, Z = out["Y"], out["Z"]
    k = Z.shape[1]
    ref = {"labels_ok": tuple(out["y_labels"]) == oracle.IAC_REGRESSORS,
           "crit": oracle.qll_critical(k, LEVEL), "df": k - 1}
    n = workloads.SEMI_POINTS ** 2
    rng = _rng(seed, "semi_qll_contrast")
    for rho in workloads.SEMI_RHOS:
        pts = out[f"points_{rho}"]
        fixed = semi_fixed_indices()
        ref[f"fixed_{rho}"] = fixed
        ref[f"qll_{rho}"] = np.array([
            oracle.qll_statistic(Y @ oracle.semi_b(rho, *pts[i]), Z)[0] for i in fixed
        ])
        sample = np.sort(rng.choice(n, SEMI_SAMPLE, replace=False))
        ref[f"sample_{rho}"] = sample
        ref[f"S_{rho}"] = np.array([
            oracle.s_statistic(Y @ oracle.semi_b(rho, *pts[i]), Z)[0] for i in sample
        ])
    return ref


def semi_no_errors(out, ref):
    fails = []
    for rho in workloads.SEMI_RHOS:
        bad = np.flatnonzero((out[f"errors_{rho}"] != 0) | ~np.isfinite(out[f"stats_{rho}"]))
        fails += [f"rho {rho} point {i}: evaluation error" for i in bad]
    return fails


def semi_flags(out, ref):
    fails = [] if ref["labels_ok"] else ["regressor order differs from the SEMI equation's"]
    crit = ref["crit"]
    for rho in workloads.SEMI_RHOS:
        stats, accepts = out[f"stats_{rho}"], out[f"accepts_{rho}"]
        if np.any(np.abs(out[f"crits_{rho}"] - crit) > 1e-12 * crit):
            fails.append(f"rho {rho}: critical value differs from the Bonferroni value {crit}")
        if np.any(out[f"dfs_{rho}"] != ref["df"]):
            fails.append(f"rho {rho}: df differs from {ref['df']}")
        bad = np.flatnonzero((accepts == 1) != (stats <= crit))
        fails += [f"rho {rho} point {i}: accept {accepts[i]} but stat {stats[i]}" for i in bad]
    return fails


def semi_oracle_fixed(out, ref):
    fails = []
    for rho in workloads.SEMI_RHOS:
        for i, q in zip(ref[f"fixed_{rho}"], ref[f"qll_{rho}"]):
            stat = out[f"stats_{rho}"][i]
            if abs(stat - q) > RTOL * abs(q):
                fails.append(f"rho {rho} point {i}: qLL-S {stat} vs oracle {q} "
                             f"(rel {(stat - q) / q:.2e})")
    return fails


def semi_lower_bound(out, ref):
    fails = []
    for rho in workloads.SEMI_RHOS:
        for i, s in zip(ref[f"sample_{rho}"], ref[f"S_{rho}"]):
            stat = out[f"stats_{rho}"][i]
            if stat < (10.0 / 11.0) * s * (1.0 - 1e-9):
                fails.append(f"rho {rho} point {i}: qLL-S {stat} < (10/11) S = {10 / 11 * s}")
    return fails


def semi_contrast(out, ref):
    fails = []
    rho0, rho9 = workloads.SEMI_RHOS
    pts, acc = out[f"points_{rho0}"], out[f"accepts_{rho0}"] == 1
    if not acc.any():
        fails.append(f"rho {rho0}: empty set")
    elif np.any(pts[acc] >= pts.max(axis=0)):
        fails.append(f"rho {rho0}: set reaches the lattice's upper edge")
    share0, share9 = acc.mean(), (out[f"accepts_{rho9}"] == 1).mean()
    if not share0 < share9:
        fails.append(f"accepted share {share0:.3f} at rho {rho0} is not below {share9:.3f} "
                     f"at rho {rho9}")
    return fails


# --- mc_size -----------------------------------------------------------------

MC_SAMPLE = 3
COV_STAR = -25.0 / 378.0
PLIM = 0.75


def _mc_crits(k_ma: int) -> dict:
    return {"S": oracle.chi2_critical(k_ma - 1, LEVEL), "qLL": oracle.qll_critical(k_ma, LEVEL),
            "split": oracle.chi2_critical(1, LEVEL)}


def mc_reference(out: dict, seed: int) -> dict:
    rng = _rng(seed, "mc_size")
    s_idx = np.sort(rng.choice(workloads.S_REPS, MC_SAMPLE, replace=False))
    split_idx = np.sort(rng.choice(workloads.SPLIT_REPS, MC_SAMPLE, replace=False))
    S = []
    for i in s_idx:
        Y, Z = workloads.ma2_null(workloads.STREAM_S, int(i))
        S.append(oracle.s_statistic(Y[:, 0], Z, workloads.MA_BANDWIDTH)[0])
    split = []
    for i in split_idx:
        Y, Z = workloads.weak_iv(int(i))
        split.append(oracle.split_statistic(Y, Z, np.array([1.0, -1.0]), np.array([[0.0], [-1.0]])))
    return {"crits": _mc_crits(workloads.MA_INSTRUMENTS + 1), "S_idx": s_idx, "S": np.array(S),
            "split_idx": split_idx, "split": np.array(split)}


def mc_no_errors(out, ref):
    fails = []
    for name in ("S", "qLL", "split"):
        bad = np.flatnonzero((out[f"accepts_{name}"] < 0) | ~np.isfinite(out[f"stats_{name}"]))
        fails += [f"{name} replication {i}: evaluation error" for i in bad]
    return fails


def mc_flags(out, ref):
    fails = []
    for name, crit in ref["crits"].items():
        stats, accepts = out[f"stats_{name}"], out[f"accepts_{name}"]
        if np.any(np.abs(out[f"crits_{name}"] - crit) > 1e-9 * crit):
            fails.append(f"{name}: critical value differs from the oracle's {crit}")
        bad = np.flatnonzero((accepts == 1) != (stats <= crit))
        fails += [f"{name} replication {i}: accept {accepts[i]} but stat {stats[i]}" for i in bad]
    return fails


def mc_oracle(out, ref):
    fails = []
    for name in ("S", "split"):
        for i, s in zip(ref[f"{name}_idx"], ref[name]):
            stat = out[f"stats_{name}"][i]
            if abs(stat - s) > RTOL * abs(s):
                fails.append(f"{name} replication {i}: {stat} vs oracle {s}")
    return fails


def rejection_rates(out) -> dict:
    return {name: float(np.mean(out[f"accepts_{name}"] == 0)) for name in ("S", "qLL", "split")}


def mc_rates(out, ref):
    fails = []
    a = 1.0 - LEVEL
    for name, rate in rejection_rates(out).items():
        n = out[f"accepts_{name}"].size
        se = math.sqrt(a * (1.0 - a) / n)
        if name == "S" and abs(rate - a) > 3.0 * se:
            fails.append(f"S rejection rate {rate:.4f} not within 3 SE ({se:.4f}) of {a:.2f}")
        if name != "S" and rate > a + 3.0 * se:
            fails.append(f"{name} rejection rate {rate:.4f} above {a:.2f} + 3 SE ({se:.4f})")
    return fails


def mc_lab(out, ref):
    lab = out["lab"]
    fails = []
    cov, cov_se = lab["monte_carlo_cov"]["estimate"], lab["monte_carlo_cov"]["std_error"]
    demo = lab["bias_demo"]
    if not math.isclose(lab["pseudo_true"]["cov_zstar_err"], COV_STAR, rel_tol=1e-9):
        fails.append(f"closed-form cov {lab['pseudo_true']['cov_zstar_err']} != -25/378")
    if not math.isclose(demo["theoretical_plim"], PLIM, rel_tol=1e-9):
        fails.append(f"closed-form plim {demo['theoretical_plim']} != 0.75")
    if abs(cov - COV_STAR) > 3.0 * cov_se:
        fails.append(f"Monte Carlo cov {cov} not within 3 SE ({cov_se}) of -25/378")
    slope, slope_se = demo["zeta_hat_misspecified"], demo["zeta_hat_misspecified_se"]
    if abs(slope - PLIM) > 3.0 * slope_se:
        fails.append(f"misspecified slope {slope} not within 3 SE ({slope_se}) of 0.75")
    return fails


# --- every workload ----------------------------------------------------------


def same_as_first(out, first) -> list[str]:
    fails = []
    for key, value in first.items():
        other = out.get(key)
        if isinstance(value, np.ndarray):
            same = isinstance(other, np.ndarray) and np.array_equal(value, other)
        else:
            same = other == value
        if not same:
            fails.append(f"{key} differs from the first round's")
    return fails


def _flip(x):
    return 1 - x


def _off(x):
    return x * (1.0 + 1e-4)


def _mc_rate_out_of_band(out, ref):
    new = copy.deepcopy(out)
    acc = new["accepts_S"]
    se = math.sqrt(0.09 / acc.size)
    target = int(math.ceil((0.10 + 4.0 * se) * acc.size))
    accepted = np.flatnonzero(acc == 1)
    acc[accepted[: max(0, target - int(np.sum(acc == 0)))]] = 0
    return new


def _mc_lab_off(out, ref):
    new = copy.deepcopy(out)
    mc = new["lab"]["monte_carlo_cov"]
    mc["estimate"] = COV_STAR + 4.0 * mc["std_error"]
    return new


def _semi_accept_all(out, ref):
    new = copy.deepcopy(out)
    new[f"accepts_{workloads.SEMI_RHOS[0]}"][:] = 1
    return new


def _semi_below_bound(out, ref):
    rho = workloads.SEMI_RHOS[0]
    i = int(ref[f"sample_{rho}"][0])
    return _mutate(out, f"stats_{rho}", i, lambda x: 0.5 * (10.0 / 11.0) * ref[f"S_{rho}"][0])


def _iac_reject_literature(out, ref):
    new = copy.deepcopy(out)
    n_rho = workloads.IAC_POINTS[0]
    start = new["accept"].size - len(workloads.LITERATURE) * n_rho
    new["accept"][start:start + n_rho] = 0
    return new


#: workload -> [(check, defect put into a copy of real outputs)]
CHECKS = {
    "iac_s_cli": [
        (iac_no_errors, lambda o, r: _mutate(o, "error", 0, _flip)),
        (iac_flags, lambda o, r: _mutate(o, "accept", 0, _flip)),
        (iac_oracle, lambda o, r: _mutate(o, "stat", int(r["idx"][0]), _off)),
        (iac_literature, _iac_reject_literature),
    ],
    "semi_qll_contrast": [
        (semi_no_errors, lambda o, r: _mutate(o, "errors_0.9", 0, _flip)),
        (semi_flags, lambda o, r: _mutate(o, "accepts_0.9", 0, _flip)),
        (semi_oracle_fixed, lambda o, r: _mutate(
            o, "stats_0.9", int(r["fixed_0.9"][0]), lambda x: r["qll_0.9"][0] * (1 + 1e-4))),
        (semi_lower_bound, _semi_below_bound),
        (semi_contrast, _semi_accept_all),
    ],
    "mc_size": [
        (mc_no_errors, lambda o, r: _mutate(o, "stats_split", 0, lambda x: np.nan)),
        (mc_flags, lambda o, r: _mutate(o, "accepts_qLL", 0, _flip)),
        (mc_oracle, lambda o, r: _mutate(o, "stats_S", int(r["S_idx"][0]), _off)),
        (mc_rates, _mc_rate_out_of_band),
        (mc_lab, _mc_lab_off),
    ],
}

#: Checks whose failures are counted as failed operations, not as incorrect output.
COUNTED_AS_FAILED = {semi_oracle_fixed}

REFERENCES = {
    "iac_s_cli": iac_reference,
    "semi_qll_contrast": semi_reference,
    "mc_size": mc_reference,
}


def self_test(workload: str, out: dict, ref: dict) -> list[str]:
    """Feed every check its defect; return the checks that did not report it."""
    missed = []
    for check, defect in CHECKS[workload]:
        if not check(defect(out, ref), ref):
            missed.append(f"{check.__name__} missed its defect")
    first = {k: v for k, v in out.items() if isinstance(v, np.ndarray)}
    if not same_as_first(_mutate(out, next(iter(first)), 0, lambda x: x + 1), first):
        missed.append("same_as_first missed its defect")
    return missed
