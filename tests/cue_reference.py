"""Per-point reference for the CUE minimisation, kept as the oracle of the fast path.

`minimize_cue` is the library's earlier per-point path: the HAC is rebuilt from
the moment rows at every trial d, and d is found by scipy's bounded Brent
search over the two-step bracket d0 +- 10 se, with d0 and both bracket ends as
fallbacks. `dense_minimum` is an independent global search: a dense scan of a
wide d interval with the HAC rebuilt at every node, then a root search of the
analytic slope next to the best node. `qll_s` is the qLL-S statistic at the
dense minimum, from row slices of the system.

`build_kernel` is the library's earlier kernel build: a QR of its own per
kernel and one `hac_variance` per row sample. `qll_s_statistic` is the
library's qLL-S with every kernel from that build.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
from scipy import optimize

from eulergmm.design import MomentSystem, residuals_and_moments
from eulergmm.hac import HACConfig, hac_variance
from eulergmm.inference import (
    QLL_BREAK_FRACTIONS,
    CUEKernel,
    CUERows,
    TestResult,
    _solve_spd,
    qll_s_statistic as library_qll_s_statistic,
)


def direct_moments(sys: MomentSystem, b: np.ndarray, d: float, cfg: HACConfig):
    """(g, V): the moment sum and the HAC of the moment rows demeaned at d."""
    _, F = residuals_and_moments(sys, b, float(d))
    return F.sum(axis=0), hac_variance(F - F.mean(axis=0), cfg)


def cue_objective(sys: MomentSystem, b: np.ndarray, d: float, cfg: HACConfig) -> tuple[float, bool]:
    g, V = direct_moments(sys, b, d, cfg)
    x, flagged = _solve_spd(V, g, context=f"d={d!r}")
    return float(g @ x) / sys.T, flagged


def _seed_d(sys: MomentSystem, b: np.ndarray, cfg: HACConfig) -> tuple[float, float]:
    a = sys.Z.T @ (sys.Y @ b)
    c = sys.Z.T @ sys.X[:, 0]
    ZZ = sys.Z.T @ sys.Z / sys.T
    try:
        Wa = np.linalg.solve(ZZ, np.column_stack([a, c]))
    except np.linalg.LinAlgError:
        Wa = np.linalg.pinv(ZZ) @ np.column_stack([a, c])
    d1 = float(c @ Wa[:, 0]) / float(c @ Wa[:, 1])
    _, V = direct_moments(sys, b, d1, cfg)
    sol, _ = _solve_spd(V, np.column_stack([a, c]), context=f"two-step seed d={d1!r}")
    denom = float(c @ sol[:, 1])
    if denom <= 0:
        return d1, max(1.0, abs(d1))
    return float(c @ sol[:, 0]) / denom, float(np.sqrt(sys.T / denom))


def minimize_cue(sys: MomentSystem, b: np.ndarray, cfg: HACConfig) -> tuple[float, float, bool]:
    """Bounded Brent over d0 +- 10 se with the HAC rebuilt per trial d."""
    d0, se = _seed_d(sys, b, cfg)
    if not np.isfinite(d0):
        d0, se = 0.0, 1.0
    se = max(se, 1e-12)
    lo, hi = d0 - 10.0 * se, d0 + 10.0 * se
    flags = {"ridge": False}

    def obj(d: float) -> float:
        val, flagged = cue_objective(sys, b, d, cfg)
        flags["ridge"] |= flagged
        return val

    res = optimize.minimize_scalar(
        obj, bounds=(lo, hi), method="bounded",
        options={"xatol": max(1e-12, 1e-10 * se)},
    )
    best_d, best_v = float(res.x), float(res.fun)
    for d in (d0, lo, hi):
        v = obj(d)
        if v < best_v - 1e-10:
            best_d, best_v = float(d), v
    return best_v, best_d, flags["ridge"]


def cue_slope(sys: MomentSystem, b: np.ndarray, d: float, cfg: HACConfig) -> float:
    """d/dd of the objective, (2 g_d'x - x'V_d x)/T with x = V^-1 g."""
    g, V = direct_moments(sys, b, d, cfg)
    x = np.linalg.solve(V, g)
    Zc = sys.Z - sys.Z.mean(axis=0)
    _, F = residuals_and_moments(sys, b, float(d))
    W = F - F.mean(axis=0)
    B = cfg.resolve_bandwidth(sys.T)
    # V is bilinear in the demeaned rows, and dW/dd = -Zc (X is a constant)
    cross = Zc.T @ W / sys.T
    for j in range(1, B + 1):
        w = 1.0 - j / (B + 1.0)
        cross += w * (Zc[j:].T @ W[:-j] + Zc[:-j].T @ W[j:]) / sys.T
    V_d = -(cross + cross.T)
    g_d = -sys.Z.T @ sys.X[:, 0]
    return float(2.0 * g_d @ x - x @ V_d @ x) / sys.T


def dense_minimum(
    sys: MomentSystem, b: np.ndarray, cfg: HACConfig, center: float, half_width: float,
    points: int = 2001,
) -> tuple[float, float]:
    """(min over d, argmin) by a scan of center +- half_width and a slope-root polish."""
    grid = center + half_width * np.linspace(-1.0, 1.0, points)
    q = np.array([cue_objective(sys, b, d, cfg)[0] for d in grid])
    i = int(np.argmin(q))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
    if cue_slope(sys, b, lo, cfg) < 0.0 < cue_slope(sys, b, hi, cfg):
        d = optimize.brentq(lambda x: cue_slope(sys, b, x, cfg), lo, hi, xtol=1e-300, rtol=1e-15)
    else:
        d = grid[i]
    return cue_objective(sys, b, d, cfg)[0], float(d)


def qll_s(sys: MomentSystem, b: np.ndarray, cfg: HACConfig, d: float, s: float) -> float:
    """(10/11) S + the sup over breakpoints of the row-slice objectives at d."""
    T = sys.T
    best = 0.0
    for frac in QLL_BREAK_FRACTIONS:
        tau = int(round(frac * T))
        if tau <= sys.k_z or T - tau <= sys.k_z:
            continue
        parts = [
            MomentSystem(Y=sys.Y[rows], X=sys.X[rows], Z=sys.Z[rows], coeff=sys.coeff,
                         jacobian=None, y_labels=sys.y_labels, z_labels=sys.z_labels)
            for rows in (slice(0, tau), slice(tau, T))
        ]
        best = max(best, sum(cue_objective(p, b, d, cfg)[0] for p in parts))
    return (10.0 / 11.0) * s + best


def build_kernel(sys: MomentSystem, cfg: HACConfig, samples: tuple[slice, ...]) -> CUEKernel:
    """The CUE kernel of `samples`, each sample's HAC from its own row slice."""
    Z, X = sys.Z, sys.X
    T, k = Z.shape
    U, R = np.linalg.qr(np.column_stack([-X, sys.Y]))
    P, n = R.shape[0], len(samples)
    M = (U[:, :, None] * Z[:, None, :]).reshape(T, P * k)
    H = np.stack([hac_variance(M[s] - M[s].mean(axis=0), cfg) for s in samples])
    G = np.stack([M[s].sum(axis=0).reshape(P, k).T for s in samples])
    return CUEKernel(
        rows=CUERows(Z=Z, X=X, R=R, M=M), T=np.array([s.stop - s.start for s in samples]),
        G=G, H=np.ascontiguousarray(H.reshape(n, P, k, P, k).transpose(1, 0, 2, 3, 4)),
    )


def qll_s_statistic(theta0, sys: MomentSystem, cfg: HACConfig, level: float) -> TestResult:
    """`inference.qll_s_statistic` on a copy of `sys` whose kernels come from `build_kernel`."""
    fresh = dataclasses.replace(sys)
    with mock.patch.object(CUEKernel, "build", staticmethod(build_kernel)):
        return library_qll_s_statistic(theta0, fresh, cfg, level)
