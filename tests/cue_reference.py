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

`minimize_rows` is the library's earlier lattice minimiser, whose Newton
polish stopped on the step size.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
from scipy import optimize

from eulergmm.design import MomentSystem, residuals_and_moments
from eulergmm.hac import HACConfig, hac_variance
from eulergmm.inference import (
    _NEWTON_STEPS,
    _SCAN,
    NEWTON_XTOL,
    QLL_BREAK_FRACTIONS,
    CUEKernel,
    CUERows,
    SingularCovarianceError,
    TestResult,
    qll_s_statistic as library_qll_s_statistic,
)
from spd_reference import solve_rows, solve_spd


def direct_moments(sys: MomentSystem, b: np.ndarray, d: float, cfg: HACConfig):
    """(g, V): the moment sum and the HAC of the moment rows demeaned at d."""
    _, F = residuals_and_moments(sys, b, float(d))
    return F.sum(axis=0), hac_variance(F - F.mean(axis=0), cfg)


def cue_objective(sys: MomentSystem, b: np.ndarray, d: float, cfg: HACConfig) -> tuple[float, bool]:
    g, V = direct_moments(sys, b, d, cfg)
    x, flagged = solve_spd(V, g, context=f"d={d!r}")
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
    sol, _ = solve_spd(V, np.column_stack([a, c]), context=f"two-step seed d={d1!r}")
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


# --- the lattice minimiser with the step-size stop ----------------------------
#
# `minimize_rows` is the library's earlier `_minimize_rows`: the kernel's forms
# by ellipsis einsums, a Newton polish that stops a root at a step below
# NEWTON_XTOL se, the candidates ranked by q at each root's last iterate, and
# the ridge only where Cholesky fails. It also returns each row's se.


def _forms(kern: CUEKernel, B: np.ndarray, d) -> tuple[np.ndarray, ...]:
    """(g0, g1, V0, V1, V2) of the kernel at (B, d), the sample axis first."""
    P, n, k = kern.H.shape[:3]
    r = kern.R[:, 0]
    c = np.concatenate([np.asarray(d, dtype=float)[..., None], B], axis=-1)
    u = (c[..., None, :] @ kern.R.T)[..., 0, :]
    Hu = (u[..., None, :] @ kern.H.reshape(P, -1)).reshape(u.shape[:-1] + (n, k, P, k))
    Hr = (r[None, :] @ kern.H.reshape(P, -1)).reshape(n, k, P, k)
    C = np.einsum("...niqj,q->n...ij", Hu, r)
    return (np.einsum("nkp,...p->n...k", kern.G, u), kern.G @ r,
            np.einsum("...niqj,...q->n...ij", Hu, u), C + np.swapaxes(C, -1, -2),
            np.einsum("niqj,q->nij", Hr, r))


def _solve_spd_rows(V: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(x, flagged, singular): the ridge 1e-12 trace/k only where Cholesky fails."""
    n = len(V)
    try:
        np.linalg.cholesky(V)
        return np.linalg.solve(V, rhs), np.zeros(n, bool), np.zeros(n, bool)
    except np.linalg.LinAlgError:
        pass
    x, flagged, singular = np.full(rhs.shape, np.nan), np.zeros(n, bool), np.zeros(n, bool)
    for i in range(n):
        k = V[i].shape[0]
        for ridge in (0.0, 1e-12 * np.trace(V[i]) / k):
            try:
                np.linalg.cholesky(V[i] + ridge * np.eye(k))
            except np.linalg.LinAlgError:
                continue
            x[i], flagged[i] = np.linalg.solve(V[i] + ridge * np.eye(k), rhs[i]), ridge > 0
            break
        else:
            singular[i] = True
    return x, flagged, singular


def _polish(g0, g1, V0, V1, V2, t, s, se):
    """Slope roots by lockstep safeguarded Newton, each stopped at a step below
    NEWTON_XTOL se: (rows, roots, q at each root's last iterate)."""
    rows, cols = np.nonzero((s[:, :-1] < 0.0) & (s[:, 1:] >= 0.0))
    roots, q = np.empty(rows.size), np.empty(rows.size)
    lo, hi = t[rows, cols], t[rows, cols + 1]
    r = lo - s[rows, cols] * (hi - lo) / (s[rows, cols + 1] - s[rows, cols])
    live, tol = np.arange(rows.size), NEWTON_XTOL * se[rows]
    last = older = hi - lo
    g0, V0, V1 = g0[rows], V0[rows], V1[rows]
    rhs = np.empty(V0.shape[:2] + (V0.shape[2] + 2,))
    rhs[..., 1] = g1
    for step in range(_NEWTON_STEPS if rows.size else 0):
        rr = r[:, None, None]
        A = V1 + rr * V2
        rhs[..., 0], rhs[..., 2:] = g0 + r[:, None] * g1, A + rr * V2
        sol = solve_rows(V0 + rr * A, rhs)
        h = g1 - (rhs[..., 2:] @ sol[..., :1])[..., 0]
        xd = sol[..., 1] - (sol[..., 2:] @ sol[..., :1])[..., 0]
        x = sol[..., 0]
        slope = np.einsum("mi,mi->m", x, g1 + h)
        curve = 2.0 * (np.einsum("mi,mi->m", xd, h) - ((x[:, None] @ V2)[:, 0] * x).sum(-1))
        neg = slope < 0.0
        lo, hi = np.where(neg, r, lo), np.where(neg, hi, r)
        dt = slope / curve
        new = r - dt
        newton = (new >= lo) & (new <= hi) & (np.abs(dt) <= 0.5 * older)
        new = np.where(newton, new, 0.5 * (lo + hi))
        older, last = last, np.abs(new - r)
        going = last > tol
        if step == _NEWTON_STEPS - 1:
            going[:] = False
        elif going.all():
            r = new
            continue
        stop = ~going
        roots[live[stop]] = new[stop]
        q[live[stop]] = np.einsum("mi,mi->m", rhs[stop, :, 0], x[stop])
        if not going.any():
            break
        live, r, lo, hi, tol, older, last, g0, V0, V1, rhs = (
            a[going] for a in (live, new, lo, hi, tol, older, last, g0, V0, V1, rhs)
        )
    return rows, roots, q


@np.errstate(divide="ignore", invalid="ignore")
def minimize_rows(kern: CUEKernel, B: np.ndarray, T: int):
    """(stat, d_hat, flagged, errors, se) of every coefficient row of B."""
    N = len(B)
    errors: list = [None] * N
    d1 = (B * kern.seed).sum(axis=-1)
    d1[~np.isfinite(d1)] = 0.0
    g0, g1, V0, V1, V2 = (f[0] for f in _forms(kern, B, d1))
    c = -g1
    rhs = np.empty(g0.shape + (2,))
    rhs[..., 0], rhs[..., 1] = g0, c
    sol, _, singular = _solve_spd_rows(V0, rhs)
    for i in np.flatnonzero(singular):
        errors[i] = SingularCovarianceError(
            f"HAC covariance singular even after ridge (two-step seed d={float(d1[i])!r})"
        )
    num, denom = np.einsum("i,nij->jn", c, sol)
    t0, se = num / denom, np.sqrt(T / denom)
    if not (denom > 0).all() or not np.isfinite(t0).all():
        flat = ~(denom > 0)
        t0[flat], se[flat] = 0.0, np.maximum(1.0, np.abs(d1[flat]))
        bad = ~np.isfinite(t0)
        t0[bad], se[bad] = 0.0, 1.0
    se = np.maximum(se, 1e-12)
    se_all = se.copy()

    keep = np.flatnonzero(~singular)
    if keep.size < N:
        g0, V0, V1, d1, t0, se = (a[keep] for a in (g0, V0, V1, d1, t0, se))
    t = t0[:, None] + se[:, None] * _SCAN
    n, k = g0.shape
    powers = np.stack([np.ones_like(t), t, t * t], axis=-1)
    forms, g_forms = np.empty((n, 3, k, k)), np.empty((n, 2, k))
    forms[:, 0], forms[:, 1], forms[:, 2] = V0, V1, V2
    g_forms[:, 0], g_forms[:, 1] = g0, g1
    g = powers[..., :2] @ g_forms
    V = (powers @ forms.reshape(n, 3, -1)).reshape(t.shape + (k, k))
    x = solve_rows(V, g[..., None])[..., 0]
    q = np.einsum("nsi,nsi->ns", g, x)
    s = 2.0 * x @ g1 - ((x @ V1) * x).sum(-1) - 2.0 * t * ((x @ V2) * x).sum(-1)
    rows, roots, q_roots = _polish(g0, g1, V0, V1, V2, t, s, se)
    ar = np.arange(len(t))
    owner = np.concatenate([ar, ar, rows])
    cand_q = np.concatenate([q[:, 0], q[:, -1], q_roots])
    cand_t = np.concatenate([t[:, 0], t[:, -1], roots])
    cand_q[~np.isfinite(cand_q)] = np.inf
    order = np.lexsort((cand_q, owner))
    pick = order[np.searchsorted(owner[order], ar)]
    best = np.where(cand_q[pick] < np.inf, cand_t[pick], t0)

    bb = best[:, None, None]
    gb = g0 + best[:, None] * g1
    xb, flagged_k, singular_k = _solve_spd_rows(V0 + bb * (V1 + bb * V2), gb[..., None])
    stat_k = cand_q[pick] / T
    redo = np.flatnonzero(~(stat_k < np.inf) | flagged_k | singular_k)
    stat_k[redo] = np.einsum("ni,ni->n", gb[redo], xb[redo, :, 0]) / T
    stat, d_hat, flagged = np.full(N, np.nan), np.full(N, np.nan), np.zeros(N, bool)
    stat[keep], d_hat[keep], flagged[keep] = stat_k, d1 + best, flagged_k
    for i in keep[singular_k]:
        errors[i] = SingularCovarianceError(
            f"HAC covariance singular even after ridge (d={float(d_hat[i])!r})"
        )
        stat[i] = d_hat[i] = np.nan
    return stat, d_hat, flagged, errors, se_all
