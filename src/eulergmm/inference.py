"""Weak-identification-robust test statistics.

All tests take a hypothesized parameter point, a `MomentSystem`, and an HAC
configuration, and return a `TestResult`. The S statistic concentrates out the
scalar constant-term coefficient d by continuously-updated minimization; the
qLL-S statistic adds a subsample-instability component; the split-sample S
statistic is robust to many weak instruments.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .design import MomentSystem
from .hac import HACConfig, hac_variance
from .quantiles import chi2_quantile


@dataclass(frozen=True)
class SplitSpec:
    """Subsample layout for the split-sample statistic."""

    first_fraction: float = 0.45
    gap: int = 3

    def __post_init__(self):
        if not 0.0 < self.first_fraction < 1.0:
            raise ValueError(f"first_fraction must be in (0,1), got {self.first_fraction}")
        if isinstance(self.gap, bool) or not isinstance(self.gap, numbers.Integral):
            raise ValueError(f"gap must be an integer, got {self.gap!r}")
        if self.gap < 0:
            raise ValueError(f"gap must be >= 0, got {self.gap}")


@dataclass
class TestResult:
    statistic: float
    df: int
    critical_value: float
    level: float
    accept: bool
    d_hat: Optional[float] = None
    bandwidth: Optional[int] = None
    variant: str = "S"
    ridge_flagged: bool = False

    def __post_init__(self):
        for name in ("statistic", "critical_value"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{self.variant} {name} is not finite: {getattr(self, name)!r}")
        if self.accept != (self.statistic <= self.critical_value):
            raise ValueError("accept flag inconsistent with statistic vs critical value")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


class SingularCovarianceError(ValueError):
    """Raised when the HAC covariance cannot be factorized even with a ridge."""


def _solve_spd(V: np.ndarray, rhs: np.ndarray, context: str) -> tuple[np.ndarray, bool]:
    """Solve V x = rhs for symmetric positive-definite V.

    A Cholesky factorization decides definiteness. On its failure a single
    ridge of 1e-12 * trace/k is added and the result flagged; a second
    failure is a hard error.
    """
    try:
        np.linalg.cholesky(V)
        return np.linalg.solve(V, rhs), False
    except np.linalg.LinAlgError:
        pass
    k = V.shape[0]
    V = V + 1e-12 * np.trace(V) / k * np.eye(k)
    try:
        np.linalg.cholesky(V)
        return np.linalg.solve(V, rhs), True
    except np.linalg.LinAlgError:
        raise SingularCovarianceError(
            f"HAC covariance singular even after ridge ({context})"
        ) from None


def _solve_spd_rows(V: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_solve_spd` for a stack of V: (x, flagged, singular), x NaN on singular rows."""
    n = len(V)
    try:
        np.linalg.cholesky(V)
        return np.linalg.solve(V, rhs), np.zeros(n, bool), np.zeros(n, bool)
    except np.linalg.LinAlgError:
        pass
    x, flagged, singular = np.full(rhs.shape, np.nan), np.zeros(n, bool), np.zeros(n, bool)
    for i in range(n):
        try:
            x[i], flagged[i] = _solve_spd(V[i], rhs[i], context="")
        except SingularCovarianceError:
            singular[i] = True
    return x, flagged, singular


def _solve(V: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """V x = rhs for a stack of V; a singular V takes `_solve_spd`'s ridge, or NaN past it."""
    try:
        return np.linalg.solve(V, rhs)
    except np.linalg.LinAlgError:
        pass
    if V.ndim > 2:
        return np.array([_solve(Vi, ri) for Vi, ri in zip(V, rhs)])
    try:
        return _solve_spd(V, rhs, context="")[0]
    except SingularCovarianceError:
        return np.full(rhs.shape, np.nan)


@dataclass(frozen=True)
class CUERows:
    """A system's rows, factored once and read by every CUE kernel of the system.

    [-X | Y] = U R is a thin QR of the whole sample, the constant first, and M
    holds the moment rows Z_ti U_tp, T x Pk with column p k + i.
    """

    Z: np.ndarray
    X: np.ndarray
    R: np.ndarray
    M: np.ndarray

    @classmethod
    def of(cls, sys: MomentSystem) -> "CUERows":
        """The rows of `sys`, cached on it."""
        if sys.cue_rows is None:
            U, R = np.linalg.qr(np.column_stack([-sys.X, sys.Y]))
            M = (U[:, :, None] * sys.Z[:, None, :]).reshape(sys.T, -1)
            sys.cue_rows = cls(Z=sys.Z, X=sys.X, R=R, M=M)
        return sys.cue_rows

    @cached_property
    def w(self) -> np.ndarray:
        """(Z'Z)^-1 Z'X over the whole sample, the first step of the two-step seed."""
        Z = self.Z
        ZX = Z.T @ self.X[:, 0]
        try:
            return np.linalg.solve(Z.T @ Z / len(Z), ZX)
        except np.linalg.LinAlgError:
            return np.linalg.pinv(Z.T @ Z / len(Z)) @ ZX


@dataclass(frozen=True)
class CUEKernel:
    """The CUE moments and their Bartlett HAC on row samples, as forms in (b, d).

    With A = [-X | Y] and c = (d, b), the residual is A c and the moment row is
    f_t = Z_t (A_t c). A is held as U R with orthonormal columns U (the
    system's `CUERows`), so that with u = R c a sample's moment sum is
    g = G u, G = Z'U over its rows, and the HAC of its demeaned rows is
    V = sum_pq u_p u_q H_pq, where H is the HAC of the sample's demeaned
    stacked columns Z_i U_p (kP x kP, held as P x n x k x P x k for n
    samples). Since |A c| = |u| and the residual's mean sits in u_0 alone,
    the sum cancels no more than the residual itself does. For fixed b, V(d)
    is quadratic and g(d) linear in d: k x k algebra per trial d, with no pass
    over the rows. The methods take coefficient rows b (... x m) with d (...),
    and their results lead with the sample axis. Products with a row are
    stacked matrix products (`u[..., None, :] @ ...`), one per row: a 2-D
    product would let BLAS round a row differently with the batch's size, and
    a row's numbers must not depend on the rest of its batch.

    Every sample's H comes from one pass over the rows: each sample's rows
    of M are demeaned on their own and written, in place, into a T-row slab
    of zeros; the slabs of all samples that share a bandwidth (resolved from
    the sample's length) go through one stacked `hac_variance`, which is
    then rescaled from 1/T to 1/(the sample's length). A zero row adds
    nothing to any lag product of a contiguous sample, so each H is the HAC
    of that sample alone; for the whole sample the slab is the demeaned M
    and the scale is exactly 1.
    """

    rows: CUERows
    T: np.ndarray
    G: np.ndarray
    H: np.ndarray

    @classmethod
    def build(cls, sys: MomentSystem, cfg: HACConfig, samples: tuple[slice, ...]) -> "CUEKernel":
        """Each sample's rows are demeaned and its bandwidth resolved on its own."""
        rows = CUERows.of(sys)
        M, P = rows.M, rows.R.shape[0]
        (T, Pk), n = M.shape, len(samples)
        lengths = np.array([s.stop - s.start for s in samples])
        lags = [cfg.resolve_bandwidth(L) for L in lengths.tolist()]
        for B, L in zip(lags, lengths.tolist()):
            if B >= L:
                raise ValueError(f"bandwidth {B} must be < T={L}")
        # sample sums as differences of prefix sums: the whole sample's is the
        # last prefix sum, which adds the rows in the order M.sum(axis=0) does
        C = np.zeros((T + 1, Pk))
        np.cumsum(M, axis=0, out=C[1:])
        sums = C[[s.stop for s in samples]] - C[[s.start for s in samples]]
        means = sums / lengths[:, None]
        H = np.empty((n, Pk, Pk))
        for B in set(lags):
            same = [i for i in range(n) if lags[i] == B]
            slabs = np.zeros((len(same), T, Pk))
            for slab, i in zip(slabs, same):
                np.subtract(M[samples[i]], means[i], out=slab[samples[i]])
            H[same] = hac_variance(slabs, HACConfig(B)) * (T / lengths[same])[:, None, None]
        k = Pk // P
        return cls(
            rows=rows, T=lengths, G=sums.reshape(n, P, k).swapaxes(1, 2),
            H=np.ascontiguousarray(H.reshape(n, P, k, P, k).transpose(1, 0, 2, 3, 4)),
        )

    @property
    def R(self) -> np.ndarray:
        return self.rows.R

    @cached_property
    def g1(self) -> np.ndarray:
        """dg/dd of every sample; it does not depend on (b, d)."""
        return self.G @ self.R[:, 0]

    @cached_property
    def V2(self) -> np.ndarray:
        """(1/2) d2V/dd2 of every sample; it does not depend on (b, d)."""
        v = self.R[:, 0]
        return np.einsum("...niqj,q->n...ij", self._partial_u(v), v)

    @cached_property
    def seed(self) -> np.ndarray:
        """The seed's first step as a map of b, d1 = b . seed: the whole
        sample's moments weighed by (Z'Z)^-1."""
        w = self.rows.w
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.G[0] @ self.R[:, 1:]).T @ w / -(w @ self.g1[0])

    def _partial_u(self, u: np.ndarray) -> np.ndarray:
        """sum_p u_p H_pq of every sample, for rows u (... x P): ... x n x k x P x k."""
        P, n, k = self.H.shape[:3]
        Hu = u[..., None, :] @ self.H.reshape(P, -1)
        return Hu.reshape(u.shape[:-1] + (n, k, P, k))

    def _partial(self, b: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
        """u = R (d, b) and its `_partial_u` for every row."""
        c = np.concatenate([np.asarray(d, dtype=float)[..., None], b], axis=-1)
        u = (c[..., None, :] @ self.R.T)[..., 0, :]
        return u, self._partial_u(u)

    def forms(self, b: np.ndarray, d) -> tuple[np.ndarray, ...]:
        """(g0, g1, V0, V1, V2) with g(d + t) = g0 + t g1, V(d + t) = V0 + t V1 + t^2 V2.

        Expand about a d near the minimum: V0 then has the size of V, where an
        expansion about d = 0 would lose digits in proportion to (|Y b| / |A c|)^2.
        """
        u, Hu = self._partial(b, d)
        C = np.einsum("...niqj,q->n...ij", Hu, self.R[:, 0])
        return (np.einsum("nkp,...p->n...k", self.G, u), self.g1,
                np.einsum("...niqj,...q->n...ij", Hu, u), C + np.swapaxes(C, -1, -2), self.V2)

    def objectives(self, b: np.ndarray, d) -> np.ndarray:
        """The CUE objective (1/T) g' V^-1 g of every sample and row at (b, d).

        NaN where V is singular even after `_solve_spd`'s ridge.
        """
        u, Hu = self._partial(b, d)
        g = np.einsum("nkp,...p->n...k", self.G, u)
        x = _solve(np.einsum("...niqj,...q->n...ij", Hu, u), g[..., None])
        T = self.T.reshape(self.T.shape + (1,) * (g.ndim - 2))
        return np.einsum("n...i,n...i->n...", g, x[..., 0]) / T


def cue_kernel(
    sys: MomentSystem, cfg: HACConfig, samples: Optional[tuple[slice, ...]] = None
) -> CUEKernel:
    """The CUE kernel of `samples` (default: all rows) of `sys`, cached on it."""
    samples = samples or (slice(0, sys.T),)
    key = tuple((s.start, s.stop, cfg.resolve_bandwidth(s.stop - s.start)) for s in samples)
    kern = sys.cue_kernels.get(key)
    if kern is None:
        kern = sys.cue_kernels[key] = CUEKernel.build(sys, cfg, samples)
    return kern


def cue_objective(
    sys: MomentSystem, b: np.ndarray, d: float, cfg: HACConfig
) -> tuple[float, bool]:
    """Continuously-updated GMM objective (1/T) g' V^-1 g at (b, d).

    V is the HAC of the moment rows demeaned at this d, read off the system's
    CUE kernel.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (sys.Y.shape[1],):
        raise ValueError(f"b has shape {b.shape}, expected ({sys.Y.shape[1]},)")
    g, _, V, _, _ = cue_kernel(sys, cfg).forms(b, float(d))
    x, flagged = _solve_spd(V[0], g[0], context=f"d={d!r}")
    return float(g[0] @ x) / sys.T, flagged


#: Coefficient rows minimised together; bounds the memory of the stacked scan
#: (64 rows of 65 nodes) and of qLL-S's subsample objectives.
BATCH_CHUNK = 64

#: Trial values of d scanned across the bracket before the slope-root polish.
CUE_SCAN_POINTS = 65
_SCAN = np.linspace(-10.0, 10.0, CUE_SCAN_POINTS)

#: The Newton polish stops at a step below this fraction of se. A tighter
#: stop sits under the rounding noise of the slope, where steps bounce.
NEWTON_XTOL = 1e-10
#: Enough safeguarded steps to bisect a scan interval down to NEWTON_XTOL.
_NEWTON_STEPS = 100


def _polish(g0, g1, V0, V1, V2, t: np.ndarray, s: np.ndarray, se: np.ndarray):
    """Slope roots in every - to + sign change of the scan: (rows, roots, q).

    Lockstep Newton steps on s(t) = 2 g1'x - x'V'x, x = V^-1 g, with
    s'(t) = 2 h'V^-1 h - 2 x'V2 x and h = g1 - V'x, from the regula-falsi
    point of each bracket. A step that would leave the bracket, or that is
    more than half the step before last (the slope's rounding noise at an
    ill-conditioned V), bisects instead. q is g'x at each root's last
    evaluated iterate, within NEWTON_XTOL se of the root, where q is stationary.
    """
    rows, cols = np.nonzero((s[:, :-1] < 0.0) & (s[:, 1:] >= 0.0))
    roots, q = np.empty(rows.size), np.empty(rows.size)
    lo, hi = t[rows, cols], t[rows, cols + 1]
    r = lo - s[rows, cols] * (hi - lo) / (s[rows, cols + 1] - s[rows, cols])
    live, tol = np.arange(rows.size), NEWTON_XTOL * se[rows]
    last = older = hi - lo  # sizes of the last two steps
    g0, V0, V1 = g0[rows], V0[rows], V1[rows]
    # one solve per step: V^-1 [g | g1 | V'] gives x, and x' = V^-1 g1 - V^-1 V' x
    rhs = np.empty(V0.shape[:2] + (V0.shape[2] + 2,))
    rhs[..., 1] = g1
    for step in range(_NEWTON_STEPS if rows.size else 0):
        rr = r[:, None, None]
        A = V1 + rr * V2
        rhs[..., 0], rhs[..., 2:] = g0 + r[:, None] * g1, A + rr * V2
        sol = _solve(V0 + rr * A, rhs)
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
def _minimize_rows(kern: CUEKernel, B: np.ndarray, T: int):
    """`minimize_cue` for every coefficient row of B, each step stacked over the rows.

    Returns (stat, d_hat, flagged, errors); errors[i] is the
    SingularCovarianceError of row i or None, and the row is NaN if set.
    """
    N = len(B)
    errors: list = [None] * N
    # two-step seed: the first step weighs the moments by (Z'Z)^-1, the second
    # by V(d1)^-1; everything after is in t = d - d1
    d1 = (B * kern.seed).sum(axis=-1)
    d1[~np.isfinite(d1)] = 0.0
    g0, g1, V0, V1, V2 = (f[0] for f in kern.forms(B, d1))
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

    # scan the bracket t0 +- 10 se, polish every slope root, keep the lowest
    # of those minima and the two bracket ends
    keep = np.flatnonzero(~singular)
    if keep.size < N:
        g0, V0, V1, d1, t0, se = (a[keep] for a in (g0, V0, V1, d1, t0, se))
    t = t0[:, None] + se[:, None] * _SCAN
    # every node's V(t) and g(t) in one product per row each:
    # [1, t, t^2] @ [V0; V1; V2] and [1, t] @ [g0; g1]
    n, k = g0.shape
    powers = np.stack([np.ones_like(t), t, t * t], axis=-1)
    forms, g_forms = np.empty((n, 3, k, k)), np.empty((n, 2, k))
    forms[:, 0], forms[:, 1], forms[:, 2] = V0, V1, V2
    g_forms[:, 0], g_forms[:, 1] = g0, g1
    g = powers[..., :2] @ g_forms
    x = _solve((powers @ forms.reshape(n, 3, -1)).reshape(t.shape + (k, k)), g[..., None])[..., 0]
    q = np.einsum("nsi,nsi->ns", g, x)
    s = 2.0 * x @ g1 - ((x @ V1) * x).sum(-1) - 2.0 * t * ((x @ V2) * x).sum(-1)
    rows, roots, q_roots = _polish(g0, g1, V0, V1, V2, t, s, se)
    # candidates in the order both ends, then the roots, so ties keep the first
    ar = np.arange(len(t))
    owner = np.concatenate([ar, ar, rows])
    cand_q = np.concatenate([q[:, 0], q[:, -1], q_roots])
    cand_t = np.concatenate([t[:, 0], t[:, -1], roots])
    cand_q[~np.isfinite(cand_q)] = np.inf
    order = np.lexsort((cand_q, owner))
    pick = order[np.searchsorted(owner[order], ar)]
    best = np.where(cand_q[pick] < np.inf, cand_t[pick], t0)

    # the ridge flag and the error come from the factorization at d_hat; a
    # row that needs the ridge takes its statistic from that solve
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
    return stat, d_hat, flagged, errors


def minimize_cue(
    sys: MomentSystem, b: np.ndarray, cfg: HACConfig
) -> tuple[float, float, bool]:
    """Minimize the CUE objective over the scalar d; returns (stat, d_hat, flagged).

    The two-step GMM estimate d0 and its standard error se set the bracket
    d0 +- 10 se. A scan of the bracket finds every node pair where the analytic
    slope turns from negative to positive; each such root is polished by a
    safeguarded Newton search to 1e-10 se, and the lowest of these minima and
    the two bracket ends is returned. The ridge flag is that of the solve at
    d_hat. This is a batch of one of the lattice path (`s_statistics`).
    """
    B = np.asarray(b, dtype=float)[None]
    stat, d_hat, flagged, errors = _minimize_rows(cue_kernel(sys, cfg), B, sys.T)
    if errors[0] is not None:
        raise errors[0]
    return float(stat[0]), float(d_hat[0]), bool(flagged[0])


def _coefficients(thetas: Sequence, sys: MomentSystem, jacobian: bool = False):
    """(B, J, errors): the coefficient row of every point, and its Jacobian if asked.

    A point is a model parameter point or, when no Jacobian is asked for, its
    coefficient vector b as an array. A point whose map fails carries its
    exception in `errors`, a NaN row in B and None in J.
    """
    n = len(thetas)
    B, J, errors = np.full((n, sys.Y.shape[1]), np.nan), [None] * n, [None] * n
    for i, theta in enumerate(thetas):
        try:
            if jacobian and isinstance(theta, np.ndarray):
                raise ValueError("split-sample S needs model parameters, not a coefficient vector")
            B[i] = theta if isinstance(theta, np.ndarray) else sys.coeff(theta)
            if jacobian:
                J[i] = np.asarray(sys.jacobian(theta), dtype=float)
        except Exception as exc:  # recorded on its own row
            errors[i] = exc
    return B, J, errors


def _concentrated(thetas: Sequence, sys: MomentSystem, cfg: HACConfig):
    """(B, stat, d_hat, flagged, errors): coefficient rows and CUE minima of the points.

    A point whose coefficient map or minimisation fails carries its exception
    in `errors` and NaN elsewhere; the other points are unaffected. (A failed
    map leaves a NaN row, which the minimisation records as singular; the
    map's own error is the one kept.)
    """
    B, _, errors = _coefficients(thetas, sys)
    n = len(B)
    stat, d_hat, flagged = np.empty(n), np.empty(n), np.empty(n, bool)
    kern = cue_kernel(sys, cfg)
    for lo in range(0, n, BATCH_CHUNK):
        part = slice(lo, lo + BATCH_CHUNK)
        stat[part], d_hat[part], flagged[part], errs = _minimize_rows(kern, B[part], sys.T)
        errors[part] = [mine or theirs for mine, theirs in zip(errors[part], errs)]
    return B, stat, d_hat, flagged, errors


def _results(errors: list, variant: str, stat, df, crit, level: float, bandwidth: int,
             d_hat, flagged) -> list:
    """The TestResult of every row without an error, else the row's error or the
    ValueError its TestResult raised. `df` and `crit` are one value or one per
    row; `d_hat` is None for a statistic that does not concentrate out d."""
    n = len(errors)
    df, crit = (a.tolist() if isinstance(a, np.ndarray) else [a] * n for a in (df, crit))
    stat, flagged = stat.tolist(), flagged.tolist()
    d_hat = [None] * n if d_hat is None else d_hat.tolist()
    out = list(errors)
    for i, err in enumerate(errors):
        if err is None:
            try:
                out[i] = TestResult(
                    statistic=stat[i], df=df[i], critical_value=crit[i], level=level,
                    accept=stat[i] <= crit[i], d_hat=d_hat[i], bandwidth=bandwidth,
                    variant=variant, ridge_flagged=flagged[i],
                )
            except ValueError as exc:
                out[i] = exc
    return out


def _require_overidentified(sys: MomentSystem) -> None:
    if sys.df <= 0:
        raise ValueError(
            f"just-identified or under-identified system (df={sys.df}) is unsupported"
        )


def _one(outcomes: list) -> TestResult:
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]


def s_statistics(
    thetas: Sequence,
    sys: MomentSystem,
    cfg: HACConfig = HACConfig(),
    level: float = 0.90,
) -> list:
    """`s_statistic` at every point: its TestResult, or the exception it raised.

    The points are minimised together, BATCH_CHUNK at a time.
    """
    _require_overidentified(sys)
    _, stat, d_hat, flagged, errors = _concentrated(thetas, sys, cfg)
    crit = chi2_quantile(sys.df, level)
    return _results(errors, "S", stat, sys.df, crit, level, cfg.resolve_bandwidth(sys.T),
                    d_hat, flagged)


def s_statistic(
    theta0,
    sys: MomentSystem,
    cfg: HACConfig = HACConfig(),
    level: float = 0.90,
) -> TestResult:
    """S test: the concentrated CUE objective against a chi-squared critical value."""
    return _one(s_statistics([theta0], sys, cfg, level))


# --- qLL-S -------------------------------------------------------------------

#: Breakpoint fractions scanned by the subsample-instability fallback.
QLL_BREAK_FRACTIONS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

#: Critical values for the fallback combination, keyed by (moment count, level).
#: With k moments and df = k - 1 (scalar concentrated constant), each entry is
#: (10/11) * chi2(df, 1 - a/2) + chi2(2k, 1 - a/(2m)) with a = 1 - level and
#: m = len(QLL_BREAK_FRACTIONS): the subsample statistics are evaluated at the
#: fixed full-sample d_hat, so each is compared against a chi2(k) reference and
#: the two-piece threshold bounds the size of the combination by a (Bonferroni).
QLL_CRITICAL_VALUES: dict[tuple[int, float], float] = {}


def _populate_qll_table() -> None:
    m = len(QLL_BREAK_FRACTIONS)
    for k in range(2, 14):
        for level in (0.90, 0.95, 0.99):
            a = 1.0 - level
            QLL_CRITICAL_VALUES[(k, level)] = (10.0 / 11.0) * chi2_quantile(
                k - 1, 1.0 - a / 2.0
            ) + chi2_quantile(2 * k, 1.0 - a / (2.0 * m))


_populate_qll_table()


def _breakpoint_kernel(sys: MomentSystem, cfg: HACConfig) -> Optional[CUEKernel]:
    """The CUE kernel of both sides of every breakpoint, None if no breakpoint
    leaves more than k_z rows on each side; laid out once per system and `cfg`."""
    key = ("qLL", cfg)
    if key not in sys.cue_kernels:
        T = sys.T
        taus = [int(round(frac * T)) for frac in QLL_BREAK_FRACTIONS]
        samples = tuple(
            part for tau in taus if sys.k_z < tau < T - sys.k_z
            for part in (slice(0, tau), slice(tau, T))
        )
        sys.cue_kernels[key] = cue_kernel(sys, cfg, samples) if samples else None
    return sys.cue_kernels[key]


def qll_b_component(b: np.ndarray, sys: MomentSystem, cfg: HACConfig, d_hat):
    """Subsample-instability component: sup over breakpoints of S_pre + S_post.

    This is a non-canonical, clearly-labeled fallback: holding d at the
    full-sample optimum, it detects moment violations that cancel over the
    full sample by evaluating the objective on each side of every candidate
    breakpoint and taking the worst one. For coefficient rows b (N x m) and
    d_hat (N,) it returns one component per row, BATCH_CHUNK rows at a time;
    a row is NaN where a subsample covariance is singular even after the ridge.
    """
    B, d = np.atleast_2d(np.asarray(b, dtype=float)), np.atleast_1d(np.asarray(d_hat, float))
    out = np.zeros(len(B))
    kern = _breakpoint_kernel(sys, cfg)
    if kern is not None:
        for lo in range(0, len(B), BATCH_CHUNK):
            part = slice(lo, lo + BATCH_CHUNK)
            sides = kern.objectives(B[part], d[part])  # (breakpoint, side) x row
            splits = sides.reshape(-1, 2, sides.shape[-1]).sum(axis=1)
            out[part] = np.maximum(0.0, splits.max(axis=0))
    return float(out[0]) if np.ndim(b) == 1 else out


def qll_s_statistics(
    thetas: Sequence,
    sys: MomentSystem,
    cfg: HACConfig = HACConfig(),
    level: float = 0.90,
) -> list:
    """`qll_s_statistic` at every point: its TestResult, or the exception it raised."""
    _require_overidentified(sys)
    if sys.k_x != 1:
        raise ValueError("the qLL fallback supports only a scalar included instrument")
    key = (sys.k_z, round(level, 6))
    if key not in QLL_CRITICAL_VALUES:
        raise ValueError(
            f"no embedded qLL critical value for {sys.k_z} moments at level {level}; "
            f"available levels: 0.90, 0.95, 0.99 for 2..13 moments"
        )
    B, s, d_hat, flagged, errors = _concentrated(thetas, sys, cfg)
    ok = np.flatnonzero([e is None for e in errors])
    comps = np.full(len(errors), np.nan)
    comps[ok] = qll_b_component(B[ok], sys, cfg, d_hat[ok])
    for i in ok[~np.isfinite(comps[ok])]:
        errors[i] = SingularCovarianceError(
            f"subsample HAC covariance singular even after ridge (d={float(d_hat[i])!r})"
        )
    return _results(errors, "qLL-S(sup-split)", (10.0 / 11.0) * s + comps, sys.df,
                    QLL_CRITICAL_VALUES[key], level, cfg.resolve_bandwidth(sys.T), d_hat, flagged)


def qll_s_statistic(
    theta0,
    sys: MomentSystem,
    cfg: HACConfig = HACConfig(),
    level: float = 0.90,
) -> TestResult:
    """qLL-S test: (10/11) * S + a nonnegative subsample-violation component.

    The component is the sup-split fallback (`qll_b_component`). Critical
    values come from the embedded table keyed by (moment count, level).
    """
    return _one(qll_s_statistics([theta0], sys, cfg, level))


# --- split-sample S ----------------------------------------------------------


def split_sample_s_statistics(
    thetas: Sequence,
    sys: MomentSystem,
    split: SplitSpec = SplitSpec(),
    cfg: HACConfig = HACConfig(),
    level: float = 0.90,
) -> list:
    """`split_sample_s_statistic` at every point: its TestResult, or the exception it raised.

    The fit P1 of Y on the first subsample's instruments is made once. A point's
    contributions (Z2 P1 J) * (Y2 b), their HAC and solve are stacked, BATCH_CHUNK
    points at a time, each point in its own matrix products.
    """
    if sys.jacobian is None:
        raise ValueError("split-sample statistic needs an analytic coefficient Jacobian")
    T = sys.T
    T1 = int(np.floor(split.first_fraction * T))
    start2 = T1 + split.gap
    T2 = T - start2
    if T1 < sys.k_z + 1 or T2 < sys.k_z + 1:
        raise ValueError(
            f"subsamples too short: T1={T1}, T2={T2}, need >= {sys.k_z + 1} each"
        )

    B, J, errors = _coefficients(thetas, sys, jacobian=True)
    Ybar = sys.Y - sys.Y.mean(axis=0)
    Zex = sys.Z[:, 1:]  # drop the constant
    Zbar = Zex - Zex.mean(axis=0)
    Z1 = Zbar[:T1]
    try:
        P1 = np.linalg.solve(Z1.T @ Z1, Z1.T @ Ybar[:T1])
    except np.linalg.LinAlgError:
        raise ValueError("singular Z'Z on the first subsample") from None
    Q2, Y2 = Zbar[start2:] @ P1, Ybar[start2:]

    ok = np.flatnonzero([e is None for e in errors])
    stat, flagged = np.full(len(B), np.nan), np.zeros(len(B), bool)
    for lo in range(0, ok.size, BATCH_CHUNK):
        rows = ok[lo:lo + BATCH_CHUNK]
        v = (Q2 @ np.array([J[i] for i in rows])) * (Y2 @ B[rows, :, None])  # N x T2 x n_p
        s = v.sum(axis=-2)
        x, flagged[rows], singular = _solve_spd_rows(hac_variance(v, cfg), s[..., None])
        stat[rows] = np.einsum("ni,ni->n", s, x[..., 0]) / T2
        for i in rows[singular]:
            errors[i] = SingularCovarianceError(
                "HAC covariance singular even after ridge (split-sample Omega)"
            )
    df = np.array([0 if j is None else j.shape[1] for j in J])
    crit = np.array([chi2_quantile(n_p, level) if n_p else np.nan for n_p in df])
    return _results(errors, "split-S", stat, df, crit, level, cfg.resolve_bandwidth(T2),
                    None, flagged)


def split_sample_s_statistic(
    theta0,
    sys: MomentSystem,
    split: SplitSpec = SplitSpec(),
    cfg: HACConfig = HACConfig(),
    level: float = 0.90,
) -> TestResult:
    """Split-sample S test, robust to many weak instruments.

    The instrument coefficients are fit on the first subsample, the moment is
    evaluated on the second, and a gap of `split.gap` observations between the
    two removes dependence through the MA error. The constant is dropped and Y
    and the excluded instruments are demeaned over the full sample; degrees of
    freedom equal the number of free structural parameters. `theta0` is a
    model parameter point, since the statistic needs its Jacobian.
    """
    return _one(split_sample_s_statistics([theta0], sys, split, cfg, level))


# --- first-stage diagnostics -------------------------------------------------


def first_stage_diagnostics(
    rho: float,
    sys: MomentSystem,
    phi_k: float,
) -> list[dict]:
    """OLS fit of each quasi-differenced endogenous combination on the instruments.

    The combinations are phi_k*(u_{t+1} - rho*u_t) and (r^p_t - rho*r^p_{t-1}),
    read off the regressor matrix; each is regressed on Z (with constant) and
    reported with fitted values and centered R-squared.
    """
    labels = sys.y_labels
    col = {lab: i for i, lab in enumerate(labels)}
    try:
        u_comb = phi_k * (sys.Y[:, col["u[t+1]"]] - rho * sys.Y[:, col["u[t]"]])
        r_comb = sys.Y[:, col["r_p[t]"]] - rho * sys.Y[:, col["r_p[t-1]"]]
    except KeyError as exc:
        raise ValueError(f"regressor column {exc} not present in this design") from None
    out = []
    for name, y in (("utilization", u_comb), ("real_rate", r_comb)):
        coef, _, rank, _ = np.linalg.lstsq(sys.Z, y, rcond=None)
        if rank < sys.k_z:
            raise ValueError("instrument matrix is rank deficient")
        fitted = sys.Z @ coef
        tss = float(np.sum((y - y.mean()) ** 2))
        rss = float(np.sum((y - fitted) ** 2))
        r2 = 1.0 - rss / tss if tss > 0 else 0.0
        out.append({"name": name, "actual": y, "fitted": fitted, "r2": r2})
    return out
