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
# numpy.linalg's LAPACK gufuncs, which np.linalg.solve and np.linalg.cholesky
# call after argument checks and casts that cost more than the work on a stack
# of a few 4 x 4 matrices. Called directly they give the same bits, and report
# a singular or indefinite matrix by NaN output and the invalid flag.
from numpy.linalg import _umath_linalg

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


def _solve_spd_rows(V: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, ...]:
    """V x = rhs for a stack of symmetric positive-definite V: (x, flagged, singular).

    A Cholesky factorization decides definiteness and conditioning. Every V
    whose Cholesky fails, or whose smallest squared pivot is below the ridge
    r = 1e-12 * trace/k, is flagged and solved as V + r I, all in one stacked
    step; a row whose ridged V fails its Cholesky too is singular (and
    flagged), with x NaN. Every other V is solved by LU.
    """
    with np.errstate(all="ignore"):
        ridge = 1e-12 * V.trace(axis1=-2, axis2=-1) / V.shape[-1]
        # a V whose Cholesky fails has NaN pivots; one that passes is safe for LU
        pivots = _umath_linalg.cholesky_lo(V).diagonal(axis1=-2, axis2=-1)
        ok = pivots * pivots >= ridge[:, None]
        x = _umath_linalg.solve(V, rhs)
        flagged, singular = np.zeros(len(V), bool), np.zeros(len(V), bool)
        # count_nonzero costs a stack of one less than a ufunc reduction would
        if np.count_nonzero(ok) < ok.size:
            flagged = ~ok.all(axis=-1)
            R = V[flagged] + ridge[flagged, None, None] * np.eye(V.shape[-1])
            singular[flagged] = np.isnan(_umath_linalg.cholesky_lo(R)).any(axis=(-2, -1))
            x[flagged] = _umath_linalg.solve(R, rhs[flagged])
            x[singular] = np.nan
    return x, flagged, singular


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
    and their results put the sample axis after the rows' (... x n x k). Each
    is one matrix product per row, of u with G, of u u' with H, or of u with
    K + K' (`K`): a 2-D product would let BLAS round a row differently with the
    batch's size, and a row's numbers must not depend on the rest of its batch.

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
    def _G_rows(self) -> np.ndarray:
        """G laid out as a map of u: g = u @ _G_rows, P x (n k)."""
        return np.ascontiguousarray(self.G.transpose(2, 0, 1)).reshape(self.G.shape[2], -1)

    @cached_property
    def _H_pairs(self) -> np.ndarray:
        """H laid out as a map of u u': V = (u u') @ _H_pairs, P^2 x (n k k)."""
        P = self.H.shape[0]
        return np.ascontiguousarray(self.H.transpose(0, 3, 1, 2, 4)).reshape(P * P, -1)

    @cached_property
    def K(self) -> np.ndarray:
        """K_p = sum_q R_q0 H_pq of every sample, P x (n k k): V1 = sum_p u_p (K_p + K_p')
        and V2 = sum_p R_p0 K_p."""
        P = self.H.shape[0]
        return self.R[:, 0] @ self._H_pairs.reshape(P, P, -1)

    @cached_property
    def _V1_map(self) -> np.ndarray:
        """V1 as a map of u: V1 = u @ _V1_map, P x (n k k)."""
        n, k = self.G.shape[:2]
        K = self.K.reshape(-1, n, k, k)
        return (K + K.swapaxes(-1, -2)).reshape(len(K), -1)

    @cached_property
    def g1(self) -> np.ndarray:
        """dg/dd of every sample; it does not depend on (b, d)."""
        return self.G @ self.R[:, 0]

    @cached_property
    def V2(self) -> np.ndarray:
        """(1/2) d2V/dd2 of every sample; it does not depend on (b, d)."""
        n, k = self.G.shape[:2]
        return (self.R[:, 0] @ self.K).reshape(n, k, k)

    @cached_property
    def seed(self) -> np.ndarray:
        """The seed's first step as a map of b, d1 = b . seed: the whole
        sample's moments weighed by (Z'Z)^-1."""
        w = self.rows.w
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.G[0] @ self.R[:, 1:]).T @ w / -(w @ self.g1[0])

    def _u(self, b: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
        """u = R (d, b) of every row as ... x 1 x P, and u u' as ... x 1 x P^2.

        Where u u' overflows (a huge b), V is inf or NaN and its solve reports
        it singular: every caller ignores the overflow and invalid warnings.
        """
        c = np.concatenate([np.asarray(d, dtype=float)[..., None], b], axis=-1)
        u = c[..., None, :] @ self.R.T
        return u, (u.swapaxes(-1, -2) * u).reshape(u.shape[:-1] + (-1,))

    def forms(self, b: np.ndarray, d) -> tuple[np.ndarray, ...]:
        """(g0, g1, V0, V1, V2) with g(d + t) = g0 + t g1, V(d + t) = V0 + t V1 + t^2 V2.

        Expand about a d near the minimum: V0 then has the size of V, where an
        expansion about d = 0 would lose digits in proportion to (|Y b| / |A c|)^2.
        """
        u, uu = self._u(b, d)
        shape = u.shape[:-2] + self.G.shape[:2]
        return ((u @ self._G_rows).reshape(shape), self.g1,
                (uu @ self._H_pairs).reshape(shape + shape[-1:]),
                (u @ self._V1_map).reshape(shape + shape[-1:]), self.V2)

    @np.errstate(over="ignore", invalid="ignore")
    def objectives(self, b: np.ndarray, d) -> np.ndarray:
        """The CUE objective (1/T) g' V^-1 g of every row and sample at (b, d), ... x n.

        V is solved by `_solve_spd_rows`, with its ridge where V is ill-conditioned,
        and the objective is NaN where V is singular even after the ridge.
        """
        u, uu = self._u(b, d)
        n, k = self.G.shape[:2]
        g = (u @ self._G_rows).reshape(-1, k)
        x = _solve_spd_rows((uu @ self._H_pairs).reshape(-1, k, k), g[..., None])[0]
        return (g * x[..., 0]).sum(axis=-1).reshape(u.shape[:-2] + (n,)) / self.T


def cue_kernel(
    sys: MomentSystem, cfg: HACConfig, samples: Optional[tuple[slice, ...]] = None
) -> CUEKernel:
    """The CUE kernel of `samples` (default: all rows) of `sys`, cached on it."""
    samples = samples or (slice(0, sys.T),)
    key = tuple((s.start, s.stop, cfg.resolve_bandwidth(s.stop - s.start)) for s in samples)
    kern = sys.cue_kernels.get(key)
    if kern is None:
        if sys.k_x != 1:
            raise ValueError(f"the CUE concentrates out a scalar constant only, got k_x={sys.k_x}")
        kern = sys.cue_kernels[key] = CUEKernel.build(sys, cfg, samples)
    return kern


def _checked_b(b, sys: MomentSystem) -> np.ndarray:
    """b as floats, refused unless it has one finite coefficient per column of Y."""
    b = np.asarray(b, dtype=float)
    if b.shape != (sys.Y.shape[1],):
        raise ValueError(f"b has shape {b.shape}, expected ({sys.Y.shape[1]},)")
    if not np.isfinite(b).all():
        raise ValueError(f"b is not finite: {b.tolist()}")
    return b


@np.errstate(over="ignore", invalid="ignore")
def cue_objective(
    sys: MomentSystem, b: np.ndarray, d: float, cfg: HACConfig
) -> tuple[float, bool]:
    """Continuously-updated GMM objective (1/T) g' V^-1 g at (b, d).

    V is the HAC of the moment rows demeaned at this d, read off the system's
    CUE kernel.
    """
    g, _, V, _, _ = cue_kernel(sys, cfg).forms(_checked_b(b, sys), float(d))
    x, flagged, singular = _solve_spd_rows(V, g[..., None])
    if singular[0]:
        raise SingularCovarianceError(f"HAC covariance singular even after ridge (d={d!r})")
    return float(g[0] @ x[0, :, 0]) / sys.T, bool(flagged[0])


#: Coefficient rows minimised together; bounds the memory of the stacked scan
#: (64 rows of 65 nodes) and of qLL-S's subsample objectives.
BATCH_CHUNK = 64

#: Trial values of d scanned across the bracket before the slope-root polish.
CUE_SCAN_POINTS = 65
_SCAN = np.linspace(-10.0, 10.0, CUE_SCAN_POINTS)

#: The Newton polish stops a root once Newton's predicted error after a step
#: is below a quarter of this fraction of se, or once a step is below it. A
#: tighter stop sits under the rounding noise of the slope, where steps bounce.
NEWTON_XTOL = 1e-10
#: Enough safeguarded steps to bisect a scan interval down to NEWTON_XTOL.
_NEWTON_STEPS = 100
#: The four scan nodes about a sign change between nodes c and c + 1.
_NODES = np.arange(-1, 3)


def _newton_work(g1: np.ndarray, V2: np.ndarray, m: int) -> np.ndarray:
    """m rows of `_newton_terms`'s workspace [g | g1 | V' | V2], g1 and V2 filled in."""
    k = len(g1)
    work = np.empty((m, k, 2 + 2 * k))
    work[..., 1], work[..., k + 2:] = g1, V2
    return work


#: (q, dq, d2q, d3q) as a map of `_newton_terms`'s scalar products: rows
#: [x | y]'[g | g1] (x'g, x'g1, y'g, y'g1), then [x | y]'{V', V2}[x | y]
#: (x'V'x, x'V'y, x'V2 x, x'V2 y, y'V'x, y'V'y, y'V2 x, y'V2 y).
_TERMS = np.zeros((12, 4))
_TERMS[0, 0] = 1.0
_TERMS[[1, 4], 1] = 2.0, -1.0
_TERMS[[3, 5, 6], 2] = 2.0, -2.0, -2.0
_TERMS[[7, 9], 3] = -12.0, -6.0


def _newton_terms(g0, V0, V1, V2, r: np.ndarray, work: np.ndarray):
    """(q, dq, d2q, d3q): q(t) = g'V^-1 g and its t-derivatives at t = r, every row.

    With x = V^-1 g, h = g1 - V'x and y = V^-1 h = dx/dt,
    dq = 2 g1'x - x'V'x, d2q = 2 h'y - 2 x'V2 x and d3q = -6 (2 x'V2 y + y'V'y).
    One solve of V against [g | g1 | V'] gives x and y = V^-1 g1 - V^-1 V' x,
    one product of [x | y] with `work` = [g | g1 | V' | V2] (`_newton_work`)
    every scalar product the derivatives need, and one product of those with
    `_TERMS` the four terms.
    """
    m, k = g0.shape
    rr = r[:, None, None]
    rV2 = rr * V2
    A = V1 + rV2
    np.multiply(r[:, None], work[..., 1], out=work[..., 0])
    work[..., 0] += g0
    np.add(A, rV2, out=work[..., 2:k + 2])
    sol = _solve_spd_rows(V0 + rr * A, work[..., :k + 2])[0]
    xy = sol[..., :2]
    xy[..., 1:] -= sol[..., 2:] @ xy[..., :1]
    P = xy.swapaxes(-1, -2) @ work  # [x | y]' [g | g1 | V' | V2]
    dots = np.empty((m, 1, 12))
    dots[:, 0, :4].reshape(m, 2, 2)[...] = P[..., :2]
    np.matmul(P[..., 2:].reshape(m, 2, 2, k), xy[:, None], out=dots[:, 0, 4:].reshape(m, 2, 2, 2))
    return (dots @ _TERMS)[:, 0].T


def _polish(g0, g1, V0, V1, V2, t: np.ndarray, s: np.ndarray, se: np.ndarray):
    """Slope roots in every - to + sign change of the scan: (rows, roots, q).

    Lockstep Newton steps on the slope dq of q(t) = g'V^-1 g, one
    `_newton_terms` solve per step, from the root of the cubic through the
    slope at the four scan nodes about each sign change (t as a function of
    s): it needs no solve, and starts 10 to 100 times closer to the root
    than the regula-falsi point. A step that would leave the bracket, or
    that is more than half the step before last (the slope's rounding noise
    at an ill-conditioned V), bisects instead. A root stops once Newton's predicted error after its step,
    |d3q / (2 d2q)| dt^2, is below NEWTON_XTOL se / 4, or once a step is below
    NEWTON_XTOL se. q ranks the roots: the Newton model's minimum
    q - dq^2 / (2 d2q) at the last evaluated iterate (q there after a bisection).
    """
    rows, cols = ((s[:, :-1] < 0.0) & (s[:, 1:] >= 0.0)).nonzero()
    roots, q = np.empty(rows.size), np.empty(rows.size)
    lo, hi = t[rows, cols], t[rows, cols + 1]
    # start where t as a cubic in s through the four nodes about the sign
    # change puts s = 0 (the Lagrange weights at s = 0 are prod_j s_j / (s_j - s_i)),
    # held inside the bracket
    nodes = np.minimum(np.maximum(cols, 1), s.shape[1] - 3)[:, None] + _NODES
    S = s[rows[:, None], nodes]
    D = S[:, None, :] - S[:, :, None]
    D.reshape(-1, 16)[:, ::5] = S
    r = ((S[:, None, :] / D).prod(axis=-1) * t[rows[:, None], nodes]).sum(axis=-1)
    r = np.fmin(np.fmax(r, lo), hi)
    live, tol = np.arange(rows.size), NEWTON_XTOL * se[rows]
    half_tol = 0.5 * tol
    last = older = hi - lo  # sizes of the last two steps
    g0, V0, V1, work = g0[rows], V0[rows], V1[rows], _newton_work(g1, V2, rows.size)
    for step in range(_NEWTON_STEPS if rows.size else 0):
        qr, slope, curve, third = _newton_terms(g0, V0, V1, V2, r, work)
        neg = slope < 0.0
        lo, hi = np.where(neg, r, lo), np.where(neg, hi, r)
        dt = slope / curve
        new = r - dt
        newton = (new >= lo) & (new <= hi) & (np.abs(dt) <= 0.5 * older)
        new = np.where(newton, new, 0.5 * (lo + hi))
        older, last = last, np.abs(new - r)
        # a Newton step whose predicted error |d3q / (2 d2q)| dt^2 is below tol / 4
        close = newton & (np.abs(third * dt * dt) < half_tol * np.abs(curve))
        going = (last > tol) & ~close
        if step == _NEWTON_STEPS - 1:
            going[:] = False
        elif going.all():
            r = new
            continue
        q_new = np.where(newton, qr - 0.5 * slope * dt, qr)
        if not going.any():
            roots[live], q[live] = new, q_new
            break
        stop = ~going
        roots[live[stop]], q[live[stop]] = new[stop], q_new[stop]
        live, r, lo, hi, tol, half_tol, older, last, g0, V0, V1, work = (
            a[going] for a in (live, new, lo, hi, tol, half_tol, older, last, g0, V0, V1, work)
        )
    return rows, roots, q


def _systems(forms: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """[V(t) | g(t)] of every row and node, k x (k+1) x rows x nodes, from the
    rows' forms [V0 | g0; V1 | g1; V2 | 0] (rows x 3 x k x (k+1)) and powers
    [1; t; t^2] (rows x 3 x nodes): one product per row, written in place."""
    n, _, k, k1 = forms.shape
    A = np.empty((k, k1, n, powers.shape[-1]))
    np.matmul(forms.reshape(n, 3, -1).swapaxes(1, 2), powers,
              out=A.reshape(k * k1, n, -1).swapaxes(0, 1))
    return A


def _scan(g0, g1, V0, V1, V2, t: np.ndarray):
    """(x, s, q_ends): x = V(t)^-1 g(t) at every row and node (k x rows x
    nodes), the slope s = dq/dt there (rows x nodes), and q = g'x at the
    first and last node (rows x 2).

    The augmented systems [V | g] of all rows and nodes are one stack
    (`_systems`), eliminated without pivoting, LDL' since V is a
    positive-semidefinite HAC: each step is one elementwise operation over the
    whole stack, and x is read from the augmented column. A node whose
    smallest pivot is below `_solve_spd_rows`'s ridge 1e-12 trace/k, or NaN, is
    solved again by `_solve_spd_rows`, under its one ridge rule. The slope
    2 g1'x - x'V1 x - 2 t x'V2 x takes one product per row of [V1; V2] with x.
    No step is a product across rows, so a row's numbers do not depend on the
    rest of its batch. A zero pivot divides by zero: the caller ignores those
    floating-point errors.
    """
    (n, m), k = t.shape, g0.shape[1]
    forms = np.zeros((n, 3, k, k + 1))
    forms[:, 0, :, :k], forms[:, 0, :, k] = V0, g0
    forms[:, 1, :, :k], forms[:, 1, :, k] = V1, g1
    forms[:, 2, :, :k] = V2
    powers = np.empty((n, 3, m))
    powers[:, 0], powers[:, 1] = 1.0, t
    np.multiply(t, t, out=powers[:, 2])
    A = _systems(forms, powers)
    g_ends = A[:, k, :, ::m - 1].copy()
    diag = A.reshape(k * (k + 1), n, m)[::k + 2]  # A[i, i], the pivots once eliminated
    ridge = diag.sum(axis=0) * (1e-12 / k)
    for j in range(k - 1):
        row = A[j, j + 1:]
        row /= A[j, j]
        A[j + 1:, j + 1:] -= A[j + 1:, j, None] * row
    A[k - 1, k] /= A[k - 1, k - 1]
    x = A[:, k]
    for j in range(k - 1, 0, -1):
        x[:j] -= A[:j, j] * x[j]
    ok = diag >= ridge
    if not ok.all():
        rows, nodes = (~ok.all(axis=0)).nonzero()
        own, at = np.unique(rows, return_inverse=True)
        S = np.moveaxis(_systems(forms[own], powers[own])[:, :, at, nodes], -1, 0)
        x[:, rows, nodes] = _solve_spd_rows(S[..., :k], S[..., k:])[0][..., 0].T
    W = np.empty((2 * k, n, m))  # [V1 x; V2 x]
    np.matmul(forms[:, 1:, :, :k].reshape(n, 2 * k, k), x.swapaxes(0, 1), out=W.swapaxes(0, 1))
    Vx = W[k:]
    Vx *= 2.0 * t
    Vx += W[:k]
    np.subtract(2.0 * g1[:, None, None], Vx, out=Vx)
    Vx *= x
    return x, Vx.sum(axis=0), (g_ends * x[:, :, ::m - 1]).sum(axis=0)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _minimize_rows(kern: CUEKernel, B: np.ndarray, T: int):
    """`minimize_cue` for every coefficient row of B, each step stacked over the rows.

    Returns (stat, d_hat, flagged, errors); errors[i] is the
    SingularCovarianceError of row i or None, and the row is NaN if set. A row
    whose seed covariance is singular takes every step with the others, and
    keeps the seed's error.
    """
    errors: list = [None] * len(B)
    # two-step seed: the first step weighs the moments by (Z'Z)^-1, the second
    # by V(d1)^-1; everything after is in t = d - d1
    d1 = (B * kern.seed).sum(axis=-1)
    d1[~np.isfinite(d1)] = 0.0
    g0, g1, V0, V1, V2 = kern.forms(B, d1)
    g0, g1, V0, V1, V2 = g0[:, 0], g1[0], V0[:, 0], V1[:, 0], V2[0]
    rhs = np.empty(g0.shape + (2,))
    rhs[..., 0], rhs[..., 1] = g0, -g1
    sol, _, seed_singular = _solve_spd_rows(V0, rhs)
    num, denom = (-g1 @ sol).T
    t0, se = num / denom, np.sqrt(T / denom)
    if not np.isfinite(t0 * se).all():  # denom <= 0, or t0 not finite
        flat = ~(denom > 0)
        t0[flat], se[flat] = 0.0, np.maximum(1.0, np.abs(d1[flat]))
        bad = ~np.isfinite(t0)
        t0[bad], se[bad] = 0.0, 1.0
    se = np.maximum(se, 1e-12)

    # scan the bracket t0 +- 10 se, polish every slope root, keep the lowest
    # of those minima and the two bracket ends
    t = t0[:, None] + se[:, None] * _SCAN
    _, s, q_ends = _scan(g0, g1, V0, V1, V2, t)
    rows, roots, q_roots = _polish(g0, g1, V0, V1, V2, t, s, se)
    # candidates in the order both ends, then the roots, so ties keep the first
    n = len(t)
    ar = np.arange(n)
    owner = np.concatenate([ar, ar, rows])
    cand_q = np.concatenate([q_ends[:, 0], q_ends[:, 1], q_roots])
    cand_t = np.concatenate([t[:, 0], t[:, -1], roots])
    cand_q[~np.isfinite(cand_q)] = np.inf
    order = np.lexsort((cand_q, owner))
    pick = order[owner[order].searchsorted(ar)]
    best = np.where(cand_q[pick] < np.inf, cand_t[pick], t0)

    # the statistic, the ridge flag and the error come from the factorization at d_hat
    bb = best[:, None, None]
    gb = (g0 + best[:, None] * g1)[:, None, :]
    xb, flagged, singular = _solve_spd_rows(V0 + bb * (V1 + bb * V2), gb.swapaxes(-1, -2))
    stat, d_hat = (gb @ xb)[:, 0, 0] / T, d1 + best
    for i in np.flatnonzero(seed_singular | singular):
        at = f"two-step seed d={float(d1[i])!r}" if seed_singular[i] else f"d={float(d_hat[i])!r}"
        errors[i] = SingularCovarianceError(f"HAC covariance singular even after ridge ({at})")
        stat[i] = d_hat[i] = np.nan
    return stat, d_hat, flagged, errors


def minimize_cue(
    sys: MomentSystem, b: np.ndarray, cfg: HACConfig
) -> tuple[float, float, bool]:
    """Minimize the CUE objective over the scalar d; returns (stat, d_hat, flagged).

    The two-step GMM estimate d0 and its standard error se set the bracket
    d0 +- 10 se. A scan of the bracket finds every node pair where the analytic
    slope turns from negative to positive; each such root is polished by a
    safeguarded Newton search, which stops once Newton's predicted error is
    below NEWTON_XTOL se / 4 (`_polish`), and the lowest of these minima and
    the two bracket ends is d_hat. The statistic and the ridge flag come from
    the factorization of V at d_hat. This is a batch of one of the lattice
    path (`s_statistics`).
    """
    B = _checked_b(b, sys)[None]
    stat, d_hat, flagged, errors = _minimize_rows(cue_kernel(sys, cfg), B, sys.T)
    if errors[0] is not None:
        raise errors[0]
    return float(stat[0]), float(d_hat[0]), bool(flagged[0])


def _coefficients(thetas: Sequence, sys: MomentSystem, jacobian: bool = False):
    """(B, J, errors): the coefficient row of every point, and its Jacobian if asked.

    A point is a model parameter point or, when no Jacobian is asked for, its
    coefficient vector b as an array. A point whose map fails, or maps to a
    non-finite b, carries its exception in `errors`, a NaN row in B and None in J.
    """
    n = len(thetas)
    B, J, errors = np.full((n, sys.Y.shape[1]), np.nan), [None] * n, [None] * n
    for i, theta in enumerate(thetas):
        try:
            if jacobian and isinstance(theta, np.ndarray):
                raise ValueError("split-sample S needs model parameters, not a coefficient vector")
            B[i] = _checked_b(theta, sys) if isinstance(theta, np.ndarray) else sys.coeff(theta)
            if jacobian:
                J[i] = np.asarray(sys.jacobian(theta), dtype=float)
        except Exception as exc:  # recorded on its own row
            errors[i] = exc
    finite = np.isfinite(B)
    if np.count_nonzero(finite) < finite.size:  # a failed map's NaN row, or a non-finite b
        for i in np.flatnonzero(~finite.all(axis=1)):
            if errors[i] is None:
                errors[i] = ValueError(
                    f"coefficients of {thetas[i]!r} are not finite: {B[i].tolist()}")
                B[i], J[i] = np.nan, None
    return B, J, errors


def _concentrated(thetas: Sequence, sys: MomentSystem, cfg: HACConfig):
    """(B, stat, d_hat, flagged, errors): coefficient rows and CUE minima of the points.

    A point whose coefficient map or minimisation fails carries its exception
    in `errors` and NaN elsewhere; the other points are unaffected. (A failed
    map leaves a NaN row, which the minimisation records as singular; the
    map's own error is the one kept.) The system must be overidentified.
    """
    if sys.df <= 0:
        raise ValueError(f"just-identified or under-identified system (df={sys.df}) is unsupported")
    kern = cue_kernel(sys, cfg)
    B, _, errors = _coefficients(thetas, sys)
    n = len(B)
    stat, d_hat, flagged = np.empty(n), np.empty(n), np.empty(n, bool)
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
    d_hat = [None] * n if d_hat is None else d_hat.tolist()
    out = []
    for outcome, s, k, c, d, f in zip(errors, stat.tolist(), df, crit, d_hat, flagged.tolist()):
        if outcome is None:
            try:
                outcome = TestResult(
                    statistic=s, df=k, critical_value=c, level=level, accept=s <= c,
                    d_hat=d, bandwidth=bandwidth, variant=variant, ridge_flagged=f,
                )
            except ValueError as exc:
                outcome = exc
        out.append(outcome)
    return out


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
QLL_CRITICAL_VALUES: dict[tuple[int, float], float] = {
    (k, level): (10.0 / 11.0) * chi2_quantile(k - 1, 1.0 - (1.0 - level) / 2.0)
    + chi2_quantile(2 * k, 1.0 - (1.0 - level) / (2.0 * len(QLL_BREAK_FRACTIONS)))
    for k in range(2, 14) for level in (0.90, 0.95, 0.99)
}


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
            sides = kern.objectives(B[part], d[part])  # row x (breakpoint, side)
            np.maximum((sides[:, ::2] + sides[:, 1::2]).max(axis=1), 0.0, out=out[part])
    return float(out[0]) if np.ndim(b) == 1 else out


def qll_s_statistics(
    thetas: Sequence,
    sys: MomentSystem,
    cfg: HACConfig = HACConfig(),
    level: float = 0.90,
) -> list:
    """`qll_s_statistic` at every point: its TestResult, or the exception it raised."""
    key = (sys.k_z, level)
    if key not in QLL_CRITICAL_VALUES:
        raise ValueError(
            f"no embedded qLL critical value for {sys.k_z} moments at level {level}; "
            f"available levels: 0.90, 0.95, 0.99 for 2..13 moments"
        )
    B, s, d_hat, flagged, errors = _concentrated(thetas, sys, cfg)
    ok = np.flatnonzero([e is None for e in errors])
    stat = np.full(len(errors), np.nan)
    stat[ok] = qll_b_component(B[ok], sys, cfg, d_hat[ok])
    for i in ok[~np.isfinite(stat[ok])]:
        errors[i] = SingularCovarianceError(
            f"subsample HAC covariance singular even after ridge (d={float(d_hat[i])!r})"
        )
    stat += (10.0 / 11.0) * s
    return _results(errors, "qLL-S(sup-split)", stat, sys.df, QLL_CRITICAL_VALUES[key], level,
                    cfg.resolve_bandwidth(sys.T), d_hat, flagged)


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


#: The batch function of each test, by its `[inference] statistic` name.
STATISTICS = {"S": s_statistics, "qll": qll_s_statistics, "split": split_sample_s_statistics}


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
