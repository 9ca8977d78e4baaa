"""Weak-identification-robust test statistics.

All tests take a hypothesized parameter point, a `MomentSystem`, and an HAC
configuration, and return a `TestResult`. The S statistic concentrates out the
scalar constant-term coefficient d by continuously-updated minimization; the
qLL-S statistic adds a subsample-instability component; the split-sample S
statistic is robust to many weak instruments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import linalg, optimize

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
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{self.variant} {name} is not finite: {getattr(self, name)!r}")
        if self.accept != (self.statistic <= self.critical_value):
            raise ValueError("accept flag inconsistent with statistic vs critical value")

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "df": self.df,
            "critical_value": self.critical_value,
            "level": self.level,
            "accept": self.accept,
            "d_hat": self.d_hat,
            "bandwidth": self.bandwidth,
            "variant": self.variant,
            "ridge_flagged": self.ridge_flagged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


class SingularCovarianceError(ValueError):
    """Raised when the HAC covariance cannot be factorized even with a ridge."""


def _coeff_vector(theta0, sys: MomentSystem) -> np.ndarray:
    if isinstance(theta0, np.ndarray):
        return np.asarray(theta0, dtype=float)
    return np.asarray(sys.coeff(theta0), dtype=float)


def _solve_spd(V: np.ndarray, rhs: np.ndarray, context: str) -> tuple[np.ndarray, bool]:
    """Solve V x = rhs for symmetric positive-definite V.

    On factorization failure a single ridge of 1e-12 * trace/k is added and the
    result flagged; a second failure is a hard error.
    """
    try:
        c = linalg.cho_factor(V, check_finite=False)
        return linalg.cho_solve(c, rhs, check_finite=False), False
    except linalg.LinAlgError:
        pass
    k = V.shape[0]
    ridge = 1e-12 * np.trace(V) / k
    try:
        c = linalg.cho_factor(V + ridge * np.eye(k), check_finite=False)
        return linalg.cho_solve(c, rhs, check_finite=False), True
    except linalg.LinAlgError:
        raise SingularCovarianceError(
            f"HAC covariance singular even after ridge ({context})"
        ) from None


@dataclass(frozen=True)
class CUEKernel:
    """The CUE moments and their Bartlett HAC on row samples, as forms in (b, d).

    With A = [-X | Y] and c = (d, b), the residual is A c and the moment row is
    f_t = Z_t (A_t c). A is held as U R with orthonormal columns U (thin QR of
    the whole sample, the constant first), so that with u = R c a sample's
    moment sum is g = G u, G = Z'U over its rows, and the HAC of its demeaned
    rows is V = sum_pq u_p u_q H_pq, where H is the HAC of the sample's
    demeaned stacked columns Z_i U_p (kP x kP, held as P x k x P x k). Since
    |A c| = |u| and the residual's mean sits in u_0 alone, the sum cancels no
    more than the residual itself does. For fixed b, V(d) is quadratic and
    g(d) linear in d: k x k algebra per trial d, with no pass over the rows.
    Arrays carry a leading axis over the samples.
    """

    T: np.ndarray
    R: np.ndarray
    G: np.ndarray
    H: np.ndarray
    #: (Z'Z)^-1 Z'X over the whole sample, the first step of the two-step seed.
    w: np.ndarray

    @classmethod
    def build(cls, sys: MomentSystem, cfg: HACConfig, samples: tuple[slice, ...]) -> "CUEKernel":
        """Each sample's rows are demeaned and its bandwidth resolved on its own."""
        Z, X = sys.Z, sys.X
        T, k = Z.shape
        U, R = np.linalg.qr(np.column_stack([-X, sys.Y]))
        P = R.shape[0]
        M = (U[:, :, None] * Z[:, None, :]).reshape(T, P * k)
        H = np.stack([hac_variance(M[s] - M[s].mean(axis=0), cfg) for s in samples])
        G = np.stack([M[s].sum(axis=0).reshape(P, k).T for s in samples])
        ZX = Z.T @ X[:, 0]
        try:
            w = np.linalg.solve(Z.T @ Z / T, ZX)
        except np.linalg.LinAlgError:
            w = np.linalg.pinv(Z.T @ Z / T) @ ZX
        n = len(samples)
        lengths = np.array([s.stop - s.start for s in samples])
        return cls(T=lengths, R=R, G=G, H=H.reshape(n, P, k, P, k), w=w)

    def _quad(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sum_pq u_p v_q H_pq for every sample."""
        n, P, k = self.H.shape[:3]
        Hu = (u @ self.H.reshape(n, P, -1)).reshape(n, k, P, k)
        return np.einsum("niqj,q->nij", Hu, v)

    def forms(self, b: np.ndarray, d: float) -> tuple[np.ndarray, ...]:
        """(g0, g1, V0, V1, V2) with g(d + t) = g0 + t g1, V(d + t) = V0 + t V1 + t^2 V2.

        Expand about a d near the minimum: V0 then has the size of V, where an
        expansion about d = 0 would lose digits in proportion to (|Y b| / |A c|)^2.
        """
        u, v = self.R @ np.append(d, b), self.R[:, 0]
        C = self._quad(u, v)
        return (self.G @ u, self.G @ v, self._quad(u, u), C + C.transpose(0, 2, 1),
                self._quad(v, v))

    def objectives(self, b: np.ndarray, d: float) -> np.ndarray:
        """The CUE objective (1/T) g' V^-1 g of every sample at (b, d)."""
        u = self.R @ np.append(d, b)
        g = self.G @ u
        x = _solve(self._quad(u, u), g[:, :, None], np.full(len(g), d))[:, :, 0]
        return np.einsum("ni,ni->n", g, x) / self.T


def cue_kernel(
    sys: MomentSystem, cfg: HACConfig, samples: Optional[tuple[slice, ...]] = None
) -> CUEKernel:
    """The CUE kernel of `samples` (default: all rows) of `sys`, cached on it.

    Concurrent first calls may each build the kernel; the builds are
    identical, so either may be kept.
    """
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


#: Trial values of d scanned across the bracket before the slope-root polish.
CUE_SCAN_POINTS = 65

_EPS = np.finfo(float).eps


def _solve(V: np.ndarray, rhs: np.ndarray, d) -> np.ndarray:
    """V x = rhs, for one V or a stack; a singular V goes to `_solve_spd` (d names it)."""
    try:
        return np.linalg.solve(V, rhs)
    except np.linalg.LinAlgError:
        if V.ndim == 2:
            return _solve_spd(V, rhs, context=f"d={d!r}")[0]
        return np.array([_solve(Vi, ri, di) for Vi, ri, di in zip(V, rhs, d)])


def minimize_cue(
    sys: MomentSystem, b: np.ndarray, cfg: HACConfig
) -> tuple[float, float, bool]:
    """Minimize the CUE objective over the scalar d; returns (stat, d_hat, flagged).

    The two-step GMM estimate d0 and its standard error se set the bracket
    d0 +- 10 se. A scan of the bracket finds every node pair where the analytic
    slope turns from negative to positive; each such root is polished to
    machine precision, and the lowest of these minima and the two bracket ends
    is returned. The ridge flag is that of the solve at d_hat.
    """
    kern = cue_kernel(sys, cfg)
    b = np.asarray(b, dtype=float)

    # two-step seed: the first step weighs the moments by (Z'Z)^-1, the second
    # by V(d1)^-1; everything after is in t = d - d1
    a, c = kern.G[0] @ (kern.R[:, 1:] @ b), -(kern.G[0] @ kern.R[:, 0])
    d1 = float(kern.w @ a) / float(kern.w @ c)
    if not np.isfinite(d1):
        d1 = 0.0
    g0, g1, V0, V1, V2 = (f[0] for f in kern.forms(b, d1))
    sol, _ = _solve_spd(V0, np.column_stack([g0, c]), context=f"two-step seed d={d1!r}")
    denom = float(c @ sol[:, 1])
    if denom > 0:
        t0, se = float(c @ sol[:, 0]) / denom, float(np.sqrt(sys.T / denom))
    else:
        t0, se = 0.0, max(1.0, abs(d1))
    if not np.isfinite(t0):
        t0, se = 0.0, 1.0
    se = max(se, 1e-12)

    def slope(t):
        x = _solve(V0 + t * (V1 + t * V2), g0 + t * g1, d1 + t)
        return 2.0 * g1 @ x - x @ (V1 + 2.0 * t * V2) @ x

    t = t0 + se * np.linspace(-10.0, 10.0, CUE_SCAN_POINTS)
    tt = t[:, None, None]
    g = g0 + t[:, None] * g1
    x = _solve(V0 + tt * (V1 + tt * V2), g[:, :, None], d1 + t)[:, :, 0]
    q = np.einsum("ni,ni->n", g, x)
    s = 2.0 * x @ g1 - np.einsum("ni,nij,nj->n", x, V1 + 2.0 * tt * V2, x)

    cands = [(q[0], t[0]), (q[-1], t[-1])]
    xtol = 1e-12 * se
    for i in np.flatnonzero((s[:-1] < 0.0) & (s[1:] >= 0.0)):
        r = optimize.brentq(slope, t[i], t[i + 1], xtol=xtol, rtol=4.0 * _EPS)
        gr = g0 + r * g1
        cands.append((gr @ _solve(V0 + r * (V1 + r * V2), gr, d1 + r), r))
    best = min((cand for cand in cands if np.isfinite(cand[0])), default=(0.0, t0))[1]
    gb = g0 + best * g1
    d_hat = d1 + best
    xb, flagged = _solve_spd(V0 + best * (V1 + best * V2), gb, context=f"d={d_hat!r}")
    return float(gb @ xb) / sys.T, float(d_hat), flagged


def s_statistic(
    theta0,
    sys: MomentSystem,
    cfg: HACConfig = HACConfig(),
    level: float = 0.90,
) -> TestResult:
    """S test: the concentrated CUE objective against a chi-squared critical value."""
    if sys.df <= 0:
        raise ValueError(
            f"just-identified or under-identified system (df={sys.df}) is unsupported"
        )
    b = _coeff_vector(theta0, sys)
    stat, d_hat, flagged = minimize_cue(sys, b, cfg)
    crit = chi2_quantile(sys.df, level)
    return TestResult(
        statistic=stat,
        df=sys.df,
        critical_value=crit,
        level=level,
        accept=stat <= crit,
        d_hat=d_hat,
        bandwidth=cfg.resolve_bandwidth(sys.T),
        variant="S",
        ridge_flagged=flagged,
    )


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


def qll_b_component(
    b: np.ndarray, sys: MomentSystem, cfg: HACConfig, d_hat: float
) -> float:
    """Subsample-instability component: sup over breakpoints of S_pre + S_post.

    This is a non-canonical, clearly-labeled fallback: holding d at the
    full-sample optimum, it detects moment violations that cancel over the
    full sample by evaluating the objective on each side of every candidate
    breakpoint and taking the worst one.
    """
    T = sys.T
    taus = [int(round(frac * T)) for frac in QLL_BREAK_FRACTIONS]
    samples = tuple(
        part for tau in taus if sys.k_z < tau < T - sys.k_z
        for part in (slice(0, tau), slice(tau, T))
    )
    if not samples:
        return 0.0
    sides = cue_kernel(sys, cfg, samples).objectives(b, d_hat).reshape(-1, 2)
    return max(0.0, float(sides.sum(axis=1).max()))


def qll_s_statistic(
    theta0,
    sys: MomentSystem,
    cfg: HACConfig = HACConfig(),
    level: float = 0.90,
    b_component: Optional[float] = None,
) -> TestResult:
    """qLL-S test: (10/11) * S + a nonnegative subsample-violation component.

    The component defaults to the sup-split fallback (`qll_b_component`);
    passing `b_component` substitutes an externally computed value. Critical
    values come from the embedded table keyed by (moment count, level).
    """
    if sys.df <= 0:
        raise ValueError(
            f"just-identified or under-identified system (df={sys.df}) is unsupported"
        )
    if sys.k_x != 1:
        raise ValueError("the qLL fallback supports only a scalar included instrument")
    key = (sys.k_z, round(level, 6))
    if key not in QLL_CRITICAL_VALUES:
        raise ValueError(
            f"no embedded qLL critical value for {sys.k_z} moments at level {level}; "
            f"available levels: 0.90, 0.95, 0.99 for 2..13 moments"
        )
    b = _coeff_vector(theta0, sys)
    s, d_hat, flagged = minimize_cue(sys, b, cfg)
    B = qll_b_component(b, sys, cfg, d_hat) if b_component is None else float(b_component)
    if B < 0:
        raise ValueError(f"subsample component must be >= 0, got {B}")
    stat = (10.0 / 11.0) * s + B
    crit = QLL_CRITICAL_VALUES[key]
    return TestResult(
        statistic=stat,
        df=sys.df,
        critical_value=crit,
        level=level,
        accept=stat <= crit,
        d_hat=d_hat,
        bandwidth=cfg.resolve_bandwidth(sys.T),
        variant="qLL-S(sup-split)",
        ridge_flagged=flagged,
    )


# --- split-sample S ----------------------------------------------------------


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
    freedom equal the number of free structural parameters.
    """
    if sys.jacobian is None:
        raise ValueError("split-sample statistic needs an analytic coefficient Jacobian")
    b = _coeff_vector(theta0, sys)
    J = np.asarray(sys.jacobian(theta0), dtype=float)
    n_p = J.shape[1]

    T = sys.T
    T1 = int(np.floor(split.first_fraction * T))
    start2 = T1 + split.gap
    T2 = T - start2
    if T1 < sys.k_z + 1 or T2 < sys.k_z + 1:
        raise ValueError(
            f"subsamples too short: T1={T1}, T2={T2}, need >= {sys.k_z + 1} each"
        )

    Ybar = sys.Y - sys.Y.mean(axis=0)
    Zex = sys.Z[:, 1:]  # drop the constant
    Zbar = Zex - Zex.mean(axis=0)

    W = Ybar @ J  # T x n_p combinations whose fit is learned on sample 1
    Z1, W1 = Zbar[:T1], W[:T1]
    try:
        pi1 = linalg.solve(Z1.T @ Z1, Z1.T @ W1, assume_a="sym")
    except linalg.LinAlgError:
        raise ValueError("singular Z'Z on the first subsample") from None

    Z2, Y2 = Zbar[start2:], Ybar[start2:]
    What2 = Z2 @ pi1
    resid2 = Y2 @ b
    v = What2 * resid2[:, None]  # T2 x n_p per-observation contributions
    s = v.sum(axis=0)
    Omega = hac_variance(v, cfg)
    x, _ = _solve_spd(Omega, s, context="split-sample Omega")
    stat = float(s @ x) / T2

    crit = chi2_quantile(n_p, level)
    return TestResult(
        statistic=stat,
        df=n_p,
        critical_value=crit,
        level=level,
        accept=stat <= crit,
        d_hat=None,
        bandwidth=cfg.resolve_bandwidth(T2),
        variant="split-S",
    )


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
