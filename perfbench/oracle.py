"""Independent reference statistics for the benchmark's checks.

Written with numpy and scipy only, from the definitions of the tests, and
sharing no code with `eulergmm`:

- the Bartlett (Newey-West) long-run covariance with the automatic lag rule
  floor(4 (T/100)^(2/9));
- the continuously-updated (CUE) objective (1/T) g' V(d)^-1 g, with V rebuilt
  from the demeaned moment rows at every trial constant d;
- the S statistic: that objective minimised over d by a wide dense scan
  (mean +- 5 standard deviations of the residual, 2001 points) and a bounded
  polish, a root search of its analytic slope between the scan points next
  to the best one;
- the qLL-S statistic (10/11) S + B, where B is the largest sum of the two
  subsample objectives at the full-sample d over the breakpoint fractions;
- the split-sample S statistic;
- chi-squared critical values from `scipy.special.chdtri` and the qLL-S
  critical value from its Bonferroni formula;
- the IAC and SEMI coefficient maps, transcribed from the Euler equation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

BETA, DELTA = 0.99, 0.025
PHI_Q = BETA * (1.0 - DELTA)
PHI_K = 1.0 - PHI_Q

#: Regressor order of the IAC and SEMI equations (leads and lags of t).
IAC_REGRESSORS = (
    "delta_i[t]", "delta_i[t-1]", "delta_i[t+1]", "delta_i[t+2]",
    "r_p[t]", "r_p[t-1]", "u[t]", "u[t+1]",
)

QLL_BREAK_FRACTIONS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
SCAN_HALF_WIDTH = 5.0
SCAN_POINTS = 2001
_SCAN_CHUNK = 500


def bandwidth(T: int) -> int:
    return int(math.floor(4.0 * (T / 100.0) ** (2.0 / 9.0)))


def chi2_critical(df: int, level: float) -> float:
    return float(special.chdtri(df, 1.0 - level))


def qll_critical(k: int, level: float) -> float:
    a = 1.0 - level
    m = len(QLL_BREAK_FRACTIONS)
    return (10.0 / 11.0) * float(special.chdtri(k - 1, a / 2.0)) + float(
        special.chdtri(2 * k, a / (2.0 * m))
    )


def _head(rho: float) -> list[float]:
    return [1.0 + rho * (BETA + PHI_Q), -rho, -(BETA + PHI_Q + rho * BETA * PHI_Q), BETA * PHI_Q]


def iac_b(rho: float, kappa: float, zeta: float) -> np.ndarray:
    return np.array(_head(rho) + [
        1.0 / kappa, -rho / kappa, PHI_K * rho * zeta / kappa, -PHI_K * zeta / kappa,
    ])


def semi_b(rho: float, varphi: float, phi: float) -> np.ndarray:
    return np.array(_head(rho) + [phi, -rho * phi, rho * varphi, -varphi])


def bartlett_cross(X: np.ndarray, Y: np.ndarray, lags: int) -> np.ndarray:
    """Bilinear Bartlett form of the rows of X and Y (last two axes: time, moment).

    bartlett_cross(W, W, lags) is the long-run covariance
    Gamma_0 + sum_j (1 - j/(lags+1)) (Gamma_j + Gamma_j'), Gamma_j = W[j:]'W[:-j]/T.
    """
    T = X.shape[-2]
    Xt = np.swapaxes(X, -1, -2)
    V = Xt @ Y / T
    for j in range(1, lags + 1):
        V = V + (1.0 - j / (lags + 1.0)) * (
            Xt[..., :, j:] @ Y[..., :-j, :] + Xt[..., :, :-j] @ Y[..., j:, :]
        ) / T
    return V


def _moments(e: np.ndarray, Z: np.ndarray, d: np.ndarray, lags: int | None):
    T = e.shape[0]
    B = bandwidth(T) if lags is None else lags
    F = Z[None, :, :] * (e[None, :] - d[:, None])[:, :, None]
    W = F - F.mean(axis=1, keepdims=True)
    g = F.sum(axis=1)
    V = bartlett_cross(W, W, B)
    return W, g, V, np.linalg.solve(V, g[:, :, None])[:, :, 0], B


def cue(e: np.ndarray, Z: np.ndarray, d, lags: int | None = None) -> np.ndarray:
    """CUE objective (1/T) g' V^-1 g at each trial constant in `d`."""
    _, g, _, x, _ = _moments(e, Z, np.atleast_1d(np.asarray(d, dtype=float)), lags)
    return np.einsum("ni,ni->n", g, x) / e.shape[0]


def cue_slope(e: np.ndarray, Z: np.ndarray, d: float, lags: int | None = None) -> float:
    """Analytic derivative of the CUE objective in d: (2 g_d'x - x'V_d x)/T."""
    W, _, _, x, B = _moments(e, Z, np.array([float(d)]), lags)
    Zc = (Z - Z.mean(axis=0))[None]
    V_d = -(bartlett_cross(Zc, W, B) + bartlett_cross(W, Zc, B))[0]
    x = x[0]
    return float(-2.0 * Z.sum(axis=0) @ x - x @ V_d @ x) / e.shape[0]


def s_statistic(e: np.ndarray, Z: np.ndarray, lags: int | None = None) -> tuple[float, float]:
    """Concentrated S statistic and its minimising constant d.

    The scan brackets the global minimum; the polish finds the root of the
    analytic slope inside the bracket, which locates d to machine precision
    (a search on objective values alone stops near sqrt(eps) relative).
    """
    scale = float(e.std()) or 1.0
    grid = e.mean() + scale * np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, SCAN_POINTS)
    q = np.concatenate([
        cue(e, Z, grid[i:i + _SCAN_CHUNK], lags) for i in range(0, grid.size, _SCAN_CHUNK)
    ])
    i = int(np.argmin(q))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    if cue_slope(e, Z, lo, lags) < 0.0 < cue_slope(e, Z, hi, lags):
        d = optimize.brentq(lambda x: cue_slope(e, Z, x, lags), lo, hi, xtol=1e-300, rtol=1e-15)
    else:  # minimum on the scan's edge: keep the best scan point
        d = grid[i]
    return float(cue(e, Z, d, lags)[0]), float(d)


def qll_statistic(
    e: np.ndarray, Z: np.ndarray, lags: int | None = None
) -> tuple[float, float, float]:
    """(qLL-S statistic, S, B) with B evaluated at the full-sample d."""
    s, d = s_statistic(e, Z, lags)
    T, k = Z.shape
    best = 0.0
    for frac in QLL_BREAK_FRACTIONS:
        tau = int(round(frac * T))
        if tau <= k or T - tau <= k:
            continue
        pre = cue(e[:tau], Z[:tau], d, lags)[0]
        post = cue(e[tau:], Z[tau:], d, lags)[0]
        best = max(best, float(pre + post))
    return (10.0 / 11.0) * s + best, s, best


def split_statistic(
    Y: np.ndarray, Z: np.ndarray, b: np.ndarray, J: np.ndarray,
    first_fraction: float = 0.45, gap: int = 3,
) -> float:
    """Split-sample S: instruments fitted on the first part, moments on the second."""
    T = Y.shape[0]
    T1 = int(math.floor(first_fraction * T))
    start2 = T1 + gap
    T2 = T - start2
    Ybar = Y - Y.mean(axis=0)
    Zex = Z[:, 1:] - Z[:, 1:].mean(axis=0)
    W = Ybar @ J
    pi1 = np.linalg.solve(Zex[:T1].T @ Zex[:T1], Zex[:T1].T @ W[:T1])
    v = (Zex[start2:] @ pi1) * (Ybar[start2:] @ b)[:, None]
    s = v.sum(axis=0)
    Omega = bartlett_cross(v, v, bandwidth(T2))
    return float(s @ np.linalg.solve(Omega, s)) / T2
