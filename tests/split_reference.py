"""Per-point reference for the split-sample S statistic, kept as the oracle of the batch.

`split_sample_s_statistic` is the library's earlier per-point path: each point
fits its own combinations `Ybar J` on the first subsample and rebuilds the
2-D HAC of its contributions. It reports no ridge flag.
"""

from __future__ import annotations

import numpy as np

from eulergmm.design import MomentSystem
from eulergmm.hac import HACConfig, hac_variance
from eulergmm.inference import SplitSpec, TestResult
from eulergmm.quantiles import chi2_quantile
from spd_reference import solve_spd


def _coeff_vector(theta0, sys: MomentSystem) -> np.ndarray:
    if isinstance(theta0, np.ndarray):
        return np.asarray(theta0, dtype=float)
    return np.asarray(sys.coeff(theta0), dtype=float)


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
        pi1 = np.linalg.solve(Z1.T @ Z1, Z1.T @ W1)
    except np.linalg.LinAlgError:
        raise ValueError("singular Z'Z on the first subsample") from None

    Z2, Y2 = Zbar[start2:], Ybar[start2:]
    What2 = Z2 @ pi1
    resid2 = Y2 @ b
    v = What2 * resid2[:, None]  # T2 x n_p per-observation contributions
    s = v.sum(axis=0)
    Omega = hac_variance(v, cfg)
    x, _ = solve_spd(Omega, s, context="split-sample Omega")
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

