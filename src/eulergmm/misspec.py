"""Identification-vs-misspecification laboratory.

A triangular system where the shock x_t is truly AR(1) but is filtered as if
it were MA(1): the invertible pseudo-true MA root theta* is fit, the filtered
shock omega* and its implied regressor z* are constructed, and the resulting
omitted-variable bias of a regression on z* (instead of the correct z) is
demonstrated against Monte Carlo estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MisspecConfig:
    gamma: float
    sigma_omega: float = 1.0
    zeta_true: float = 1.0
    T: int = 100_000
    reps: int = 10
    seed: int = 0

    def __post_init__(self):
        if abs(self.gamma) >= 0.5:
            raise ValueError(
                f"|gamma| must be < 0.5 for an invertible pseudo-true root, got {self.gamma}"
            )
        if self.sigma_omega <= 0:
            raise ValueError(f"sigma_omega must be > 0, got {self.sigma_omega}")
        if self.T < 10:
            raise ValueError(f"T too small: {self.T}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")


@dataclass(frozen=True)
class PseudoTrueValues:
    theta_star: float
    var_omega_star: float
    cov_zstar_err: float


BURN_IN = 1000
TRUNCATION_TOL = 1e-12


def pseudo_true_theta(gamma: float) -> float:
    """Invertible root of gamma = theta/(1 + theta^2)."""
    if abs(gamma) >= 0.5:
        raise ValueError(f"|gamma| must be < 0.5, got {gamma} (root would not be invertible)")
    # conjugate form of (1 - sqrt(1 - 4 g^2)) / (2 g); avoids cancellation
    # for small gamma
    return 2.0 * gamma / (1.0 + math.sqrt(1.0 - 4.0 * gamma * gamma))


def var_omega_star_ar2(theta_star: float, sigma2_omega: float) -> float:
    """Variance of the filtered shock, AR(2)-form expression in gamma and theta*."""
    g = theta_star / (1.0 + theta_star**2)
    return (
        (1.0 - g * theta_star)
        * sigma2_omega
        / ((1.0 + g * theta_star) * (1.0 - g * g) * (1.0 - theta_star**2))
    )


def var_omega_star_simplified(theta_star: float, sigma2_omega: float) -> float:
    """Equivalent variance expression in theta* alone."""
    t2 = theta_star**2
    return (
        sigma2_omega
        * (1.0 + t2) ** 2
        / (
            (1.0 + 2.0 * t2)
            * (1.0 - theta_star + t2)
            * (1.0 + theta_star + t2)
            * (1.0 - t2)
        )
    )


def closed_form_cov(theta_star: float, sigma2_omega: float = 1.0) -> PseudoTrueValues:
    """Closed-form pseudo-true quantities as functions of theta*.

    For the process that `simulate_dgp` defines, z = gamma x and
    z* = theta* omega* with omega*_t = sum_j (-theta*)^j x_{t-j}, so
    cov(omega*, x) = var(x) / (1 + theta* gamma) and

        cov(z*, z - z*) = theta* gamma var(x) / (1 + theta* gamma)
                          - theta*^2 var(omega*).

    Substituting gamma = theta* / (1 + theta*^2) collapses this to
    -theta*^4 var(omega*) (-25/378 at theta* = 1/2). It vanishes at
    theta* = 0 (correct specification) and scales linearly in sigma2_omega.
    """
    if abs(theta_star) >= 1.0:
        raise ValueError(f"|theta_star| must be < 1, got {theta_star}")
    var_omega = var_omega_star_ar2(theta_star, sigma2_omega)
    cov = -(theta_star**4) * var_omega
    return PseudoTrueValues(theta_star=theta_star, var_omega_star=var_omega, cov_zstar_err=cov)


@dataclass(frozen=True)
class SimulatedPaths:
    """Length-T paths with the filter-truncation warmup already dropped."""

    x: np.ndarray
    omega: np.ndarray
    omega_star: np.ndarray
    z: np.ndarray
    z_star: np.ndarray
    truncation_lag: int


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def truncation_lag(theta_star: float) -> int:
    """Lags needed for the filter weights to decay below the truncation tolerance."""
    if theta_star == 0.0:
        return 0
    return int(math.ceil(math.log(TRUNCATION_TOL) / math.log(abs(theta_star))))


#: Values per block of `ar1_filter`'s Toeplitz product.
AR1_BLOCK = 64


def ar1_filter(a: float, x: np.ndarray) -> np.ndarray:
    """y_t = x_t + a y_{t-1} from y_{-1} = 0, as scipy.signal.lfilter([1], [1, -a], x).

    Each block of AR1_BLOCK values is filtered from a zero start by one
    Toeplitz product; the block ends then follow the same recursion with
    coefficient a^AR1_BLOCK, and each block adds a^(j+1) times the end of the
    block before it.
    """
    x = np.asarray(x, dtype=float)
    n, m = x.size, AR1_BLOCK
    lags = np.subtract.outer(np.arange(m), np.arange(m))
    L = np.tril(float(a) ** np.maximum(lags, 0))
    blocks = np.zeros((-(-n // m), m))
    blocks.flat[:n] = x
    y = blocks @ L.T
    if len(y) > 1:
        ends = ar1_filter(float(a) ** m, y[:, -1])
        y[1:] += ends[:-1, None] * float(a) ** np.arange(1, m + 1)
    return y.ravel()[:n]


def simulate_dgp(cfg: MisspecConfig, seed: int | None = None) -> SimulatedPaths:
    """Simulate x_t = gamma x_{t-1} + omega_t and the misfiltered shock omega*.

    omega*_t = x_t - theta* omega*_{t-1}; z_t = gamma x_t; z*_t = theta* omega*_t.
    A burn-in of 1000 periods is discarded and the first `truncation_lag`
    post-burn-in observations are dropped so the filter start-up is negligible.
    """
    rng = _rng(cfg.seed if seed is None else seed)
    theta = pseudo_true_theta(cfg.gamma)
    J = truncation_lag(theta)
    n = BURN_IN + J + cfg.T
    omega = rng.normal(0.0, cfg.sigma_omega, size=n)
    x = ar1_filter(cfg.gamma, omega)
    omega_star = ar1_filter(-theta, x)
    keep = slice(BURN_IN + J, n)
    x, omega, omega_star = x[keep], omega[keep], omega_star[keep]
    return SimulatedPaths(
        x=x,
        omega=omega,
        omega_star=omega_star,
        z=cfg.gamma * x,
        z_star=theta * omega_star,
        truncation_lag=J,
    )


def _replications(cfg: MisspecConfig, slopes: bool = True) -> np.ndarray:
    """Per replication (reps x 3): cov(z*, z - z*), then the OLS slopes of
    y = zeta z + e on z* (misspecified) and on z (correct), NaN unless `slopes`.

    Each replication's paths are simulated once and serve both statistics.
    """
    out = np.full((cfg.reps, 3), np.nan)
    for i in range(cfg.reps):
        p = simulate_dgp(cfg, seed=cfg.seed + i)
        out[i, 0] = np.cov(p.z_star, p.z - p.z_star)[0, 1]
        if slopes:
            rng = _rng(cfg.seed + 7_000_003 + i)  # shock orthogonal to the system
            y = cfg.zeta_true * p.z + rng.normal(0.0, 1.0, size=p.z.size)
            out[i, 1:] = _ols_slope(y, p.z_star), _ols_slope(y, p.z)
    return out


def _mean_se(draws: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean and its standard error (inf for a single draw)."""
    n = draws.size
    se = float(draws.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return float(draws.mean()), se


def monte_carlo_cov(cfg: MisspecConfig) -> tuple[float, float]:
    """Estimate cov(z*, z - z*) across replications; returns (estimate, std error)."""
    return _mean_se(_replications(cfg, slopes=False)[:, 0])


def _ols_slope(y: np.ndarray, x: np.ndarray) -> float:
    vx = float(np.var(x))
    if vx <= 0:
        raise ValueError("degenerate regressor variance")
    return float(np.cov(x, y)[0, 1] / np.cov(x, x)[0, 0])


def _check_regressor(cfg: MisspecConfig) -> None:
    if cfg.gamma == 0.0:
        raise ValueError(
            "bias_demo needs gamma != 0: at gamma = 0 the regressor z = gamma*x "
            "is identically zero"
        )


def _bias_summary(cfg: MisspecConfig, draws: np.ndarray) -> dict:
    theta = pseudo_true_theta(cfg.gamma)
    pt = closed_form_cov(theta, cfg.sigma_omega**2)
    var_zstar = theta**2 * pt.var_omega_star
    plim = cfg.zeta_true * (1.0 + pt.cov_zstar_err / var_zstar)
    mis, mis_se = _mean_se(draws[:, 1])
    cor, cor_se = _mean_se(draws[:, 2])
    return {
        "zeta_hat_misspecified": mis,
        "zeta_hat_misspecified_se": mis_se,
        "zeta_hat_correct": cor,
        "zeta_hat_correct_se": cor_se,
        "theoretical_plim": float(plim),
        "theta_star": theta,
        "var_omega_star": pt.var_omega_star,
        "cov_zstar_err": pt.cov_zstar_err,
    }


def bias_demo(cfg: MisspecConfig) -> dict:
    """Regress y_{t+2} = zeta z_t + e_t on z* (misspecified) and on z (correct).

    Reports Monte Carlo means of both slopes, the theoretical probability limit
    of the misspecified slope, and the across-replication standard errors. The
    plim is zeta cov(z*, z) / var(z*) = zeta * (1 + cov(z*, z - z*) / var(z*));
    with cov(z*, z - z*) = -theta*^4 var(omega*) and var(z*) = theta*^2
    var(omega*) it equals zeta * (1 - theta*^2), e.g. 0.75 zeta at gamma = 0.4.
    """
    _check_regressor(cfg)
    return _bias_summary(cfg, _replications(cfg))


def lab_report(cfg: MisspecConfig) -> dict:
    """Full laboratory output: pseudo-true values, Monte Carlo covariance, bias demo.

    The covariance and the misspecified slope carry their Monte Carlo z-scores,
    (estimate - closed form) / standard error; each replication is simulated
    once for both.
    """
    _check_regressor(cfg)
    theta = pseudo_true_theta(cfg.gamma)
    pt = closed_form_cov(theta, cfg.sigma_omega**2)
    draws = _replications(cfg)
    mc_cov, mc_se = _mean_se(draws[:, 0])
    demo = _bias_summary(cfg, draws)
    demo["z_score"] = (demo["zeta_hat_misspecified"] - demo["theoretical_plim"]) / demo[
        "zeta_hat_misspecified_se"]
    return {
        "config": {
            "gamma": cfg.gamma,
            "sigma_omega": cfg.sigma_omega,
            "zeta_true": cfg.zeta_true,
            "T": cfg.T,
            "reps": cfg.reps,
            "seed": cfg.seed,
        },
        "pseudo_true": {
            "theta_star": pt.theta_star,
            "var_omega_star": pt.var_omega_star,
            "cov_zstar_err": pt.cov_zstar_err,
        },
        "monte_carlo_cov": {
            "estimate": mc_cov,
            "std_error": mc_se,
            "z_score": (mc_cov - pt.cov_zstar_err) / mc_se,
        },
        "bias_demo": demo,
    }
