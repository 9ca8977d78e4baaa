"""Model variants and their coefficient maps.

Each variant maps structural parameters to the coefficient vector b multiplying
a fixed ordering of regressors, so that the equation residual is Y @ b - X @ d.
Analytic Jacobians of b with respect to the free parameters are provided for
the split-sample statistic.

A map takes its parameters as attributes of `p`: a params dataclass, whose
fields are floats, or any object whose attributes are parameter columns (a
float or an (n,) array each), which gives every point's row at once. The
operations are the same either way, so a lattice's rows equal its points'
vectors bit for bit. Where a float's arithmetic raises (a division by an
underflowed 0, an overflowed power), a column's gives inf or NaN with
numpy's warning: `inference.lattice_columns` runs the maps with warnings
off and refuses such a row as not finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np


class ModelKind(str, Enum):
    IAC = "IAC"  # investment adjustment costs
    CAC = "CAC"  # capital adjustment costs
    SEMI = "SEMI"  # semi-structural slopes at fixed rho


@dataclass(frozen=True)
class CalibratedConstants:
    """beta, delta and the derived constants shared by all variants."""

    beta: float
    delta: float
    phi_q: float
    phi_k: float
    rbar_k: float


def constants_from_calibration(beta: float, delta: float) -> CalibratedConstants:
    """Derive phi_q = beta(1-delta), phi_k = 1-phi_q, rbar_k = 1/beta - 1 + delta."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    phi_q = beta * (1.0 - delta)
    return CalibratedConstants(
        beta=beta,
        delta=delta,
        phi_q=phi_q,
        phi_k=1.0 - phi_q,
        rbar_k=1.0 / beta - 1.0 + delta,
    )


class _Point:
    """A model's parameter point: each parameter named in `positive` must be > 0."""

    positive: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self):
        for exc in violations(type(self), self).values():
            raise exc


def violations(params: type, p) -> dict[int, ValueError]:
    """The rule of `params` on `p`, a point or its parameter columns: the
    ValueError of each row whose parameter named in `params.positive` is not
    > 0, keyed by row (0 for a point). NaN breaks no rule here; its
    coefficients are not finite."""
    errors = {}
    for name in params.positive:
        column = getattr(p, name)
        bad = column <= 0
        if isinstance(bad, np.ndarray):
            rows = np.flatnonzero(bad).tolist()
            bad = zip(rows, column[rows].tolist())
        else:  # a point's float, with no array work
            bad = [(0, column)] if bad else []
        for i, v in bad:
            errors.setdefault(i, ValueError(f"{name} must be > 0, got {v}"))
    return errors


@dataclass(frozen=True)
class StructuralParams(_Point):
    """(rho, kappa, zeta): shock persistence, adjustment cost, utilization elasticity."""

    rho: float
    kappa: float
    zeta: float
    positive: ClassVar[tuple[str, ...]] = ("kappa",)


@dataclass(frozen=True)
class SemiStructuralParams(_Point):
    """(rho, varphi, phi): rho fixed per run; varphi/phi are reduced-form slopes."""

    rho: float
    varphi: float
    phi: float


@dataclass(frozen=True)
class CACParams(_Point):
    rho: float
    sigma: float
    zeta: float
    positive: ClassVar[tuple[str, ...]] = ("sigma",)


#: Regressor column orderings (leads/lags relative to the dated observation t).
IAC_REGRESSORS = (
    ("delta_i", 0),
    ("delta_i", -1),
    ("delta_i", +1),
    ("delta_i", +2),
    ("r_p", 0),
    ("r_p", -1),
    ("u", 0),
    ("u", +1),
)
CAC_REGRESSORS = (
    ("delta_i", 0),
    ("delta_i", -1),
    ("delta_i", +1),
    ("u", +1),
    ("r_p", 0),
    ("u", 0),
    ("r_p", -1),
    ("u", -1),
    ("r_p", -2),
)


def _rows(entries: list) -> np.ndarray:
    """Entries, each a float or an (n,) column, as one (m,) row or as (n, m) rows."""
    if np.ndarray not in map(type, entries):
        return np.array(entries, dtype=float)
    out = np.empty(np.broadcast_shapes(*(np.shape(e) for e in entries)) + (len(entries),))
    for j, e in enumerate(entries):
        out[..., j] = e
    return out


def _matrix(columns: list[list]) -> np.ndarray:
    """Jacobian columns, each a list of entries, as one m x p matrix or n of them."""
    rows = list(map(_rows, columns))
    if all(r.ndim == 1 for r in rows):  # one point
        return np.array(rows).T.copy()
    return np.stack(np.broadcast_arrays(*rows), axis=-1)


def _common_head(rho, c: CalibratedConstants) -> list:
    # first four entries shared by the IAC and semi-structural vectors
    b, q = c.beta, c.phi_q
    return [
        1.0 + rho * (b + q),
        -rho,
        -(b + q + rho * b * q),
        b * q,
    ]


def iac_coefficients(p: StructuralParams, c: CalibratedConstants) -> np.ndarray:
    """Coefficient vector for the IAC regressor ordering."""
    rho, kappa, zeta = p.rho, p.kappa, p.zeta
    return _rows(
        _common_head(rho, c)
        + [
            1.0 / kappa,
            -rho / kappa,
            c.phi_k * rho * zeta / kappa,
            -c.phi_k * zeta / kappa,
        ]
    )


def iac_jacobian(p: StructuralParams, c: CalibratedConstants) -> np.ndarray:
    """8x3 matrix of db/d(rho, kappa, zeta).

    kappa^2 is C's pow(kappa, 2) on a float (Python's `**`) and on a column
    (`np.float_power`): numpy's `**` squares a column by kappa * kappa, which
    can round differently. Where a float's kappa^2 overflows, `**` raises;
    where a column's does, inf * 0 makes it NaN, so the kappa column is not
    finite.
    """
    rho, kappa, zeta = p.rho, p.kappa, p.zeta
    b, q, k = c.beta, c.phi_q, c.phi_k
    d_rho = [b + q, -1.0, -b * q, 0.0, 0.0, -1.0 / kappa, k * zeta / kappa, 0.0]
    if isinstance(kappa, np.ndarray):
        kappa2 = np.float_power(kappa, 2)
        kappa2 = kappa2 * np.isfinite(kappa2)
    else:
        kappa2 = kappa**2
    d_kappa = [
        0.0,
        0.0,
        0.0,
        0.0,
        -1.0 / kappa2,
        rho / kappa2,
        -k * rho * zeta / kappa2,
        k * zeta / kappa2,
    ]
    d_zeta = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, k * rho / kappa, -k / kappa]
    return _matrix([d_rho, d_kappa, d_zeta])


def semi_coefficients(p: SemiStructuralParams, c: CalibratedConstants) -> np.ndarray:
    """Coefficient vector for the semi-structural variant (same ordering as IAC)."""
    rho = p.rho
    return _rows(
        _common_head(rho, c)
        + [p.phi, -rho * p.phi, rho * p.varphi, -p.varphi]
    )


def semi_jacobian(p: SemiStructuralParams, c: CalibratedConstants) -> np.ndarray:
    """8x2 matrix of db/d(varphi, phi) at fixed rho."""
    rho = p.rho
    d_varphi = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, rho, -1.0]
    d_phi = [0.0, 0.0, 0.0, 0.0, 1.0, -rho, 0.0, 0.0]
    return _matrix([d_varphi, d_phi])


def map_structural_to_semi(
    kappa: float, zeta: float, c: CalibratedConstants
) -> tuple[float, float]:
    """(varphi, phi) = (phi_k * zeta / kappa, 1 / kappa)."""
    StructuralParams(0.0, kappa, zeta)  # refuses kappa <= 0 as a point does
    return c.phi_k * zeta / kappa, 1.0 / kappa


def cac_coefficients(p: CACParams, c: CalibratedConstants) -> np.ndarray:
    """Coefficient vector for the CAC regressor ordering.

    The equation is used in its (1 + rho*beta)-multiplied form, keeping every
    coefficient polynomial in the parameters.
    """
    rho, sigma, zeta = p.rho, p.sigma, p.zeta
    b, d, rk = c.beta, c.delta, c.rbar_k
    s = 1.0 / (sigma * d)
    return _rows(
        [
            1.0 + rho * b,
            -rho,
            -b,
            -b * rk * zeta * s,
            s,
            b * rk * (1.0 - d + rho) * zeta * s,
            -(1.0 - d + rho) * s,
            -rho * (1.0 - d) * b * rk * zeta * s,
            rho * (1.0 - d) * s,
        ]
    )


def cac_jacobian(p: CACParams, c: CalibratedConstants) -> np.ndarray:
    """9x3 matrix of db/d(rho, sigma, zeta)."""
    rho, sigma, zeta = p.rho, p.sigma, p.zeta
    b, d, rk = c.beta, c.delta, c.rbar_k
    s = 1.0 / (sigma * d)
    d_rho = [
        b,
        -1.0,
        0.0,
        0.0,
        0.0,
        b * rk * zeta * s,
        -s,
        -(1.0 - d) * b * rk * zeta * s,
        (1.0 - d) * s,
    ]
    # every s-scaled entry is proportional to 1/sigma
    base = cac_coefficients(p, c)
    d_sigma = [0.0, 0.0, 0.0] + list((-base[..., 3:]).T / sigma)
    d_zeta = [
        0.0,
        0.0,
        0.0,
        -b * rk * s,
        0.0,
        b * rk * (1.0 - d + rho) * s,
        0.0,
        -rho * (1.0 - d) * b * rk * s,
        0.0,
    ]
    return _matrix([d_rho, d_sigma, d_zeta])


#: Published (kappa, zeta) calibrations usable as extra lattice points. The
#: first four are printed point estimates; the rest are interval midpoints.
LITERATURE_POINTS: dict[str, tuple[float, float]] = {
    "CEE": (2.48, 0.01),
    "ACEL": (1.50, 11.42),
    "JPT": (2.85, 5.30),
    "CTW": (14.30, 0.30),
    "CMR": (10.78, 2.48),
    "SW": (5.26, 1.74),
    "AABC": (3.77, 0.92),
    "IKR": (2.06, 5.63),
}
