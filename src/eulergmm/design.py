"""Construction of the moment system from an aligned dataset.

A `MomentSystem` packages the regressor matrix Y (in the model's fixed column
order), the included-instrument matrix X (a constant), the full instrument
matrix Z = [X | excluded], and the model's coefficient map, so that the
per-observation moment contribution is f_t = Z_t * (Y_t @ b(theta) - X_t @ d).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from . import models
from .models import CalibratedConstants, ModelKind, constants_from_calibration
from .pipeline import Dataset

#: Columns generated by the model equations; lagged values of these are only
#: valid instruments at sufficient depth given the error's MA order.
ENDOGENOUS_COLUMNS = ("delta_i", "r_p", "u")


@dataclass(frozen=True)
class ResidualSpec:
    """Error-process facts that constrain instrument choice."""

    ma_order: int
    min_instrument_lag: int


@dataclass(frozen=True)
class ModelSpec:
    """One model variant: parameters, regressor order, error and coefficient map.

    `coefficients` and `jacobian` take (params, constants); `instruments` are
    the ones a design takes when none are given; `fixed` names the parameters
    a run sets once instead of reading them off a lattice point."""

    params: type
    regressors: tuple[tuple[str, int], ...]
    residual: ResidualSpec
    coefficients: Callable[..., np.ndarray]
    jacobian: Callable[..., np.ndarray]
    instruments: InstrumentSpec
    fixed: tuple[str, ...] = ()

    @cached_property
    def free(self) -> tuple[str, ...]:
        """The parameters of a lattice point, in order."""
        return tuple(f.name for f in fields(self.params) if f.name not in self.fixed)


@dataclass(frozen=True)
class InstrumentSpec:
    """Excluded instruments: lagged endogenous columns plus external columns.

    `lags` lists (column, lag) pairs with lag > 0 meaning t - lag; external
    columns enter contemporaneously and are exogenous by assumption.
    """

    lags: tuple[tuple[str, int], ...] = (("delta_i", 1), ("r_p", 2), ("u", 1))
    external: tuple[str, ...] = ()

    def labels(self) -> list[str]:
        return [f"{name}[t-{lag}]" for name, lag in self.lags] + list(self.external)


BASELINE_INSTRUMENTS = InstrumentSpec()

#: Two-lag robustness specification.
TWO_LAG_INSTRUMENTS = InstrumentSpec(
    lags=(
        ("delta_i", 1),
        ("delta_i", 2),
        ("r_p", 2),
        ("r_p", 3),
        ("u", 1),
        ("u", 2),
    )
)

#: CAC-compatible lags (everything at depth >= 2).
CAC_INSTRUMENTS = InstrumentSpec(lags=(("delta_i", 2), ("r_p", 3), ("u", 2)))


#: The model variants by kind, read by `build_design` and by a lattice's
#: column map (`inference.lattice_columns`).
MODELS = {
    ModelKind.IAC: ModelSpec(
        models.StructuralParams, models.IAC_REGRESSORS,
        ResidualSpec(ma_order=2, min_instrument_lag=1),
        models.iac_coefficients, models.iac_jacobian, BASELINE_INSTRUMENTS),
    ModelKind.SEMI: ModelSpec(
        models.SemiStructuralParams, models.IAC_REGRESSORS,
        ResidualSpec(ma_order=2, min_instrument_lag=1),
        models.semi_coefficients, models.semi_jacobian, BASELINE_INSTRUMENTS,
        fixed=("rho",)),
    ModelKind.CAC: ModelSpec(
        models.CACParams, models.CAC_REGRESSORS,
        ResidualSpec(ma_order=2, min_instrument_lag=2),
        models.cac_coefficients, models.cac_jacobian, CAC_INSTRUMENTS),
}


@dataclass(frozen=True, eq=False)
class MomentSystem:
    """Immutable design: Y, X, Z, coefficient map, and analytic Jacobian."""

    Y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    coeff: Callable[[object], np.ndarray]
    jacobian: Optional[Callable[[object], np.ndarray]]
    y_labels: list[str]
    z_labels: list[str]

    def __post_init__(self):
        T = self.Y.shape[0]
        if self.X.shape[0] != T or self.Z.shape[0] != T:
            raise ValueError("Y, X, Z must have the same number of rows")
        for name, M in (("Y", self.Y), ("X", self.X), ("Z", self.Z)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")
        if T <= self.Z.shape[1]:
            raise ValueError(
                f"need more observations than instruments: T={T}, k_z={self.Z.shape[1]}"
            )

    @property
    def T(self) -> int:
        return self.Y.shape[0]

    @property
    def k_x(self) -> int:
        return self.X.shape[1]

    @property
    def k_z(self) -> int:
        return self.Z.shape[1]

    @property
    def df(self) -> int:
        """Degrees of freedom of the identification-robust tests."""
        return self.k_z - self.k_x


def _lagged(values: np.ndarray, offset: int, rows: np.ndarray) -> np.ndarray:
    return values[rows + offset]


def build_design(
    data: Dataset,
    model: ModelKind | str,
    instruments: Optional[InstrumentSpec] = None,
    constants: Optional[CalibratedConstants] = None,
) -> MomentSystem:
    """Assemble the moment system on the maximal window where all leads/lags exist.

    `instruments` default to the model's own (`ModelSpec.instruments`).
    Instrument lags on endogenous columns shallower than the model's minimum
    (dictated by the MA order of the error) are rejected.
    """
    model = ModelKind(model)
    constants = constants or constants_from_calibration(0.99, 0.025)
    spec = MODELS[model]
    instruments = instruments or spec.instruments

    for name, lag in instruments.lags:
        if name in ENDOGENOUS_COLUMNS and lag < spec.residual.min_instrument_lag:
            raise ValueError(
                f"instrument {name}[t-{lag}] violates exogeneity: the {model.value} "
                f"error is MA({spec.residual.ma_order}) relative to its information set, so "
                f"endogenous lags must be >= {spec.residual.min_instrument_lag}"
            )
        if lag < 0:
            raise ValueError(f"instrument lag must be >= 0, got {lag} for {name!r}")

    offsets = [off for _, off in spec.regressors] + [-lag for _, lag in instruments.lags]
    max_lead = max(0, max(offsets))
    max_lag = max(0, -min(offsets))
    N = len(data)
    if N - max_lead - max_lag <= 0:
        raise ValueError(
            f"dataset of length {N} leaves no rows after trimming "
            f"{max_lag} lag(s) and {max_lead} lead(s)"
        )
    rows = np.arange(max_lag, N - max_lead)

    Y = np.column_stack(
        [_lagged(data.column(name), off, rows) for name, off in spec.regressors]
    )
    X = np.ones((rows.size, 1))
    excluded = [
        _lagged(data.column(name), -lag, rows) for name, lag in instruments.lags
    ] + [_lagged(data.column(name), 0, rows) for name in instruments.external]
    Z = np.column_stack([X] + excluded) if excluded else X.copy()

    y_labels = [f"{name}[t{off:+d}]" if off else f"{name}[t]" for name, off in spec.regressors]
    return MomentSystem(
        Y=Y,
        X=X,
        Z=Z,
        coeff=partial(spec.coefficients, c=constants),
        jacobian=partial(spec.jacobian, c=constants),
        y_labels=y_labels,
        z_labels=["const"] + instruments.labels(),
    )


def residuals_and_moments(
    sys: MomentSystem, b: np.ndarray, d: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """Residual eps = Y @ b - X @ d and moment rows F[t] = eps[t] * Z[t]."""
    b = np.asarray(b, dtype=float)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if b.shape != (sys.Y.shape[1],):
        raise ValueError(f"b has shape {b.shape}, expected ({sys.Y.shape[1]},)")
    if d.shape != (sys.k_x,):
        raise ValueError(f"d has shape {d.shape}, expected ({sys.k_x},)")
    eps = sys.Y @ b - sys.X @ d
    return eps, sys.Z * eps[:, None]
