"""Per-matrix reference for the library's SPD solve, kept as the oracle of the stacked one.

`solve_spd` is the library's earlier `_solve_spd`, one matrix at a time, and
`solve` its earlier `_solve` for one matrix: an LU solve, and `solve_spd`'s
ridge where LU fails. `solve_rows` is that `_solve` on a stack, the solver of
the earlier lattice minimiser `cue_reference.minimize_rows`. The per-point
references `cue_reference` and `split_reference` solve through `solve_spd`,
so neither oracle shares its solver with the library.
"""

from __future__ import annotations

import numpy as np

from eulergmm.inference import SingularCovarianceError


def solve_spd(V: np.ndarray, rhs: np.ndarray, context: str) -> tuple[np.ndarray, bool]:
    """Solve V x = rhs for symmetric positive-definite V: (x, flagged).

    A Cholesky factorization decides definiteness and conditioning. When it
    fails, or its smallest squared pivot is below the ridge 1e-12 * trace/k,
    that ridge is added and the result flagged; a failure of the ridged V's
    Cholesky is a hard error.
    """
    ridge = 1e-12 * V.trace() / V.shape[-1]
    try:
        if np.linalg.cholesky(V).diagonal().min() ** 2 >= ridge:
            return np.linalg.solve(V, rhs), False
    except np.linalg.LinAlgError:
        pass
    V = V + ridge * np.eye(V.shape[0])
    try:
        np.linalg.cholesky(V)
        return np.linalg.solve(V, rhs), True
    except np.linalg.LinAlgError:
        raise SingularCovarianceError(
            f"HAC covariance singular even after ridge ({context})"
        ) from None


def solve(V: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """V x = rhs by LU; a singular V takes `solve_spd`'s ridge, or NaN past it."""
    try:
        return np.linalg.solve(V, rhs)
    except np.linalg.LinAlgError:
        pass
    try:
        return solve_spd(V, rhs, context="")[0]
    except SingularCovarianceError:
        return np.full(rhs.shape, np.nan)


def solve_rows(V: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """`solve` of every matrix of a stack (any batch axes): one stacked LU, and
    `solve` matrix by matrix where a V of the stack is singular."""
    try:
        return np.linalg.solve(V, rhs)
    except np.linalg.LinAlgError:
        k = V.shape[-1]
        x = [solve(v, r) for v, r in zip(V.reshape(-1, k, k), rhs.reshape((-1,) + rhs.shape[-2:]))]
        return np.array(x).reshape(rhs.shape)
