"""Long-run covariance estimation with the Bartlett (Newey-West) kernel."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class HACConfig:
    bandwidth: Union[int, str] = "auto"

    def __post_init__(self):
        b = self.bandwidth
        integer = isinstance(b, numbers.Integral) and not isinstance(b, bool)
        if not (integer or b == "auto"):
            raise ValueError(f"bandwidth must be 'auto' or an integer, got {b!r}")
        if integer and b < 0:
            raise ValueError(f"bandwidth must be >= 0, got {b}")

    def resolve_bandwidth(self, T: int) -> int:
        """`auto` uses the standard rule floor(4 * (T/100)^(2/9))."""
        if self.bandwidth == "auto":
            return math.floor(4.0 * (T / 100.0) ** (2.0 / 9.0))
        return int(self.bandwidth)


def hac_variance(W: np.ndarray, cfg: HACConfig = HACConfig()) -> np.ndarray:
    """Bartlett-kernel long-run covariance of the rows of W.

    W holds demeaned per-observation contributions, T x n, or a stack of them
    (... x T x n) with one covariance per leading index. The estimate is
    Gamma_0 + sum_j w_j (Gamma_j + Gamma_j') with w_j = 1 - j/(B+1) and
    Gamma_j = (1/T) sum_t W_t W_{t-j}', which is positive semidefinite by
    construction of the kernel.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim < 2:
        raise ValueError(f"W must be at least 2-D, got shape {W.shape}")
    T = W.shape[-2]
    B = cfg.resolve_bandwidth(T)
    if B >= T:
        raise ValueError(f"bandwidth {B} must be < T={T}")
    Wt = W.swapaxes(-1, -2)
    V = Wt @ W / T
    for j in range(1, B + 1):
        w = 1.0 - j / (B + 1.0)
        G = Wt[..., j:] @ W[..., :-j, :] / T
        V += w * (G + G.swapaxes(-1, -2))
    return 0.5 * (V + V.swapaxes(-1, -2))
