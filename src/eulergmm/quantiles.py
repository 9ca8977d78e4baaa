"""Chi-squared quantiles used as critical values."""

from __future__ import annotations

from scipy import special


def chi2_quantile(df: int, level: float) -> float:
    """Inverse CDF of the chi-squared distribution, as the upper-tail inverse
    `chdtri(df, 1 - level)` (agrees with `scipy.stats.chi2.ppf` to ~1e-14
    relative, without importing `scipy.stats`)."""
    if not isinstance(df, (int,)) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return float(special.chdtri(df, 1.0 - level))
