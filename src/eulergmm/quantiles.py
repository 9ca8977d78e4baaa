"""Chi-squared quantiles used as critical values.

`chi2_quantile(df, level)` solves `Q(df/2, x/2) = 1 - level` for x, where Q is
the regularized upper incomplete gamma function. Q comes from its power series
(through the lower tail P = 1 - Q) when `y < a + 1`, and from a modified-Lentz
continued fraction otherwise. Halley steps start from the Wilson-Hilferty
approximation, and the residual is taken on whichever tail is below one half,
so the Bonferroni levels `1 - a/(2m)` keep full relative accuracy. Only the
standard library is used. The tests check it against `scipy.stats.chi2.ppf` to 1e-12 relative
for df 1-60 at levels 0.01 to 1 - 0.01/14 and at every level behind
`inference.QLL_CRITICAL_VALUES`; the largest error there is 5.3e-15.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache

_EPS = 1e-16
_TINY = 1e-300
_MAX_TERMS = 1000


def _tails(a: float, y: float) -> tuple[float, float]:
    """Regularized incomplete gamma (P, Q) at shape a and argument y > 0."""
    log_front = a * math.log(y) - y - math.lgamma(a)
    if y < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(_MAX_TERMS):
            ap += 1.0
            term *= y / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        p = total * math.exp(log_front)
        return p, 1.0 - p
    b = y + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = d if abs(d) > _TINY else _TINY
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    q = h * math.exp(log_front)
    return 1.0 - q, q


def _normal_upper_quantile(q: float) -> float:
    """z with upper normal tail q (Abramowitz and Stegun 26.2.23, |error| < 4.5e-4)."""
    t = math.sqrt(-2.0 * math.log(min(q, 1.0 - q)))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t ** 3
    )
    return z if q <= 0.5 else -z


@lru_cache(maxsize=None)
def _upper_inverse(df: int, q: float) -> float:
    """x with chi-squared(df) upper tail q."""
    a = 0.5 * df
    v = 2.0 / (9.0 * df)
    base = 1.0 - v + _normal_upper_quantile(q) * math.sqrt(v)
    if base > 0.0:
        y = 0.5 * df * base ** 3
    else:  # far lower tail: P(a, y) ~ y^a / Gamma(a + 1)
        y = math.exp((math.log1p(-q) + math.lgamma(a + 1.0)) / a)
    for _ in range(100):
        p_y, q_y = _tails(a, y)
        # Q(y) - q, on the tail below one half (1 - q is exact when q >= 0.5)
        resid = q_y - q if q < 0.5 else (1.0 - q) - p_y
        slope = math.exp((a - 1.0) * math.log(y) - y - math.lgamma(a))  # -dQ/dy
        newton = -resid / slope
        halley = 1.0 - 0.5 * newton * ((a - 1.0) / y - 1.0)
        step = newton / halley if halley > 0.5 else newton
        y_new = y - step if y - step > 0.0 else 0.5 * y
        if abs(y_new - y) <= 1e-12 * y_new:  # Halley: the next step would be ~1e-36
            return 2.0 * y_new
        y = y_new
    return 2.0 * y


def chi2_quantile(df: int, level: float) -> float:
    """Inverse CDF of the chi-squared distribution at `level`, memoised per (df, level)."""
    if isinstance(df, bool) or not isinstance(df, numbers.Integral) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return _upper_inverse(operator.index(df), 1.0 - level)
