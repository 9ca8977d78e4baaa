import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

import eulergmm
from eulergmm.inference import QLL_BREAK_FRACTIONS, QLL_CRITICAL_VALUES
from eulergmm.quantiles import chi2_quantile


def _bisection_oracle(df: int, level: float) -> float:
    """Independent inversion of the regularized incomplete gamma CDF."""
    lo, hi = 0.0, 1000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if special.gammainc(df / 2.0, mid / 2.0) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestChi2Quantile:
    @pytest.mark.parametrize(
        "df,level,expected",
        [(3, 0.90, 6.25139), (1, 0.90, 2.70554), (2, 0.95, 5.99146)],
    )
    def test_reference_values(self, df, level, expected):
        assert chi2_quantile(df, level) == pytest.approx(expected, abs=1e-5)
        assert chi2_quantile(df, level) == pytest.approx(
            _bisection_oracle(df, level), abs=1e-8
        )

    def test_df2_analytic(self):
        assert chi2_quantile(2, 0.95) == pytest.approx(-2.0 * math.log(0.05), abs=1e-10)

    def test_monotone_in_df(self):
        values = [chi2_quantile(df, 0.90) for df in range(1, 15)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_level(self):
        levels = [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999]
        values = [chi2_quantile(4, p) for p in levels]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("df,level", [
        (0, 0.9), (-1, 0.9), (3, 0.0), (3, 1.0), (2.5, 0.9), (True, 0.9), (np.int64(0), 0.9),
    ])
    def test_invalid_inputs(self, df, level):
        with pytest.raises(ValueError):
            chi2_quantile(df, level)

    def test_numpy_integer_df(self):
        # a per-point df read off an array is a numpy integer
        for df in (np.int64(3), np.int32(1), np.uint8(12)):
            assert chi2_quantile(df, 0.9) == chi2_quantile(int(df), 0.9)


def test_cli_import_leaves_scipy_stats_unloaded():
    # numpy is the only runtime dependency: `import numpy, scipy.special` alone
    # is about four times `import numpy`; and the library runs no thread pool
    code = (
        "import sys, eulergmm.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m.startswith('concurrent.futures')])"
    )
    # the child imports the eulergmm under test, which pytest's pythonpath finds
    src = os.path.dirname(os.path.dirname(eulergmm.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "[]"


def _qll_levels() -> list[float]:
    """Every level the qLL-S table is given at, and the two Bonferroni levels behind each."""
    m = len(QLL_BREAK_FRACTIONS)
    levels = sorted({level for _, level in QLL_CRITICAL_VALUES})
    return levels + [1 - (1 - v) / 2 for v in levels] + [1 - (1 - v) / (2 * m) for v in levels]


def test_matches_scipy_stats_ppf():
    from scipy import stats

    levels = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995,
              1 - 0.1 / 14, 1 - 0.01 / 14] + _qll_levels()
    for df in range(1, 61):
        for level in levels:
            assert chi2_quantile(df, level) == pytest.approx(
                stats.chi2.ppf(level, df), rel=1e-12
            ), (df, level)
