import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulergmm.hac import HACConfig, hac_variance


class TestConfig:
    def test_auto_rule(self):
        assert HACConfig().resolve_bandwidth(100) == 4
        assert HACConfig().resolve_bandwidth(200) == 4  # floor(4 * 2^(2/9)) = 4
        assert HACConfig().resolve_bandwidth(50000) == 15

    def test_fixed(self):
        assert HACConfig(bandwidth=7).resolve_bandwidth(100) == 7
        assert HACConfig(bandwidth=np.int64(7)).resolve_bandwidth(100) == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            HACConfig(bandwidth=-1)
        with pytest.raises(ValueError):
            HACConfig(bandwidth="automatic")
        # a bandwidth is a lag count: no float or bool stands in for one
        for bad in (2.5, 2.0, True, float("nan"), np.float64(3.0), np.True_):
            with pytest.raises(ValueError, match=re.escape(f"integer, got {bad!r}")):
                HACConfig(bandwidth=bad)
        with pytest.raises(TypeError, match="unexpected keyword"):
            HACConfig(kernel="bartlett")


class TestVariance:
    def test_bandwidth_zero_is_second_moment(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(50, 3))
        W -= W.mean(axis=0)
        V = hac_variance(W, HACConfig(bandwidth=0))
        assert np.allclose(V, W.T @ W / 50, atol=1e-14)

    def test_zero_input_gives_zero(self):
        W = np.ones((30, 2))
        W -= W.mean(axis=0)
        V = hac_variance(W, HACConfig())
        assert np.allclose(V, 0.0)

    def test_bandwidth_too_large(self):
        with pytest.raises(ValueError, match="bandwidth"):
            hac_variance(np.zeros((5, 2)), HACConfig(bandwidth=5))

    def test_ar1_long_run_variance(self):
        # AR(1) with coefficient 0.5 has long-run variance
        # sigma^2 / (1 - phi)^2; the kernel's population expectation applies
        # Bartlett weights to the analytic autocovariances
        rng = np.random.default_rng(42)
        phi, T = 0.5, 50_000
        e = rng.normal(size=(T + 200, 2))
        x = np.empty_like(e)
        x[0] = e[0]
        for t in range(1, len(e)):
            x[t] = phi * x[t - 1] + e[t]
        W = x[200:]
        W = W - W.mean(axis=0)
        cfg = HACConfig()
        V = hac_variance(W, cfg)
        B = cfg.resolve_bandwidth(T)
        gamma0 = 1.0 / (1.0 - phi**2)
        weighted = gamma0 * (
            1.0 + 2.0 * sum((1.0 - j / (B + 1.0)) * phi**j for j in range(1, B + 1))
        )
        exact = 1.0 / (1.0 - phi) ** 2
        for j in range(2):
            assert V[j, j] == pytest.approx(weighted, rel=0.03)
            assert V[j, j] == pytest.approx(exact, rel=0.10)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=8))
    def test_symmetric_and_psd(self, seed, bw):
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(3, 40, 4))
        W -= W.mean(axis=1, keepdims=True)
        cfg = HACConfig(bandwidth=bw)
        # a stack gives one covariance per leading index, each with the bits
        # of its own 2-D call
        for Wi, V in zip(W, hac_variance(W, cfg)):
            assert np.array_equal(V, hac_variance(Wi, cfg))
            assert np.array_equal(V, V.T)
            eig = np.linalg.eigvalsh(V)
            assert eig.min() >= -1e-10 * max(eig.max(), 1e-30)
