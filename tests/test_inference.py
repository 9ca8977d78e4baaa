import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from eulergmm.design import BASELINE_INSTRUMENTS, MomentSystem, build_design
from eulergmm.hac import HACConfig
from eulergmm.inference import (
    QLL_CRITICAL_VALUES,
    SingularCovarianceError,
    SplitSpec,
    TestResult as Result,
    cue_objective,
    first_stage_diagnostics,
    minimize_cue,
    qll_b_component,
    qll_s_statistic,
    qll_s_statistics,
    s_statistic,
    s_statistics,
    split_sample_s_statistic,
    split_sample_s_statistics,
)
from eulergmm.models import StructuralParams
from eulergmm.pipeline import Dataset
from eulergmm.quarters import QuarterIndex
from test_acceptance import ma2_null_system, weak_iv_system


def toy_system(T=120, k_excluded=3, seed=0, ma=(0.3, 0.1), d_true=0.7):
    """Scalar-regressor null system: y = d + MA(2) noise, iid instruments."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=T + 2)
    eps = e[2:] + ma[0] * e[1:-1] + ma[1] * e[:-2]
    y = d_true + eps
    Z = np.column_stack([np.ones(T), rng.normal(size=(T, k_excluded))])
    return MomentSystem(
        Y=y[:, None],
        X=np.ones((T, 1)),
        Z=Z,
        coeff=lambda th: np.asarray(th, float),
        jacobian=None,
        y_labels=["y"],
        z_labels=["const"] + [f"z{i}" for i in range(k_excluded)],
    )


class TestSStatistic:
    def test_exact_orthogonality_gives_zero(self):
        # construct a residual that is exactly orthogonal in sample to every
        # instrument at d* = 1.3: the objective's minimum is 0 there
        T = 80
        rng = np.random.default_rng(1)
        Z = np.column_stack([np.ones(T), rng.normal(size=(T, 2))])
        eps = rng.normal(size=T)
        eps -= Z @ np.linalg.lstsq(Z, eps, rcond=None)[0]
        sys_ = MomentSystem(
            Y=(1.3 + eps)[:, None],
            X=np.ones((T, 1)),
            Z=Z,
            coeff=lambda th: np.asarray(th, float),
            jacobian=None,
            y_labels=["y"],
            z_labels=["const", "z1", "z2"],
        )
        r = s_statistic(np.array([1.0]), sys_, HACConfig(bandwidth=0))
        assert r.statistic == pytest.approx(0.0, abs=1e-10)
        assert r.d_hat == pytest.approx(1.3, abs=1e-6)
        assert r.accept

    def test_just_identified_rejected(self):
        sys_ = toy_system(k_excluded=0)
        with pytest.raises(ValueError, match="unsupported"):
            s_statistic(np.array([1.0]), sys_)

    def test_instrument_rotation_invariance(self):
        sys_ = toy_system(seed=5)
        r0 = s_statistic(np.array([1.0]), sys_)
        rng = np.random.default_rng(99)
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        Z2 = sys_.Z.copy()
        Z2[:, 1:] = sys_.Z[:, 1:] @ A
        sys2 = MomentSystem(
            Y=sys_.Y, X=sys_.X, Z=Z2, coeff=sys_.coeff, jacobian=None,
            y_labels=sys_.y_labels, z_labels=sys_.z_labels,
        )
        r1 = s_statistic(np.array([1.0]), sys2)
        assert r1.statistic == pytest.approx(r0.statistic, rel=1e-8)

    def test_residual_scale_invariance(self):
        # b -> c*b (and the concentrated d following along) rescales the
        # residual; the recomputed V^{-1} cancels the scale
        sys_ = toy_system(seed=6)
        r0 = s_statistic(np.array([1.0]), sys_)
        r1 = s_statistic(np.array([37.5]), sys_)
        assert r1.statistic == pytest.approx(r0.statistic, rel=1e-8)
        assert r1.d_hat == pytest.approx(37.5 * r0.d_hat, rel=1e-4)

    def test_local_minimum_certificate(self):
        sys_ = toy_system(seed=7)
        cfg = HACConfig()
        stat, d_hat, _ = minimize_cue(sys_, np.array([1.0]), cfg)
        scale = max(abs(d_hat), 1.0)
        for eps in (1e-4 * scale, -1e-4 * scale):
            perturbed, _ = cue_objective(sys_, np.array([1.0]), d_hat + eps, cfg)
            assert perturbed >= stat - 1e-10

    def test_result_serialization(self):
        r = s_statistic(np.array([1.0]), toy_system(seed=8))
        payload = json.loads(r.to_json())
        assert set(payload) == {
            "statistic", "df", "critical_value", "level", "accept",
            "d_hat", "bandwidth", "variant", "ridge_flagged",
        }
        assert payload["ridge_flagged"] is False
        assert payload["variant"] == "S"
        assert payload["df"] == 3

    def test_accept_flag_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Result(statistic=10.0, df=3, critical_value=6.25, level=0.9, accept=True)

    @pytest.mark.parametrize("stat,crit", [(np.nan, 6.25), (np.inf, 6.25), (1.0, np.nan)])
    def test_non_finite_values_rejected(self, stat, crit):
        # NaN <= crit is False, so a NaN statistic would otherwise read as a reject
        with pytest.raises(ValueError, match="not finite"):
            Result(statistic=stat, df=3, critical_value=crit, level=0.9, accept=False)

    def test_ridge_flag_serialized(self):
        r = Result(statistic=1.0, df=3, critical_value=6.25, level=0.9, accept=True,
                   ridge_flagged=True)
        assert r.to_dict()["ridge_flagged"] is True


class TestQLLStatistic:
    def test_combination_of_s_and_component(self):
        sys_ = toy_system(seed=9)
        cfg = HACConfig(bandwidth=2)
        s = s_statistic(np.array([1.0]), sys_, cfg)
        q = qll_s_statistic(np.array([1.0]), sys_, cfg)
        comp = qll_b_component(np.array([1.0]), sys_, cfg, s.d_hat)
        assert q.statistic == pytest.approx(10.0 / 11.0 * s.statistic + comp, rel=1e-12)
        assert "sup-split" in q.variant

    def test_component_nonnegative(self):
        sys_ = toy_system(seed=10)
        q = qll_s_statistic(np.array([1.0]), sys_, HACConfig(bandwidth=2))
        s = s_statistic(np.array([1.0]), sys_, HACConfig(bandwidth=2))
        assert q.statistic >= 10.0 / 11.0 * s.statistic - 1e-12

    def test_missing_critical_value_entry(self):
        sys_ = toy_system(seed=11)
        with pytest.raises(ValueError, match="critical value"):
            qll_s_statistic(np.array([1.0]), sys_, level=0.8)

    def test_level_is_looked_up_exactly(self):
        sys_ = toy_system(seed=11)
        with pytest.raises(ValueError, match="no embedded qLL critical value"):
            qll_s_statistic(np.array([1.0]), sys_, level=0.9000004)
        assert qll_s_statistic(np.array([1.0]), sys_, level=0.9).level == 0.9

    def test_embedded_table_keys(self):
        assert (4, 0.90) in QLL_CRITICAL_VALUES
        assert all(v > 0 for v in QLL_CRITICAL_VALUES.values())

    def test_detects_cancelling_break(self):
        # a mean shift of +c then -c cancels in the full sample, so the S test
        # misses it while the subsample component flags it
        T = 200
        rng = np.random.default_rng(12)
        e = rng.normal(size=T)
        shift = np.concatenate([np.full(T // 2, 0.8), np.full(T - T // 2, -0.8)])
        y = 0.7 + e + shift
        Z = np.column_stack([np.ones(T), rng.normal(size=(T, 3))])
        sys_ = MomentSystem(
            Y=y[:, None], X=np.ones((T, 1)), Z=Z,
            coeff=lambda th: np.asarray(th, float), jacobian=None,
            y_labels=["y"], z_labels=["const", "z1", "z2", "z3"],
        )
        cfg = HACConfig(bandwidth=2)
        assert s_statistic(np.array([1.0]), sys_, cfg).accept
        assert not qll_s_statistic(np.array([1.0]), sys_, cfg).accept


def weak_instrument_system(seed, T=200, k=12, pi=0.02, theta_true=1.0):
    """Linear IV with many weak instruments and endogenous regressor."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(T, k))
    v = rng.normal(size=T)
    u = 0.8 * v + 0.6 * rng.normal(size=T)
    x = Z @ np.full(k, pi) + v
    y = theta_true * x + u
    return MomentSystem(
        Y=np.column_stack([y, x]),
        X=np.ones((T, 1)),
        Z=np.column_stack([np.ones(T), Z]),
        coeff=lambda th: np.array([1.0, -float(th)]),
        jacobian=lambda th: np.array([[0.0], [-1.0]]),
        y_labels=["y", "x"],
        z_labels=["const"] + [f"z{i}" for i in range(k)],
    )


class TestSplitSampleStatistic:
    def test_subsample_index_arithmetic(self):
        # T=200 with first fraction 0.45 and gap 3: rows 0..89 train the
        # instrument fit, rows 90..92 are skipped, rows 93..199 are evaluated
        sys_ = weak_instrument_system(seed=0)
        r = split_sample_s_statistic(1.0, sys_)
        T1 = int(np.floor(0.45 * 200))
        assert T1 == 90
        assert 200 - T1 - 3 == 107
        assert r.bandwidth == HACConfig().resolve_bandwidth(107)
        assert r.df == 1

    def test_statistic_nonnegative(self):
        for seed in range(5):
            r = split_sample_s_statistic(1.0, weak_instrument_system(seed))
            assert r.statistic >= 0.0

    @staticmethod
    def iac_system():
        rng = np.random.default_rng(3)
        data = Dataset(
            start=QuarterIndex(1967, 1),
            columns={
                "delta_i": rng.normal(size=120),
                "r_p": rng.normal(size=120),
                "u": rng.normal(size=120),
            },
        )
        return build_design(data, "IAC", BASELINE_INSTRUMENTS)

    def test_iac_df_three(self):
        r = split_sample_s_statistic(StructuralParams(0.3, 2.0, 1.0), self.iac_system())
        assert r.df == 3
        assert r.variant == "split-S"

    def test_singular_omega_is_an_error_row(self):
        # y = x / 2 makes every moment vanish at theta = 0.5, where Omega is zero
        sys_ = weak_iv_system(3)
        Y = sys_.Y.copy()
        Y[:, 0] = 0.5 * Y[:, 1]
        sys_ = dataclasses.replace(sys_, Y=Y)
        thetas = [0.2, 0.5, 1.0]
        results = split_sample_s_statistics(thetas, sys_)
        assert isinstance(results[1], SingularCovarianceError)
        assert str(results[1]) == "HAC covariance singular even after ridge (split-sample Omega)"
        for theta, result in zip(thetas[::2], results[::2]):
            assert result == split_sample_s_statistics([theta], sys_)[0]

    def test_subsample_too_short(self):
        sys_ = weak_instrument_system(seed=0, T=30)
        with pytest.raises(ValueError, match="too short"):
            split_sample_s_statistic(1.0, sys_)

    def test_requires_jacobian(self):
        sys_ = toy_system()
        with pytest.raises(ValueError, match="Jacobian"):
            split_sample_s_statistic(np.array([1.0]), sys_)

    def test_coefficient_vector_is_rejected(self):
        for sys_, b in ((self.iac_system(), np.ones(8)), (weak_instrument_system(0), np.ones(1))):
            with pytest.raises(ValueError, match="model parameters, not a coefficient vector"):
                split_sample_s_statistic(b, sys_)

    def test_ridge_is_flagged(self):
        # equal Jacobian columns give equal contribution columns: Omega is
        # singular, and only the ridge factors it
        sys_ = dataclasses.replace(
            weak_instrument_system(0), jacobian=lambda th: np.array([[0.0, 0.0], [-1.0, -1.0]])
        )
        r = split_sample_s_statistic(1.0, sys_)
        assert np.isfinite(r.statistic) and r.ridge_flagged
        assert r.to_dict()["ridge_flagged"] is True

    def test_split_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(first_fraction=0.0)
        with pytest.raises(ValueError):
            SplitSpec(gap=-1)
        for bad in (1.5, True):
            with pytest.raises(ValueError, match=re.escape(f"gap must be an integer, got {bad!r}")):
                SplitSpec(gap=bad)
        assert SplitSpec(gap=np.int64(2)).gap == 2


class TestPreconditions:
    """Each system and point check is made in one place, the same for every path."""

    def test_vector_constant_is_rejected_on_every_cue_path(self):
        sys_ = dataclasses.replace(toy_system(k_excluded=4),
                                   X=np.column_stack([np.ones(120), np.arange(120.0)]))
        b, cfg = np.array([1.0]), HACConfig()
        messages = set()
        for call in (lambda: s_statistic(b, sys_), lambda: qll_s_statistic(b, sys_),
                     lambda: minimize_cue(sys_, b, cfg), lambda: cue_objective(sys_, b, 0.0, cfg)):
            with pytest.raises(ValueError, match="scalar constant only, got k_x=2") as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("m", [1, 7])
    def test_coefficient_vector_of_the_wrong_shape(self, m):
        sys_ = TestSplitSampleStatistic.iac_system()
        message = re.escape(f"b has shape ({m},), expected (8,)")
        for call in (s_statistic, qll_s_statistic, lambda b, s: minimize_cue(s, b, HACConfig())):
            with pytest.raises(ValueError, match=message):
                call(np.ones(m), sys_)
        good = s_statistic(np.ones(8), sys_)
        wrong, right = s_statistics([np.ones(m), np.ones(8)], sys_)
        assert isinstance(wrong, ValueError) and right == good

    @pytest.mark.parametrize("batch", [s_statistics, qll_s_statistics])
    def test_chunk_with_no_row_to_scan(self, batch):
        # every coefficient map fails, or every seed covariance is singular
        iac = TestSplitSampleStatistic.iac_system()
        for points in (["bad"], ["bad", "bad"]):
            assert [type(e) for e in batch(points, iac)] == [AttributeError] * len(points)
        sys_ = dataclasses.replace(toy_system(T=200), Y=np.zeros((200, 1)))
        for e in batch([np.array([1.0]), np.array([2.0])], sys_):
            assert isinstance(e, SingularCovarianceError) and "two-step seed" in str(e)
        single = s_statistic if batch is s_statistics else qll_s_statistic
        with pytest.raises(SingularCovarianceError, match="two-step seed"):
            single(np.array([1.0]), sys_)


    def test_non_finite_coefficients_name_the_point(self):
        sys_ = dataclasses.replace(toy_system(), Y=np.random.default_rng(1).normal(size=(120, 2)),
                                   y_labels=["y1", "y2"])
        cfg = HACConfig()
        for b in (np.array([np.nan, 1.0]), np.array([np.inf, 1.0])):
            message = re.escape(f"b is not finite: {b.tolist()}")
            for call in (lambda: s_statistic(b, sys_), lambda: qll_s_statistic(b, sys_),
                         lambda: minimize_cue(sys_, b, cfg),
                         lambda: cue_objective(sys_, b, 0.0, cfg)):
                with pytest.raises(ValueError, match=message):
                    call()
        good = np.array([1.0, 1.0])
        for batch, single in ((s_statistics, s_statistic), (qll_s_statistics, qll_s_statistic)):
            bad, right = batch([np.array([np.nan, 1.0]), good], sys_)
            assert isinstance(bad, ValueError) and right == single(good, sys_)
        iac, theta = TestSplitSampleStatistic.iac_system(), StructuralParams(np.nan, 2.0, 1.0)
        message = re.escape(f"coefficients of {theta!r} are not finite")
        for call in (s_statistic, qll_s_statistic, split_sample_s_statistic):
            with pytest.raises(ValueError, match=message):
                call(theta, iac)
        good = StructuralParams(0.3, 2.0, 1.0)
        bad, right = split_sample_s_statistics([theta, good], iac)
        assert isinstance(bad, ValueError) and right == split_sample_s_statistic(good, iac)

    @pytest.mark.parametrize("d", [np.nan, np.inf])
    def test_non_finite_constant_is_named(self, d):
        # a non-finite d is the caller's fault, not a singular covariance of the data
        with pytest.raises(ValueError, match=re.escape(f"d is not finite: {d!r}")) as info:
            cue_objective(ma2_null_system(1), np.array([1.0]), d, HACConfig())
        assert not isinstance(info.value, SingularCovarianceError)

    @pytest.mark.parametrize("column", ["b", "d_hat"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_qll_row_is_named(self, column, value):
        # a non-finite row is an error naming it, not a NaN component
        sys_, cfg = ma2_null_system(1), HACConfig()
        B, d_hat = np.ones((3, 1)), np.zeros(3)
        assert np.isfinite(qll_b_component(B, sys_, cfg, d_hat)).all()
        (B[:, 0] if column == "b" else d_hat)[2] = value
        message = f"row 2 is not finite: b=[{float(B[2, 0])!r}], d_hat={float(d_hat[2])!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            qll_b_component(B, sys_, cfg, d_hat)

    @pytest.mark.parametrize("rows", [5, 70])
    def test_one_qll_d_hat_serves_every_row(self, rows):
        # 70 rows span two chunks of BATCH_CHUNK
        sys_, cfg = ma2_null_system(1), HACConfig()
        B = np.linspace(0.5, 1.5, rows)[:, None]
        each = qll_b_component(B, sys_, cfg, np.full(rows, 0.3))
        assert np.array_equal(qll_b_component(B, sys_, cfg, 0.3), each)
        assert np.array_equal(qll_b_component(B, sys_, cfg, [0.3]), each)

    @pytest.mark.parametrize("b, d_hat", [
        (np.ones((5, 1)), np.zeros(3)),
        (np.ones((70, 1)), np.zeros(5)),
        (np.ones((5, 1)), np.zeros((5, 1))),
        (np.ones((5, 2)), 0.0),
        (np.ones(2), 0.0),
        (np.ones(1), np.zeros(2)),
    ])
    def test_qll_shapes_that_do_not_match_are_named(self, b, d_hat):
        message = (f"b of shape {np.shape(b)} and d_hat of shape {np.shape(d_hat)} do not "
                   "match: expected (N, 1) and (N,) or one d_hat")
        with pytest.raises(ValueError, match=re.escape(message)):
            qll_b_component(b, ma2_null_system(1), HACConfig(), d_hat)

    def test_huge_coefficients_leak_no_warning(self):
        # u u' overflows: the seed covariance is singular, and no numpy
        # warning escapes any CUE path
        sys_ = dataclasses.replace(toy_system(), Y=np.random.default_rng(1).normal(size=(120, 2)),
                                   y_labels=["y1", "y2"])
        b, good, cfg = np.array([1e200, 1.0]), np.array([1.0, 1.0]), HACConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: s_statistic(b, sys_), lambda: qll_s_statistic(b, sys_),
                         lambda: minimize_cue(sys_, b, cfg),
                         lambda: cue_objective(sys_, b, 0.0, cfg)):
                with pytest.raises(SingularCovarianceError):
                    call()
            assert np.isnan(qll_b_component(b, sys_, cfg, 0.0))
            huge, right = s_statistics([b, good], sys_)
        assert isinstance(huge, SingularCovarianceError) and "two-step seed" in str(huge)
        assert right == s_statistic(good, sys_)


class TestFirstStageDiagnostics:
    def _system(self, n=120, seed=0):
        rng = np.random.default_rng(seed)
        data = Dataset(
            start=QuarterIndex(1967, 1),
            columns={
                "delta_i": rng.normal(size=n),
                "r_p": rng.normal(size=n),
                "u": rng.normal(size=n),
            },
        )
        return build_design(data, "SEMI", BASELINE_INSTRUMENTS)

    def test_perfect_fit(self):
        sys_ = self._system()
        # make u[t+1] an exact linear function of the instruments
        sys_.Y[:, 7] = sys_.Z @ np.array([0.5, 1.0, -2.0, 0.3])
        sys_.Y[:, 6] = 0.0
        out = first_stage_diagnostics(0.0, sys_, 0.03475)
        util = next(x for x in out if x["name"] == "utilization")
        assert util["r2"] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(util["fitted"], util["actual"], atol=1e-10)

    def test_orthogonal_combination(self):
        sys_ = self._system(seed=1)
        y = sys_.Y[:, 7].copy()
        coef, *_ = np.linalg.lstsq(sys_.Z, y, rcond=None)
        sys_.Y[:, 7] = y - sys_.Z @ coef  # residualize in sample
        sys_.Y[:, 6] = 0.0
        out = first_stage_diagnostics(0.0, sys_, 0.03475)
        util = next(x for x in out if x["name"] == "utilization")
        assert util["r2"] == pytest.approx(0.0, abs=1e-10)
