import dataclasses

import numpy as np
import pytest

from eulergmm.design import (
    BASELINE_INSTRUMENTS,
    CAC_INSTRUMENTS,
    TWO_LAG_INSTRUMENTS,
    InstrumentSpec,
    MomentSystem,
    build_design,
    residuals_and_moments,
)
from eulergmm.models import SemiStructuralParams, StructuralParams
from eulergmm.pipeline import Dataset, TransformSpec
from eulergmm.quarters import QuarterIndex
from eulergmm.snapshot import transform_snapshot


def synthetic_dataset(n=212, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        start=QuarterIndex(1967, 1),
        columns={
            "delta_i": rng.normal(size=n),
            "r_p": rng.normal(size=n),
            "u": rng.normal(size=n),
        },
    )


class TestBuildDesign:
    def test_baseline_iac_row_count(self):
        # regressors need leads to t+2 and the instruments reach back to t-2,
        # so 212 aligned quarters leave 212 - 2 - 2 usable rows
        data = synthetic_dataset(212)
        sys_ = build_design(data, "IAC", BASELINE_INSTRUMENTS)
        assert sys_.T == 212 - 2 - 2
        assert sys_.k_z == 4 and sys_.k_x == 1 and sys_.df == 3

    def test_row_count_by_index_arithmetic(self):
        for n in (50, 101, 212):
            data = synthetic_dataset(n)
            sys_ = build_design(data, "IAC", TWO_LAG_INSTRUMENTS)
            max_lead, max_lag = 2, 3  # delta_i[t+2] and r_p[t-3]
            assert sys_.T == n - max_lead - max_lag

    def test_alignment_against_columns(self):
        data = synthetic_dataset(40)
        sys_ = build_design(data, "IAC", BASELINE_INSTRUMENTS)
        di = data.column("delta_i")
        # row 0 corresponds to calendar index 2 (deepest lag)
        assert sys_.Y[0, 0] == di[2]       # delta_i[t]
        assert sys_.Y[0, 1] == di[1]       # delta_i[t-1]
        assert sys_.Y[0, 3] == di[4]       # delta_i[t+2]
        assert sys_.Z[0, 1] == di[1]       # instrument delta_i[t-1]
        assert sys_.Z[0, 2] == data.column("r_p")[0]  # r_p[t-2]

    def test_cac_rejects_shallow_lag(self):
        data = synthetic_dataset(60)
        with pytest.raises(ValueError, match="exogeneity"):
            build_design(data, "CAC", InstrumentSpec(lags=(("delta_i", 1),)))

    def test_cac_accepts_deep_lags(self):
        data = synthetic_dataset(60)
        sys_ = build_design(data, "CAC", CAC_INSTRUMENTS)
        assert sys_.Y.shape[1] == 9
        assert sys_.df == 3

    @pytest.mark.parametrize("model, spec", [
        ("IAC", BASELINE_INSTRUMENTS), ("SEMI", BASELINE_INSTRUMENTS), ("CAC", CAC_INSTRUMENTS)])
    def test_default_instruments_are_the_models_own(self, model, spec):
        # IAC's depth-1 lags violate CAC's exogeneity rule: CAC takes its own
        data = transform_snapshot(TransformSpec())
        sys_ = build_design(data, model)
        assert sys_.z_labels == ["const"] + spec.labels()
        assert np.array_equal(sys_.Z, build_design(data, model, spec).Z)

    def test_semi_baseline_dimensions(self):
        data = synthetic_dataset(60)
        sys_ = build_design(data, "SEMI", BASELINE_INSTRUMENTS)
        assert sys_.k_z == 4 and sys_.k_x == 1 and sys_.df == 3

    def test_all_instrument_lags_respect_minimum(self):
        data = synthetic_dataset(60)
        for model, spec in (("IAC", BASELINE_INSTRUMENTS), ("CAC", CAC_INSTRUMENTS)):
            sys_ = build_design(data, model, spec)
            assert sys_.Z.shape[1] == len(spec.lags) + 1

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="no rows"):
            build_design(synthetic_dataset(4), "IAC", BASELINE_INSTRUMENTS)

    def test_coefficients_attached(self):
        data = synthetic_dataset(60)
        sys_ = build_design(data, "SEMI", BASELINE_INSTRUMENTS)
        b = sys_.coeff(SemiStructuralParams(0.6, 0.1, 0.2))
        assert b[0] == pytest.approx(2.17315, abs=1e-9)

    def test_external_columns_enter_contemporaneously(self):
        rng = np.random.default_rng(3)
        data = synthetic_dataset(60)
        data.columns["oil"] = rng.normal(size=60)
        sys_ = build_design(data, "IAC", InstrumentSpec(external=("oil",)))
        assert sys_.Z[0, -1] == data.column("oil")[2]


class TestMomentSystem:
    def test_frozen_with_only_the_fields_its_callers_read(self):
        sys_ = build_design(synthetic_dataset(60), "IAC")
        assert [f.name for f in dataclasses.fields(sys_)] == [
            "Y", "X", "Z", "coeff", "jacobian", "y_labels", "z_labels"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys_.Y = sys_.Y.copy()

    def test_equal_only_to_itself(self):
        sys_ = build_design(synthetic_dataset(60), "IAC")
        twin = dataclasses.replace(sys_)
        assert sys_ == sys_ and sys_ != twin
        assert hash(sys_) == object.__hash__(sys_) != hash(twin)


class TestResidualsAndMoments:
    def test_zero_residual(self):
        data = synthetic_dataset(30)
        sys_ = build_design(data, "IAC", BASELINE_INSTRUMENTS)
        b = np.zeros(8)
        eps, F = residuals_and_moments(sys_, b, 0.0)
        assert np.allclose(eps, 0.0) and np.allclose(F, 0.0)

    def test_selector(self):
        data = synthetic_dataset(30)
        sys_ = build_design(data, "IAC", BASELINE_INSTRUMENTS)
        b = np.zeros(8)
        b[1] = 1.0
        eps, _ = residuals_and_moments(sys_, b, 0.0)
        assert np.allclose(eps, sys_.Y[:, 1])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        T, m, k = 17, 4, 3
        sys_ = MomentSystem(
            Y=rng.normal(size=(T, m)),
            X=np.ones((T, 1)),
            Z=np.column_stack([np.ones(T), rng.normal(size=(T, k - 1))]),
            coeff=lambda th: np.asarray(th, float),
            jacobian=None,
            y_labels=[f"y{i}" for i in range(m)],
            z_labels=[f"z{i}" for i in range(k)],
        )
        b = rng.normal(size=m)
        d = 0.3
        eps, F = residuals_and_moments(sys_, b, d)
        for t in range(T):
            e_t = float(sys_.Y[t] @ b - d)
            assert eps[t] == pytest.approx(e_t, abs=1e-12)
            for j in range(k):
                assert F[t, j] == pytest.approx(e_t * sys_.Z[t, j], abs=1e-12)

    def test_dimension_mismatch(self):
        data = synthetic_dataset(30)
        sys_ = build_design(data, "IAC", BASELINE_INSTRUMENTS)
        with pytest.raises(ValueError):
            residuals_and_moments(sys_, np.zeros(5), 0.0)
