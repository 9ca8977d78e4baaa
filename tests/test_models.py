from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulergmm.models import (
    CACParams,
    LITERATURE_POINTS,
    SemiStructuralParams,
    StructuralParams,
    cac_coefficients,
    cac_jacobian,
    constants_from_calibration,
    iac_coefficients,
    iac_jacobian,
    map_structural_to_semi,
    semi_coefficients,
    semi_jacobian,
    violations,
)

C = constants_from_calibration(0.99, 0.025)


class TestConstants:
    def test_baseline_calibration(self):
        assert C.phi_q == pytest.approx(0.96525, abs=1e-12)
        assert C.phi_k == pytest.approx(0.03475, abs=1e-12)
        assert round(C.phi_k, 4) == 0.0348
        assert C.rbar_k == pytest.approx(0.03510101010101, abs=1e-12)

    def test_direct_substitution(self):
        c = constants_from_calibration(0.5, 0.5)
        assert (c.phi_q, c.phi_k, c.rbar_k) == (0.25, 0.75, 1.5)

    @pytest.mark.parametrize("beta,delta", [(1.0, 0.025), (0.0, 0.025), (0.99, 1.0), (0.99, 0.0)])
    def test_boundaries_rejected(self, beta, delta):
        with pytest.raises(ValueError):
            constants_from_calibration(beta, delta)

    def test_shares_sum_to_one(self):
        c = constants_from_calibration(0.97, 0.03)
        assert c.phi_q + c.phi_k == pytest.approx(1.0, abs=1e-15)


class TestIACCoefficients:
    def test_rho_zero(self):
        b = iac_coefficients(StructuralParams(0.0, 1.0, 5.0), C)
        expected = [1.0, 0.0, -1.95525, 0.9555975, 1.0, 0.0, 0.0, -0.173750]
        assert np.allclose(b, expected, atol=1e-9)

    def test_zero_elasticity(self):
        b = iac_coefficients(StructuralParams(0.0, 1.0, 0.0), C)
        assert b[6] == 0.0 and b[7] == 0.0

    def test_general_point(self):
        b = iac_coefficients(StructuralParams(0.5, 2.0, 4.0), C)
        expected = [1.977625, -0.5, -2.43304875, 0.9555975, 0.5, -0.25, 0.034750, -0.069500]
        assert np.allclose(b, expected, atol=1e-9)

    def test_quasi_differencing_entries_vanish_at_rho_zero(self):
        b = iac_coefficients(StructuralParams(0.0, 3.0, 2.0), C)
        assert b[1] == 0.0 and b[5] == 0.0 and b[6] == 0.0

    def test_kappa_rejected(self):
        with pytest.raises(ValueError):
            StructuralParams(0.5, 0.0, 1.0)

    @given(
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_leading_entry_at_least_one(self, rho, kappa, zeta):
        b = iac_coefficients(StructuralParams(rho, kappa, zeta), C)
        assert b[0] >= 1.0


class TestSemiCoefficients:
    def test_general_point(self):
        b = semi_coefficients(SemiStructuralParams(0.6, 0.1, 0.2), C)
        expected = [2.17315, -0.6, -2.52860850, 0.9555975, 0.2, -0.12, 0.06, -0.1]
        assert np.allclose(b, expected, atol=1e-9)

    def test_zero_slopes(self):
        b = semi_coefficients(SemiStructuralParams(0.4, 0.0, 0.0), C)
        assert np.allclose(b[4:], 0.0)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_composition_identity(self, rho, kappa, zeta):
        varphi, phi = map_structural_to_semi(kappa, zeta, C)
        b_semi = semi_coefficients(SemiStructuralParams(rho, varphi, phi), C)
        b_struct = iac_coefficients(StructuralParams(rho, kappa, zeta), C)
        assert np.allclose(b_semi, b_struct, rtol=0, atol=1e-14)


class TestStructuralToSemiMap:
    @pytest.mark.parametrize(
        "kappa,zeta,varphi,phi,nd_v,nd_p",
        [
            (1.50, 11.42, 0.26, 0.67, 2, 2),  # printed point rows
            (2.48, 0.01, 0.0001, 0.40, 4, 2),
            (10.78, 2.48, 0.008, 0.09, 3, 2),
        ],
    )
    def test_printed_points(self, kappa, zeta, varphi, phi, nd_v, nd_p):
        v, p = map_structural_to_semi(kappa, zeta, C)
        assert round(v, nd_v) == varphi
        assert round(p, nd_p) == phi

    def test_interval_rows(self):
        intervals = {
            "JPT": ((0.03, 0.12), (0.26, 0.48)),
            "SW": ((0.003, 0.02), (0.13, 0.25)),
            "CTW": ((0.0003, 0.002), (0.05, 0.10)),
            "AABC": ((0.007, 0.01), (0.18, 0.35)),
            "IKR": ((0.04, 0.15), (0.30, 0.67)),
        }
        for name, ((v_lo, v_hi), (p_lo, p_hi)) in intervals.items():
            kappa, zeta = LITERATURE_POINTS[name]
            v, p = map_structural_to_semi(kappa, zeta, C)
            assert v_lo <= v <= v_hi, name
            assert p_lo <= p <= p_hi, name

    def test_kappa_positive_required(self):
        with pytest.raises(ValueError):
            map_structural_to_semi(0.0, 1.0, C)


class TestCACCoefficients:
    def test_zero_elasticity(self):
        b = cac_coefficients(CACParams(0.0, 1.0, 0.0), C)
        assert np.allclose(b, [1.0, 0.0, -0.99, 0.0, 40.0, 0.0, -39.0, 0.0, 0.0], atol=1e-9)

    def test_rho_zero_kills_deep_lags(self):
        b = cac_coefficients(CACParams(0.0, 2.0, 3.0), C)
        assert b[7] == 0.0 and b[8] == 0.0

    def test_general_point_against_symbolic_expansion(self):
        rho, sigma, zeta = 0.5, 2.0, 1.0
        b = cac_coefficients(CACParams(rho, sigma, zeta), C)
        beta, delta, rk = C.beta, C.delta, C.rbar_k
        s = 1.0 / (sigma * delta)
        expected = [
            1.0 + rho * beta,
            -rho,
            -beta,
            -beta * rk * zeta * s,
            s,
            beta * rk * (1.0 - delta + rho) * zeta * s,
            -(1.0 - delta + rho) * s,
            -rho * (1.0 - delta) * beta * rk * zeta * s,
            rho * (1.0 - delta) * s,
        ]
        assert np.allclose(b, expected, rtol=0, atol=1e-12)

    def test_zeta_homogeneity_of_utilization_entries(self):
        b1 = cac_coefficients(CACParams(0.3, 1.5, 2.0), C)
        b2 = cac_coefficients(CACParams(0.3, 1.5, 4.0), C)
        for idx in (3, 5, 7):  # utilization columns
            assert b2[idx] == pytest.approx(2.0 * b1[idx], rel=1e-12)

    def test_sigma_positive_required(self):
        with pytest.raises(ValueError):
            CACParams(0.5, 0.0, 1.0)


def _fd_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.column_stack(cols)


class TestAnalyticJacobians:
    @pytest.mark.parametrize("rho,kappa,zeta", [(0.0, 1.0, 5.0), (0.5, 2.0, 4.0), (0.9, 10.0, 0.5)])
    def test_iac(self, rho, kappa, zeta):
        J = iac_jacobian(StructuralParams(rho, kappa, zeta), C)
        fd = _fd_jacobian(
            lambda x: iac_coefficients(StructuralParams(*x), C), [rho, kappa, zeta]
        )
        assert np.max(np.abs(J - fd)) < 1e-6

    @pytest.mark.parametrize("rho,varphi,phi", [(0.0, 0.1, 0.5), (0.6, 0.1, 0.2)])
    def test_semi(self, rho, varphi, phi):
        J = semi_jacobian(SemiStructuralParams(rho, varphi, phi), C)
        fd = _fd_jacobian(
            lambda x: semi_coefficients(SemiStructuralParams(rho, *x), C), [varphi, phi]
        )
        assert np.max(np.abs(J - fd)) < 1e-6

    @pytest.mark.parametrize("rho,sigma,zeta", [(0.2, 1.0, 2.0), (0.5, 2.0, 1.0)])
    def test_cac(self, rho, sigma, zeta):
        J = cac_jacobian(CACParams(rho, sigma, zeta), C)
        fd = _fd_jacobian(
            lambda x: cac_coefficients(CACParams(*x), C), [rho, sigma, zeta]
        )
        assert np.max(np.abs(J - fd)) < 1e-6


#: Each model's params class and maps; a drawn triple (a, b, c) is its point.
MAPS = {
    "IAC": (StructuralParams, iac_coefficients, iac_jacobian),
    "SEMI": (SemiStructuralParams, semi_coefficients, semi_jacobian),
    "CAC": (CACParams, cac_coefficients, cac_jacobian),
}
#: kappas in the box whose square by C's pow and by kappa * kappa round apart
SQUARES_THAT_ROUND_APART = (18.659, 9.072, 13.871, 11.122374, 0.742668)
RHOS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
#: kappa, sigma or phi: the box, large values, and the squares above
SCALES = st.one_of(
    st.floats(min_value=1e-3, max_value=20.0),
    st.floats(min_value=20.0, max_value=1e100),
    st.sampled_from(SQUARES_THAT_ROUND_APART),
)
SLOPES = st.floats(min_value=0.0, max_value=10.0)


def assert_same_bits(a, b):
    """Equal shapes, NaN at the same entries, every other entry bit for bit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()


def as_params(model, point):
    rho, scale, slope = point
    return (rho, slope, scale) if model == "SEMI" else (rho, scale, slope)


class TestColumnMaps:
    """A map over parameter columns gives every point's row at once: each row
    equals the map of that point's params dataclass, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(MAPS)),
           st.lists(st.tuples(RHOS, SCALES, SLOPES), min_size=1, max_size=20),
           st.booleans())
    def test_rows_equal_points(self, model, points, fixed_rho):
        params, coefficients, jacobian = MAPS[model]
        if fixed_rho:  # SEMI's rho is fixed per lattice: a float beside the columns
            points = [(points[0][0],) + p[1:] for p in points]
        values = np.array([as_params(model, p) for p in points])
        names = [f for f in params.__dataclass_fields__]
        columns = SimpleNamespace(**dict(zip(names, values.T)))
        if fixed_rho:
            columns.rho = float(values[0, 0])
        with np.errstate(all="ignore"):
            rows, jacobians = coefficients(columns, C), jacobian(columns, C)
        each = [params(*map(float, v)) for v in values]
        assert_same_bits(rows, [coefficients(p, C) for p in each])
        assert_same_bits(np.broadcast_to(jacobians, (len(each),) + jacobians.shape[-2:]),
                         [jacobian(p, C) for p in each])

    @pytest.mark.parametrize("as_column", [False, True])
    def test_kappa_squared_is_c_pow(self, as_column):
        # numpy's ** would square a column by kappa * kappa: these kappas round apart
        kappa = np.array(SQUARES_THAT_ROUND_APART)
        rho, zeta, k = 0.5, 2.0, C.phi_k
        if as_column:
            J = iac_jacobian(SimpleNamespace(rho=rho, kappa=kappa, zeta=zeta), C)[:, :, 1]
        else:
            J = np.array([iac_jacobian(StructuralParams(rho, x, zeta), C)[:, 1]
                          for x in kappa.tolist()])
        expected = [[0.0] * 4 + [-1.0 / x**2, rho / x**2, -k * rho * zeta / x**2, k * zeta / x**2]
                    for x in kappa.tolist()]
        assert_same_bits(J, expected)

    @pytest.mark.parametrize("kappa, raised", [(1e200, OverflowError), (1e-200, ZeroDivisionError)])
    def test_kappa_squared_out_of_range_is_not_finite(self, kappa, raised):
        # a float's kappa^2 raises where Python's pow overflows or -1 / kappa^2
        # divides by 0; a column's kappa column is not finite there, and its
        # other rows and columns are untouched
        with pytest.raises(raised):
            iac_jacobian(StructuralParams(0.5, kappa, 1.0), C)
        with np.errstate(all="ignore"):
            J = iac_jacobian(SimpleNamespace(rho=0.5, kappa=np.array([kappa, 2.0]), zeta=1.0), C)
        assert not np.isfinite(J[0, :, 1]).all()
        assert np.isfinite(J[0, :, [0, 2]]).all() and np.isfinite(J[1]).all()

    @pytest.mark.parametrize("params, name", [(StructuralParams, "kappa"), (CACParams, "sigma")])
    def test_rule_is_stated_once(self, params, name):
        # a column's failing rows get the text the dataclass raises
        column = np.array([2.0, -1.0, 0.0, np.nan, 3.0])
        p = SimpleNamespace(rho=0.5, zeta=1.0, **{name: column})
        errors = violations(params, p)
        assert sorted(errors) == [1, 2]
        for i, exc in errors.items():
            with pytest.raises(ValueError) as raised:
                params(0.5, column[i], 1.0)
            assert str(exc) == str(raised.value) == f"{name} must be > 0, got {column[i]}"
        assert violations(SemiStructuralParams, p) == {}
