"""End-to-end acceptance suite.

Each class exercises one headline capability on realistic inputs: the
structural-to-reduced-form mapping against published calibrations, the
misspecification laboratory's closed forms against Monte Carlo, test size
under the null, the packaged data snapshot, full confidence-set inversions,
and the cross-cutting numerical invariants.
"""

import numpy as np
import pytest
from scipy import special

from eulergmm.design import BASELINE_INSTRUMENTS, MomentSystem, build_design
from eulergmm.grids import (
    AxisSpec,
    GridSpec,
    collect_results,
    default_semi_grid,
    default_structural_grid,
    invert_test,
    make_grid,
    set_summary,
)
from eulergmm.hac import HACConfig, hac_variance
from eulergmm.inference import s_statistic, s_statistics, split_sample_s_statistic
from eulergmm.misspec import (
    MisspecConfig,
    bias_demo,
    closed_form_cov,
    monte_carlo_cov,
    pseudo_true_theta,
    simulate_dgp,
)
from eulergmm.models import (
    LITERATURE_POINTS,
    CACParams,
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
)
from eulergmm.pipeline import InvestmentMeasure, TransformSpec
from eulergmm.quantiles import chi2_quantile
from eulergmm.snapshot import transform_snapshot

C = constants_from_calibration(0.99, 0.025)


# ---------------------------------------------------------------------------
# 1. Mapping published (kappa, zeta) calibrations to (varphi, phi)


class TestLiteratureMapping:
    @pytest.mark.parametrize(
        "name,varphi,phi,nd_v,nd_p",
        [
            ("CEE", 0.0001, 0.40, 4, 2),
            ("ACEL", 0.26, 0.67, 2, 2),
            ("CMR", 0.008, 0.09, 3, 2),
        ],
    )
    def test_point_rows_exact_at_printed_decimals(self, name, varphi, phi, nd_v, nd_p):
        kappa, zeta = LITERATURE_POINTS[name]
        v, p = map_structural_to_semi(kappa, zeta, C)
        assert round(v, nd_v) == varphi
        assert round(p, nd_p) == phi

    @pytest.mark.parametrize(
        "name,v_int,p_int",
        [
            ("JPT", (0.03, 0.12), (0.26, 0.48)),
            ("SW", (0.003, 0.02), (0.13, 0.25)),
            ("CTW", (0.0003, 0.002), (0.05, 0.10)),
            ("AABC", (0.007, 0.01), (0.18, 0.35)),
            ("IKR", (0.04, 0.15), (0.30, 0.67)),
        ],
    )
    def test_interval_rows_contain_mapped_values(self, name, v_int, p_int):
        kappa, zeta = LITERATURE_POINTS[name]
        v, p = map_structural_to_semi(kappa, zeta, C)
        assert v_int[0] <= v <= v_int[1]
        assert p_int[0] <= p <= p_int[1]

    def test_phi_k_calibration(self):
        assert C.phi_k == pytest.approx(0.03475, abs=1e-10)


# ---------------------------------------------------------------------------
# 2. Misspecification laboratory oracle (gamma = 0.4, unit shock variance)


ORACLE_CFG = MisspecConfig(gamma=0.4, sigma_omega=1.0, zeta_true=1.0,
                           T=100_000, reps=10, seed=0)


@pytest.fixture(scope="module")
def oracle_mc():
    est, se = monte_carlo_cov(ORACLE_CFG)
    return {"cov": est, "cov_se": se, "demo": bias_demo(ORACLE_CFG)}


class TestMisspecificationOracle:
    def test_pseudo_true_root_exact(self):
        assert pseudo_true_theta(0.4) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_values(self):
        pt = closed_form_cov(0.5, 1.0)
        assert pt.var_omega_star == pytest.approx(1.058201, abs=1e-6)
        assert pt.cov_zstar_err == pytest.approx(-0.066138, abs=1e-4)

    def test_variance_matched_by_monte_carlo(self):
        draws = np.empty(ORACLE_CFG.reps)
        for i in range(ORACLE_CFG.reps):
            p = simulate_dgp(ORACLE_CFG, seed=ORACLE_CFG.seed + i)
            draws[i] = float(np.var(p.omega_star))
        se = draws.std(ddof=1) / np.sqrt(ORACLE_CFG.reps)
        assert abs(draws.mean() - 1.058201) <= 3 * se

    def test_covariance_matched_by_monte_carlo(self, oracle_mc):
        # derived closed form -theta*^4 var(omega*) vs simulated cov(z*, z - z*)
        assert abs(oracle_mc["cov"] - (-0.066138)) <= 3 * oracle_mc["cov_se"]

    def test_plim_closed_form_value(self, oracle_mc):
        assert oracle_mc["demo"]["theoretical_plim"] == pytest.approx(0.75, abs=1e-4)

    def test_plim_matched_by_monte_carlo(self, oracle_mc):
        demo = oracle_mc["demo"]
        assert (
            abs(demo["zeta_hat_misspecified"] - 0.75)
            <= 3 * demo["zeta_hat_misspecified_se"]
        )


# ---------------------------------------------------------------------------
# 3. Chi-squared quantiles


class TestChiSquaredQuantiles:
    @pytest.mark.parametrize(
        "df,level,expected",
        [(3, 0.90, 6.25139), (1, 0.90, 2.70554), (2, 0.95, 5.99146)],
    )
    def test_reference_values(self, df, level, expected):
        q = chi2_quantile(df, level)
        assert q == pytest.approx(expected, abs=1e-5)
        # independent incomplete-gamma inversion
        lo, hi = 0.0, 100.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if special.gammainc(df / 2.0, mid / 2.0) < level:
                lo = mid
            else:
                hi = mid
        assert q == pytest.approx(0.5 * (lo + hi), abs=1e-5)


# ---------------------------------------------------------------------------
# 4./5. Monte Carlo size of the S and split-sample tests


def ma2_null_system(seed, T=200, k_excluded=3):
    """Scalar-regressor system: y = d + MA(2) noise, iid instruments."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=T + 2)
    eps = e[2:] + 0.3 * e[1:-1] + 0.1 * e[:-2]
    y = 0.7 + eps
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


def weak_iv_system(seed, T=200, k=12, pi=0.02):
    """Linear IV with many weak instruments and an endogenous regressor."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(T, k))
    v = rng.normal(size=T)
    u = 0.8 * v + 0.6 * rng.normal(size=T)
    x = Z @ np.full(k, pi) + v
    y = x + u
    return MomentSystem(
        Y=np.column_stack([y, x]),
        X=np.ones((T, 1)),
        Z=np.column_stack([np.ones(T), Z]),
        coeff=lambda th: np.array([1.0, -float(th)]),
        jacobian=lambda th: np.array([[0.0], [-1.0]]),
        y_labels=["y", "x"],
        z_labels=["const"] + [f"z{i}" for i in range(k)],
    )


class TestMonteCarloSize:
    REPS = 2000

    def test_s_test_size_under_ma2_errors(self):
        cfg = HACConfig(bandwidth=2)
        rejections = 0
        for i in range(self.REPS):
            r = s_statistic(np.array([1.0]), ma2_null_system(1000 + i), cfg, 0.90)
            rejections += not r.accept
        rate = rejections / self.REPS
        assert 0.08 <= rate <= 0.12, f"size {rate}"

    def test_split_sample_size_many_weak_instruments(self):
        rejections = 0
        for i in range(self.REPS):
            r = split_sample_s_statistic(1.0, weak_iv_system(5000 + i))
            rejections += not r.accept
        rate = rejections / self.REPS
        assert rate <= 0.12, f"size {rate}"


# ---------------------------------------------------------------------------
# 6.-8. Packaged data snapshot: diagnostics and confidence sets


@pytest.fixture(scope="module")
def snapshot_data():
    return transform_snapshot(TransformSpec(investment_measure=InvestmentMeasure.SW))


@pytest.fixture(scope="module")
def snapshot_system(snapshot_data):
    return build_design(snapshot_data, "IAC", BASELINE_INSTRUMENTS)


def autocorr(x, k):
    x = np.asarray(x, float)
    x = x - x.mean()
    return float(x[k:] @ x[:-k] / (x @ x))


class TestSnapshotDiagnostics:
    def test_real_rate_autocorrelations(self, snapshot_data):
        r = snapshot_data.column("r_p")
        assert autocorr(r, 1) == pytest.approx(0.90, abs=0.05)
        assert autocorr(r, 2) == pytest.approx(0.83, abs=0.05)

    def test_utilization_autocorrelations(self, snapshot_data):
        u = snapshot_data.column("u")
        assert autocorr(u, 1) == pytest.approx(0.96, abs=0.05)
        assert autocorr(u, 2) == pytest.approx(0.87, abs=0.05)


RHO_VALUES = AxisSpec("rho", 0.0, 1.0, 20, include_upper=False).values()


def lattice_set(spec, params, system, level=0.90):
    # one S batch over the lattice: the same bits as point-by-point invert_test,
    # which tests/test_batch.py checks
    points = make_grid(spec)
    outcomes = s_statistics([params(*p) for p in points], system, level=level)
    return collect_results(spec, level, points, outcomes)


@pytest.fixture(scope="module")
def structural_set(snapshot_system):
    # default lattice plus every literature (kappa, zeta) at every rho value
    extras = tuple(
        (float(r), float(k), float(z))
        for (k, z) in LITERATURE_POINTS.values()
        for r in RHO_VALUES
    )
    spec = default_structural_grid(extras)
    return lattice_set(spec, StructuralParams, snapshot_system), len(extras)


class TestStructuralConfidenceSet:
    def test_majority_of_lattice_accepted(self, structural_set):
        g, n_extra = structural_set
        lattice = g.accepts[: g.accepts.size - n_extra]
        assert lattice.mean() > 0.5
        assert not g.errors.any()

    def test_all_literature_calibrations_inside(self, structural_set):
        g, n_extra = structural_set
        extra_accepts = g.accepts[g.accepts.size - n_extra:]
        per_point = extra_accepts.reshape(len(LITERATURE_POINTS), len(RHO_VALUES))
        for name, row in zip(LITERATURE_POINTS, per_point):
            assert row.any(), f"{name} rejected at every rho"


def semi_set(system, rho, level=0.90):
    return lattice_set(
        default_semi_grid(), lambda *p: SemiStructuralParams(rho, *p), system, level
    )


@pytest.fixture(scope="module")
def semi_system(snapshot_data):
    return build_design(snapshot_data, "SEMI", BASELINE_INSTRUMENTS)


@pytest.fixture(scope="module")
def semi_sets(semi_system):
    return {rho: semi_set(semi_system, rho) for rho in (0.0, 0.9)}


class TestSemiStructuralContrast:
    def test_origin_accepted_at_rho_zero(self, semi_sets):
        g = semi_sets[0.0]
        origin = np.flatnonzero((g.points == 0.0).all(axis=1))
        assert origin.size == 1 and g.accepts[origin[0]] == 1

    def test_set_bounded_at_rho_zero(self, semi_sets):
        s = set_summary(semi_sets[0.0])
        assert s["accepted_points"] > 0
        assert s["projections"]["varphi"][1] < 10.0
        assert s["projections"]["phi"][1] < 20.0

    def test_identification_worsens_with_persistence(self, semi_sets):
        f0 = semi_sets[0.0].accepts.mean()
        f9 = semi_sets[0.9].accepts.mean()
        assert f9 > f0


# ---------------------------------------------------------------------------
# 9. Cross-cutting numerical invariants


def fd_jacobian(f, theta, h=1e-7):
    theta = np.asarray(theta, float)
    cols = []
    for j in range(theta.size):
        hi, lo = theta.copy(), theta.copy()
        hi[j] += h
        lo[j] -= h
        cols.append((f(hi) - f(lo)) / (2 * h))
    return np.column_stack(cols)


class TestPropertySuites:
    def test_hac_psd_and_bandwidth_zero(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(60, 4))
        W -= W.mean(axis=0)
        V = hac_variance(W, HACConfig())
        assert np.linalg.eigvalsh(V).min() >= -1e-10
        V0 = hac_variance(W, HACConfig(bandwidth=0))
        assert np.allclose(V0, W.T @ W / 60, atol=1e-14)

    def test_s_rotation_and_scale_invariance(self):
        sys_ = ma2_null_system(seed=5)
        r0 = s_statistic(np.array([1.0]), sys_)
        rng = np.random.default_rng(99)
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        Z2 = sys_.Z.copy()
        Z2[:, 1:] = sys_.Z[:, 1:] @ A
        rotated = MomentSystem(
            Y=sys_.Y, X=sys_.X, Z=Z2, coeff=sys_.coeff, jacobian=None,
            y_labels=sys_.y_labels, z_labels=sys_.z_labels,
        )
        assert s_statistic(np.array([1.0]), rotated).statistic == pytest.approx(
            r0.statistic, rel=1e-8
        )
        assert s_statistic(np.array([37.5]), sys_).statistic == pytest.approx(
            r0.statistic, rel=1e-8
        )

    def test_confidence_sets_nested(self, semi_system):
        spec = GridSpec(
            axes=(AxisSpec("varphi", 0.0, 2.0, 8), AxisSpec("phi", 0.0, 4.0, 8))
        )

        def make(level):
            def evaluator(point):
                return s_statistic(
                    SemiStructuralParams(0.0, *point), semi_system, level=level
                )

            return invert_test(evaluator, spec, level)

        sets = [make(lv) for lv in (0.90, 0.95, 0.99)]
        flags = [g.accepts.astype(bool) for g in sets]
        assert (flags[0] <= flags[1]).all() and (flags[1] <= flags[2]).all()

    @pytest.mark.parametrize(
        "theta,f,jac",
        [
            (
                (0.3, 2.5, 1.2),
                lambda v: iac_coefficients(StructuralParams(*v), C),
                lambda v: iac_jacobian(StructuralParams(*v), C),
            ),
            (
                (0.6, 0.4, 0.15),
                lambda v: semi_coefficients(SemiStructuralParams(*v[:1], *v[1:]), C),
                lambda v: semi_jacobian(SemiStructuralParams(*v[:1], *v[1:]), C),
            ),
            (
                (0.5, 1.7, 0.8),
                lambda v: cac_coefficients(CACParams(*v), C),
                lambda v: cac_jacobian(CACParams(*v), C),
            ),
        ],
    )
    def test_analytic_jacobians_match_finite_differences(self, theta, f, jac):
        theta = np.asarray(theta)
        analytic = jac(theta)
        numeric = fd_jacobian(f, theta)
        if analytic.shape[1] == 2:  # parameterized by the last two coordinates
            numeric = numeric[:, 1:]
        assert np.abs(analytic - numeric).max() < 1e-6

    def test_semi_composition_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho = rng.uniform(0.0, 0.99)
            kappa = rng.uniform(0.05, 20.0)
            zeta = rng.uniform(0.0, 10.0)
            varphi, phi = map_structural_to_semi(kappa, zeta, C)
            b_semi = semi_coefficients(SemiStructuralParams(rho, varphi, phi), C)
            b_struct = iac_coefficients(StructuralParams(rho, kappa, zeta), C)
            assert np.allclose(b_semi, b_struct, rtol=0, atol=1e-13)
