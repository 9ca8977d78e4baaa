import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eulergmm
from eulergmm.misspec import (
    MisspecConfig,
    ar1_filter,
    bias_demo,
    closed_form_cov,
    lab_report,
    monte_carlo_cov,
    pseudo_true_theta,
    simulate_dgp,
    truncation_lag,
    var_omega_star_ar2,
    var_omega_star_simplified,
)


class TestPseudoTrueTheta:
    def test_reference_point(self):
        assert pseudo_true_theta(0.4) == pytest.approx(0.5, abs=1e-12)

    def test_zero(self):
        assert pseudo_true_theta(0.0) == 0.0

    def test_sign_symmetry(self):
        assert pseudo_true_theta(-0.4) == pytest.approx(-0.5, abs=1e-12)

    def test_near_boundary(self):
        th = pseudo_true_theta(0.499999)
        assert 0.99 < th < 1.0

    def test_boundary_rejected(self):
        for g in (0.5, -0.5, 0.7):
            with pytest.raises(ValueError):
                pseudo_true_theta(g)

    @settings(max_examples=200)
    @given(st.floats(min_value=-0.4999, max_value=0.4999))
    def test_fixed_point_identity(self, gamma):
        # theta* solves gamma = theta / (1 + theta^2) with |theta*| < 1
        th = pseudo_true_theta(gamma)
        assert abs(th) < 1.0
        assert th / (1.0 + th * th) == pytest.approx(gamma, abs=1e-10)


class TestClosedForms:
    def test_variance_forms_agree(self):
        for th in np.linspace(-0.95, 0.95, 39):
            for s2 in (0.5, 1.0, 2.0):
                a = var_omega_star_ar2(th, s2)
                b = var_omega_star_simplified(th, s2)
                assert a == pytest.approx(b, rel=1e-12)

    def test_reference_values(self):
        pt = closed_form_cov(0.5, 1.0)
        assert pt.var_omega_star == pytest.approx(200.0 / 189.0, rel=1e-12)
        assert pt.var_omega_star == pytest.approx(1.058201, abs=1e-6)
        assert pt.cov_zstar_err == pytest.approx(-25.0 / 378.0, rel=1e-12)
        assert pt.cov_zstar_err == pytest.approx(-0.066138, abs=1e-4)
        # two-term form theta gamma var(x) / (1 + theta gamma) - theta^2 var(omega*)
        for th in np.linspace(-0.95, 0.95, 39):
            g = th / (1.0 + th * th)
            for s2 in (0.5, 1.0, 2.0):
                var_x = s2 / (1.0 - g * g)
                var_w = var_omega_star_simplified(th, s2)
                two_term = th * g * var_x / (1.0 + th * g) - th * th * var_w
                assert closed_form_cov(th, s2).cov_zstar_err == pytest.approx(two_term, rel=1e-12)

    def test_zero_theta_correct_spec(self):
        pt = closed_form_cov(0.0, 1.0)
        assert pt.var_omega_star == pytest.approx(1.0, rel=1e-12)
        assert pt.cov_zstar_err == 0.0

    def test_sigma2_homogeneity(self):
        base = closed_form_cov(0.37, 1.0)
        scaled = closed_form_cov(0.37, 2.5)
        assert scaled.var_omega_star == pytest.approx(2.5 * base.var_omega_star, rel=1e-12)
        assert scaled.cov_zstar_err == pytest.approx(2.5 * base.cov_zstar_err, rel=1e-12)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            closed_form_cov(1.0)

    def test_truncation_lag(self):
        assert truncation_lag(0.0) == 0
        J = truncation_lag(0.5)
        assert 0.5**J <= 1e-12 < 0.5 ** (J - 1)


class TestSimulation:
    def test_determinism(self):
        cfg = MisspecConfig(gamma=0.4, T=500, seed=11)
        a = simulate_dgp(cfg)
        b = simulate_dgp(cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.omega_star, b.omega_star)

    def test_seed_changes_paths(self):
        cfg = MisspecConfig(gamma=0.4, T=500, seed=11)
        a = simulate_dgp(cfg, seed=11)
        b = simulate_dgp(cfg, seed=12)
        assert not np.array_equal(a.x, b.x)

    def test_lengths_and_definitions(self):
        cfg = MisspecConfig(gamma=0.3, T=400, seed=2)
        p = simulate_dgp(cfg)
        th = pseudo_true_theta(0.3)
        assert p.x.size == 400
        assert np.allclose(p.z, 0.3 * p.x)
        assert np.allclose(p.z_star, th * p.omega_star)
        # the filter recursion omega*_t = x_t - theta* omega*_{t-1}
        recon = p.x[1:] - th * p.omega_star[:-1]
        assert np.allclose(p.omega_star[1:], recon, atol=1e-12)

    def test_ar1_autocorrelation(self):
        cfg = MisspecConfig(gamma=0.4, T=200_000, seed=3)
        p = simulate_dgp(cfg)
        x = p.x - p.x.mean()
        rho1 = float(x[1:] @ x[:-1] / (x @ x))
        assert rho1 == pytest.approx(0.4, abs=0.01)

    def test_gamma_zero(self):
        cfg = MisspecConfig(gamma=0.0, T=300, seed=4)
        p = simulate_dgp(cfg)
        assert np.allclose(p.x, p.omega)
        assert np.allclose(p.z, 0.0) and np.allclose(p.z_star, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MisspecConfig(gamma=0.6)
        with pytest.raises(ValueError):
            MisspecConfig(gamma=0.4, sigma_omega=0.0)
        with pytest.raises(ValueError):
            MisspecConfig(gamma=0.4, reps=0)


class TestMonteCarlo:
    def test_variance_matches_closed_form(self):
        # var(omega*) from simulation against the closed form, gamma = 0.4
        cfg = MisspecConfig(gamma=0.4, T=200_000, seed=5)
        p = simulate_dgp(cfg)
        target = var_omega_star_ar2(0.5, 1.0)
        assert float(np.var(p.omega_star)) == pytest.approx(target, rel=0.02)

    def test_monte_carlo_cov_se(self):
        cfg = MisspecConfig(gamma=0.4, T=20_000, reps=6, seed=6)
        est, se = monte_carlo_cov(cfg)
        assert se > 0 and np.isfinite(est)

    def test_bias_demo_correct_regression(self):
        # the correctly-specified regression recovers zeta within 4 MC SEs
        cfg = MisspecConfig(gamma=0.4, zeta_true=2.0, T=50_000, reps=5, seed=7)
        out = bias_demo(cfg)
        assert abs(out["zeta_hat_correct"] - 2.0) <= 4 * out["zeta_hat_correct_se"]

    def test_bias_demo_rejects_degenerate_regressor(self):
        # at gamma = 0 the regressor z = gamma*x is identically zero
        cfg = MisspecConfig(gamma=0.0, zeta_true=1.5, T=20_000, reps=3, seed=8)
        with pytest.raises(ValueError, match="gamma"):
            bias_demo(cfg)


class TestAR1Filter:
    @pytest.mark.parametrize("a", [0.4, 0.5, -0.5, 0.98, -0.98])
    def test_matches_lfilter(self, a):
        from scipy import signal

        rng = np.random.default_rng(1)
        for n in (1, 63, 64, 65, 4097, 101_040):
            x = rng.normal(size=n)
            ref = signal.lfilter([1.0], [1.0, -a], x)
            assert np.abs(ar1_filter(a, x) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zero_coefficient_is_identity(self):
        x = np.random.default_rng(2).normal(size=300)
        assert np.array_equal(ar1_filter(0.0, x), x)


class TestLabReport:
    # values of the scipy.signal.lfilter implementation that each replication
    # simulated twice, once for the covariance and once for the slopes
    REFERENCE = [
        (dict(gamma=0.4, T=20_000, reps=4, seed=3),
         -0.06594151893302422, 6.424221876569261e-05,
         0.7589431526788006, 0.006970982499347569, 1.012811936035951, 0.007518728317085975),
        (dict(gamma=-0.3, sigma_omega=1.7, zeta_true=2.0, T=5_000, reps=3, seed=9),
         -0.034545678894830976, 0.001425766770787416,
         1.7533378221063984, 0.01157080793648353, 1.969812959376285, 0.01761943204697298),
    ]

    @pytest.mark.parametrize("case", REFERENCE)
    def test_matches_reference(self, case):
        cfg, cov, cov_se, mis, mis_se, cor, cor_se = case
        r = lab_report(MisspecConfig(**cfg))
        mc, demo = r["monte_carlo_cov"], r["bias_demo"]
        got = (mc["estimate"], mc["std_error"], demo["zeta_hat_misspecified"],
               demo["zeta_hat_misspecified_se"], demo["zeta_hat_correct"],
               demo["zeta_hat_correct_se"])
        assert got == pytest.approx((cov, cov_se, mis, mis_se, cor, cor_se), rel=1e-12)

    def test_z_scores(self):
        r = lab_report(MisspecConfig(gamma=0.4, T=20_000, reps=4, seed=3))
        mc, demo = r["monte_carlo_cov"], r["bias_demo"]
        z_cov = (mc["estimate"] - r["pseudo_true"]["cov_zstar_err"]) / mc["std_error"]
        z_plim = (demo["zeta_hat_misspecified"] - demo["theoretical_plim"]) / demo[
            "zeta_hat_misspecified_se"]
        assert mc["z_score"] == pytest.approx(z_cov, rel=1e-12)
        assert demo["z_score"] == pytest.approx(z_plim, rel=1e-12)

    def test_parts_agree_with_report(self):
        cfg = MisspecConfig(gamma=0.25, T=3_000, reps=3, seed=4)
        r = lab_report(cfg)
        assert monte_carlo_cov(cfg) == (r["monte_carlo_cov"]["estimate"],
                                        r["monte_carlo_cov"]["std_error"])
        demo = bias_demo(cfg)
        assert all(r["bias_demo"][k] == v for k, v in demo.items())

    def test_leaves_scipy_signal_and_stats_unloaded(self):
        code = (
            "import sys; from eulergmm.misspec import MisspecConfig, lab_report; "
            "lab_report(MisspecConfig(gamma=0.4, T=2000, reps=2)); "
            "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"
        )
        # the child imports the eulergmm under test, which pytest's pythonpath finds
        src = os.path.dirname(os.path.dirname(eulergmm.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "[]"
