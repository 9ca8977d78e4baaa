"""Misspecification laboratory: filtering an AR(1) shock as if it were MA(1).

The true shock follows x_t = gamma x_{t-1} + omega_t, but the researcher
fits an MA(1) and recovers the filtered innovation omega*_t and the implied
regressor z*_t = theta* omega*_t. The lab reports the pseudo-true root
theta*, the closed-form variance of omega*, and the omitted-term covariance
cov(z*, z - z*) that drives the bias of a regression on z* in place of the
correct z -- all checked against Monte Carlo.
"""

from eulergmm.misspec import MisspecConfig, lab_report


def main():
    for gamma in (0.1, 0.25, 0.4):
        r = lab_report(MisspecConfig(gamma=gamma, zeta_true=1.0, T=100_000, reps=10, seed=0))
        pt, mc, demo = r["pseudo_true"], r["monte_carlo_cov"], r["bias_demo"]
        print(f"gamma = {gamma}:")
        print(f"  pseudo-true theta*          {pt['theta_star']:.6f}")
        print(f"  var(omega*) closed form     {pt['var_omega_star']:.6f}")
        print(f"  cov(z*, z-z*) closed form   {pt['cov_zstar_err']:+.6f}")
        print(
            f"  cov(z*, z-z*) Monte Carlo   {mc['estimate']:+.6f} "
            f"(se {mc['std_error']:.1e}, z {mc['z_score']:+.2f})"
        )
        print(
            f"  slope on z* (misspecified)  {demo['zeta_hat_misspecified']:.4f}"
            f"  vs on z (correct) {demo['zeta_hat_correct']:.4f}"
        )
        print(
            f"  closed-form plim            {demo['theoretical_plim']:.4f}"
            f" (z {demo['z_score']:+.2f})\n"
        )

    print(
        "The closed forms and the Monte Carlo agree. The covariance is\n"
        "-theta*^4 var(omega*): small and negative, so the misspecified slope\n"
        "is attenuated to zeta (1 - theta*^2), mildly for small gamma and more\n"
        "as gamma approaches 1/2."
    )


if __name__ == "__main__":
    main()
