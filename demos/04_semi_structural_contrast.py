"""Contrast identification of the reduced-form slopes across shock persistence.

The semi-structural equation replaces (kappa, zeta) with the slopes
varphi = phi_k * zeta / kappa and phi = 1 / kappa at a fixed shock
persistence rho. For low rho the quasi-differenced regressors retain their
own persistence, lagged instruments are strong, and the 90% set for
(varphi, phi) is a tight region around the origin. For high rho the
regressors are close to white noise, the instruments lose their first-stage
fit, and the set blows up.
"""

from eulergmm import (
    BASELINE_INSTRUMENTS,
    InvestmentMeasure,
    TransformSpec,
    build_design,
    first_stage_diagnostics,
)
from eulergmm.grids import AxisSpec, GridSpec, invert_lattice, set_summary
from eulergmm.snapshot import transform_snapshot

PHI_K = 0.03475


def main():
    data = transform_snapshot(TransformSpec(investment_measure=InvestmentMeasure.SW))
    system = build_design(data, "SEMI", BASELINE_INSTRUMENTS)

    spec = GridSpec(
        axes=(
            AxisSpec("varphi", 0.0, 10.0, 25),
            AxisSpec("phi", 0.0, 20.0, 25),
        )
    )

    for rho in (0.0, 0.3, 0.6, 0.9):
        # the (varphi, phi) lattice in one batch, at this fixed rho
        grid = invert_lattice(system, "SEMI", spec, "S", level=0.90, fixed={"rho": rho})
        summary = set_summary(grid)
        stages = first_stage_diagnostics(rho, system, PHI_K)
        r2 = {s["name"]: s["r2"] for s in stages}
        proj = summary["projections"]
        bounds = (
            "empty"
            if proj["varphi"] is None
            else f"varphi <= {proj['varphi'][1]:.3g}, phi <= {proj['phi'][1]:.3g}"
        )
        print(
            f"rho = {rho:3.1f}: accepted {summary['accepted_fraction']:6.1%}  "
            f"({bounds});  first-stage R2: utilization {r2['utilization']:.2f}, "
            f"real rate {r2['real_rate']:.2f}"
        )

    print(
        "\nThe slopes are pinned down near zero when the instruments are strong\n"
        "(low rho) and unconstrained when they are weak (high rho): the same\n"
        "data, the same moments, opposite conclusions about identification."
    )


if __name__ == "__main__":
    main()
