"""Invert the S test into a 90% confidence set for (rho, kappa, zeta).

A reduced 10 x 20 x 10 lattice keeps the demo under a few seconds; the
default 20 x 40 x 20 lattice (as used by `eulergmm grid`) behaves the same
way. The headline finding is qualitative: the identification-robust set
covers most of the parameter box, so point estimates of adjustment costs
from this Euler equation should be read with caution.
"""

from eulergmm import BASELINE_INSTRUMENTS, InvestmentMeasure, TransformSpec, build_design
from eulergmm.grids import AxisSpec, GridSpec, export_grid, invert_lattice, set_summary
from eulergmm.snapshot import transform_snapshot


def main():
    data = transform_snapshot(TransformSpec(investment_measure=InvestmentMeasure.SW))
    system = build_design(data, "IAC", BASELINE_INSTRUMENTS)

    spec = GridSpec(
        axes=(
            AxisSpec("rho", 0.0, 1.0, 10, include_upper=False),
            AxisSpec("kappa", 0.0, 20.0, 20, include_lower=False),
            AxisSpec("zeta", 0.0, 10.0, 10, include_lower=False),
        )
    )

    # every lattice point in one batch: the S test at each (rho, kappa, zeta)
    grid = invert_lattice(system, "IAC", spec, "S", level=0.90)
    summary = set_summary(grid)

    print(
        f"accepted {summary['accepted_points']}/{summary['total_points']} "
        f"lattice points ({summary['accepted_fraction']:.1%})"
    )
    for axis, bounds in summary["projections"].items():
        print(f"  projection onto {axis}: [{bounds[0]:.3g}, {bounds[1]:.3g}]")

    print("\nacceptance rate by rho (weak identification is not confined to one rho):")
    for value, frac in summary["marginals"]["rho"]:
        print(f"  rho = {value:4.1f}: {frac:6.1%}  " + "#" * int(40 * frac))

    csv_path, json_path = export_grid(grid, "structural_set")
    print(f"\nwrote {csv_path} and {json_path}")


if __name__ == "__main__":
    main()
