"""Walk through the single-atom layer: defects, energies, lifetimes,
and radial wavefunctions for the packaged rubidium-87 dataset.

Run:  python3 demos/level_structure.py
Artifacts land in demos/out/.
"""

import pathlib

from rydgate.levels import RydbergLevel, p_level, s_level
from rydgate.qdt import (
    effective_quantum_number,
    level_energy,
    lifetime,
    radial_wavefunction,
)
from rydgate.species import rb87
from rydgate.svgplot import Series, render_plot

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def main():
    species = rb87()
    print(f"species: {species.name}  (mass {species.mass:.4e} kg)")
    print()

    print("level      n*          E/h (THz)   1/Gamma at 0 K    at 300 K")
    for level in (s_level(70), p_level(70, 0.5), p_level(70, 1.5), s_level(71)):
        n_star = effective_quantum_number(species, level)
        energy_thz = level_energy(species, level) / 1e12
        tau_0 = 1e6 / lifetime(species, level, 0.0)
        tau_300 = 1e6 / lifetime(species, level, 300.0)
        print(
            f"{level.label:<9}  {n_star:9.5f}  {energy_thz:10.6f}"
            f"   {tau_0:8.1f} us      {tau_300:6.1f} us"
        )
    print()
    print("Blackbody radiation at room temperature cuts the 70S lifetime to")
    print("roughly a third; the P series lives longer at fixed n.")
    print()

    level = RydbergLevel(20, 1, 1.5)
    sol = radial_wavefunction(species, level)
    print(f"rubidium {level.label}: <r> = {sol.expectation_r():9.2f} a0, "
          f"{sol.nodes} radial nodes, norm error {sol.norm_error:.1e}")

    series = []
    for level in (s_level(70), p_level(70, 0.5)):
        sol = radial_wavefunction(species, level)
        series.append(Series(tuple(sol.r), tuple(sol.u), level.label))
    path = OUT / "radial_70.svg"
    render_plot(
        path,
        series,
        title="Reduced radial wavefunctions u(r), n = 70",
        xlabel="r (a0)",
        ylabel="u(r)",
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
