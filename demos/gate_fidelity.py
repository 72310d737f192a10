"""Find the best gate working point at n = 70: sweep the microwave Rabi
frequency, optimise the pair separation at every point, and show how the
positional and motional averages shape the answer.

Run:  python3 demos/gate_fidelity.py
Artifacts land in demos/out/.
"""

import dataclasses
import pathlib

import numpy as np

from rydgate.averaging import averaged_fidelity, optimize_d11
from rydgate.constants import TWOPI
from rydgate.gate import GateParams
from rydgate.species import rb87
from rydgate.svgplot import Series, render_plot

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

NU_MU_MHZ = tuple(10.0**x for x in np.linspace(-2.0, 1.0, 31))


def sweep(fixed):
    rows = []
    for nu in NU_MU_MHZ:
        params = dataclasses.replace(fixed, omega_mu=TWOPI * nu * 1e6)
        rows.append((nu, optimize_d11(params)))
    return rows


def main():
    species = rb87()
    fixed = GateParams.for_level_system(
        species,
        70,
        omega_mu=TWOPI * 0.3e6,
        omega_c=TWOPI * 10e6,
        d11=None,  # optimised per point
        temperature=1e-7,  # 0.1 uK
        q=0.2,
    )
    print("n = 70, coupling 2pi x 10 MHz, 0.1 uK, q = 0.2, radiative decay")
    print()

    rows = sweep(fixed)
    nu_best, best = max(rows, key=lambda r: r[1].f_total)
    d_best = best.d11_used
    print(f"best working point: nu_mu = {nu_best:.3f} MHz, d11 = {d_best:.2f} um")
    print(f"  f0 averaged over positions  = {best.f0_avg:.4f}")
    print(f"  motional dephasing eta_m    = {best.eta_m:.4f}")
    print(f"  f_total = eta_m x <f0>      = {best.f_total:.4f}")
    print(f"  fixed coupling budget eta_c^2 = {best.coupling_budget:.3f} (reported, not folded in)")
    print()
    print("Slow pulses lose to motional dephasing, fast pulses to blockade")
    print("leakage; the optimum sits where the two penalties cross.")
    print()

    render_plot(
        OUT / "fidelity_sweep.svg",
        [
            Series([r[0] for r in rows], [r[1].f_total for r in rows], "f_total"),
            Series([r[0] for r in rows], [r[1].f0_avg for r in rows], "<f0>", dashed=True),
            Series([r[0] for r in rows], [r[1].eta_m for r in rows], "eta_m", dashed=True),
        ],
        title="Averaged gate fidelity vs microwave Rabi frequency",
        xlabel="nu_mu (MHz)",
        ylabel="fidelity",
        xlog=True,
    )
    print(f"wrote {OUT / 'fidelity_sweep.svg'}")
    print()

    print("temperature trend at the optimal drive:")
    at_best = dataclasses.replace(fixed, omega_mu=TWOPI * nu_best * 1e6)
    for t_uk in (0.1, 1.0, 10.0):
        params = dataclasses.replace(at_best, temperature=t_uk * 1e-6)
        print(f"  T = {t_uk:5.1f} uK -> f_total = {optimize_d11(params).f_total:.4f}")
    print()

    print("and the cost of skipping the separation optimisation:")
    naive = averaged_fidelity(dataclasses.replace(at_best, d11=14.0))
    tuned = averaged_fidelity(dataclasses.replace(at_best, d11=d_best))
    print(f"  d11 = 14.00 um -> f_total = {naive.f_total:.4f}")
    print(f"  d11 = {d_best:.2f} um -> f_total = {tuned.f_total:.4f}")


if __name__ == "__main__":
    main()
