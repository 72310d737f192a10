"""Scan the three gate lengthscales and the figure of merit across the
principal quantum number, reproducing the design argument for n = 70.

Run:  python3 demos/lengthscale_scan.py
Artifacts land in demos/out/.
"""

import pathlib

from rydgate.constants import TWOPI
from rydgate.lengthscales import figure_of_merit
from rydgate.species import rb87
from rydgate.svgplot import Series, render_plot
from rydgate.sweeps import merit_rows, radii_rows

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def main():
    species = rb87()
    omega = TWOPI * 1e6  # 2pi x 1 MHz for both drives
    ns = list(range(30, 101, 2))

    header, radii, _ = radii_rows(species, ns, omega)
    print("n     r_b3 (um)   r_b6 cross (um)   r_b3/r_b6")
    for row in radii:
        n, r_cross, _, r_b3, flagged = row
        if flagged or n % 10:
            continue
        print(f"{n:<5} {r_b3:9.2f}   {r_cross:13.2f}   {r_b3 / r_cross:9.2f}")
    flagged = [row[0] for row in radii if row[4]]
    print(f"resonance-flagged n: {flagged}")
    print()
    print("The exchange radius r_b3 exceeds the blockade radius r_b6 at every")
    print("n, by a factor ~4.6 at n = 30 easing to ~1.8 at n = 100: adjacent")
    print("sites can sit outside the blockade yet still talk through the")
    print("1/d^3 exchange shift.")
    print()

    render_plot(
        OUT / "radii_scan.svg",
        [
            Series([r[0] for r in radii], [r[3] for r in radii], "r_b3"),
            Series([r[0] for r in radii], [r[1] for r in radii], "r_b6 nS,(n+1)S"),
        ],
        title="Gate lengthscales vs n at 2pi x 1 MHz",
        xlabel="principal quantum number n",
        ylabel="radius (um)",
        ylog=True,
    )
    print(f"wrote {OUT / 'radii_scan.svg'}")
    print()

    _, merits, _ = merit_rows(species, ns, 300.0)
    usable = [(row[0], row[1]) for row in merits if not row[3]]
    best_n, best_o = max(usable, key=lambda t: t[1])
    point70 = figure_of_merit(species, 70)
    print(f"figure of merit O = C3^2/(C6 hbar Gamma) at 300 K radiation:")
    print(f"  O(50) = {figure_of_merit(species, 50).merit:9.0f}")
    print(f"  O(70) = {point70.merit:9.0f}")
    print(f"  best scanned: O({best_n}) = {best_o:9.0f}")
    print("O peaks at low n where C6 is weakest, collapses near the n = 38")
    print("degeneracy, then settles on a broad plateau with a gentle maximum")
    print("around n = 70, which also keeps the radii matched to a few-um")
    print("array pitch.")

    render_plot(
        OUT / "merit_scan.svg",
        [Series([r[0] for r in merits], [r[1] for r in merits], "O")],
        title="Figure of merit vs n (300 K radiation)",
        xlabel="principal quantum number n",
        ylabel="O",
        ylog=True,
    )
    print(f"wrote {OUT / 'merit_scan.svg'}")


if __name__ == "__main__":
    main()
