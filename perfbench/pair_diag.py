"""Pair-Hamiltonian diagonalisation checked against the perturbative coefficients.

No ``rydgate`` command reaches ``pair_hamiltonian_shift``, so this script
calls the public library functions directly. Each case diagonalises one
pair at a reduced dipole shell and compares the shift with the matching
channel-sum coefficient at the same truncation, via ``fit`` = |shift| d^k:

* ``c6``: (nS, (n+1)S) at d = 2.5 r_b6 (1 MHz linewidth), |shift| d^6 vs C6;
* ``c3``: (nS, nP1/2) at d = 20 um, |shift| d^3 vs C3.

Usage: ``PYTHONPATH=src python3 perfbench/pair_diag.py N MAX_DELTA_N``.
Prints one JSON object per case on stdout.
"""

from __future__ import annotations

import json
import sys

# Relative deviations the test suite allows between the two routes.
TOLERANCE = {"c3": 0.05, "c6": 0.01}
C3_SEPARATION_UM = 20.0


def cases(n: int) -> list[tuple[str, int]]:
    return [("c6", n), ("c3", n)]


def run_case(species, case: tuple[str, int], max_delta_n: int) -> dict:
    from rydgate import (
        PairState,
        c3_coefficient,
        c6_coefficient,
        p_level,
        pair_hamiltonian_shift,
        s_level,
    )

    kind, n = case
    a = s_level(n)
    if kind == "c6":
        b = s_level(n + 1)
        coeff = c6_coefficient(species, a, b, max_delta_n=max_delta_n).c6_ghz_um6
        d_um = 2.5 * (abs(coeff) * 1e9 / 1e6) ** (1.0 / 6.0)
        power = 6
    else:
        b = p_level(n, 0.5)
        coeff = c3_coefficient(species, a, b)
        d_um = C3_SEPARATION_UM
        power = 3
    shift_hz = pair_hamiltonian_shift(species, PairState(a, b), d_um, max_delta_n=max_delta_n)
    fit = abs(shift_hz) * d_um**power * 1e-9
    return {
        "case": kind,
        "n": n,
        "max_delta_n": max_delta_n,
        "d_um": d_um,
        "shift_hz": shift_hz,
        "coefficient": coeff,
        "fit": fit,
        "rel_dev": abs(fit / abs(coeff) - 1.0),
        "tolerance": TOLERANCE[kind],
    }


def main(argv) -> int:
    from rydgate.species import rb87

    n, max_delta_n = int(argv[0]), int(argv[1])
    species = rb87()
    for case in cases(n):
        print(json.dumps(run_case(species, case, max_delta_n)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
