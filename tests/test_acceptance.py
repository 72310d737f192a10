"""Top-level acceptance checks for the design toolkit.

Each test states a quantitative target for the full pipeline: reference
lengthscales at n = 70, the known Forster degeneracy at n = 38, the
achievable averaged gate fidelity and its parameter trends, agreement
between independent computational routes, and byte-level reproducibility
of the CLI artifacts.
"""

import cmath
import csv
import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from rydgate.averaging import optimize_d11
from rydgate.cli import main as cli_main
from rydgate.constants import TWOPI
from rydgate.gate import GateParams, fidelity_curve, two_level_pulse
from rydgate.lengthscales import blockade_radii
from rydgate.levels import RydbergLevel, p_level, s_level
from rydgate.pair import (
    PairState,
    c3_coefficient,
    c6_branches,
    c6_coefficient,
    pair_hamiltonian_shift,
)
from rydgate.qdt import radial_wavefunction
from rydgate.sweeps import forster_rows

OMEGA_1MHZ = TWOPI * 1e6

# one shared deterministic drive grid for every fidelity scan below:
# 31 log-spaced microwave Rabi frequencies across 2pi x [0.01, 10] MHz
OMEGA_MU_GRID = tuple(
    TWOPI * 10.0**x for x in np.linspace(np.log10(0.01e6), np.log10(10e6), 31)
)


# ---------------------------------------------------------------------------
# 1. reference lengthscales at n = 70


def _reference_scales(species):
    c3 = c3_coefficient(species, s_level(70), p_level(70, 0.5))
    c6 = c6_coefficient(species, s_level(70), s_level(71)).c6_ghz_um6
    return blockade_radii(c3, c6, OMEGA_1MHZ, OMEGA_1MHZ)


def test_reference_exchange_radius(species):
    """r_b3 of (70S, 70P1/2) at 2pi x 1 MHz: expected near 20 um +- 30%."""
    scales = _reference_scales(species)
    assert 14.0 <= scales.r_b3 <= 26.0


def test_reference_blockade_radius(species):
    """r_b6 of (70S, 71S) at 2pi x 1 MHz: expected near 7 um +- 30%.

    |70S 71S> is degenerate with |71S 70S>, and both orderings reach the
    dominant (70P3/2, 70P3/2) channel with the same coupling. At M = 0
    second-order perturbation theory splits the four m-states into
    branches C6 = 280.7, 286.6, 2630.9 and 3102.0 GHz um^6, i.e.
    r_b6 = 8.09, 8.12, 11.75 and 12.08 um; test_pair.py holds the
    branches against direct diagonalisation of the pair Hamiltonian.
    r_b6 here comes from the weakest branch: the radius
    inside which every doubly excited eigenstate is shifted past
    hbar Omega. The branch mean, 1575 GHz um^6 (10.8 um), is what
    ``c6_coefficient`` returns; no pair state is shifted by it. PAPER.md
    holds only the abstract; the paper's text is what would settle which
    branch its 7 um target refers to.
    """
    c3 = c3_coefficient(species, s_level(70), p_level(70, 0.5))
    weakest = min(c6_branches(species, s_level(70), s_level(71)), key=abs)
    scales = blockade_radii(c3, weakest, OMEGA_1MHZ, OMEGA_1MHZ)
    assert 4.9 <= scales.r_b6 <= 9.1


def test_reference_radius_ratio(species):
    """The exchange range must beat the blockade floor by a factor 2-4."""
    scales = _reference_scales(species)
    ratio = scales.r_b3 / max(scales.r_b6, scales.r_mu)
    assert 2.0 <= ratio <= 4.0


# ---------------------------------------------------------------------------
# 2. the n = 38 Forster degeneracy


def test_forster_scan_flags_38(species):
    """Scanning n = 30..50, the smallest |defect| channel must be
    (38S, 39S) -> (38P3/2, 38P3/2)."""
    header, rows, status = forster_rows(species, range(30, 51), 1e9)
    assert all(s == "ok" for s in status)
    assert rows
    cells = dict(zip(header, rows[0]))
    assert cells["n"] == 38
    assert (cells["initial_a"], cells["initial_b"]) == ("38S1/2", "39S1/2")
    assert (cells["final_a"], cells["final_b"]) == ("38P3/2", "38P3/2")
    assert abs(cells["defect_hz"]) < 10e6


# ---------------------------------------------------------------------------
# 3 + 4. achievable fidelity and its parameter trends


@functools.lru_cache(maxsize=None)
def _grid_scan(species, n, omega_c, temperature, q):
    """(best f_total, argmax index) over the shared drive grid."""
    fixed = GateParams.for_level_system(
        species,
        n,
        omega_mu=OMEGA_MU_GRID[0],
        omega_c=omega_c,
        d11=20.0,
        temperature=temperature,
        q=q,
    )
    best, best_idx = -1.0, -1
    for idx, omega_mu in enumerate(OMEGA_MU_GRID):
        params = dataclasses.replace(fixed, omega_mu=omega_mu)
        avg = optimize_d11(params)
        if avg.f_total > best:
            best, best_idx = avg.f_total, idx
    return best, best_idx


REFERENCE = dict(omega_c=TWOPI * 10e6, temperature=1e-7, q=0.2)


def test_reference_fidelity_exceeds_floor(species):
    """The optimised working point at n = 70 must clear f_total = 0.93
    at an interior drive strength, within a five-minute budget."""
    t0 = time.perf_counter()
    best, idx = _grid_scan(species, 70, **REFERENCE)
    elapsed = time.perf_counter() - t0
    assert best >= 0.93
    assert 0 < idx < len(OMEGA_MU_GRID) - 1
    assert elapsed < 300.0


def test_trend_stronger_coupling_helps(species):
    t0 = time.perf_counter()
    bests = [
        _grid_scan(species, 70, TWOPI * nu_c * 1e6, 1e-7, 0.2)[0]
        for nu_c in (2.0, 10.0, 30.0)
    ]
    assert bests[0] < bests[1] < bests[2]
    assert time.perf_counter() - t0 < 900.0


def test_trend_colder_atoms_help(species):
    t0 = time.perf_counter()
    bests = [
        _grid_scan(species, 70, TWOPI * 10e6, t_uk * 1e-6, 0.2)[0]
        for t_uk in (0.1, 1.0, 10.0)
    ]
    assert bests[0] > bests[1] > bests[2]
    assert time.perf_counter() - t0 < 900.0


def test_trend_higher_n_helps(species):
    t0 = time.perf_counter()
    bests = [_grid_scan(species, n, **REFERENCE)[0] for n in (60, 70, 80)]
    assert bests[0] <= bests[1] <= bests[2]
    assert time.perf_counter() - t0 < 900.0


def test_trend_tighter_localisation_helps(species):
    t0 = time.perf_counter()
    bests = [
        _grid_scan(species, 70, TWOPI * 10e6, 1e-7, q)[0] for q in (0.1, 0.2, 0.5)
    ]
    assert bests[0] > bests[1] > bests[2]
    assert time.perf_counter() - t0 < 900.0


# ---------------------------------------------------------------------------
# 5a. perturbative C6 against direct diagonalisation


@pytest.mark.parametrize("n", [50, 60, 70, 80])
def test_c6_against_diagonalisation(n, species):
    a, b = s_level(n), s_level(n + 1)
    c6 = c6_coefficient(species, a, b).c6_ghz_um6
    r_b6 = (TWOPI * abs(c6) * 1e9 / OMEGA_1MHZ) ** (1.0 / 6.0)
    d = 2.5 * r_b6  # far enough out for the 1/d^6 tail to dominate
    shift = pair_hamiltonian_shift(species, PairState(a, b), d)
    assert abs(shift) * d**6 * 1e-9 == pytest.approx(abs(c6), rel=0.1)


# ---------------------------------------------------------------------------
# 5b. pulse amplitude against a generalized-Rabi oracle


def _rabi_oracle(omega, delta_p, delta_r, gamma_r, gamma_p, t):
    """e^{-i H t} (1,0)^T top entry for H = [[z_r, w/2], [w/2, z_p]]."""
    z_r = complex(delta_r, -0.5 * gamma_r)
    z_p = complex(delta_p, -0.5 * gamma_p)
    gap = z_p - z_r
    omega_g = cmath.sqrt(gap * gap + omega * omega)
    theta = 0.5 * omega_g * t
    if omega_g == 0:
        core = 1.0 + 0.5j * gap * t
    else:
        core = cmath.cos(theta) + 1j * (gap / omega_g) * cmath.sin(theta)
    return cmath.exp(-0.5j * (z_r + z_p) * t) * core


def test_pulse_against_generalized_rabi_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        omega = 10.0 ** rng.uniform(5.0, 7.0)
        delta_p = rng.uniform(-1e7, 1e7)
        delta_r = rng.uniform(-1e7, 1e7)
        gamma_r = rng.uniform(0.0, 1e5)
        gamma_p = rng.uniform(0.0, 1e5)
        t = 10.0 ** rng.uniform(-7.0, -5.0)
        got = two_level_pulse(omega, delta_p, delta_r, gamma_r, gamma_p, t)
        want = _rabi_oracle(omega, delta_p, delta_r, gamma_r, gamma_p, t)
        assert got == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# 5c. radial solver against the Coulomb analytic expectation


@pytest.mark.parametrize("n", [5, 12, 20, 30])
@pytest.mark.parametrize("L", [0, 1, 2])
def test_hydrogen_expectation_sample(hydrogenic, n, L):
    sol = radial_wavefunction(hydrogenic, RydbergLevel(n, L, L + 0.5))
    expected = 0.5 * (3.0 * n * n - L * (L + 1))
    assert sol.expectation_r() == pytest.approx(expected, rel=1e-3)


# ---------------------------------------------------------------------------
# 5d. exact fidelity identities


def _identity_params(**overrides):
    base = dict(
        n=70,
        omega_mu=OMEGA_1MHZ,
        omega_c=10.0 * OMEGA_1MHZ,
        d11=1e4,
        temperature=0.0,
        q=0.0,
        c3_ghz_um3=10.0,
        c6_ghz_um6=100.0,
        mass_kg=1.44e-25,
        gamma_r=0.0,
        gamma_rp=0.0,
        gamma_p=0.0,
    )
    base.update(overrides)
    return GateParams(**base)


def test_no_blockade_fidelity_is_one_quarter():
    params = _identity_params()
    assert fidelity_curve(params)(params.d11) == pytest.approx(0.25, abs=1e-9)


def test_ideal_blockade_fidelity_is_one():
    params = _identity_params(c3_ghz_um3=1e12, c6_ghz_um6=0.0, d11=1.0, d_far=1e9)
    assert fidelity_curve(params)(params.d11) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# 6. byte-identical artifacts


def test_fidelity_csv_identical_across_worker_counts(tmp_path):
    base = [
        "fidelity",
        "--axis", "omega_mu",
        "--values", "0.1,0.25,0.5,1.0",
        "--d11", "fixed:18",
    ]
    outs = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        assert cli_main(base + ["--out", str(out), "--workers", str(workers)]) == 0
        outs.append((out / "fidelity.csv").read_bytes())
    assert outs[0] == outs[1]
    with open(tmp_path / "w1" / "fidelity.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 4  # and the artifact reads back as plain CSV


def test_radii_csv_identical_across_reruns(tmp_path):
    for label in ("first", "second"):
        assert cli_main(["radii", "--n", "69:71", "--out", str(tmp_path / label)]) == 0
    assert (tmp_path / "first" / "radii.csv").read_bytes() == (
        tmp_path / "second" / "radii.csv"
    ).read_bytes()
