"""Quantum defect theory: level energies, radial wavefunctions, lifetimes.

Level energies are ordinary frequencies in Hz measured from the ionization
limit, E(n, L, J) = -Ry_species / n*^2 with the Rydberg-Ritz defect
delta(n) = delta0 + delta2 / (n - delta0)^2.

Radial wavefunctions solve the Coulomb radial equation at the quantum-defect
energy by inward Numerov integration on a square-root-scaled grid (uniform in
sqrt(r)). With x = sqrt(r) and u(r) = x^(1/2) w(x), the radial equation
u'' = Q(r) u becomes w'' = G(x) w with

    G(x) = -8 + 4 x^2 / n*^2 + (4 L (L+1) + 3/4) / x^2

in atomic units, which Numerov integrates with uniform step in x. The grid
runs from r_outer = 2 n* (n* + 15) a0 down to an inner cutoff at the larger
of the core radius a0 n*^(1/3) and the classical inner turning point. Levels
with zero quantum defect have no core region to excise, so their cutoff
drops to max(1e-3 a0, 0.05 x inner turning point); a divergence guard raises
if an inward solution grows back in the classically forbidden region.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .constants import ALPHA_FS, HBAR, K_BOLTZMANN
from .errors import NumericsError, RydgateError
from .levels import RydbergLevel
from .species import AtomSpecies

__all__ = [
    "GridSpec",
    "RadialSolution",
    "effective_quantum_number",
    "level_energy",
    "radial_wavefunction",
    "radial_matrix_element",
    "lifetime",
]


def effective_quantum_number(species: AtomSpecies, level: RydbergLevel) -> float:
    """n* = n - delta(n) for the level's (L, J) series."""
    delta0, delta2 = species.defect_coefficients(level.L, level.J)
    if level.n - delta0 <= 0.0:
        raise RydgateError(
            f"{level}: n is below the validity of the {species.name} defect table"
        )
    delta = delta0 + delta2 / (level.n - delta0) ** 2
    n_star = level.n - delta
    if n_star <= 0.0:
        raise RydgateError(f"{level}: effective quantum number {n_star} <= 0")
    return n_star


def level_energy(species: AtomSpecies, level: RydbergLevel) -> float:
    """Level energy in Hz, negative, measured from the ionization limit."""
    n_star = effective_quantum_number(species, level)
    return -species.rydberg_constant / n_star**2


@dataclass(frozen=True)
class GridSpec:
    """Radial grid controls. points is the number of sqrt-scale samples."""

    points: int = 2000

    def __post_init__(self):
        if self.points < 100:
            raise ValueError("grid needs at least 100 points")


@dataclass(frozen=True)
class RadialSolution:
    """Normalised radial solution u(r) = r R(r) on its grid.

    r is in Bohr radii; integral of u^2 dr equals 1 within norm_error.
    The outermost lobe of u is positive.
    """

    level: RydbergLevel
    n_star: float
    r: np.ndarray
    u: np.ndarray
    nodes: int
    norm_error: float

    def expectation_r(self) -> float:
        """<r> in Bohr radii."""
        x = np.sqrt(self.r)
        return float(simpson(2.0 * x**3 * self.u**2, x=x))


def _inner_cutoff(n_star: float, L: int, has_core: bool) -> float:
    # Classical inner turning point of the Coulomb orbit at E = -1/(2 n*^2).
    disc = n_star * n_star - L * (L + 1)
    r_turn = n_star * (n_star - math.sqrt(disc)) if disc > 0.0 else n_star * n_star
    if has_core:
        return max(n_star ** (1.0 / 3.0), r_turn)
    return max(1e-3, 0.05 * r_turn)


def _numerov_inward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Integrate w'' = g w inward over a uniform grid x, seeded at the tail."""
    h2 = (x[1] - x[0]) ** 2
    # Python floats, not numpy scalars: the same IEEE doubles, but the
    # scalar recurrence runs several times faster on them.
    f = (1.0 - (h2 / 12.0) * g).tolist()
    w = [0.0] * len(x)
    w[-2] = 1e-12
    # w_{k-1} f_{k-1} = (12 - 10 f_k) w_k - f_{k+1} w_{k+1}
    for k in range(len(x) - 2, 0, -1):
        w[k - 1] = ((12.0 - 10.0 * f[k]) * w[k] - f[k + 1] * w[k + 1]) / f[k - 1]
        if abs(w[k - 1]) > 1e250:
            w = [v / 1e250 for v in w]
    return np.array(w)


def _solve_on_grid(
    n_star: float, L: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (r, u) unnormalised for energy -1/(2 n*^2) on sqrt-grid x."""
    g = -8.0 + 4.0 * x**2 / n_star**2 + (4.0 * L * (L + 1) + 0.75) / x**2
    w = _numerov_inward(x, g)
    r = x * x
    u = np.sqrt(x) * w
    return r, u


def _check_divergence(
    level: RydbergLevel, n_star: float, r: np.ndarray, u: np.ndarray
) -> None:
    """Raise if the inward solution grew back inside the forbidden region."""
    disc = n_star * n_star - level.L * (level.L + 1)
    if disc <= 0.0:
        return
    r_turn = n_star * (n_star - math.sqrt(disc))
    inside = r < 0.98 * r_turn
    if np.count_nonzero(inside) < 8:
        return
    mag = np.abs(u[inside])
    i_min = int(np.argmin(mag))
    floor = mag[i_min]
    peak = float(np.max(np.abs(u)))
    if mag[0] > 50.0 * max(floor, 1e-290) and mag[0] > 1e-6 * peak and i_min > 0:
        raise NumericsError(
            f"{level}: inward solution diverges below the inner turning point "
            f"(|u| grows from {floor:.3e} to {mag[0]:.3e} inside r < {r_turn:.2f} a0); "
            "raise the inner cutoff or reduce L"
        )


def _count_nodes(u: np.ndarray) -> int:
    floor = 1e-9 * float(np.max(np.abs(u)))
    sig = u[np.abs(u) > floor]
    if sig.size < 2:
        return 0
    return int(np.count_nonzero(np.signbit(sig[1:]) != np.signbit(sig[:-1])))


def _normalised_solution(
    level: RydbergLevel, n_star: float, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(r, u) on sqrt-grid x, divergence-guarded and normalised to unit norm."""
    r, u = _solve_on_grid(n_star, level.L, x)
    _check_divergence(level, n_star, r, u)
    norm2 = float(simpson(2.0 * x * u * u, x=x))
    if norm2 <= 0.0 or not math.isfinite(norm2):
        raise NumericsError(f"{level}: non-finite norm in radial solution")
    return r, u / math.sqrt(norm2)


@functools.lru_cache(maxsize=4096)
def _radial_solution_cached(
    species: AtomSpecies, level: RydbergLevel, grid: GridSpec
) -> RadialSolution:
    n_star = effective_quantum_number(species, level)
    delta0, _ = species.defect_coefficients(level.L, level.J)
    r_in = _inner_cutoff(n_star, level.L, has_core=delta0 != 0.0)
    r_out = 2.0 * n_star * (n_star + 15.0)
    if r_in >= r_out:
        raise NumericsError(f"{level}: inner cutoff {r_in} exceeds outer {r_out}")
    x = np.linspace(math.sqrt(r_in), math.sqrt(r_out), grid.points)
    r, u = _normalised_solution(level, n_star, x)
    if u[int(np.argmax(np.abs(u)))] < 0.0:
        u = -u

    coarse = float(simpson(2.0 * x[::2] * u[::2] ** 2, x=x[::2]))
    norm_error = abs(coarse - 1.0)

    u.setflags(write=False)
    r.setflags(write=False)
    return RadialSolution(
        level=level,
        n_star=n_star,
        r=r,
        u=u,
        nodes=_count_nodes(u),
        norm_error=norm_error,
    )


def radial_wavefunction(
    species: AtomSpecies, level: RydbergLevel, grid: GridSpec | None = None
) -> RadialSolution:
    """Normalised u(r) for one level on the default sqrt-scaled grid."""
    return _radial_solution_cached(species, level, grid or GridSpec())


@functools.lru_cache(maxsize=65536)
def _matrix_element_cached(
    species: AtomSpecies,
    level_a: RydbergLevel,
    level_b: RydbergLevel,
    grid: GridSpec,
) -> float:
    na = effective_quantum_number(species, level_a)
    nb = effective_quantum_number(species, level_b)
    d0a, _ = species.defect_coefficients(level_a.L, level_a.J)
    d0b, _ = species.defect_coefficients(level_b.L, level_b.J)
    # Shared grid: the wider outer range and the safer (larger) inner cutoff.
    r_in = max(
        _inner_cutoff(na, level_a.L, has_core=d0a != 0.0),
        _inner_cutoff(nb, level_b.L, has_core=d0b != 0.0),
    )
    r_out = max(2.0 * na * (na + 15.0), 2.0 * nb * (nb + 15.0))
    x = np.linspace(math.sqrt(r_in), math.sqrt(r_out), grid.points)

    _, ua = _normalised_solution(level_a, na, x)
    _, ub = _normalised_solution(level_b, nb, x)
    return float(simpson(2.0 * x**3 * ua * ub, x=x))


def radial_matrix_element(
    species: AtomSpecies,
    level_a: RydbergLevel,
    level_b: RydbergLevel,
    grid: GridSpec | None = None,
) -> float:
    """<a| r |b> in Bohr radii, both levels solved on one shared grid.

    Dipole selection rule |L_a - L_b| = 1 is enforced here. Symmetric in
    its level arguments; the magnitude is what enters interaction
    coefficients.
    """
    if abs(level_a.L - level_b.L) != 1:
        raise RydgateError(
            f"dipole matrix element needs |delta L| = 1, "
            f"got {level_a.label} and {level_b.label}"
        )
    if level_b < level_a:
        level_a, level_b = level_b, level_a
    return _matrix_element_cached(species, level_a, level_b, grid or GridSpec())


def lifetime(species: AtomSpecies, level: RydbergLevel, temperature: float) -> float:
    """Total decay rate Gamma in 1/s at the given radiation temperature.

    Gamma = Gamma_rad + Gamma_bbr. The radiative part uses the species'
    fitted scaling 1 / (tau_s n*^alpha); the blackbody part uses the
    universal quadratic-in-1/n* form 4 alpha_fs^3 k_B T / (3 hbar n*^2),
    valid when k_B T far exceeds the neighbouring transition energies
    (room temperature at high n). temperature = 0 returns the purely
    radiative rate.
    """
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    n_star = effective_quantum_number(species, level)
    tau_s_ns, alpha = species.lifetime_scaling(level.L)
    gamma_rad = 1.0 / (tau_s_ns * 1e-9 * n_star**alpha)
    gamma_bbr = (
        4.0 * ALPHA_FS**3 * K_BOLTZMANN * temperature / (3.0 * HBAR * n_star**2)
    )
    return gamma_rad + gamma_bbr
