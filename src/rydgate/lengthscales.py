"""Characteristic lengthscales and the species figure of merit.

Three radii govern the gate geometry. With Planck-constant frequency
units (coefficients quoted as C_k/h in GHz um^k) and angular Rabi
frequencies in rad/s:

* ``r_b3 = (C3 / hbar Omega_mu)^(1/3)`` - range of the resonant
  microwave exchange interaction,
* ``r_b6 = (C6 / hbar Omega)^(1/6)`` - optical blockade radius against
  the EIT linewidth Omega,
* ``r_mu = (C6 / hbar Omega_mu)^(1/6)`` - distance below which the
  parasitic van der Waals shift competes with the microwave drive.

A workable gate wants the window [max(r_b6, r_mu), r_b3] non-empty: the
sites far enough apart for storage and the microwave rotation to be
clean, yet within reach of the 1/d^3 exchange shift.
"""

from __future__ import annotations

import dataclasses
import math

from .constants import HBAR, PLANCK_H, TWOPI, check_domain
from .errors import NumericsError, ResonanceError
from .levels import RydbergLevel, p_level, s_level
from .pair import c3_coefficient, c6_coefficient
from .qdt import lifetime
from .species import AtomSpecies

__all__ = [
    "Lengthscales",
    "MeritPoint",
    "RadiiPoint",
    "blockade_radii",
    "figure_of_merit",
    "radii_point",
]


@dataclasses.dataclass(frozen=True)
class Lengthscales:
    """The three radii (um) and the gate window they bound."""

    r_b3: float
    r_b6: float
    r_mu: float
    window: tuple[float, float]
    window_ok: bool


@dataclasses.dataclass(frozen=True)
class MeritPoint:
    """Dimensionless figure of merit O = C3^2/(C6 hbar Gamma) at one n."""

    n: int
    merit: float
    gamma_used: float


@dataclasses.dataclass(frozen=True)
class RadiiPoint:
    """Radii at one n; None radii mark resonant pairs."""

    n: int
    r_b6_cross_um: float | None
    r_b6_same_um: float | None
    r_b3_um: float
    resonant: bool


def _power_radius(c_ghz: float, omega: float, k: int) -> float:
    """(2 pi |C_k| / omega)^(1/k) in um, for C_k in GHz um^k and omega in rad/s;
    NumericsError where the quotient overflows."""
    radius = (TWOPI * (abs(c_ghz) * 1e9) / omega) ** (1.0 / k)
    if not math.isfinite(radius):
        raise NumericsError(f"radius (2 pi |C{k}| / omega)^(1/{k}) overflows at omega = {omega:.3e} rad/s")
    return radius


def blockade_radii(
    c3_ghz_um3: float,
    c6_ghz_um6: float,
    omega_eit: float,
    omega_mu: float,
) -> Lengthscales:
    """Radii in um from C3 (GHz um^3), C6 (GHz um^6) and rad/s frequencies.

    C6 enters through its magnitude; an empty gate window is reported via
    ``window_ok``, not raised.
    """
    if c6_ghz_um6 == 0:
        raise ValueError("c6_ghz_um6 must be non-zero")
    check_domain("c3_ghz_um3", c3_ghz_um3)
    check_domain("omega_eit", omega_eit)
    check_domain("omega_mu", omega_mu)
    r_b3 = _power_radius(c3_ghz_um3, omega_mu, 3)
    r_b6 = _power_radius(c6_ghz_um6, omega_eit, 6)
    r_mu = _power_radius(c6_ghz_um6, omega_mu, 6)
    low = max(r_b6, r_mu)
    return Lengthscales(
        r_b3=r_b3,
        r_b6=r_b6,
        r_mu=r_mu,
        window=(low, r_b3),
        window_ok=r_b3 > low,
    )


def _level_system(n: int) -> tuple[RydbergLevel, RydbergLevel, RydbergLevel]:
    """(control, target, auxiliary) = (nS_1/2, (n+1)S_1/2, nP_1/2)."""
    return s_level(n), s_level(n + 1), p_level(n, 0.5)


def figure_of_merit(species: AtomSpecies, n: int, temperature: float = 300.0) -> MeritPoint:
    """O = C3(r'p)^2 / (C6(r'r) hbar Gamma) for the nS/(n+1)S/nP_1/2 system.

    Gamma is the largest decay rate among the three levels at the given
    radiation temperature (the shortest lifetime bounds every radius).
    Dimensionless and unit-system independent. Propagates the resonance
    error from the C6 sum for unusable n.
    """
    control, target, aux = _level_system(n)
    c3 = c3_coefficient(species, control, aux)
    c6 = c6_coefficient(species, control, target).c6_ghz_um6
    gamma = max(lifetime(species, lv, temperature) for lv in (control, target, aux))
    c3_joule_um3 = PLANCK_H * c3 * 1e9
    c6_joule_um6 = PLANCK_H * abs(c6) * 1e9
    merit = c3_joule_um3**2 / (c6_joule_um6 * HBAR * gamma)
    return MeritPoint(n=n, merit=merit, gamma_used=gamma)


def radii_point(species: AtomSpecies, n: int, omega: float) -> RadiiPoint:
    """Radii at one n and a single coupling omega (rad/s).

    r_b6 of the cross pair (nS, (n+1)S), r_b6 of the same-level
    reference pair (nS, nS), and r_b3 of (nS, nP_1/2). Forster-resonant
    pairs yield None in the affected column and set the flag instead of
    raising.
    """
    control, target, aux = _level_system(n)
    r_b3 = _power_radius(c3_coefficient(species, control, aux), omega, 3)

    radii: dict[str, float | None] = {}
    resonant = False
    for key, partner in (("cross", target), ("same", control)):
        try:
            c6 = c6_coefficient(species, control, partner).c6_ghz_um6
        except ResonanceError:
            radii[key] = None
            resonant = True
        else:
            radii[key] = _power_radius(c6, omega, 6)
    return RadiiPoint(
        n=n,
        r_b6_cross_um=radii["cross"],
        r_b6_same_um=radii["same"],
        r_b3_um=r_b3,
        resonant=resonant,
    )
