"""Physical constants and unit conversions.

Conventions used throughout the package:

* level energies are ordinary frequencies in Hz (E/h, not angular),
* Rabi/coupling frequencies passed to dynamics code are angular (rad/s),
* interaction coefficients are h * GHz um^3 (C3) and h * GHz um^6 (C6),
  i.e. the numbers stored are GHz um^3 / GHz um^6 on the ordinary
  frequency scale,
* distances handed to user-facing code are micrometres, radial integrals
  are Bohr radii.

Conversions between these scales happen once, at module boundaries.
"""

import math

from scipy.constants import physical_constants as _pc
from scipy.constants import h as PLANCK_H        # J s
from scipy.constants import hbar as HBAR         # J s
from scipy.constants import k as K_BOLTZMANN     # J/K
from scipy.constants import e as E_CHARGE        # C
from scipy.constants import epsilon_0 as EPS0    # F/m
from scipy.constants import fine_structure as ALPHA_FS

TWOPI = 2.0 * math.pi

BOHR_RADIUS = _pc["Bohr radius"][0]  # m

# Infinite-mass Rydberg constant as an ordinary frequency, Hz.
RYDBERG_HZ_INF = _pc["Rydberg constant times c in Hz"][0]

# e^2 a0^2 / (4 pi eps0 h): dipole-dipole prefactor for radial integrals in
# units of a0^2, distances in um, energies as ordinary frequencies.
#   V/h [Hz] = C3_PREFACTOR_HZ_UM3 * (R1/a0) * (R2/a0) * angular / (d/um)^3
C3_PREFACTOR_HZ_UM3 = (
    E_CHARGE**2 * BOHR_RADIUS**2 / (4.0 * math.pi * EPS0 * PLANCK_H) * 1e18
)


def mhz_to_rad_s(nu_mhz: float) -> float:
    """Ordinary frequency in MHz -> angular frequency in rad/s."""
    return TWOPI * 1e6 * nu_mhz

