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

The defaults and the sweep axis table that the command line shows live
here too, so that ``rydgate --help`` and the usage checks need no
numerical module; ``gate``, ``pair`` and ``sweeps`` re-export them.

The constants are the CODATA 2022 values, written out as literals: every
digit of the golden outputs rests on them, so they do not follow whichever
CODATA edition the installed scipy carries (``tests/test_constants.py``
holds them to scipy's values).
"""

import math

PLANCK_H = 6.62607015e-34          # J s
HBAR = PLANCK_H / (2 * math.pi)    # J s
K_BOLTZMANN = 1.380649e-23         # J/K
E_CHARGE = 1.602176634e-19         # C
EPS0 = 8.8541878188e-12            # F/m
ALPHA_FS = 0.0072973525643

TWOPI = 2.0 * math.pi

BOHR_RADIUS = 5.29177210544e-11  # m

# Infinite-mass Rydberg constant as an ordinary frequency, Hz.
RYDBERG_HZ_INF = 3289841960250000.0

# e^2 a0^2 / (4 pi eps0 h): dipole-dipole prefactor for radial integrals in
# units of a0^2, distances in um, energies as ordinary frequencies.
#   V/h [Hz] = C3_PREFACTOR_HZ_UM3 * (R1/a0) * (R2/a0) * angular / (d/um)^3
C3_PREFACTOR_HZ_UM3 = (
    E_CHARGE**2 * BOHR_RADIUS**2 / (4.0 * math.pi * EPS0 * PLANCK_H) * 1e18
)


def mhz_to_rad_s(nu_mhz: float) -> float:
    """Ordinary frequency in MHz -> angular frequency in rad/s."""
    return TWOPI * 1e6 * nu_mhz


DEFAULT_LAMBDA_SW_UM = 1.25   # spin-wave wavelength, um
DEFAULT_ETA_C = 0.9           # per-site coupling efficiency
DEFAULT_D_FAR_FACTOR = 5.0    # non-adjacent pair separation, in units of d11
DEFAULT_MAX_DELTA_N = 5       # principal-number search width of channel sums
DEFAULT_MAX_L = 2             # orbital momentum cap of channel sums

_RAD_S_TO_MHZ = 1.0 / (TWOPI * 1e6)

# fidelity sweep axis -> (display units to internal, internal to display
# units, plot label)
AXES = {
    "omega_mu": (mhz_to_rad_s, lambda v: v * _RAD_S_TO_MHZ, "nu_mu (MHz)"),
    "omega_c": (mhz_to_rad_s, lambda v: v * _RAD_S_TO_MHZ, "nu_c (MHz)"),
    "n": (float, float, "principal quantum number n"),
    "q": (float, float, "q = w0 / r_b6"),
    "temperature": (lambda v: v * 1e-6, lambda v: v * 1e6, "temperature (uK)"),
}
SWEEP_AXES = tuple(AXES)
