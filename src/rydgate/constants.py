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

The defaults, the sweep axis table and the domain of each numeric input
(every setting and every species-file number) live here too, so that
``rydgate --help``, the usage checks and the species loader need no
numerical module; ``gate``, ``pair`` and ``sweeps`` re-export the defaults.

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
MAX_L = 2                     # orbital momentum cap of channel sums
RESONANCE_THRESHOLD_HZ = 10e6  # |defect| below which a channel counts as resonant

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

# numeric input -> (test of a finite value, what the value must be).  An
# input is a setting or a species-file field.  The domains are scale-free,
# so one entry serves a command-line flag in display units (MHz, uK; the
# entry is the flag's name less its unit suffix) and a library field in
# internal units (rad/s, K).
_POSITIVE = (lambda v: v > 0, "positive")
DOMAINS = {
    **dict.fromkeys(("omega_mu", "omega_c"), (_POSITIVE[0], "a positive Rabi frequency")),
    **dict.fromkeys(("omega", "omega_eit", "d11", "d_far", "d_um", "lambda_sw", "lambda_sw_um",
                     "w0_um", "mass_kg", "c3_ghz_um3", "tau_s_ns", "alpha"), _POSITIVE),
    **dict.fromkeys(("temperature", "radiation_temp", "bbr_temp", "bbr_temperature", "pulse_time",
                     "q", "gamma_r", "gamma_rp", "gamma_p", "threshold", "max_delta_n", "delta0",
                     "L"), (lambda v: v >= 0, "non-negative")),
    **dict.fromkeys(("c6_ghz_um6", "rydberg_constant_hz", "ionization_reference_hz", "delta2",
                     "J"), (lambda v: True, "finite")),
    "eta_c": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    # The level system is nS, (n+1)S and nP_1/2, and there is no 1P level.
    "n": (lambda v: v == int(v) and v >= 2, "an integer >= 2"),
    "workers": (lambda v: v >= 1, "at least 1"),
}


def check_domain(name: str, value, label: str | None = None):
    """``value`` if it is finite and in the domain of setting ``name``;
    else ValueError naming ``label`` (default ``name``)."""
    test, phrase = DOMAINS[name]
    if not math.isfinite(value):
        phrase = "finite"
    elif test(value):
        return value
    raise ValueError(f"{label or name} must be {phrase}, got {value}")


def check_axis_values(axis: str, values):
    """``values`` if ``axis`` is a sweep axis and they are a non-empty,
    strictly monotone run, each in the axis's domain; else ValueError."""
    if axis not in AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {', '.join(SWEEP_AXES)}")
    if len(values) == 0:
        raise ValueError("sweep needs at least one axis value")
    for v in values:
        check_domain(axis, v)
    pairs = list(zip(values, values[1:]))
    if not (all(b > a for a, b in pairs) or all(b < a for a, b in pairs)):
        raise ValueError(f"axis values must be strictly monotone, got {list(values)}")
    return values
