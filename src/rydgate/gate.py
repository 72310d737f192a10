"""Two-qubit gate dynamics through the microwave 2-pi pulse.

Each stored two-qubit basis component |00>, |01>, |10>, |11> evolves
independently: the target excitation undergoes a microwave rotation
|r> <-> |p> while the control excitation sits as a spectator that only
decays.  Interactions enter as diagonal detunings of the two-level
system, evaluated at the component's control-target distance:

* ``delta_p = 2 pi C3 / d^3`` - resonant exchange shift of |p> (the
  blockade that makes the rotation conditional),
* ``delta_r = 2 pi C6 / d^6`` - parasitic van der Waals shift of |r>.

Pulse-area convention: a rotation of duration 2 pi / Omega_mu is a 2-pi
pulse and returns the |r> amplitude to -1 when detunings and decay
vanish.  Amplitude (non-Hermitian) damping stands in for the full master
equation: decayed population never returns to the computational space,
so overlaps with the target state are exact.

The closed-form 2x2 evolution is vectorised over distance arrays.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .constants import DEFAULT_D_FAR_FACTOR, DEFAULT_ETA_C, DEFAULT_LAMBDA_SW_UM, TWOPI
from .constants import check_domain
from .lengthscales import Lengthscales, _level_system, blockade_radii
from .pair import c3_coefficient, c6_coefficient
from .qdt import lifetime
from .species import AtomSpecies

__all__ = [
    "COMPONENT_LABELS",
    "GateParams",
    "two_level_pulse",
    "component_amplitudes",
    "fidelity_curve",
]

COMPONENT_LABELS = ("00", "01", "10", "11")

# The fields for_level_system computes; the others are GateParams.settings.
_LEVEL_FIELDS = ("n", "c3_ghz_um3", "c6_ghz_um6", "mass_kg", "gamma_r", "gamma_rp", "gamma_p")


@dataclasses.dataclass(frozen=True)
class GateParams:
    """Complete parameter record for one gate working point.

    Angular frequencies (omega_*) are in rad/s; interaction coefficients
    are Planck-unit GHz um^3 / GHz um^6; distances in um; temperature is
    the atomic motional temperature in K, bbr_temperature the radiation
    temperature in K that set the decay rates.  d11 = None leaves the
    pair separation to the optimiser.
    """

    n: int
    omega_mu: float
    omega_c: float
    d11: float | None
    temperature: float
    q: float
    c3_ghz_um3: float
    c6_ghz_um6: float
    mass_kg: float
    gamma_r: float
    gamma_rp: float
    gamma_p: float
    omega_eit: float | None = None
    d_far: float | None = None
    lambda_sw: float = DEFAULT_LAMBDA_SW_UM
    eta_c: float = DEFAULT_ETA_C
    bbr_temperature: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None:
                check_domain(name, value)

    @property
    def omega_eit_resolved(self) -> float:
        """EIT linewidth; defaults to Omega_c when not set explicitly."""
        return self.omega_c if self.omega_eit is None else self.omega_eit

    @property
    def lengthscales(self) -> Lengthscales:
        """Radii and gate window of this working point, against omega_eit_resolved."""
        return blockade_radii(
            self.c3_ghz_um3, self.c6_ghz_um6, self.omega_eit_resolved, self.omega_mu
        )

    @property
    def settings(self) -> dict:
        """The fields ``for_level_system`` takes as given, by name."""
        return {k: v for k, v in dataclasses.asdict(self).items() if k not in _LEVEL_FIELDS}

    @property
    def pulse_time(self) -> float:
        """Duration of the 2-pi microwave rotation, 2 pi / Omega_mu."""
        return TWOPI / self.omega_mu

    @classmethod
    def for_level_system(cls, species: AtomSpecies, n: int, **settings) -> "GateParams":
        """Assemble a working point for the nS/(n+1)S/nP_1/2 level system.

        Computes C3, C6 and the three decay rates from atomic structure.
        ``settings`` are the other fields: omega_mu, omega_c, d11,
        temperature and q, and optionally omega_eit, d_far, lambda_sw,
        eta_c and bbr_temperature (the radiation temperature, which adds
        blackbody-stimulated decay; decay is purely radiative without it).
        A working point's ``settings`` rebuild it at another n.
        """
        control, target, aux = _level_system(n)
        bbr = settings.get("bbr_temperature", cls.bbr_temperature)
        return cls(
            n=n,
            c3_ghz_um3=c3_coefficient(species, control, aux),
            c6_ghz_um6=c6_coefficient(species, control, target).c6_ghz_um6,
            mass_kg=species.mass,
            gamma_r=lifetime(species, target, bbr),
            gamma_rp=lifetime(species, control, bbr),
            gamma_p=lifetime(species, aux, bbr),
            **settings,
        )


def two_level_pulse(omega_mu, delta_p, delta_r, gamma_r, gamma_p, duration):
    """Return amplitude of |r> after driving |r> <-> |p> for ``duration``.

    Coupling omega_mu and detunings delta_r (on |r>), delta_p (on |p>)
    in rad/s; decay rates in 1/s. A resonant lossless pulse of duration
    2 pi / omega_mu returns exactly -1. Vectorised over the detunings.

    Closed form of i dc/dt = M c with
    M = [[delta_r - i gamma_r/2, omega_mu/2], [omega_mu/2, delta_p - i gamma_p/2]],
    c(0) = (1, 0): exp(-iMt) in terms of the complex generalized Rabi
    rate lambda = sqrt((Delta/2)^2 + (omega_mu/2)^2), Delta = z_p - z_r.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    shape = np.broadcast_shapes(np.shape(delta_p), np.shape(delta_r))
    # at least 1-d, so scalar calls run the same numpy loops as array calls
    z_r = np.array(delta_r, dtype=complex, ndmin=1) - 0.5j * gamma_r
    z_p = np.array(delta_p, dtype=complex, ndmin=1) - 0.5j * gamma_p
    center = 0.5 * (z_r + z_p)
    half_gap = 0.5 * (z_p - z_r)
    lam = np.sqrt(half_gap**2 + 0.25 * omega_mu**2)
    phase = lam * duration
    # sin(x)/x, series below the float noise floor of the quotient
    small = np.abs(phase) < 1e-6
    safe = np.where(small, 1.0, phase)
    sinc = np.where(small, 1.0 - phase**2 / 6.0, np.sin(safe) / safe)
    amp = np.exp(-1j * center * duration) * (
        np.cos(phase) + 1j * half_gap * duration * sinc
    )
    return amp.reshape(shape)[()]


def _far_near(params: GateParams, d11):
    """Far and near amplitudes after the pulse, rows F, R, vectorised over d11.

    F sits at d_far (5 * d11 unless pinned), R at the control-target
    separation d11; the control spectator decay exp(-gamma_rp t / 2)
    multiplies both, as every component stores one control excitation.
    The pulse kernel runs once, on d_far and d11 stacked together.
    """
    d11 = np.asarray(d11, dtype=float)
    if np.any(d11 <= 0):
        raise ValueError("control-target separation must be positive")
    # far pairs scale with the trial separation unless pinned explicitly
    d_far = DEFAULT_D_FAR_FACTOR * d11 if params.d_far is None else np.full_like(d11, params.d_far)
    d, t = np.stack([d_far, d11]), params.pulse_time
    delta_p = TWOPI * (params.c3_ghz_um3 * 1e9) / d**3
    delta_r = TWOPI * (params.c6_ghz_um6 * 1e9) / d**6
    return np.exp(-0.5 * params.gamma_rp * t) * two_level_pulse(
        params.omega_mu, delta_p, delta_r, params.gamma_r, params.gamma_p, t
    )


def component_amplitudes(params: GateParams, d11) -> np.ndarray:
    """The four components' amplitudes, shape (4,) + shape(d11) in
    COMPONENT_LABELS order: F for "00", "01" and "10", R for "11" (see _far_near)."""
    far, near = _far_near(params, d11)
    return np.stack([far, far, far, near])


def fidelity_curve(params: GateParams):
    """F0 = |a00 + a01 + a10 - a11|^2 / 16 as a vectorised function of separation.

    The overlap-squared of the evolved equal superposition with the CZ
    target (|00> + |01> + |10> - |11>) / 2, for averaging kernels.
    """

    def curve(d11):
        with np.errstate(all="ignore"):  # the averaging judges a non-finite value
            far, near = _far_near(params, d11)
            return np.abs(far + far + far - near) ** 2 / 16.0

    return curve
