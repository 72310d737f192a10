"""Thermal and positional averaging of the pointwise gate fidelity.

Two effects degrade the idealised fixed-geometry fidelity:

* **Motional dephasing.** The stored spin wave carries momentum-space
  structure set by the switching wavelength lambda_sw and the cloud
  width w0.  Thermal motion at speed v = sqrt(kB T / m) scrambles the
  spin-wave phase over the pulse; retrieval efficiency follows
  eta_m = exp[-(t/tau)^2 / (1 + (t/xi)^2)] with tau = lambda_sw/(2 pi v)
  and xi = w0 / v.

* **Site averaging.** The two excitations are localised only to the
  blockade scale: each sits within ~ q * r_b6 of its nominal site, so
  the control-target separation is Gaussian-distributed with standard
  deviation sqrt(2) q r_b6 around d11.  The pointwise fidelity is
  averaged over that distribution by Gauss-Hermite quadrature.

The two penalties multiply: f_total = eta_m * <f0>.  The fixed storage
and retrieval budget eta_c**2 is reported alongside, never folded in.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .constants import K_BOLTZMANN
from .errors import WindowError
from .gate import GateParams, fidelity_curve
from .lengthscales import blockade_radii

__all__ = [
    "SITE_AVERAGE_NODES",
    "DephasingParams",
    "motional_dephasing",
    "site_average",
    "AveragedFidelity",
    "averaged_fidelity",
    "optimize_d11",
]

SITE_AVERAGE_NODES = 41
_CONVERGENCE_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class DephasingParams:
    """Inputs of the spin-wave dephasing envelope.

    temperature in K, mass in kg, w0 (site waist) and lambda_sw in um,
    pulse_time in s.
    """

    temperature: float
    mass_kg: float
    w0_um: float
    lambda_sw_um: float
    pulse_time: float

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.mass_kg <= 0 or self.w0_um <= 0 or self.lambda_sw_um <= 0:
            raise ValueError("mass and lengths must be positive")
        if self.pulse_time < 0:
            raise ValueError("pulse_time must be non-negative")


def motional_dephasing(params: DephasingParams) -> float:
    """Spin-wave survival eta_m after free flight for ``pulse_time``.

    Thermal speed v = sqrt(kB T / m) sets the site exit time
    xi = w0 / v and the spin-wave scrambling time tau = lambda / (2 pi v);
    eta_m = exp[-(t/tau)^2 / (1 + (t/xi)^2)].  Returns 1 exactly at zero
    temperature.
    """
    if params.temperature == 0.0 or params.pulse_time == 0.0:
        return 1.0
    v_um_s = math.sqrt(K_BOLTZMANN * params.temperature / params.mass_kg) * 1e6
    tau = params.lambda_sw_um / (2.0 * math.pi * v_um_s)
    xi = params.w0_um / v_um_s
    t2 = params.pulse_time * params.pulse_time
    return math.exp(-(t2 / tau**2) / (1.0 + t2 / xi**2))


@functools.lru_cache(maxsize=None)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, built once per order, read-only."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_average(curve, d11: float, sigma_um: float, nodes: int) -> float:
    """Gaussian-weighted mean of ``curve`` over separation, s > 0 only.

    With no spread (sigma 0) that is the curve at d11 itself.
    """
    if sigma_um == 0.0:
        return float(curve(np.asarray([d11]))[0])
    x, w = _hermgauss(nodes)
    s = d11 + math.sqrt(2.0) * sigma_um * x
    keep = s > 0.0
    if not np.any(keep):
        raise ValueError("separation distribution has no support at s > 0")
    vals = curve(s[keep])
    return float(np.sum(w[keep] * vals) / np.sum(w[keep]))


def site_average(curve, d11: float, r_b6_um: float, q: float):
    """Average a fidelity curve over the positional spread of the pair.

    ``curve`` maps an array of separations (um) to f0 values.  Spread
    per excitation is q * r_b6; the relative coordinate gets sqrt(2) of
    that.  Returns (f0_avg, warnings) where warnings is a tuple of
    strings, non-empty when doubling the quadrature order moves the
    result by more than 1e-6.
    """
    if d11 <= 0:
        raise ValueError("d11 must be positive")
    if q < 0:
        raise ValueError("q must be non-negative")
    if q > 0.0 and r_b6_um <= 0:
        raise ValueError("r_b6 must be positive when q > 0")
    sigma = math.sqrt(2.0) * q * r_b6_um
    coarse = _gauss_average(curve, d11, sigma, SITE_AVERAGE_NODES)
    fine = _gauss_average(curve, d11, sigma, 2 * SITE_AVERAGE_NODES - 1)
    warnings: tuple[str, ...] = ()
    if abs(fine - coarse) > _CONVERGENCE_TOL:
        warnings = (
            f"site average moved by {abs(fine - coarse):.2e} when doubling "
            f"quadrature order at d11 = {d11:.3f} um",
        )
    return fine, warnings


@dataclasses.dataclass(frozen=True)
class AveragedFidelity:
    """Averaged gate figure with its separable efficiency factors.

    f_total = eta_m * f0_avg; coupling_budget = eta_c**2 is the fixed
    storage/retrieval overhead reported for context, not multiplied in.
    """

    f0_avg: float
    eta_m: float
    f_total: float
    d11_used: float
    coupling_budget: float
    warnings: tuple[str, ...] = ()


def _radii_for(params: GateParams):
    return blockade_radii(
        params.c3_ghz_um3,
        params.c6_ghz_um6,
        params.omega_eit_resolved,
        params.omega_mu,
    )


def averaged_fidelity(params: GateParams, d11: float | None = None) -> AveragedFidelity:
    """Positional + motional average of the gate fidelity at one point."""
    d11 = params.d11 if d11 is None else d11
    scales = _radii_for(params)
    f0_avg, warnings = site_average(fidelity_curve(params), d11, scales.r_b6, params.q)
    # At q = 0, the w0 -> 0 limit of the dephasing envelope: the transit
    # term t^2/xi^2 diverges and the exponent vanishes.
    eta_m = 1.0
    if params.q > 0.0:
        eta_m = motional_dephasing(
            DephasingParams(
                temperature=params.temperature,
                mass_kg=params.mass_kg,
                w0_um=params.q * scales.r_b6,
                lambda_sw_um=params.lambda_sw,
                pulse_time=params.pulse_time,
            )
        )
    return AveragedFidelity(
        f0_avg=float(f0_avg),
        eta_m=float(eta_m),
        f_total=float(eta_m * f0_avg),
        d11_used=float(d11),
        coupling_budget=float(params.eta_c**2),
        warnings=warnings,
    )


def optimize_d11(params: GateParams) -> tuple[float, AveragedFidelity]:
    """Pick the separation that maximises the averaged fidelity.

    Search interval is the operating window [max(r_b6, r_mu), r_b3]
    stretched by [0.8, 1.2]; raises WindowError when that interval is
    empty.  eta_m does not depend on d11, so the scan maximises f0_avg;
    a coarse grid seeds a bounded scalar minimisation refined to 1e-3 um.
    """
    scales = _radii_for(params)
    lo = 0.8 * scales.window[0]
    hi = 1.2 * scales.window[1]
    if not lo < hi:
        raise WindowError(
            f"empty operating window: [{lo:.3f}, {hi:.3f}] um "
            f"(r_b3 = {scales.r_b3:.3f}, r_b6 = {scales.r_b6:.3f}, "
            f"r_mu = {scales.r_mu:.3f})"
        )

    curve = fidelity_curve(params)
    sigma = math.sqrt(2.0) * params.q * scales.r_b6

    def f0_avg_at(d):
        return _gauss_average(curve, d, sigma, SITE_AVERAGE_NODES)

    coarse = np.linspace(lo, hi, 25)
    coarse_vals = [f0_avg_at(d) for d in coarse]
    k = int(np.argmax(coarse_vals))
    b_lo = float(coarse[max(k - 1, 0)])
    b_hi = float(coarse[min(k + 1, len(coarse) - 1)])
    if b_lo == b_hi:
        d_opt = float(coarse[k])
    else:
        d_opt = _golden_max(f0_avg_at, b_lo, b_hi, 1e-3)
        if f0_avg_at(d_opt) < coarse_vals[k]:
            d_opt = float(coarse[k])
    return d_opt, averaged_fidelity(params, d_opt)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximum of a unimodal f on [lo, hi] to width tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
