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
from importlib import resources

import numpy as np

from .constants import K_BOLTZMANN, check_domain
from .errors import NumericsError, WindowError
from .gate import GateParams, fidelity_curve
from .textio import format_fixed

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
        for name, value in vars(self).items():
            check_domain(name, value)


def motional_dephasing(params: DephasingParams) -> float:
    """Spin-wave survival eta_m after free flight for ``pulse_time``.

    Thermal speed v = sqrt(kB T / m) sets the site exit time
    xi = w0 / v and the spin-wave scrambling time tau = lambda / (2 pi v);
    eta_m = exp[-(t/tau)^2 / (1 + (t/xi)^2)], 1 exactly at zero temperature.
    Squares past the float range take their limits: 1 as w0 -> 0, 0 as
    lambda -> 0, exp[-(t/tau)^2] as w0 -> inf; NumericsError if two clash.
    """
    if params.temperature == 0.0 or params.pulse_time == 0.0:
        return 1.0
    v_um_s = math.sqrt(K_BOLTZMANN * params.temperature / params.mass_kg) * 1e6
    with np.errstate(all="ignore"):
        tau = np.float64(params.lambda_sw_um) / (2.0 * math.pi * v_um_s)
        xi = np.float64(params.w0_um) / v_um_s
        t2 = np.float64(params.pulse_time) * params.pulse_time
        eta_m = math.exp(-(t2 / tau**2) / (1.0 + t2 / xi**2))
    if math.isnan(eta_m):
        raise NumericsError(f"motional dephasing has no limit at {params}")
    return eta_m


@functools.lru_cache(maxsize=None)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights of order 41 or 81, read once, read-only.

    Stored with the bits numpy's ``hermgauss`` returns: building them takes
    a dense ``eigvalsh``, and from 65 nodes up OpenBLAS wakes its thread
    pool for it, whose idle threads then spin through the rest of the run.
    """
    text = resources.files("rydgate.data").joinpath("hermgauss.txt").read_text("utf-8")
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    x = np.array([float(node) for order, node, _ in rows if int(order) == nodes])
    w = np.array([float(weight) for order, _, weight in rows if int(order) == nodes])
    if x.size != nodes:
        raise ValueError(f"no stored Gauss-Hermite rule of order {nodes}")
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_averages(curve, requests, sigma_um: float) -> list[float]:
    """Gaussian-weighted means of ``curve`` over separation, s > 0 only.

    ``requests`` is a list of (d11, nodes) pairs, each averaged with its
    own Gauss-Hermite rule. The curve is called once, on every request's
    kept nodes joined together; each mean is reduced over its own slice.
    With no spread (sigma 0) each mean is the curve at d11 itself.
    """
    if not math.isfinite(sigma_um):
        raise NumericsError(f"separation spread overflows: sigma = {sigma_um} um")
    if sigma_um == 0.0:
        return [float(v) for v in curve(np.asarray([d11 for d11, _ in requests]))]
    kept = []
    for d11, nodes in requests:
        x, w = _hermgauss(nodes)
        s = d11 + math.sqrt(2.0) * sigma_um * x
        keep = s > 0.0
        if not np.any(keep):
            raise ValueError("separation distribution has no support at s > 0")
        kept.append((s[keep], w[keep]))
    vals = curve(np.concatenate([s for s, _ in kept]))
    means, start = [], 0
    for _, w in kept:
        part = vals[start : start + len(w)]
        means.append(float(np.sum(w * part) / np.sum(w)))
        start += len(w)
    return means


def site_average(curve, d11: float, r_b6_um: float, q: float):
    """Average a fidelity curve over the positional spread of the pair.

    ``curve`` maps an array of separations (um) to f0 values.  Spread
    per excitation is q * r_b6; the relative coordinate gets sqrt(2) of
    that.  Returns (f0_avg, warnings) where warnings is a tuple of
    strings, non-empty when doubling the quadrature order moves the
    result by more than 1e-6.  Both rules are evaluated in one call of
    the curve.
    """
    check_domain("d11", d11)
    check_domain("q", q)
    if q > 0.0 and r_b6_um <= 0:
        raise ValueError("r_b6 must be positive when q > 0")
    sigma = math.sqrt(2.0) * q * r_b6_um
    coarse, fine = _gauss_averages(
        curve, [(d11, SITE_AVERAGE_NODES), (d11, 2 * SITE_AVERAGE_NODES - 1)], sigma
    )
    warnings: tuple[str, ...] = ()
    if abs(fine - coarse) > _CONVERGENCE_TOL:
        warnings = (
            f"site average moved by {abs(fine - coarse):.2e} when doubling "
            f"quadrature order at d11 = {format_fixed(d11, 3)} um",
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


def averaged_fidelity(params: GateParams) -> AveragedFidelity:
    """Positional + motional average of the gate fidelity at ``params.d11``;
    ValueError when it is None (``optimize_d11`` chooses one)."""
    if params.d11 is None:
        raise ValueError("no pair separation: set params.d11 or call optimize_d11")
    scales = params.lengthscales
    f0_avg, warnings = site_average(fidelity_curve(params), params.d11, scales.r_b6, params.q)
    if not math.isfinite(f0_avg):
        raise NumericsError(f"site-averaged fidelity is {f0_avg} at d11 = {params.d11:g} um")
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
        d11_used=float(params.d11),
        coupling_budget=float(params.eta_c**2),
        warnings=warnings,
    )


def optimize_d11(params: GateParams) -> AveragedFidelity:
    """Averaged fidelity at the separation that maximises it, its ``d11_used``.

    Search interval is the operating window [max(r_b6, r_mu), r_b3]
    stretched by [0.8, 1.2]; raises WindowError when that interval is
    empty.  eta_m does not depend on d11, so the scan maximises f0_avg;
    a coarse grid seeds a bounded scalar minimisation refined to 1e-3 um.
    The 25-point coarse grid is one call of the curve; each golden-section
    probe, which depends on the one before, is one more.
    """
    scales = params.lengthscales
    lo = 0.8 * scales.window[0]
    hi = 1.2 * scales.window[1]
    if not lo < hi:
        raise WindowError(
            f"empty operating window: [{format_fixed(lo, 3)}, {format_fixed(hi, 3)}] um "
            f"(r_b3 = {format_fixed(scales.r_b3, 3)}, r_b6 = {format_fixed(scales.r_b6, 3)}, "
            f"r_mu = {format_fixed(scales.r_mu, 3)})"
        )

    curve = fidelity_curve(params)
    sigma = math.sqrt(2.0) * params.q * scales.r_b6

    def f0_avg_at(d):
        return _gauss_averages(curve, [(d, SITE_AVERAGE_NODES)], sigma)[0]

    coarse = np.linspace(lo, hi, 25)
    coarse_vals = _gauss_averages(curve, [(d, SITE_AVERAGE_NODES) for d in coarse], sigma)
    k = int(np.argmax(coarse_vals))
    b_lo = float(coarse[max(k - 1, 0)])
    b_hi = float(coarse[min(k + 1, len(coarse) - 1)])
    d_opt = _golden_max(f0_avg_at, b_lo, b_hi, 1e-3)
    if f0_avg_at(d_opt) < coarse_vals[k]:
        d_opt = float(coarse[k])
    return averaged_fidelity(dataclasses.replace(params, d11=d_opt))


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
