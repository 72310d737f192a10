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
  the control-target separation s is Gaussian-distributed, truncated to
  s > 0, with standard deviation sigma = sqrt(2) q r_b6 around d11.
  f0(s) winds with phases that grow as 1/s^3 and 1/s^6, so it is
  tabulated once per working point on panels that follow them
  (``_SiteTable``), and each average is a weighted sum over that table.

The two penalties multiply: f_total = eta_m * <f0>.  The fixed storage
and retrieval budget eta_c**2 is reported alongside, never folded in.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .constants import DEFAULT_D_FAR_FACTOR, K_BOLTZMANN, TWOPI, check_domain
from .errors import NumericsError, WindowError
from .gate import GateParams, fidelity_curve
from .lengthscales import Lengthscales
from .textio import format_fixed

__all__ = [
    "DephasingParams",
    "motional_dephasing",
    "site_average",
    "AveragedFidelity",
    "averaged_fidelity",
    "optimize_d11",
]

_PANEL_PHASE = 12.0  # rad of resolved phase per panel, at most
_PANEL_SIGMA = 0.5  # panel width in units of sigma, at most
_CUT_PHASE = 1e3  # rad of C6 phase below which the cross term is dropped
_WIGGLE_PHASE = 300.0  # rad past which the other phases are not resolved
_SPAN = 8.0  # sigmas of Gaussian kept each side of an average's centre
_MAX_PANELS = 1024  # sigma/2 panels across [d_lo, d_hi] in one table, at most
_POINT_SPREAD = 1e-9  # sigma / d11 below which the average is f0 at d11
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
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1], by Newton's
    method on P_n: numpy's ``leggauss`` takes an eigensolve (LAPACK)."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


class _SiteTable:
    """f0 tabulated in one curve call for every average centred in [d_lo, d_hi].

    16- and 8-point Gauss-Legendre panels run from d_hi + 8 sigma down to
    max(d_lo - 8 sigma, 0), each at most sigma/2 wide and holding at most
    12 rad of the phases 2 pi C_k t / s^k still resolved.  The C6 phase at
    s winds R against F, and so the cross term of f0 = (9|F|^2 + |R|^2 -
    6 Re(F* R)) / 16: below where it reaches 1e3 rad that term is dropped,
    and its endpoint term, the first of its asymptotic expansion (Iserles &
    Norsett, Proc. R. Soc. A 461, 1383 (2005)), kept.  The C3 phase at s and
    both at the far pair (none if d_far is pinned) add Rabi wiggles ~ (pi /
    phase)^2, resolved to 300 rad.  A spread under 1e-9 of d_hi, or too
    narrow to tabulate in 1024 panels, leaves ``sigma`` 0: ``mean`` is f0.
    """

    def __init__(self, params: GateParams, scales: Lengthscales, d_lo: float, d_hi: float):
        self.curve = fidelity_curve(params)
        self.sigma = math.sqrt(2.0) * params.q * scales.r_b6
        lo, hi = max(d_lo - _SPAN * self.sigma, 0.0), d_hi + _SPAN * self.sigma
        if not math.isfinite(hi):
            raise NumericsError(f"separation spread overflows: sigma = {self.sigma} um")
        panels = (d_hi - d_lo) / (_PANEL_SIGMA * self.sigma) if self.sigma else math.inf
        if self.sigma <= _POINT_SPREAD * d_hi or panels > _MAX_PANELS:
            self.sigma = 0.0
            return
        phase = params.pulse_time * TWOPI * 1e9  # rad per GHz um^k / um^k
        c3, c6 = phase * abs(params.c3_ghz_um3), phase * abs(params.c6_ghz_um6)
        far3 = DEFAULT_D_FAR_FACTOR**-3 if params.d_far is None else 0.0
        edges, cut = [hi], None
        while edges[-1] > lo:
            u = 1.0 / edges[-1]
            p3 = c3 * u * u * u  # a phase C_k / s^k winds at k C_k / s^(k+1) rad per um
            p6 = c6 * (u * u * u) * (u * u * u)
            if cut is None and p6 >= _CUT_PHASE:
                cut = len(edges) - 1
            wiggles = ((3, p3), (3, p3 * far3), (6, p6 * far3 * far3))
            rate = sum(k * p for k, p in wiggles if p < _WIGGLE_PHASE)
            rate = u * (rate + (6.0 * p6 if p6 < _CUT_PHASE else 0.0))
            step = min(_PANEL_SIGMA * self.sigma, _PANEL_PHASE / rate if rate else math.inf)
            edges.append(max(edges[-1] - step, lo))
        self.cut = lo if cut is None else edges[cut]
        tip = [self.cut, self.cut + 1e-2 * (edges[cut - 1] - self.cut)] if cut else []
        a, b = np.array(edges[:0:-1])[:, None], np.array(edges[-2::-1])[:, None]
        rules = [((a + b + (b - a) * x) / 2, (b - a) * w / 2) for x, w in map(_legendre, (16, 8))]
        (self.s, self.w), (self.s8, self.w8) = [(s.ravel(), w.ravel()) for s, w in rules]
        s = np.concatenate([self.s, self.s8, tip])
        far, near = self.curve(s, amplitudes=True)
        beat = np.conj(far) * near
        f = (9.0 * np.abs(far) ** 2 + np.abs(near) ** 2) / 16.0
        f -= 0.375 * np.where(s >= self.cut, beat.real, 0.0)
        self.f, self.f8 = f[: self.s.size], f[self.s.size : self.s.size + self.s8.size]
        # the dropped cross term is ~ -3/8 g(cut) Im(beat) / psi', psi' = d arg(beat) / ds
        self.rate = np.angle(beat[-1] * beat[-2].conj()) / (tip[1] - tip[0]) if tip else 0.0
        self.tail = -0.375 * beat[-2].imag / self.rate if self.rate else 0.0

    def _gauss(self, s, d):
        return np.exp(-0.5 * ((s - d) / self.sigma) ** 2)

    def mean(self, d):
        """Averages centred at d, a float or an array."""
        if not self.sigma:
            return self.curve(d)
        g = self.w * self._gauss(self.s, np.asarray(d)[..., None])  # sums, not BLAS threads
        return ((g * self.f).sum(-1) + self.tail * self._gauss(self.cut, d)) / g.sum(-1)

    def error(self, d: float) -> float:
        """Estimated error of ``mean(d)``: the 8- against the 16-point sum,
        plus the next asymptotic term of the dropped cross term."""
        if not self.sigma:
            return 0.0
        g = self.w * self._gauss(self.s, d)
        error = abs((g * self.f).sum() - (self.w8 * self._gauss(self.s8, d) * self.f8).sum())
        if self.rate:
            slope = abs(self.cut - d) / self.sigma**2 + 7.0 / self.cut
            error += abs(self.tail * self._gauss(self.cut, d) * slope / self.rate)
        return float(error / g.sum())


def site_average(params: GateParams, table: _SiteTable | None = None):
    """Average f0 over the positional spread of the pair at ``params.d11``:
    (f0_avg, warnings), warnings non-empty when the error estimate passes
    1e-6.  Spread per excitation is q * r_b6; the relative coordinate gets
    sqrt(2) of that.  ``table`` covers d11 (the optimiser's), or is built.
    """
    d11 = params.d11
    table = table or _SiteTable(params, params.lengthscales, d11, d11)
    error = table.error(d11)
    warning = f"site average uncertain by {error:.2e} at d11 = {format_fixed(d11, 3)} um"
    return float(table.mean(d11)), (warning,) if error > _CONVERGENCE_TOL else ()


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


def averaged_fidelity(params: GateParams, table: _SiteTable | None = None) -> AveragedFidelity:
    """Positional + motional average of the gate fidelity at ``params.d11``;
    ValueError when it is None (``optimize_d11`` chooses one).  ``table``
    as for ``site_average``."""
    if params.d11 is None:
        raise ValueError("no pair separation: set params.d11 or call optimize_d11")
    f0_avg, warnings = site_average(params, table)
    if not math.isfinite(f0_avg):
        raise NumericsError(f"site-averaged fidelity is {f0_avg} at d11 = {params.d11:g} um")
    # At q = 0, the w0 -> 0 limit of the dephasing envelope: the transit
    # term t^2/xi^2 diverges and the exponent vanishes.
    eta_m = 1.0
    if params.q > 0.0:
        w0_um = params.q * params.lengthscales.r_b6
        eta_m = motional_dephasing(DephasingParams(
            params.temperature, params.mass_kg, w0_um, params.lambda_sw, params.pulse_time
        ))
    return AveragedFidelity(
        f0_avg, eta_m, eta_m * f0_avg, float(params.d11), float(params.eta_c**2), warnings
    )


def optimize_d11(params: GateParams) -> AveragedFidelity:
    """Averaged fidelity at the separation that maximises it, its ``d11_used``.

    Search interval is the operating window [max(r_b6, r_mu), r_b3]
    stretched by [0.8, 1.2]; raises WindowError when that interval is
    empty.  eta_m does not depend on d11, so the search maximises f0_avg:
    four 25-point grids, each over the two cells around the best point of
    the one before, find it to 1/41472 of the interval, all on one table.
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
    table = _SiteTable(params, scales, lo, hi)
    grid = np.linspace(lo, hi, 25)
    for _ in range(4):
        k = int(np.argmax(table.mean(grid)))
        grid = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, 24)], 25)
    best = dataclasses.replace(params, d11=float(grid[12]))
    return averaged_fidelity(best, table if table.sigma else None)
