"""Independent reference for the site-averaged gate fidelity f0_avg.

Nothing here calls ``rydgate``: the gate model is evaluated from a stored
working point (C3, C6 and the decay rates the parent commit computed at
the workload's n), so a change to the program's gate or averaging code
cannot move the reference.

``rydgate`` averages the pointwise fidelity over the pair separation s,
a Gaussian of standard deviation sigma = sqrt(2) q r_b6 around d11 and
truncated to s > 0, with Gauss-Hermite rules of fixed order. Here the same
average is computed by composite 16-point Gauss-Legendre panels whose
width follows the local phase rate of the |11> component, so the rule
keeps resolving the 1/s^3 and 1/s^6 phase winding that a fixed-order
rule cannot.

Below the separation where resolving that winding would need more than
``PHASE_BUDGET`` radians of phase, the Gaussian mass is assigned the
midpoint fidelity 0.5 and counted in full, half of it, in the error
estimate. The estimate adds the difference between the 16- and 8-point
rules on the same panels, an upper bound on the error of the 16-point sum.

``seed_site_average`` is the parent commit's own rule (Gauss-Hermite of
order 81 on s > 0, renormalised), kept so a row can be held to the
seed's error and no worse.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.special import erfc

_X16, _W16 = np.polynomial.legendre.leggauss(16)
_X8, _W8 = np.polynomial.legendre.leggauss(8)
PHASE_STEP = 6.0  # radians of phase per panel at most
PHASE_BUDGET = 5e4  # radians of phase resolved below d11 at most
GAUSS_SPAN = 8.0  # integrate d11 +/- GAUSS_SPAN sigma
SEED_NODES = 81  # 2 * SITE_AVERAGE_NODES - 1 at the parent commit
PHASE_DIGITS = 1e-10  # relative error of a phase evaluated from a CSV d11
D_FAR_FACTOR = 5.0  # non-interacting pairs sit at 5 s
TWOPI = 2.0 * math.pi


@dataclasses.dataclass(frozen=True)
class GatePoint:
    """Working point: omega_mu in rad/s, C3/C6 in GHz um^3 / um^6, rates in 1/s."""

    omega_mu: float
    c3_ghz_um3: float
    c6_ghz_um6: float
    gamma_r: float
    gamma_rp: float
    gamma_p: float


def _r_amplitude(p: GatePoint, s):
    """|r> amplitude after the 2-pi pulse at separation s, by Sylvester's formula.

    The generator M = [[z_r, w], [w, z_p]] has eigenvalues c +/- lam, so
    exp(-iMt)[0, 0] = exp(-ict) (cos(lam t) + i g sin(lam t) / lam),
    with g = (z_p - z_r) / 2.
    """
    t = TWOPI / p.omega_mu
    z_r = TWOPI * p.c6_ghz_um6 * 1e9 / s**6 - 0.5j * p.gamma_r
    z_p = TWOPI * p.c3_ghz_um3 * 1e9 / s**3 - 0.5j * p.gamma_p
    c, g = 0.5 * (z_r + z_p), 0.5 * (z_p - z_r)
    lam = np.sqrt(g * g + 0.25 * p.omega_mu**2)
    return np.exp(-1j * c * t) * (np.cos(lam * t) + 1j * g * t * np.sinc(lam * t / math.pi))


def pointwise_f0(p: GatePoint, s):
    """CZ fidelity |a00 + a01 + a10 - a11|^2 / 16 at separations s (um)."""
    s = np.asarray(s, dtype=float)
    spectator = math.exp(-0.5 * p.gamma_rp * TWOPI / p.omega_mu)
    far = _r_amplitude(p, D_FAR_FACTOR * s)
    return np.abs(spectator * (3.0 * far - _r_amplitude(p, s))) ** 2 / 16.0


def seed_site_average(p: GatePoint, d11: float, sigma: float) -> tuple[float, float]:
    """(f0_avg, digits lost) by the parent commit's fixed Gauss-Hermite rule.

    Nodes deep inside the blockade see a phase of up to ~1e25 rad, so their
    f0 carries no digits: d11 read back from 12 significant digits moves a
    phase by ~3e-11 of itself. Each node's weight times
    min(1, PHASE_DIGITS * phase) bounds what that can move the average by.
    """
    x, w = np.polynomial.hermite.hermgauss(SEED_NODES)
    s = d11 + math.sqrt(2.0) * sigma * x
    keep = s > 0.0
    w, s = w[keep] / np.sum(w[keep]), s[keep]
    lost = float(np.sum(w * np.minimum(1.0, PHASE_DIGITS * _phase(p, s))))
    return float(np.sum(w * pointwise_f0(p, s))), lost


def _phase(p: GatePoint, s):
    """Upper bound of the accumulated |11> phase at separation s (um)."""
    t = TWOPI / p.omega_mu
    return t * TWOPI * 1e9 * (abs(p.c3_ghz_um3) / s**3 + abs(p.c6_ghz_um6) / s**6)


def _mass_below(x, d11, sigma):
    return 0.5 * erfc((d11 - x) / (math.sqrt(2.0) * sigma))


def _panel_edges(p: GatePoint, d11, sigma):
    hi = d11 + GAUSS_SPAN * sigma
    lo = max(d11 - GAUSS_SPAN * sigma, 1e-3 * sigma)
    if _phase(p, lo) > PHASE_BUDGET:
        a, b = lo, d11 + GAUSS_SPAN * sigma
        for _ in range(80):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if _phase(p, mid) > PHASE_BUDGET else (a, mid)
        lo = b
    edges = [hi]
    s = hi
    while s > lo:
        rate = 6.0 * _phase(p, s) / s  # bounds |d phase / ds|
        s = max(s - min(sigma / 4.0, PHASE_STEP / rate), lo)
        edges.append(s)
    return np.asarray(edges[::-1]), lo


def dense_site_average(p: GatePoint, d11: float, sigma: float) -> tuple[float, float]:
    """(f0_avg, error estimate) over the truncated Gaussian."""
    edges, lo = _panel_edges(p, d11, sigma)
    a, b = edges[:-1, None], edges[1:, None]

    def integrate(nodes, weights):
        x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        w = 0.5 * (b - a) * weights * np.exp(-((x - d11) ** 2) / (2.0 * sigma**2))
        return float(np.sum(w * pointwise_f0(p, x.ravel()).reshape(x.shape)))

    norm = math.sqrt(2.0 * math.pi) * sigma * (1.0 - _mass_below(0.0, d11, sigma))
    fine = integrate(_X16, _W16)
    coarse = integrate(_X8, _W8)
    tail = (_mass_below(lo, d11, sigma) - _mass_below(0.0, d11, sigma)) * math.sqrt(2.0 * math.pi) * sigma
    value = (fine + 0.5 * tail) / norm
    error = (abs(fine - coarse) + 0.5 * tail) / norm
    return value, error
