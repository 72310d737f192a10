"""Motional dephasing, positional site averaging, and the d11 optimiser."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate

from rydgate import averaging
from rydgate.averaging import (
    DephasingParams,
    averaged_fidelity,
    motional_dephasing,
    optimize_d11,
    site_average,
    _legendre,
)
from rydgate.constants import K_BOLTZMANN, TWOPI
from rydgate.errors import NumericsError, WindowError
from rydgate.gate import GateParams, fidelity_curve


def _dephasing(**overrides):
    base = dict(
        temperature=1e-7,
        mass_kg=1.44316e-25,
        w0_um=1.4,
        lambda_sw_um=1.25,
        pulse_time=1e-6,
    )
    base.update(overrides)
    return DephasingParams(**base)


def _gate_params(species, **overrides):
    base = dict(
        omega_mu=TWOPI * 0.25e6,
        omega_c=TWOPI * 10e6,
        d11=12.0,
        temperature=1e-7,
        q=0.2,
    )
    base.update(overrides)
    return GateParams.for_level_system(species, 70, **base)


# ---------------------------------------------------------------------------
# motional dephasing

def test_dephasing_params_validation():
    for bad in (
        dict(temperature=-1e-9),
        dict(mass_kg=0.0),
        dict(w0_um=-1.0),
        dict(lambda_sw_um=0.0),
        dict(pulse_time=-1e-9),
    ):
        with pytest.raises(ValueError):
            _dephasing(**bad)


def test_dephasing_frozen_limits():
    assert motional_dephasing(_dephasing(temperature=0.0)) == 1.0
    assert motional_dephasing(_dephasing(pulse_time=0.0)) == 1.0


def test_dephasing_hand_value():
    params = _dephasing()
    v = math.sqrt(K_BOLTZMANN * params.temperature / params.mass_kg) * 1e6
    tau = params.lambda_sw_um / (2.0 * math.pi * v)
    xi = params.w0_um / v
    t = params.pulse_time
    expected = math.exp(-((t / tau) ** 2) / (1.0 + (t / xi) ** 2))
    assert motional_dephasing(params) == pytest.approx(expected, rel=1e-12)
    assert 0.0 < expected < 1.0


def test_dephasing_pure_gaussian_limit():
    """With a very wide site the transit correction vanishes and
    eta_m(t = tau) = 1/e."""
    params = _dephasing(w0_um=1e12)
    v = math.sqrt(K_BOLTZMANN * params.temperature / params.mass_kg) * 1e6
    tau = params.lambda_sw_um / (2.0 * math.pi * v)
    eta = motional_dephasing(_dephasing(w0_um=1e12, pulse_time=tau))
    assert eta == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_dephasing_takes_the_limit_where_a_square_leaves_the_floats():
    # w0 -> 0: the transit term diverges and eta_m -> 1, as at q = 0
    assert motional_dephasing(_dephasing(w0_um=1e-300)) == 1.0
    # lambda -> 0: the scrambling term diverges and eta_m -> 0
    assert motional_dephasing(_dephasing(lambda_sw_um=1e-300)) == 0.0
    # w0 -> inf: the pure Gaussian envelope exp[-(t/tau)^2]
    wide = motional_dephasing(_dephasing(w0_um=1e300))
    assert wide == pytest.approx(motional_dephasing(_dephasing(w0_um=1e12)), rel=1e-12)
    assert 0.0 < wide < 1.0
    # both terms diverge: no limit, a typed error
    with pytest.raises(NumericsError, match="no limit"):
        motional_dephasing(_dephasing(w0_um=1e-300, lambda_sw_um=1e-300))


def test_dephasing_monotone_in_temperature_and_time():
    etas_t = [motional_dephasing(_dephasing(temperature=t)) for t in (1e-8, 1e-7, 1e-6, 1e-5)]
    assert all(b < a for a, b in zip(etas_t, etas_t[1:]))
    etas_tau = [motional_dephasing(_dephasing(pulse_time=t)) for t in (1e-7, 1e-6, 1e-5)]
    assert all(b < a for a, b in zip(etas_tau, etas_tau[1:]))
    assert all(0.0 < e <= 1.0 for e in etas_t + etas_tau)


# ---------------------------------------------------------------------------
# site averaging


def _tabulate(monkeypatch, f0):
    """Every table averages f0(s) instead, through the amplitude route:
    F = 4 sqrt(f0) / 3 and R = 0 give |3F - R|^2 / 16 = f0."""

    def synthetic_fidelity_curve(params):
        def curve(s, amplitudes=False):
            far = 4.0 * np.sqrt(f0(np.asarray(s, dtype=float))) / 3.0 + 0j
            return (far, 0.0 * far) if amplitudes else np.abs(far) ** 2 * 9.0 / 16.0

        return curve

    monkeypatch.setattr(averaging, "fidelity_curve", synthetic_fidelity_curve)


@pytest.mark.parametrize("q", [0.0, 1e-12])
def test_site_average_without_spread_is_the_curve(species, q):
    params = _gate_params(species, q=q)
    assert site_average(params) == (float(fidelity_curve(params)(params.d11)), ())


def test_site_average_of_a_constant_is_the_constant(species, monkeypatch):
    _tabulate(monkeypatch, lambda s: np.full_like(s, 0.77))
    value, warnings = site_average(_gate_params(species))
    assert value == pytest.approx(0.77, rel=1e-13)
    assert warnings == ()


def test_site_average_of_a_line_and_a_square_is_the_gaussian_moment(species, monkeypatch):
    # d11 = 30 um is 14 sigma from s = 0, so the Gaussian is untruncated
    params = _gate_params(species, d11=30.0)
    sigma = math.sqrt(2.0) * params.q * params.lengthscales.r_b6
    _tabulate(monkeypatch, lambda s: 0.01 * s)
    assert site_average(params)[0] == pytest.approx(0.3, rel=1e-13)
    _tabulate(monkeypatch, lambda s: 1e-3 * s**2)
    assert site_average(params)[0] == pytest.approx(1e-3 * (30.0**2 + sigma**2), rel=1e-13)


def test_site_average_truncates_the_gaussian_at_zero_separation(species, monkeypatch):
    # at d11 -> 0 the separation is half-normal, with mean sigma sqrt(2 / pi)
    params = _gate_params(species, d11=1e-300)
    sigma = math.sqrt(2.0) * params.q * params.lengthscales.r_b6
    _tabulate(monkeypatch, lambda s: s)
    assert site_average(params)[0] == pytest.approx(sigma * math.sqrt(2.0 / math.pi), rel=1e-12)


def _reference_site_average(params):
    """f0_avg by composite Simpson rules, on a grid of its own.

    Every phase is resolved at 0.25 rad per step, and the Gaussian at
    sigma / 20, down to where the C6 phase reaches 3e4 rad.  Below that only
    (9|F|^2 + |R|^2) / 16 is integrated, with F's phases resolved to 1e4 rad:
    the cross term there adds about g(s) / (its phase rate), under 1e-8 at
    the points tested, and the Rabi wiggles of |R|^2 under 1e-7.
    """
    d11, curve = params.d11, fidelity_curve(params)
    sigma = math.sqrt(2.0) * params.q * params.lengthscales.r_b6
    k = params.pulse_time * TWOPI * 1e9
    c3, c6 = k * params.c3_ghz_um3, k * abs(params.c6_ghz_um6)
    cut = (c6 / 3e4) ** (1.0 / 6.0)
    lo, hi = max(d11 - 8.0 * sigma, 1e-3), d11 + 8.0 * sigma
    bounds = np.unique(np.clip(np.append(np.geomspace(lo, hi, 400), cut), lo, hi))
    total = norm = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        far_phase = c3 / (5.0 * a) ** 3 + c6 / (5.0 * a) ** 6
        rate = 3.0 * far_phase / a if far_phase < 1e4 else 0.0  # the far pair, at 5 s
        if b > cut:
            rate += (3.0 * c3 / a**3 + 6.0 * c6 / a**6) / a
        steps = 2 * math.ceil(0.5 * (b - a) * max(rate / 0.25, 20.0 / sigma))
        s = np.linspace(a, b, steps + 1)
        far, near = curve(s, amplitudes=True)
        f0 = np.abs(3.0 * far - near) ** 2 / 16.0
        if b <= cut:
            f0 = (9.0 * np.abs(far) ** 2 + np.abs(near) ** 2) / 16.0
        g = np.exp(-0.5 * ((s - d11) / sigma) ** 2)
        total += scipy.integrate.simpson(g * f0, x=s)
        norm += scipy.integrate.simpson(g, x=s)
    return total / norm


@pytest.mark.parametrize(
    "nu_mhz, d11",
    [(0.0237, 12.3), (5.62, None), (10.0, None)],
    ids=["0.0237MHz-12.3um", "5.62MHz-optimum", "10MHz-optimum"],
)
def test_site_average_matches_an_independent_reference(species, nu_mhz, d11):
    """The points where the site average is hardest: d11 well inside the
    van der Waals zone, and the two fastest pulses at their optimum."""
    params = _gate_params(species, omega_mu=TWOPI * nu_mhz * 1e6, omega_c=TWOPI * 10e6, d11=d11)
    if d11 is None:
        params = dataclasses.replace(params, d11=optimize_d11(params).d11_used)
    value, warnings = site_average(params)
    assert warnings == ()
    assert value == pytest.approx(_reference_site_average(params), abs=1e-6)


def test_default_sweep_rows_are_converged(species):
    """The converged optimum falls smoothly with nu_mu (11.86 um at 5.62
    MHz), and no row warns."""
    params = _gate_params(species, d11=None, omega_c=TWOPI * 10e6)
    rows = [
        optimize_d11(dataclasses.replace(params, omega_mu=TWOPI * nu * 1e6))
        for nu in np.geomspace(0.01, 10.0, 25)
    ]
    assert [row.warnings for row in rows] == [()] * 25
    d_opt = [row.d11_used for row in rows]
    assert all(b < a for a, b in zip(d_opt, d_opt[1:]))
    assert d_opt[22] == pytest.approx(11.86, abs=0.02)


def test_site_average_flags_panels_too_coarse_for_the_phase(species, monkeypatch):
    monkeypatch.setattr(averaging, "_PANEL_PHASE", 200.0)
    value, warnings = site_average(_gate_params(species, omega_mu=TWOPI * 0.0237e6, d11=12.3))
    assert math.isfinite(value)
    assert warnings and warnings[0].startswith("site average uncertain by")


@pytest.mark.parametrize("n", [8, 16])
def test_legendre_rule_matches_numpy(n):
    x, w = _legendre(n)
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, want_w, rtol=1e-14)


def test_averaging_builds_no_quadrature_rule(species, monkeypatch):
    """A dense eigensolve wakes the BLAS threads from 65 nodes up; the
    averaging layer builds its Legendre rule by Newton's method instead,
    with no eigensolve."""
    params = _gate_params(species)
    want = optimize_d11(params)
    _legendre.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("the averaging layer built a quadrature rule")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", forbidden)
    assert optimize_d11(params) == want


# ---------------------------------------------------------------------------
# averaged fidelity

def test_averaged_fidelity_zero_q_reduces_to_pointwise(species):
    params = _gate_params(species, q=0.0)
    avg = averaged_fidelity(params)
    assert avg.eta_m == 1.0
    assert avg.f0_avg == pytest.approx(fidelity_curve(params)(params.d11), rel=1e-12)
    assert avg.f_total == avg.f0_avg
    assert avg.warnings == ()


def test_averaged_fidelity_factorisation(species):
    params = _gate_params(species)
    avg = averaged_fidelity(params)
    assert avg.f_total == pytest.approx(avg.eta_m * avg.f0_avg, rel=1e-14)
    assert avg.coupling_budget == pytest.approx(params.eta_c**2, rel=1e-14)
    assert 0.0 < avg.f_total <= avg.f0_avg <= 1.0
    assert avg.d11_used == params.d11


def test_averaged_fidelity_within_curve_range(species):
    params = _gate_params(species)
    curve = fidelity_curve(params)
    support = np.linspace(params.d11 - 4.0, params.d11 + 4.0, 200)
    values = curve(support)
    avg = averaged_fidelity(params)
    assert values.min() - 1e-9 <= avg.f0_avg <= values.max() + 1e-9


def test_averaged_fidelity_eta_m_independent_of_d11(species):
    params = _gate_params(species)
    assert (
        averaged_fidelity(dataclasses.replace(params, d11=9.0)).eta_m
        == averaged_fidelity(dataclasses.replace(params, d11=15.0)).eta_m
    )


@pytest.mark.parametrize("overrides", [dict(d11=1e-300, q=0.0), dict(d11=10.0, d_far=1e-300)])
def test_averaged_fidelity_rejects_a_non_finite_average(species, overrides, recwarn):
    # C3/d^3 overflows; the curve is nan, numpy stays quiet, the average raises
    params = _gate_params(species, **overrides)
    with pytest.raises(NumericsError, match="site-averaged fidelity is nan"):
        averaged_fidelity(params)
    assert not recwarn.list


def test_averaged_fidelity_at_zero_separation_is_the_half_gaussian_limit(species):
    # with a spread, s = d11 = 1e-300 is no node: the average is finite
    at_zero = averaged_fidelity(_gate_params(species, d11=1e-300))
    near_zero = averaged_fidelity(_gate_params(species, d11=1e-9))
    assert at_zero.f0_avg == pytest.approx(near_zero.f0_avg, abs=1e-9)


def test_averaged_fidelity_rejects_an_infinite_spread(species):
    with pytest.raises(NumericsError, match="spread overflows"):
        averaged_fidelity(_gate_params(species, q=1e308))


def test_averaged_fidelity_needs_a_separation(species):
    params = _gate_params(species, d11=None)
    with pytest.raises(ValueError, match="no pair separation"):
        averaged_fidelity(params)


# ---------------------------------------------------------------------------
# d11 optimiser

def test_optimize_d11_lands_inside_stretched_window(species):
    params = _gate_params(species)
    best = optimize_d11(params)
    d_opt = best.d11_used
    from rydgate.lengthscales import blockade_radii

    scales = blockade_radii(
        params.c3_ghz_um3,
        params.c6_ghz_um6,
        params.omega_eit_resolved,
        params.omega_mu,
    )
    assert 0.8 * scales.window[0] <= d_opt <= 1.2 * scales.window[1]
    # no interior point of a coarse probe grid beats the optimum
    probe = np.linspace(0.8 * scales.window[0], 1.2 * scales.window[1], 17)
    probed = [averaged_fidelity(dataclasses.replace(params, d11=float(d))).f0_avg for d in probe]
    assert best.f0_avg >= max(probed) - 1e-6


def test_optimize_d11_empty_window(species):
    params = GateParams(
        n=70,
        omega_mu=TWOPI * 1e6,
        omega_c=TWOPI * 1e6,
        d11=10.0,
        temperature=1e-7,
        q=0.2,
        c3_ghz_um3=0.01,
        c6_ghz_um6=1e6,
        mass_kg=species.mass,
        gamma_r=0.0,
        gamma_rp=0.0,
        gamma_p=0.0,
    )
    with pytest.raises(WindowError):
        optimize_d11(params)


# ---------------------------------------------------------------------------
# curve calls per averaging stage

def _curve_call_sizes(monkeypatch):
    """Points per call of every curve ``averaging`` builds, in call order."""
    sizes = []
    build = averaging.fidelity_curve

    def counting_fidelity_curve(params):
        curve = build(params)

        def counted(d, **kwargs):
            sizes.append(np.size(d))
            return curve(d, **kwargs)

        return counted

    monkeypatch.setattr(averaging, "fidelity_curve", counting_fidelity_curve)
    return sizes


@pytest.mark.parametrize("q", [0.0, 0.2])
def test_site_average_is_one_curve_call(species, monkeypatch, q):
    # the table's 16- and 8-point nodes together; f0 itself at q = 0
    sizes = _curve_call_sizes(monkeypatch)
    averaged_fidelity(_gate_params(species, q=q))
    assert len(sizes) == 1


def test_optimize_d11_shares_one_table(species, monkeypatch):
    # every search grid and the average at the optimum are sums over one table
    sizes = _curve_call_sizes(monkeypatch)
    optimize_d11(_gate_params(species))
    assert len(sizes) == 1 and sizes[0] > 1000


@pytest.mark.parametrize("q", [0.0, 1e-5])
def test_optimize_d11_without_a_table_searches_the_curve(species, monkeypatch, q):
    # no spread (q = 0), or one too narrow to tabulate over the window
    # (q = 1e-5): each search grid is one call, then the average at the optimum
    sizes = _curve_call_sizes(monkeypatch)
    best = optimize_d11(_gate_params(species, q=q))
    assert sizes[:4] == [25] * 4
    assert len(sizes) == 5 and (sizes[4] == 1) == (q == 0.0)
    assert best.warnings == ()


@pytest.mark.parametrize("nu_mhz", [0.01, 0.3, 10.0])
def test_optimize_d11_finds_the_maximum_to_1e_3_um(species, nu_mhz):
    params = _gate_params(species, omega_mu=TWOPI * nu_mhz * 1e6, d11=None)
    best = optimize_d11(params)
    for step in (-5e-3, 5e-3):
        moved = dataclasses.replace(params, d11=best.d11_used + step)
        assert averaged_fidelity(moved).f0_avg <= best.f0_avg
