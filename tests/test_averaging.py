"""Motional dephasing, positional site averaging, and the d11 optimiser."""

import dataclasses
import math

import numpy as np
import pytest

from rydgate import averaging
from rydgate.averaging import (
    SITE_AVERAGE_NODES,
    DephasingParams,
    averaged_fidelity,
    motional_dephasing,
    optimize_d11,
    site_average,
    _gauss_averages,
    _golden_max,
    _hermgauss,
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

def test_site_average_zero_spread_is_identity():
    value, warnings = site_average(lambda s: np.asarray(s) * 0.3, 10.0, 1.0, 0.0)
    assert value == pytest.approx(3.0, rel=1e-14)
    assert warnings == ()


def test_site_average_constant_curve():
    value, warnings = site_average(lambda s: np.full_like(s, 0.77), 10.0, 5.0, 0.2)
    assert value == pytest.approx(0.77, rel=1e-12)
    assert warnings == ()


def test_site_average_linear_curve_is_centered():
    # an untruncated Gaussian average of a linear function is its center value
    value, _ = site_average(lambda s: 0.01 * np.asarray(s), 10.0, 1.0, 0.2)
    assert value == pytest.approx(0.1, rel=1e-9)


def test_site_average_flags_unresolved_structure():
    curve = lambda s: np.sin(40.0 * np.asarray(s)) ** 2
    _, warnings = site_average(curve, 10.0, 5.0, 0.2)
    assert warnings
    assert "quadrature" in warnings[0]


def test_site_average_validation():
    flat = lambda s: np.ones_like(s)
    with pytest.raises(ValueError):
        site_average(flat, 0.0, 1.0, 0.2)
    with pytest.raises(ValueError):
        site_average(flat, 10.0, 1.0, -0.2)
    with pytest.raises(ValueError):
        site_average(flat, 10.0, 0.0, 0.2)


# ---------------------------------------------------------------------------
# batched Gauss averages against the one-request form

def _gauss_average(curve, d11, sigma_um, nodes):
    """One request, one curve call: the reference for ``_gauss_averages``."""
    if sigma_um == 0.0:
        return float(curve(np.asarray([d11]))[0])
    x, w = _hermgauss(nodes)
    s = d11 + math.sqrt(2.0) * sigma_um * x
    keep = s > 0.0
    if not np.any(keep):
        raise ValueError("separation distribution has no support at s > 0")
    vals = curve(s[keep])
    return float(np.sum(w[keep] * vals) / np.sum(w[keep]))


@pytest.mark.parametrize("sigma", [0.0, 3.1])
def test_gauss_averages_equal_one_request_form_bitwise(species, sigma):
    curve = fidelity_curve(_gate_params(species))
    requests = [(12.0, 41), (12.0, 81), (4.0, 41), (4.0, 81), (19.5, 41)]
    if sigma:
        # d11 = 4 um puts some nodes of both rules at s <= 0
        assert np.any(4.0 + math.sqrt(2.0) * sigma * _hermgauss(41)[0] <= 0.0)
    want = [_gauss_average(curve, d, sigma, nodes) for d, nodes in requests]
    assert _gauss_averages(curve, requests, sigma) == want


def test_gauss_averages_reject_no_support_before_any_curve_call():
    calls = []

    def curve(s):
        calls.append(s)
        return np.ones_like(s)

    with pytest.raises(ValueError, match="no support"):
        _gauss_averages(curve, [(10.0, 41), (-50.0, 81)], 1.0)
    assert calls == []


# ---------------------------------------------------------------------------
# stored Gauss-Hermite rules

@pytest.mark.parametrize("nodes", [SITE_AVERAGE_NODES, 2 * SITE_AVERAGE_NODES - 1])
def test_stored_rules_hold_numpys_bits(nodes):
    x, w = _hermgauss(nodes)
    want_x, want_w = np.polynomial.hermite.hermgauss(nodes)
    assert x.tobytes() == want_x.tobytes()
    assert w.tobytes() == want_w.tobytes()
    assert not x.flags.writeable and not w.flags.writeable


def test_averaging_builds_no_quadrature_rule(species, monkeypatch):
    """Building a rule takes a dense eigensolve, whose BLAS threads wake
    from 65 nodes up; the averaging layer reads stored rules instead."""
    params = _gate_params(species)
    want = optimize_d11(params)
    _hermgauss.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("the averaging layer built a quadrature rule")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", forbidden)
    assert optimize_d11(params) == want


def test_unstored_rule_order_is_refused():
    with pytest.raises(ValueError, match="order 40"):
        _hermgauss(40)


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


@pytest.mark.parametrize("overrides", [dict(d11=1e-300), dict(d11=10.0, d_far=1e-300)])
def test_averaged_fidelity_rejects_a_non_finite_average(species, overrides, recwarn):
    # C3/d^3 overflows; the curve is nan, numpy stays quiet, the average raises
    params = _gate_params(species, **overrides)
    with pytest.raises(NumericsError, match="site-averaged fidelity is nan"):
        averaged_fidelity(params)
    assert not recwarn.list


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

        def counted(d):
            sizes.append(np.size(d))
            return curve(d)

        return counted

    monkeypatch.setattr(averaging, "fidelity_curve", counting_fidelity_curve)
    return sizes


@pytest.mark.parametrize("q", [0.0, 0.2])
def test_site_average_makes_one_curve_call(species, monkeypatch, q):
    sizes = _curve_call_sizes(monkeypatch)
    averaged_fidelity(_gate_params(species, q=q))
    assert len(sizes) == 1


@pytest.mark.parametrize("q", [0.0, 0.05])
def test_optimize_d11_coarse_scan_is_one_curve_call(species, monkeypatch, q):
    sizes = _curve_call_sizes(monkeypatch)
    probes = []
    golden = averaging._golden_max

    def counting_golden_max(f, lo, hi, tol):
        return golden(lambda d: probes.append(d) or f(d), lo, hi, tol)

    monkeypatch.setattr(averaging, "_golden_max", counting_golden_max)
    optimize_d11(_gate_params(species, q=q))
    # q = 0.05 keeps every node at s > 0, so each stage's point count is exact
    nodes = 1 if q == 0.0 else SITE_AVERAGE_NODES
    assert probes
    assert sizes[0] == 25 * nodes  # the coarse scan
    assert sizes[1:-1] == [nodes] * (len(probes) + 1)  # each probe, then the check at d_opt
    assert sizes[-1] == (2 if q == 0.0 else 3 * SITE_AVERAGE_NODES - 1)  # site_average


# ---------------------------------------------------------------------------
# scalar maximiser

def test_golden_max_quadratic():
    f = lambda x: -((x - 3.7) ** 2)
    assert _golden_max(f, 2.0, 6.0, 1e-4) == pytest.approx(3.7, abs=2e-3)


def test_golden_max_bracket_stability():
    f = lambda x: -((x - 3.7) ** 2)
    a = _golden_max(f, 2.0, 6.0, 1e-4)
    b = _golden_max(f, 1.9, 6.3, 1e-4)
    assert a == pytest.approx(b, abs=2e-3)


def test_golden_max_plateau_stays_bracketed():
    d = _golden_max(lambda x: 1.0, 2.0, 6.0, 1e-4)
    assert 2.0 <= d <= 6.0
