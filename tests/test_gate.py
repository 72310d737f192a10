"""Gate dynamics: the damped two-level pulse, the component amplitudes,
and the pointwise CZ fidelity.

Scaling tests probe at algebraically chosen detunings where the pulse
lands exactly on a node of the generalized Rabi oscillation, so the
power laws are clean and need no fitting window heuristics.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rydgate import gate
from rydgate.constants import TWOPI
from rydgate.gate import (
    COMPONENT_LABELS,
    GateParams,
    component_amplitudes,
    fidelity_curve,
    two_level_pulse,
)
from rydgate.levels import p_level, s_level
from rydgate.pair import c3_coefficient, c6_coefficient
from rydgate.qdt import lifetime

OMEGA = TWOPI * 1e6


def _params(**overrides):
    base = dict(
        n=70,
        omega_mu=OMEGA,
        omega_c=10.0 * OMEGA,
        d11=10.0,
        temperature=1e-7,
        q=0.2,
        c3_ghz_um3=11.55,
        c6_ghz_um6=1575.0,
        mass_kg=1.44e-25,
        gamma_r=0.0,
        gamma_rp=0.0,
        gamma_p=0.0,
    )
    base.update(overrides)
    return GateParams(**base)


def two_level_pulse_ode(omega_mu, delta_p, delta_r, gamma_r, gamma_p, duration):
    """The damped two-level pulse by adaptive integration: the closed form's oracle."""
    z_r = delta_r - 0.5j * gamma_r
    z_p = delta_p - 0.5j * gamma_p

    def rhs(_, c):
        return [
            -1j * (z_r * c[0] + 0.5 * omega_mu * c[1]),
            -1j * (0.5 * omega_mu * c[0] + z_p * c[1]),
        ]

    sol = solve_ivp(
        rhs, (0.0, duration), [1.0 + 0.0j, 0.0 + 0.0j], method="DOP853", rtol=1e-10, atol=1e-12
    )
    return complex(sol.y[0, -1])


# ---------------------------------------------------------------------------
# two-level pulse

def test_resonant_two_pi_pulse_returns_minus_one():
    amp = two_level_pulse(OMEGA, 0.0, 0.0, 0.0, 0.0, TWOPI / OMEGA)
    assert amp == pytest.approx(-1.0 + 0.0j, abs=1e-9)


def test_decoupled_limit_is_pure_decay_and_phase():
    delta_r, gamma_r, t = -2.3e6, 4.0e4, 1.7e-6
    amp = two_level_pulse(0.0, 5.0e6, delta_r, gamma_r, 1e5, t)
    expected = cmath.exp(-1j * (delta_r - 0.5j * gamma_r) * t)
    assert amp == pytest.approx(expected, abs=1e-12)


def test_closed_form_matches_ode_on_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        omega = 10.0 ** rng.uniform(5.0, 7.0)
        delta_p = rng.uniform(-1e7, 1e7)
        delta_r = rng.uniform(-1e7, 1e7)
        gamma_r = rng.uniform(0.0, 1e5)
        gamma_p = rng.uniform(0.0, 1e5)
        duration = 10.0 ** rng.uniform(-7.0, -5.0)
        closed = two_level_pulse(omega, delta_p, delta_r, gamma_r, gamma_p, duration)
        ode = two_level_pulse_ode(omega, delta_p, delta_r, gamma_r, gamma_p, duration)
        assert closed == pytest.approx(ode, abs=1e-8)
        assert abs(closed) <= 1.0 + 1e-12  # no gain from non-negative decay


def test_pulse_on_arrays_equals_scalar_calls_bitwise():
    rng = np.random.default_rng(11)
    delta_p = rng.uniform(-1e8, 1e8, 64)
    delta_r = rng.uniform(-1e8, 1e8, 64)
    args = (OMEGA, delta_p, delta_r, 2e3, 7e3, TWOPI / OMEGA)
    vector = two_level_pulse(*args)
    assert vector.shape == (64,)
    for k, (dp, dr) in enumerate(zip(delta_p, delta_r)):
        scalar = two_level_pulse(OMEGA, float(dp), float(dr), 2e3, 7e3, TWOPI / OMEGA)
        assert vector[k] == scalar


def test_pulse_rejects_non_positive_duration():
    with pytest.raises(ValueError):
        two_level_pulse(OMEGA, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        two_level_pulse(OMEGA, 0.0, 0.0, 0.0, 0.0, -1e-6)


def test_amplitude_damping_matches_lindblad_population():
    """With decay to a sink, |amplitude|^2 equals the master-equation
    population exactly; check one working point against a 3-level
    Lindblad integration."""
    omega, delta_p, delta_r = TWOPI * 1e6, 3.0e6, -2.0e6
    gamma_r, gamma_p, t = 2.0e4, 5.0e4, 1.0e-6
    ham = np.array([[delta_r, omega / 2.0, 0.0], [omega / 2.0, delta_p, 0.0],
                    [0.0, 0.0, 0.0]], dtype=complex)
    jump_r = np.zeros((3, 3), dtype=complex)
    jump_r[2, 0] = math.sqrt(gamma_r)
    jump_p = np.zeros((3, 3), dtype=complex)
    jump_p[2, 1] = math.sqrt(gamma_p)

    def rhs(_, y):
        rho = y.reshape(6, 3)[:3] + 1j * y.reshape(6, 3)[3:]
        drho = -1j * (ham @ rho - rho @ ham)
        for jump in (jump_r, jump_p):
            jr = jump @ rho @ jump.conj().T
            anti = jump.conj().T @ jump
            drho += jr - 0.5 * (anti @ rho + rho @ anti)
        return np.concatenate([drho.real, drho.imag]).ravel()

    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    y0 = np.concatenate([rho0.real, rho0.imag]).ravel()
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-10, atol=1e-12)
    rho_rr = sol.y[0, -1]

    amp = two_level_pulse(omega, delta_p, delta_r, gamma_r, gamma_p, t)
    assert abs(amp) ** 2 == pytest.approx(rho_rr, abs=1e-8)


# ---------------------------------------------------------------------------
# node-exact scaling laws of the blockaded component

_NODE_KS = [10, 18, 32, 56, 100, 178, 316, 562, 1000]


def test_blockade_phase_error_scales_inversely_with_shift():
    """At full-revolution nodes the return amplitude is a pure phase
    pi Omega / (2 delta_p); log-log slope -1."""
    duration = TWOPI / OMEGA
    deltas, phases = [], []
    for k in _NODE_KS:
        delta_p = OMEGA * math.sqrt(k * k - 1.0)
        amp = two_level_pulse(OMEGA, delta_p, 0.0, 0.0, 0.0, duration)
        assert abs(abs(amp) - 1.0) < 1e-9
        deltas.append(delta_p)
        phases.append(abs(cmath.phase(amp)))
    slope = np.polyfit(np.log(deltas), np.log(phases), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)
    assert phases[-1] == pytest.approx(math.pi / (2.0 * _NODE_KS[-1]), rel=1e-2)


def test_blockade_leakage_scales_inversely_squared():
    """At half-revolution nodes the leakage is (2/(2k+1))^2; slope -2."""
    duration = TWOPI / OMEGA
    deltas, leaks = [], []
    for k in _NODE_KS:
        half = (2 * k + 1) / 2.0
        delta_p = OMEGA * math.sqrt(half * half - 1.0)
        amp = two_level_pulse(OMEGA, delta_p, 0.0, 0.0, 0.0, duration)
        leak = 1.0 - abs(amp) ** 2
        assert leak == pytest.approx((2.0 / (2 * k + 1)) ** 2, rel=1e-6)
        deltas.append(delta_p)
        leaks.append(leak)
    slope = np.polyfit(np.log(deltas), np.log(leaks), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)


# ---------------------------------------------------------------------------
# GateParams

def test_params_derived_quantities():
    params = _params()
    assert params.pulse_time == pytest.approx(TWOPI / OMEGA, rel=1e-14)
    assert params.omega_eit_resolved == params.omega_c
    # far pairs default to 5 * d11 and follow a pinned d_far otherwise
    far = component_amplitudes(params, params.d11)[0]
    assert far == component_amplitudes(_params(d_far=50.0), params.d11)[0]
    pinned = _params(omega_eit=3.0 * OMEGA, d_far=123.0)
    assert pinned.omega_eit_resolved == 3.0 * OMEGA
    assert component_amplitudes(pinned, 7.0)[0] == component_amplitudes(pinned, 13.0)[0]
    assert component_amplitudes(pinned, 7.0)[0] == _stored_amplitude(pinned, 123.0)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(omega_mu=0.0)
    with pytest.raises(ValueError):
        _params(d11=-1.0)
    with pytest.raises(ValueError):
        _params(q=-0.1)
    with pytest.raises(ValueError):
        _params(eta_c=1.5)
    with pytest.raises(ValueError):
        _params(gamma_p=-1.0)
    with pytest.raises(ValueError):
        _params(c3_ghz_um3=0.0)
    with pytest.raises(ValueError):
        _params(temperature=-1e-6)
    with pytest.raises(ValueError):
        _params(omega_eit=-1.0)
    for field in ("omega_mu", "d11", "temperature", "q", "c6_ghz_um6", "gamma_r", "d_far"):
        with pytest.raises(ValueError, match="finite"):
            _params(**{field: math.nan})
    with pytest.raises(ValueError, match="finite"):
        _params(omega_c=math.inf)


def test_for_level_system_wiring(species):
    params = GateParams.for_level_system(
        species, 70,
        omega_mu=OMEGA, omega_c=10.0 * OMEGA, d11=10.0,
        temperature=1e-7, q=0.2,
    )
    assert params.c3_ghz_um3 == c3_coefficient(species, s_level(70), p_level(70, 0.5))
    assert params.c6_ghz_um6 == c6_coefficient(species, s_level(70), s_level(71)).c6_ghz_um6
    assert params.mass_kg == species.mass
    assert params.gamma_r == lifetime(species, s_level(71), 0.0)
    assert params.gamma_rp == lifetime(species, s_level(70), 0.0)
    assert params.gamma_p == lifetime(species, p_level(70, 0.5), 0.0)

    warm = GateParams.for_level_system(
        species, 70,
        omega_mu=OMEGA, omega_c=10.0 * OMEGA, d11=10.0,
        temperature=1e-7, q=0.2, bbr_temperature=300.0,
    )
    assert warm.gamma_r > params.gamma_r
    assert warm.gamma_rp > params.gamma_rp
    assert warm.gamma_p > params.gamma_p


def test_settings_rebuild_the_working_point(species):
    """``settings`` holds every field that for_level_system does not compute."""
    params = GateParams.for_level_system(
        species, 70,
        omega_mu=OMEGA, omega_c=10.0 * OMEGA, d11=10.0, temperature=1e-7, q=0.2,
        omega_eit=3.0 * OMEGA, d_far=40.0, lambda_sw=0.8, eta_c=0.7,
    )
    assert GateParams.for_level_system(species, 70, **params.settings) == params
    assert GateParams.for_level_system(species, 60, **params.settings) == (
        GateParams.for_level_system(
            species, 60,
            omega_mu=OMEGA, omega_c=10.0 * OMEGA, d11=10.0, temperature=1e-7, q=0.2,
            omega_eit=3.0 * OMEGA, d_far=40.0, lambda_sw=0.8, eta_c=0.7,
        )
    )


def test_settings_carry_the_radiation_temperature(species):
    """A working point at 300 K rebuilds with its blackbody decay, not the
    radiative rates alone."""
    params = GateParams.for_level_system(
        species, 70,
        omega_mu=OMEGA, omega_c=10.0 * OMEGA, d11=10.0, temperature=1e-7, q=0.2,
        bbr_temperature=300.0,
    )
    assert params.settings["bbr_temperature"] == 300.0
    assert GateParams.for_level_system(species, 70, **params.settings) == params
    assert GateParams.for_level_system(species, 60, **params.settings).gamma_r == lifetime(
        species, s_level(61), 300.0
    )


def test_d11_none_is_a_working_point(species):
    """d11 = None leaves the separation open; every other field is checked."""
    params = GateParams.for_level_system(
        species, 70, omega_mu=OMEGA, omega_c=10.0 * OMEGA, d11=None, temperature=1e-7, q=0.2
    )
    assert params.d11 is None
    with pytest.raises(ValueError, match="bbr_temperature"):
        dataclasses.replace(params, bbr_temperature=-1.0)


# ---------------------------------------------------------------------------
# component amplitudes

def _stored_amplitude(params, d):
    """One component stored at separation d, straight from the scalar pulse."""
    duration = params.pulse_time
    amp = two_level_pulse(
        params.omega_mu,
        TWOPI * (params.c3_ghz_um3 * 1e9) / d**3,
        TWOPI * (params.c6_ghz_um6 * 1e9) / d**6,
        params.gamma_r,
        params.gamma_p,
        duration,
    )
    return amp * np.exp(-0.5 * params.gamma_rp * duration)


def test_component_amplitudes_validation():
    params = _params()
    with pytest.raises(ValueError):
        component_amplitudes(params, 0.0)
    with pytest.raises(ValueError):
        component_amplitudes(params, np.array([10.0, -1.0]))


def test_component_default_distances():
    params = _params()
    amps = component_amplitudes(params, params.d11)
    assert amps.shape == (len(COMPONENT_LABELS),)
    for label, amp in zip(COMPONENT_LABELS, amps):
        d_default = params.d11 if label == "11" else 5.0 * params.d11
        assert amp == _stored_amplitude(params, d_default)


def _component_amplitudes_two_calls(params, d11):
    """The pulse kernel once for d_far and once for d11: the reference form."""
    d11 = np.asarray(d11, dtype=float)
    d_far = 5.0 * d11 if params.d_far is None else np.full_like(d11, params.d_far)
    far = _stored_amplitude(params, d_far)
    return np.stack([far, far, far, _stored_amplitude(params, d11)])


@pytest.mark.parametrize("d_far", [None, 37.5])
@pytest.mark.parametrize("d11", [10.0, np.linspace(6.0, 25.0, 41)], ids=["scalar", "array"])
def test_component_amplitudes_equal_two_call_form_bitwise(d_far, d11):
    params = _params(gamma_r=3e3, gamma_rp=2e3, gamma_p=1e5, d_far=d_far)
    got = component_amplitudes(params, d11)
    want = _component_amplitudes_two_calls(params, d11)
    assert got.shape == want.shape == (4,) + np.shape(d11)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d_far", [None, 37.5])
@pytest.mark.parametrize("d11", [10.0, np.linspace(6.0, 25.0, 41)], ids=["scalar", "array"])
def test_far_and_near_amplitudes_are_the_damped_pulse_bitwise(d_far, d11):
    """F at d_far and R at d11, each two_level_pulse times the spectator
    decay; the curve is |3F - R|^2 / 16 summed as F + F + F - R."""
    params = _params(gamma_r=3e3, gamma_rp=2e3, gamma_p=1e5, d_far=d_far)
    far, near = gate._far_near(params, d11)
    d_far_used = 5.0 * np.asarray(d11) if d_far is None else np.full_like(d11, d_far)
    assert np.shape(far) == np.shape(near) == np.shape(d11)
    assert np.array_equal(far, _stored_amplitude(params, d_far_used))
    assert np.array_equal(near, _stored_amplitude(params, np.asarray(d11, dtype=float)))
    assert np.array_equal(fidelity_curve(params)(d11), np.abs(far + far + far - near) ** 2 / 16.0)


def test_far_component_is_clean_rotation():
    params = _params(c6_ghz_um6=100.0, d_far=1e9)
    amp = component_amplitudes(params, params.d11)[COMPONENT_LABELS.index("00")]
    assert amp == pytest.approx(-1.0 + 0.0j, abs=1e-9)


def test_blockaded_component_is_frozen():
    params = _params(c3_ghz_um3=1e12, c6_ghz_um6=0.0, d11=1.0, d_far=1e9)
    amp = component_amplitudes(params, params.d11)[COMPONENT_LABELS.index("11")]
    assert amp == pytest.approx(1.0 + 0.0j, abs=1e-9)


# ---------------------------------------------------------------------------
# pointwise fidelity

def test_fidelity_without_blockade_is_one_quarter():
    """With every pair non-interacting the conditional phase never
    develops and the CZ overlap is exactly 1/4."""
    params = _params(c3_ghz_um3=10.0, c6_ghz_um6=100.0, d11=1e4)
    assert fidelity_curve(params)(params.d11) == pytest.approx(0.25, abs=1e-9)


def test_fidelity_of_ideal_gate_is_one():
    params = _params(c3_ghz_um3=1e12, c6_ghz_um6=0.0, d11=1.0, d_far=1e9)
    assert fidelity_curve(params)(params.d11) == pytest.approx(1.0, abs=1e-9)
    amps = component_amplitudes(params, params.d11)
    assert amps[COMPONENT_LABELS.index("11")] == pytest.approx(1.0 + 0.0j, abs=1e-9)


def test_fidelity_is_global_phase_invariant():
    params = _params()
    amps = component_amplitudes(params, params.d11)
    rotated = [a * cmath.exp(0.7j) for a in amps]
    f_rot = abs(rotated[0] + rotated[1] + rotated[2] - rotated[3]) ** 2 / 16.0
    assert f_rot == pytest.approx(fidelity_curve(params)(params.d11), rel=1e-12)


def test_fidelity_never_improves_with_decay():
    base = _params(c3_ghz_um3=1e4, c6_ghz_um6=1575.0, d11=8.0)
    for field in ("gamma_r", "gamma_rp", "gamma_p"):
        f_values = [
            fidelity_curve(dataclasses.replace(base, **{field: g}))(base.d11)
            for g in (0.0, 1e3, 1e4)
        ]
        assert f_values[0] >= f_values[1] >= f_values[2], field


@pytest.mark.parametrize("d_far", [None, 40.0])
def test_fidelity_curve_matches_ode_oracle(d_far):
    """f0 assembled from the adaptive-ODE pulse, component by component."""
    params = _params(gamma_r=2e3, gamma_rp=3e3, gamma_p=7e3, d_far=d_far)
    t = params.pulse_time
    spectator = math.exp(-0.5 * params.gamma_rp * t)

    def stored(d):
        delta_p = TWOPI * params.c3_ghz_um3 * 1e9 / d**3
        delta_r = TWOPI * params.c6_ghz_um6 * 1e9 / d**6
        return spectator * two_level_pulse_ode(
            params.omega_mu, delta_p, delta_r, params.gamma_r, params.gamma_p, t
        )

    distances = np.array([6.0, 10.0, 14.0])
    values = fidelity_curve(params)(distances)
    assert values.shape == distances.shape
    for d, value in zip(distances, values):
        far = stored(5.0 * d if d_far is None else d_far)
        f0 = abs(3.0 * far - stored(d)) ** 2 / 16.0
        assert value == pytest.approx(f0, abs=1e-8)
    with pytest.raises(ValueError):
        fidelity_curve(params)(np.array([10.0, -1.0]))
