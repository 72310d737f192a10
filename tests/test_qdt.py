"""Level energies, radial solutions, matrix elements, lifetimes.

Two independent oracles: a second Numerov integrator on a uniform linear
r grid at 10x density (the package solver runs on a sqrt-scaled grid), and
the exact decaying Coulomb functions, Whittaker's W evaluated by mpmath.
"""

import functools
import math
import warnings
from decimal import Decimal

import mpmath
import numpy as np
import pytest

from rydgate import qdt
from rydgate.angular import wigner_6j
from rydgate.constants import ALPHA_FS, K_BOLTZMANN, MAX_L, PLANCK_H
from rydgate.errors import NumericsError, RydgateError
from rydgate.levels import RydbergLevel, p_level, parse_level, s_level
from rydgate.pair import PairState, forster_channels
from rydgate.qdt import (
    _numerov_inward,
    effective_quantum_number,
    level_energy,
    lifetime,
    radial_matrix_element,
    radial_matrix_elements,
    radial_wavefunction,
)


# ---------------------------------------------------------------------------
# levels

def test_level_labels_and_parsing():
    lv = RydbergLevel(70, 1, 1.5)
    assert lv.label == "70P3/2"
    assert parse_level("70P3/2") == lv
    assert parse_level(" 38s1/2 ".replace("s", "S")) == s_level(38)
    assert s_level(70) == RydbergLevel(70, 0, 0.5)
    assert p_level(70) == RydbergLevel(70, 1, 0.5)


def test_level_validation():
    with pytest.raises(ValueError):
        RydbergLevel(0, 0, 0.5)
    with pytest.raises(ValueError):
        RydbergLevel(5, 5, 4.5)  # L must stay below n
    with pytest.raises(ValueError):
        RydbergLevel(5, 1, 2.5)  # J must be L +/- 1/2
    with pytest.raises(ValueError):
        RydbergLevel(70, 0, -0.5)  # and at least 1/2
    with pytest.raises(ValueError):
        parse_level("70X1/2")


# ---------------------------------------------------------------------------
# quantum defects and energies

def test_effective_quantum_number_rb_70s(species):
    assert effective_quantum_number(species, s_level(70)) == pytest.approx(
        66.8689, abs=1e-3
    )


def test_effective_quantum_number_zero_defect(hydrogenic):
    assert effective_quantum_number(hydrogenic, s_level(10)) == 10.0


def test_effective_quantum_number_uses_ritz_series(species):
    level = RydbergLevel(38, 1, 1.5)
    d0, d2 = species.defect_coefficients(1, 1.5)
    expected = 38 - (d0 + d2 / (38 - d0) ** 2)
    assert effective_quantum_number(species, level) == pytest.approx(expected, rel=1e-12)


def test_n_below_defect_validity(species):
    with pytest.raises(RydgateError):
        effective_quantum_number(species, s_level(3))


def test_level_energy_bohr_formula(hydrogenic):
    e2 = level_energy(hydrogenic, RydbergLevel(2, 0, 0.5))
    assert e2 == pytest.approx(-hydrogenic.rydberg_constant / 4.0, rel=1e-14)


def test_level_energy_monotone_in_n(species):
    energies = [level_energy(species, s_level(n)) for n in range(30, 90, 5)]
    assert all(e < 0 for e in energies)
    assert all(b > a for a, b in zip(energies, energies[1:]))
    # asymptotically approaches the ionization limit from below
    assert level_energy(species, s_level(300)) > -2e11


# ---------------------------------------------------------------------------
# radial solutions

@pytest.mark.parametrize("L", [0, 1, 2])
def test_hydrogen_expectation_r(hydrogenic, L):
    """Coulomb analytic <r> = (3n^2 - L(L+1))/2 to 0.1% across the range."""
    for n in range(5, 31):
        sol = radial_wavefunction(hydrogenic, RydbergLevel(n, L, L + 0.5))
        expected = 0.5 * (3.0 * n * n - L * (L + 1))
        assert sol.expectation_r() == pytest.approx(expected, rel=1e-3)


def test_radial_solution_record(hydrogenic):
    sol = radial_wavefunction(hydrogenic, s_level(10))
    assert sol.norm_error < 1e-6
    assert np.all(np.diff(sol.r) > 0)
    assert sol.u[np.argmax(np.abs(sol.u))] > 0  # outer lobe sign convention
    assert sol.nodes == 9


@pytest.mark.parametrize("n", [6, 30, 70, 200])
def test_outermost_lobe_is_positive(species, n):
    # The inward recurrence starts from a positive seed at the tail, which
    # fixes the sign the RadialSolution docstring promises; the outermost
    # lobe is also the largest.
    for L in range(3):
        for J in {abs(L - 0.5), L + 0.5}:
            u = radial_wavefunction(species, RydbergLevel(n, L, J)).u
            tail = u[np.flatnonzero(np.signbit(u[1:]) != np.signbit(u[:-1]))[-1] + 1 :]
            assert np.all(tail >= 0.0)
            assert np.argmax(np.abs(u)) >= len(u) - len(tail)


@pytest.mark.parametrize("n,L,nodes", [(10, 1, 8), (10, 2, 7), (12, 0, 11)])
def test_node_counts_zero_defect(hydrogenic, n, L, nodes):
    sol = radial_wavefunction(hydrogenic, RydbergLevel(n, L, L + 0.5))
    assert sol.nodes == nodes


def test_hydrogen_2p_1s_matrix_element(hydrogenic):
    """Textbook <2P| r |1S> = 128 sqrt(6) / 243 a0."""
    value = radial_matrix_element(
        hydrogenic, RydbergLevel(1, 0, 0.5), RydbergLevel(2, 1, 1.5)
    )
    expected = 128.0 * math.sqrt(6.0) / 243.0
    assert abs(value) == pytest.approx(expected, rel=5e-3)


def test_matrix_element_symmetry(species):
    a, b = s_level(70), p_level(70, 0.5)
    assert radial_matrix_element(species, a, b) == radial_matrix_element(species, b, a)


def test_matrix_element_selection_rule(species):
    with pytest.raises(RydgateError, match="delta L"):
        radial_matrix_element(species, s_level(70), s_level(70))
    with pytest.raises(RydgateError, match="delta L"):
        radial_matrix_element(species, s_level(70), RydbergLevel(70, 2, 1.5))


def test_matrix_element_runs_divergence_guard(species, monkeypatch):
    """With the cutoff forced deep into the forbidden region, the 30D5/2
    solution grows back inward; the matrix-element path must raise as
    radial_wavefunction does, not return a number."""
    monkeypatch.setattr(qdt, "_inner_cutoff", lambda n_star, L, has_core: 1e-3)
    qdt._matrix_element_cached.cache_clear()
    qdt._radial_solution_cached.cache_clear()
    d, p = parse_level("30D5/2"), parse_level("30P3/2")
    with pytest.raises(NumericsError, match="diverges"):
        radial_matrix_element(species, d, p)
    with pytest.raises(NumericsError, match="diverges"):
        radial_wavefunction(species, d)


def _cutoff_patch(original):
    # Levels above n* = 30 lose their cutoff, so pairs of them diverge; the
    # rest move outward, so every element solved under the patch is off.
    return lambda n_star, L, has_core: (
        1e-3 if n_star > 30.0 else 1.5 * original(n_star, L, has_core)
    )


def test_failed_request_raises_first_serial_level_and_stores_nothing(species, monkeypatch):
    """Under the patch several levels of one forster_channels request diverge
    (35P1/2, 32D3/2, 33P1/2, ...). The request names 35P1/2, the first of
    them when its elements are solved one by one in channel order, and
    stores nothing, so no element solved under the patch outlives it."""
    pair = PairState(s_level(34), p_level(35, 0.5))
    qdt._matrix_element_cached.cache_clear()
    expected = forster_channels(species, pair)
    qdt._matrix_element_cached.cache_clear()
    monkeypatch.setattr(qdt, "_inner_cutoff", _cutoff_patch(qdt._inner_cutoff))
    with pytest.raises(NumericsError, match=r"^35P1/2: inward solution diverges"):
        forster_channels(species, pair)
    # Three elements that each fail alone, at 36P3/2, 35P3/2 and 34D3/2,
    # solved in one pass: the first in request order wins.
    request = [
        (s_level(30), p_level(30, 0.5)),
        (p_level(36, 1.5), s_level(36)),
        (RydbergLevel(35, 2, 2.5), p_level(35, 1.5)),
        (RydbergLevel(34, 2, 1.5), p_level(35, 0.5)),
    ]
    with pytest.raises(NumericsError, match=r"^36P3/2: inward solution diverges"):
        qdt.radial_matrix_elements(species, request)
    assert qdt._matrix_element_cached.cache_info().currsize == 0
    monkeypatch.undo()
    assert forster_channels(species, pair) == expected


def test_matrix_element_cache_counts_each_element_as_one_call(species):
    """A request counts as lru_cache would count its elements asked one by
    one: the first sight of a missing element is a miss, later ones hits."""
    pair = PairState(s_level(60), s_level(61))
    qdt._matrix_element_cached.cache_clear()
    channels = forster_channels(species, pair)
    calls = [
        frozenset(levels)
        for ch in channels
        for levels in ((pair.a, ch.final.a), (pair.b, ch.final.b))
    ]
    distinct = len(set(calls))
    assert distinct < len(calls)
    info = qdt._matrix_element_cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (len(calls) - distinct, distinct, distinct)
    forster_channels(species, pair)
    radial_matrix_element(species, p_level(60, 0.5), pair.a)
    radial_matrix_element(species, pair.a, p_level(70, 0.5))
    info = qdt._matrix_element_cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (
        2 * len(calls) - distinct + 1,
        distinct + 1,
        distinct + 1,
    )


def test_matrix_element_grid_convergence(species, monkeypatch):
    """Doubling grid density moves the 70S-70P element by < 0.1%. The caches
    key on the point count, so neither grid reads the other's values."""
    a, b = s_level(70), p_level(70, 0.5)
    coarse = radial_matrix_element(species, a, b)
    assert len(radial_wavefunction(species, a).r) == qdt.GRID_POINTS == 2000
    with monkeypatch.context() as m:
        m.setattr(qdt, "GRID_POINTS", 4000)
        fine = radial_matrix_element(species, a, b)
        assert len(radial_wavefunction(species, a).r) == 4000
    assert fine != coarse
    assert fine == pytest.approx(coarse, rel=1e-3)
    assert radial_matrix_element(species, a, b) == coarse
    assert len(radial_wavefunction(species, a).r) == 2000


# ---------------------------------------------------------------------------
# independent linear-grid Numerov oracle

def _numerov_linear(n_star, L, r_in, r_out, points):
    """Inward Numerov for u'' = (L(L+1)/r^2 - 2/r + 1/n*^2) u on a uniform r grid."""
    r = np.linspace(r_in, r_out, points)
    g = L * (L + 1) / r**2 - 2.0 / r + 1.0 / n_star**2
    h2 = (r[1] - r[0]) ** 2
    f = 1.0 - (h2 / 12.0) * g
    u = np.zeros_like(r)
    u[-2] = 1e-12
    for k in range(points - 2, 0, -1):
        u[k - 1] = ((12.0 - 10.0 * f[k]) * u[k] - f[k + 1] * u[k + 1]) / f[k - 1]
        if abs(u[k - 1]) > 1e250:
            u[: k + 1] /= 1e250
            u[k - 1] = ((12.0 - 10.0 * f[k]) * u[k] - f[k + 1] * u[k + 1]) / f[k - 1]
    u /= math.sqrt(np.trapezoid(u * u, r))
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    return r, u


def _numerov_inward_scalar(x, g):
    """The inward recurrence one level at a time on Python floats: the
    bitwise reference for the batched kernel, rescale branch included."""
    h2 = (x[1] - x[0]) ** 2
    f = (1.0 - (h2 / 12.0) * g).tolist()
    w = [0.0] * len(x)
    w[-2] = 1e-12
    for k in range(len(x) - 2, 0, -1):
        w[k - 1] = ((12.0 - 10.0 * f[k]) * w[k] - f[k + 1] * w[k + 1]) / f[k - 1]
        if abs(w[k - 1]) > 1e250:
            w = [v / 1e250 for v in w]
    return np.array(w)


def _numerov_inward_decimal(x, g):
    """The inward recurrence in decimal arithmetic, whose exponent range
    never overflows, so it needs no rescaling. Oracle for the float loop."""
    h2 = (x[1] - x[0]) ** 2
    f = [Decimal(v) for v in (1.0 - (h2 / 12.0) * g)]
    w = [Decimal(0)] * len(x)
    w[-2] = Decimal("1e-12")
    for k in range(len(x) - 2, 0, -1):
        w[k - 1] = ((12 - 10 * f[k]) * w[k] - f[k + 1] * w[k + 1]) / f[k - 1]
    return w


def test_numerov_inward_rescale_branch_matches_decimal_oracle():
    # A steep classically forbidden region: w grows by ~e^1260 inward.
    x = np.linspace(1.0, 3.0, 2000)
    g = 4e5 + 1e3 * x
    oracle = _numerov_inward_decimal(x, g)
    peak = max(abs(v) for v in oracle)
    got = _numerov_inward(x[None], g[None])[0]
    assert got.dtype == np.float64
    # The true solution spans more than 1e500 while every float value stays
    # at most 1e251, so the 1e250 rescale branch ran at least twice.
    assert peak / abs(oracle[-2]) > Decimal("1e500")
    assert np.max(np.abs(got)) <= 1e251
    shape = np.array([float(v / peak) for v in oracle])
    assert np.max(np.abs(got / np.max(np.abs(got)) - shape)) < 1e-12


def _physical_rows(species, levels):
    """(x, g) of each level on its own sqrt-grid, computed as a one-level solve."""
    rows = []
    for level in levels:
        n_star = effective_quantum_number(species, level)
        r_in = n_star ** (1.0 / 3.0)
        x = np.linspace(math.sqrt(r_in), math.sqrt(2.0 * n_star * (n_star + 15.0)), 2000)
        g = -8.0 + 4.0 * x**2 / n_star**2 + (4.0 * level.L * (level.L + 1) + 0.75) / x**2
        rows.append((x, g))
    return rows


def test_batched_kernel_matches_scalar_reference_bitwise(species):
    """One batch of two steep rows that pass the 1e250 rescale at different
    steps and physical rows that never reach it: every row equals the scalar
    recurrence bitwise, so rescaling every row, or none, fails."""
    steep = np.linspace(1.0, 3.0, 2000)
    physical = _physical_rows(
        species, [s_level(70), p_level(70, 0.5), RydbergLevel(69, 2, 2.5), s_level(30)]
    )
    rows = physical[:2] + [(steep, 4e5 + 1e3 * steep)] + physical[2:]
    rows.append((steep, 3e5 + 2e3 * steep))
    x = np.array([x for x, _ in rows])
    g = np.array([g for _, g in rows])
    got = _numerov_inward(x, g)
    for (x_row, g_row), row in zip(rows, got):
        ref = _numerov_inward_scalar(x_row, g_row)
        assert np.array_equal(row, ref)
    # A rescale divides the 1e-12 tail seed too; only the steep rows had one.
    assert [row[-2] == 1e-12 for row in got] == [True, True, False, True, True, False]


def test_solve_on_grid_rows_match_one_level_solves(species):
    """Each row of a batched solve is bitwise a one-level solve on the scalar
    recurrence, with h^2 and n*^2 formed as that solve forms them."""
    levels = [s_level(50), p_level(70, 0.5), RydbergLevel(71, 2, 1.5)]
    rows = _physical_rows(species, levels)
    n_stars = [effective_quantum_number(species, lv) for lv in levels]
    u = qdt._solve_on_grid(n_stars, [lv.L for lv in levels], np.array([x for x, _ in rows]))
    for (x, g), u_row in zip(rows, u):
        assert np.array_equal(u_row, np.sqrt(x) * _numerov_inward_scalar(x, g))


def _count_sign_changes(u):
    floor = 1e-9 * np.max(np.abs(u))
    sig = u[np.abs(u) > floor]
    return int(np.count_nonzero(np.signbit(sig[1:]) != np.signbit(sig[:-1])))


def test_rb_70s_against_linear_grid_oracle(species):
    sol = radial_wavefunction(species, s_level(70))
    r, u = _numerov_linear(
        sol.n_star, 0, float(sol.r[0]), float(sol.r[-1]), 20001
    )
    r_exp_oracle = float(np.trapezoid(r * u * u, r))
    assert sol.expectation_r() == pytest.approx(r_exp_oracle, rel=5e-3)
    assert sol.nodes == _count_sign_changes(u)


def test_rb_70s_70p_element_against_oracle(species):
    a, b = s_level(70), p_level(70, 0.5)
    value = radial_matrix_element(species, a, b)
    na = effective_quantum_number(species, a)
    nb = effective_quantum_number(species, b)
    sol_a = radial_wavefunction(species, a)
    sol_b = radial_wavefunction(species, b)
    r_in = max(float(sol_a.r[0]), float(sol_b.r[0]))
    r_out = max(float(sol_a.r[-1]), float(sol_b.r[-1]))
    r, ua = _numerov_linear(na, 0, r_in, r_out, 20001)
    _, ub = _numerov_linear(nb, 1, r_in, r_out, 20001)
    oracle = float(np.trapezoid(ua * r * ub, r))
    assert value == pytest.approx(oracle, rel=5e-3)


# ---------------------------------------------------------------------------
# exact Coulomb-function oracle

@functools.lru_cache(maxsize=None)
def _coulomb_element(species, level_a, level_b):
    """<a| r |b> from the exact solutions of the model equation.

    In the Coulomb approximation the solution that decays at large r, at
    energy -1/(2 n*^2), is u(r) = W_{n*, L+1/2}(2r/n*) (Bates & Damgaard,
    Phil. Trans. R. Soc. A 242, 101 (1949)). Both levels are normalised on
    the pair's shared grid bounds from ``qdt._grid_bounds``, as the Numerov
    route does, so the comparison checks the discretisation and not the
    cutoffs. Gauss-Legendre quadrature in x = sqrt(r), 40 panels of 16
    nodes: 640 and 1,280 nodes agree to 10 digits.
    """
    (na, in_a, out_a), (nb, in_b, out_b) = (qdt._grid_bounds(species, lv) for lv in (level_a, level_b))
    t, wt = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(math.sqrt(max(in_a, in_b)), math.sqrt(max(out_a, out_b)), 41)
    half = 0.5 * np.diff(edges)
    x = (edges[:-1, None] + half[:, None] * (t + 1.0)).ravel()
    r, dr = x * x, 2.0 * x * (half[:, None] * wt).ravel()

    def u(n_star, L):
        with mpmath.workdps(15):
            w = [mpmath.whitw(n_star, L + 0.5, 2.0 * rv / n_star) for rv in r]
            peak = max(abs(v) for v in w)  # W spans far more than the floats
            w = np.array([float(v / peak) for v in w])
        return w / math.sqrt(np.sum(dr * w * w))

    return float(np.sum(dr * r * u(na, level_a.L) * u(nb, level_b.L)))


# Relative errors of the 2,000-point elements against the oracle, as
# measured; each is held to twice its value. The error falls 16-17x per
# grid doubling, as Numerov's fourth order should.
_COULOMB_CASES = [
    (s_level(70), p_level(70, 0.5), 5.1e-7),
    (s_level(70), p_level(75, 1.5), 1.7e-5),
    (s_level(30), p_level(31, 1.5), 2.9e-8),
    (s_level(70), p_level(12, 1.5), 1.1e-4),  # a wide gap in n
]


@pytest.mark.parametrize("a, b, measured", _COULOMB_CASES, ids=lambda v: getattr(v, "label", ""))
def test_matrix_element_against_coulomb_functions(species, a, b, measured):
    exact = _coulomb_element(species, a, b)
    assert abs(radial_matrix_element(species, a, b) / exact - 1.0) < 2.0 * measured


def test_matrix_element_error_falls_at_fourth_order(species, monkeypatch):
    a, b = s_level(70), p_level(70, 0.5)
    exact = _coulomb_element(species, a, b)
    coarse = abs(radial_matrix_element(species, a, b) / exact - 1.0)
    monkeypatch.setattr(qdt, "GRID_POINTS", 4000)
    fine = abs(radial_matrix_element(species, a, b) / exact - 1.0)
    assert fine < 0.1 * coarse


@pytest.mark.parametrize("n", [5, 12, 20, 25])
def test_wide_gap_elements_are_finite_without_warnings(species, monkeypatch, n):
    """70S1/2 to nP3/2: the low-n level's inward solve starts deep in its
    forbidden region on the shared grid, and w * w in its norm overflowed."""
    monkeypatch.setattr(qdt, "_element_tables", {})  # solve, not a cached value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = radial_matrix_element(species, s_level(70), p_level(n, 1.5))
    assert math.isfinite(value) and value != 0.0


# ---------------------------------------------------------------------------
# lifetimes

def test_lifetime_zero_temperature_is_radiative(species):
    level = s_level(70)
    n_star = effective_quantum_number(species, level)
    tau_s, alpha = species.lifetime_scaling(0)
    assert lifetime(species, level, 0.0) == pytest.approx(
        1.0 / (tau_s * 1e-9 * n_star**alpha), rel=1e-12
    )


def test_lifetime_decreases_with_n(species):
    assert lifetime(species, s_level(70), 300.0) < lifetime(species, s_level(40), 300.0)


def test_lifetime_increases_with_temperature(species):
    rates = [lifetime(species, s_level(70), t) for t in (0.0, 77.0, 300.0, 600.0)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rb_70s_room_temperature_scale(species):
    # published compilations put tau(70S) near 150 us at 300 K
    gamma = lifetime(species, s_level(70), 300.0)
    assert gamma == pytest.approx(1.0 / 150e-6, rel=0.2)


def test_lifetime_rejects_negative_temperature(species):
    with pytest.raises(ValueError):
        lifetime(species, s_level(70), -1.0)


def test_lifetime_beyond_the_floats_is_a_numerics_error(species):
    # 4 alpha^3 k T / (3 hbar n*^2) passes the largest float at T = 1.8e308 K
    assert math.isfinite(lifetime(species, s_level(70), 1e300))
    with pytest.raises(NumericsError, match="70S1/2: decay rate overflows"):
        lifetime(species, s_level(70), 1.7976931348623157e308)


HARTREE_HZ = 6.579683920502e15  # E_h / h
AU_TIME_S = 2.4188843265857e-17  # hbar / E_h


def _planck_weighted_sum(species, level, temperature):
    """Blackbody-stimulated rate as the Planck-weighted sum over the model's
    own dipole elements (Farley & Wing, PRA 23, 2397 (1981)), in 1/s:
    sum_f A_if nbar(nu_if), A_if = (4/3) alpha^3 w^3 R^2 (2J_f + 1)
    {J_i J_f 1; L_f L_i 1/2}^2 max(L_i, L_f) in atomic units, over L_f <=
    MAX_L and n_f from the lowest level of Rb to n + 40."""
    finals = [
        RydbergLevel(n, L, J)
        for L in (level.L - 1, level.L + 1)
        if 0 <= L <= MAX_L
        for J in (L - 0.5, L + 0.5)
        if J > 0
        for n in range(5 if L < 2 else 4, level.n + 41)
    ]
    elements = radial_matrix_elements(species, [(level, f) for f in finals])
    total = 0.0
    for final, r in zip(finals, elements):
        nu = abs(level_energy(species, final) - level_energy(species, level))
        angular = (2 * final.J + 1) * max(level.L, final.L)
        angular *= wigner_6j(level.J, final.J, 1, final.L, level.L, 0.5) ** 2
        a_if = 4.0 / 3.0 * ALPHA_FS**3 * (nu / HARTREE_HZ) ** 3 * r * r * angular / AU_TIME_S
        total += a_if / math.expm1(PLANCK_H * nu / (K_BOLTZMANN * temperature))
    return total


@pytest.mark.parametrize("level, gap", [(s_level(70), 0.093), (p_level(70, 0.5), 0.135)])
def test_lifetime_blackbody_formula_against_planck_weighted_sum(species, level, gap):
    """``lifetime``'s universal form 4 alpha^3 k T / (3 hbar n*^2) assumes k T
    far above every neighbouring transition. At 300 K and n = 70 it exceeds
    the Planck-weighted sum over the model's own elements by 9.3% at 70S and
    13.5% at 70P1/2: a standing gap of the formula, pinned here to +/- 1%."""
    formula = lifetime(species, level, 300.0) - lifetime(species, level, 0.0)
    assert formula / _planck_weighted_sum(species, level, 300.0) - 1.0 == pytest.approx(gap, abs=0.01)
