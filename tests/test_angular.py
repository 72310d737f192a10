"""Wigner symbols, dipole components, and pair angular blocks.

Oracles come from sympy.physics.wigner (exact rational arithmetic) and a
Clebsch-Gordan uncoupling of |L J m> into |m_L m_S>, which never touches
reduced-matrix-element conventions.
"""

import itertools
import math

import numpy as np
import pytest
from sympy import Rational, S, sqrt
from sympy.physics.wigner import clebsch_gordan
from sympy.physics.wigner import wigner_3j as sym_3j
from sympy.physics.wigner import wigner_6j as sym_6j

from rydgate.angular import (
    angular_block,
    angular_factor,
    dipole_component,
    exchange_singular_value,
    pair_m_states,
    wigner_3j,
    wigner_6j,
)
from rydgate.levels import RydbergLevel, p_level, s_level


def _rational(two_x):
    return Rational(int(two_x), 2)


def test_wigner_3j_against_sympy():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 300:
        tj1, tj2 = rng.integers(0, 13, size=2)
        tj3 = rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1)
        if (tj1 + tj2 + tj3) % 2:
            continue
        tm1 = rng.integers(-tj1, tj1 + 1)
        if (tm1 + tj1) % 2:
            continue
        tm2 = rng.integers(-tj2, tj2 + 1)
        if (tm2 + tj2) % 2:
            continue
        tm3 = -(tm1 + tm2)
        if abs(tm3) > tj3:
            continue
        args = (tj1, tj2, tj3, tm1, tm2, tm3)
        got = wigner_3j(*(t / 2.0 for t in args))
        want = float(sym_3j(*(_rational(t) for t in args)))
        assert got == pytest.approx(want, abs=1e-12), args
        checked += 1


def test_wigner_6j_against_sympy():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 200:
        tjs = rng.integers(0, 13, size=6)
        got = wigner_6j(*(t / 2.0 for t in tjs))
        try:
            want = float(sym_6j(*(_rational(t) for t in tjs)))
        except ValueError:
            want = 0.0  # sympy raises on parity-violating triads
        assert got == pytest.approx(want, abs=1e-12), tjs
        checked += 1


def test_wigner_selection_rules_give_zero():
    assert wigner_3j(1, 1, 1, 1, 0, 0) == 0.0   # m sum not zero
    assert wigner_3j(1, 1, 1, 2, -1, -1) == 0.0  # |m| > j
    assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0    # triangle violated
    assert wigner_3j(0.5, 0.5, 2, 0.5, -0.5, 0) == 0.0
    assert wigner_6j(1, 1, 1, 1, 1, 3) == 0.0


def test_wigner_rejects_bad_angular_momentum():
    with pytest.raises(ValueError):
        wigner_3j(0.3, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        wigner_6j(1, 1, 0.7, 1, 1, 1)


def _oracle_dipole(Lc, Jc, mc, La, Ja, ma):
    """<Lc Jc mc|C1_q|La Ja ma> by uncoupling spin, exact until float()."""
    q = Rational(mc) - Rational(ma)
    if abs(q) > 1:
        return 0.0
    total = S(0)
    for two_ms in (-1, 1):
        ms = Rational(two_ms, 2)
        mlc = Rational(mc) - ms
        mla = Rational(ma) - ms
        if abs(mlc) > Lc or abs(mla) > La:
            continue
        cg_c = clebsch_gordan(S(Lc), S(1) / 2, Rational(Jc), mlc, ms, Rational(mc))
        cg_a = clebsch_gordan(S(La), S(1) / 2, Rational(Ja), mla, ms, Rational(ma))
        orbital = (
            sqrt(Rational(2 * La + 1, 2 * Lc + 1))
            * clebsch_gordan(S(La), S(1), S(Lc), mla, q, mlc)
            * clebsch_gordan(S(La), S(1), S(Lc), S(0), S(0), S(0))
        )
        total += cg_c * cg_a * orbital
    return float(total)


@pytest.mark.parametrize(
    "Lc,Jc,La,Ja",
    [(1, 0.5, 0, 0.5), (1, 1.5, 0, 0.5), (2, 2.5, 1, 1.5), (0, 0.5, 1, 1.5)],
)
def test_dipole_component_against_uncoupling(Lc, Jc, La, Ja):
    mcs = [Jc - k for k in range(int(2 * Jc) + 1)]
    mas = [Ja - k for k in range(int(2 * Ja) + 1)]
    for mc, ma in itertools.product(mcs, mas):
        got = dipole_component(Lc, Jc, mc, La, Ja, ma)
        assert got == pytest.approx(_oracle_dipole(Lc, Jc, mc, La, Ja, ma), abs=1e-12)


def test_dipole_component_large_q_is_zero():
    assert dipole_component(2, 2.5, 2.5, 1, 1.5, -1.5) == 0.0


def test_pair_m_states_enumeration():
    assert pair_m_states(0.5, 0.5, 0.0) == [(0.5, -0.5), (-0.5, 0.5)]
    assert pair_m_states(1.5, 0.5, 1.0) == [(1.5, -0.5), (0.5, 0.5)]
    assert pair_m_states(0.5, 0.5, 3.0) == []
    # M of the wrong parity for Ja + Jb reaches no pair state
    assert pair_m_states(0.5, 0.5, 0.5) == []
    assert pair_m_states(1.5, 0.5, 0.5) == []
    assert pair_m_states(0.5, 1.0, 1.0) == []
    assert pair_m_states(0.5, 1.0, 0.5) == [(0.5, 0.0), (-0.5, 1.0)]
    states = pair_m_states(1.5, 1.5, 0.0)
    assert len(states) == 4
    assert all(ma + mb == 0.0 for ma, mb in states)
    assert [ma for ma, _ in states] == sorted([ma for ma, _ in states], reverse=True)


def test_angular_block_forbidden_transition_is_zero():
    a = b = s_level(70)
    block = angular_block(a, b, a, b, 0.0)
    assert block.shape == (2, 2)
    np.testing.assert_array_equal(block, 0.0)


def test_angular_block_is_cached_by_quantum_numbers():
    """Levels that differ only in n share one cached, read-only block."""
    block = angular_block(s_level(70), s_level(71), p_level(70), RydbergLevel(69, 1, 1.5), 0.0)
    again = angular_block(s_level(40), s_level(55), p_level(62), RydbergLevel(41, 1, 1.5), 0.0)
    assert again is block
    assert block.any()
    with pytest.raises(ValueError):
        block[0, 0] = 1.0


def _oracle_factor(level_a, level_b, level_c, level_d, M):
    cols = pair_m_states(level_a.J, level_b.J, M)
    rows = pair_m_states(level_c.J, level_d.J, M)
    weight = {0.0: -2.0, 1.0: -1.0, -1.0: -1.0}
    total = 0.0
    for mc, md in rows:
        for ma, mb in cols:
            q = mc - ma
            if q not in weight or md - mb != -q:
                continue
            t1 = _oracle_dipole(level_c.L, level_c.J, mc, level_a.L, level_a.J, ma)
            t2 = _oracle_dipole(level_d.L, level_d.J, md, level_b.L, level_b.J, mb)
            total += (weight[q] * t1 * t2) ** 2
    return math.sqrt(total / len(cols)) if cols else 0.0


@pytest.mark.parametrize("M", [0.0, 1.0])
def test_angular_factor_against_brute_force(M):
    a, b = s_level(70), s_level(71)
    c, d = p_level(70, 0.5), RydbergLevel(70, 1, 1.5)
    got = angular_factor(a, b, c, d, M)
    assert got == pytest.approx(_oracle_factor(a, b, c, d, M), abs=1e-12)
    assert got > 0.0


def test_angular_factor_atom_swap_symmetry():
    a, b = s_level(70), s_level(71)
    c, d = p_level(70, 0.5), RydbergLevel(69, 1, 1.5)
    assert angular_factor(a, b, c, d, 0.0) == pytest.approx(
        angular_factor(b, a, d, c, 0.0), abs=1e-14
    )


def test_angular_factor_zero_when_not_dipole_allowed():
    a, b = s_level(70), s_level(71)
    d_state = RydbergLevel(69, 2, 2.5)
    assert angular_factor(a, b, p_level(70), d_state, 0.0) == 0.0


def test_exchange_singular_value_s_p_half():
    """The resonant S1/2-P1/2 exchange branch at M=0 is exactly 4/9."""
    sigma = exchange_singular_value(s_level(70), p_level(70, 0.5), 0.0)
    assert sigma == pytest.approx(4.0 / 9.0, rel=1e-12)
    # pure angular algebra: no dependence on principal quantum number
    assert exchange_singular_value(s_level(50), p_level(50, 0.5), 0.0) == pytest.approx(
        sigma, rel=1e-14
    )


def test_exchange_singular_value_not_coupled():
    assert exchange_singular_value(s_level(70), s_level(71), 0.0) == 0.0
