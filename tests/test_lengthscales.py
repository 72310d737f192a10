"""Blockade radii, the gate window, and the figure of merit."""

import math

import pytest

from rydgate.constants import HBAR, PLANCK_H, TWOPI
from rydgate.errors import ResonanceError
from rydgate.lengthscales import blockade_radii, figure_of_merit, radii_point
from rydgate.levels import p_level, s_level
from rydgate.pair import c3_coefficient, c6_coefficient
from rydgate.qdt import lifetime

OMEGA_1MHZ = TWOPI * 1e6


def test_radii_invert_their_definitions():
    ls = blockade_radii(11.55, 1575.0, 3.0 * OMEGA_1MHZ, OMEGA_1MHZ)
    assert TWOPI * 11.55e9 / ls.r_b3**3 == pytest.approx(OMEGA_1MHZ, rel=1e-12)
    assert TWOPI * 1575.0e9 / ls.r_b6**6 == pytest.approx(3.0 * OMEGA_1MHZ, rel=1e-12)
    assert TWOPI * 1575.0e9 / ls.r_mu**6 == pytest.approx(OMEGA_1MHZ, rel=1e-12)
    assert ls.window == (max(ls.r_b6, ls.r_mu), ls.r_b3)


def test_radii_power_law_scaling():
    base = blockade_radii(11.55, 1575.0, OMEGA_1MHZ, OMEGA_1MHZ)
    fast_mu = blockade_radii(11.55, 1575.0, OMEGA_1MHZ, 64.0 * OMEGA_1MHZ)
    assert fast_mu.r_b3 == pytest.approx(base.r_b3 / 4.0, rel=1e-12)
    assert fast_mu.r_mu == pytest.approx(base.r_mu / 2.0, rel=1e-12)
    assert fast_mu.r_b6 == base.r_b6
    fast_eit = blockade_radii(11.55, 1575.0, 64.0 * OMEGA_1MHZ, OMEGA_1MHZ)
    assert fast_eit.r_b6 == pytest.approx(base.r_b6 / 2.0, rel=1e-12)
    assert fast_eit.r_b3 == base.r_b3


def test_radii_sign_and_validation():
    ls_pos = blockade_radii(11.55, 1575.0, OMEGA_1MHZ, OMEGA_1MHZ)
    ls_neg = blockade_radii(11.55, -1575.0, OMEGA_1MHZ, OMEGA_1MHZ)
    assert (ls_neg.r_b3, ls_neg.r_b6, ls_neg.r_mu) == (
        ls_pos.r_b3,
        ls_pos.r_b6,
        ls_pos.r_mu,
    )
    for bad in [(0.0, 1575.0), (-1.0, 1575.0), (11.55, 0.0)]:
        with pytest.raises(ValueError):
            blockade_radii(bad[0], bad[1], OMEGA_1MHZ, OMEGA_1MHZ)
    with pytest.raises(ValueError):
        blockade_radii(11.55, 1575.0, 0.0, OMEGA_1MHZ)
    with pytest.raises(ValueError):
        blockade_radii(11.55, 1575.0, OMEGA_1MHZ, -OMEGA_1MHZ)


def test_rb_70_reference_radii(species):
    """At n = 70 and 2pi x 1 MHz drives the exchange range clears the
    van der Waals floor by better than a factor of two."""
    c3 = c3_coefficient(species, s_level(70), p_level(70, 0.5))
    c6 = c6_coefficient(species, s_level(70), s_level(71)).c6_ghz_um6
    ls = blockade_radii(c3, c6, OMEGA_1MHZ, OMEGA_1MHZ)
    assert ls.r_b3 == pytest.approx(22.604909, rel=1e-4)
    assert ls.r_b6 == pytest.approx(10.786523, rel=1e-4)
    assert ls.r_mu == ls.r_b6  # same coefficient, same frequency
    assert ls.window_ok
    assert ls.r_b3 / max(ls.r_b6, ls.r_mu) > 2.0


def test_figure_of_merit_compositional(species):
    point = figure_of_merit(species, 70)
    c3 = c3_coefficient(species, s_level(70), p_level(70, 0.5))
    c6 = c6_coefficient(species, s_level(70), s_level(71)).c6_ghz_um6
    gamma = max(
        lifetime(species, lv, 300.0)
        for lv in (s_level(70), s_level(71), p_level(70, 0.5))
    )
    expected = (PLANCK_H * c3 * 1e9) ** 2 / (PLANCK_H * abs(c6) * 1e9 * HBAR * gamma)
    assert point.merit == pytest.approx(expected, rel=1e-10)
    assert point.gamma_used == gamma
    assert point.n == 70


def test_figure_of_merit_reference_value(species):
    point = figure_of_merit(species, 70)
    assert point.merit == pytest.approx(76167.75, rel=1e-4)
    # merit is dimensionless and large, and grows with n in this range
    assert point.merit > figure_of_merit(species, 50).merit > 1e3


def test_figure_of_merit_propagates_resonance(species):
    with pytest.raises(ResonanceError):
        figure_of_merit(species, 38)


def test_radii_scan_rows(species):
    rows = [radii_point(species, n, OMEGA_1MHZ) for n in [37, 38, 39]]
    assert [row.n for row in rows] == [37, 38, 39]
    flagged = {row.n: row for row in rows}[38]
    assert flagged.resonant
    assert flagged.r_b6_cross_um is None     # (38S, 39S) is near-degenerate
    assert flagged.r_b6_same_um is not None  # (38S, 38S) is not
    assert flagged.r_b3_um > 0
    for n in (37, 39):
        row = flagged = {r.n: r for r in rows}[n]
        assert not row.resonant
        assert row.r_b6_cross_um > 0 and row.r_b6_same_um > 0


def test_radii_scan_hierarchy(species):
    """The exchange radius dominates both blockade radii over the useful n range."""
    rows = [radii_point(species, n, OMEGA_1MHZ) for n in range(50, 101, 10)]
    for row in rows:
        assert not row.resonant
        assert row.r_b3_um > row.r_b6_cross_um
        assert row.r_b3_um > row.r_b6_same_um


def test_radii_scan_deterministic(species):
    ns = [68, 70]
    assert [radii_point(species, n, OMEGA_1MHZ) for n in ns] == [
        radii_point(species, n, OMEGA_1MHZ) for n in ns
    ]
