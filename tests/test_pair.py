"""Pair interaction coefficients: resonant exchange, channel sums, and the
direct-diagonalisation cross-check.

The diagonalisation route never uses the perturbative formulas, so
shift * d^3 (or * d^6) converging onto C3 (C6) is a real consistency test
of both implementations. These are the slowest tests in the suite.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rydgate import pair as pair_module
from rydgate import qdt
from rydgate.constants import C3_PREFACTOR_HZ_UM3, TWOPI, mhz_to_rad_s
from rydgate.angular import angular_block, angular_factor, pair_m_states
from rydgate.errors import ResonanceError, RydgateError
from rydgate.levels import RydbergLevel, p_level, s_level
from rydgate.pair import (
    PairState,
    _first_shell_manifolds,
    _pair_hamiltonian,
    c3_coefficient,
    c6_branches,
    c6_coefficient,
    forster_channels,
    pair_energy,
    pair_hamiltonian_shift,
)
from rydgate.qdt import radial_matrix_element


# ---------------------------------------------------------------------------
# unit helpers

def test_unit_conversion_round_trips():
    assert mhz_to_rad_s(1.0) == pytest.approx(TWOPI * 1e6, rel=1e-14)


# ---------------------------------------------------------------------------
# pair states

def test_pair_state_validates_projection(species):
    with pytest.raises(ValueError):
        PairState(s_level(70), s_level(71), M=2.0)
    with pytest.raises(ValueError):  # two J = 1/2 atoms make integer M only
        PairState(s_level(70), s_level(71), M=0.5)
    with pytest.raises(ValueError):
        c6_coefficient(species, s_level(70), s_level(71), M=0.5)
    pair = PairState(s_level(70), p_level(70, 1.5), M=2.0)
    assert pair.label == "(70S1/2, 70P3/2)"


# ---------------------------------------------------------------------------
# resonant exchange C3

def test_c3_rb_70s_70p_half(species):
    c3 = c3_coefficient(species, s_level(70), p_level(70, 0.5))
    assert c3 == pytest.approx(11.550659857613384, rel=1e-6)


def test_c3_symmetric_in_levels(species):
    a, b = s_level(70), p_level(70, 0.5)
    assert c3_coefficient(species, a, b) == pytest.approx(
        c3_coefficient(species, b, a), rel=1e-12
    )


def test_c3_compositional(species):
    """C3 = K3 * R^2 * sigma_max with sigma_max(S1/2-P1/2, M=0) = 4/9."""
    a, b = s_level(70), p_level(70, 0.5)
    radial = radial_matrix_element(species, a, b)
    expected = C3_PREFACTOR_HZ_UM3 * 1e-9 * radial * radial * (4.0 / 9.0)
    assert c3_coefficient(species, a, b) == pytest.approx(expected, rel=1e-12)


def test_c3_rejects_non_dipole_pair(species):
    with pytest.raises(RydgateError, match="not dipole-coupled"):
        c3_coefficient(species, s_level(70), s_level(71))


@pytest.mark.parametrize("M", [0.5, 2.0])
def test_c3_rejects_unreachable_projection(species, M):
    """An M that no pair state reaches is a bad argument, not an uncoupled pair."""
    with pytest.raises(ValueError, match="M"):
        c3_coefficient(species, s_level(70), p_level(70, 0.5), M=M)


# ---------------------------------------------------------------------------
# channel enumeration

def test_forster_channels_of_rb_70s_71s(species):
    pair = PairState(s_level(70), s_level(71))
    channels = forster_channels(species, pair)
    assert len(channels) > 10
    assert all(ch.final.M == pair.M for ch in channels)
    # ranked by contribution magnitude
    mags = [abs(ch.contribution_ghz_um6) for ch in channels]
    assert mags == sorted(mags, reverse=True)
    # every defect is consistent with the level energies it came from
    for ch in channels[:8]:
        expected = pair_energy(species, ch.final.a, ch.final.b) - pair_energy(
            species, pair.a, pair.b
        )
        assert ch.defect_hz == pytest.approx(expected, rel=1e-12)
    # coupling of the dominant channel decomposes into its factors
    top = channels[0]
    expected_coupling = (
        C3_PREFACTOR_HZ_UM3
        * 1e-9
        * radial_matrix_element(species, pair.a, top.final.a)
        * radial_matrix_element(species, pair.b, top.final.b)
        * angular_factor(pair.a, pair.b, top.final.a, top.final.b, 0.0)
    )
    assert top.coupling_ghz_um3 == pytest.approx(expected_coupling, rel=1e-12)


def test_forster_channels_form_each_channel_once(species, monkeypatch):
    """One angular factor per (L, J) class pair, one energy per level and
    one radial request per call; c6_branches adds one request per ordering."""
    calls = {name: [] for name in ("angular_factor", "level_energy", "radial_matrix_elements")}

    def recorded(fn, seen):
        def wrapper(*args):
            seen.append(args)
            return fn(*args)

        return wrapper

    for name, seen in calls.items():
        monkeypatch.setattr(pair_module, name, recorded(getattr(pair_module, name), seen))
    monkeypatch.setattr(pair_module, "radial_matrix_element", None)  # no scalar requests
    pair = PairState(s_level(70), s_level(71))
    channels = forster_channels(species, pair)
    classes = {(ch.final.a.L, ch.final.a.J, ch.final.b.L, ch.final.b.J) for ch in channels}
    assert len(classes) == len(calls["angular_factor"]) == 4
    levels = [level for _, level in calls["level_energy"]]
    finals = {lv for ch in channels for lv in (ch.final.a, ch.final.b)}
    assert sorted(levels) == sorted(finals | {pair.a, pair.b})
    assert len(calls["radial_matrix_elements"]) == 1

    calls["radial_matrix_elements"].clear()
    c6_branches(species, s_level(70), s_level(71))
    # one request in forster_channels and one in c6_branches, per ordering
    assert len(calls["radial_matrix_elements"]) == 4


def test_forster_channels_deterministic(species):
    pair = PairState(s_level(70), s_level(71))
    assert forster_channels(species, pair) == forster_channels(species, pair)


def test_forster_channels_delta_n_zero(species):
    pair = PairState(s_level(70), s_level(71))
    channels = forster_channels(species, pair, max_delta_n=0)
    assert channels  # the n-preserving shell is still dipole-connected
    for ch in channels:
        assert ch.final.a.n == 70 and ch.final.b.n == 71
    with pytest.raises(ValueError):
        forster_channels(species, pair, max_delta_n=-1)


def test_near_degenerate_channel_is_flagged(species):
    """(38S, 39S) sits on the P3/2 + P3/2 degeneracy."""
    pair = PairState(s_level(38), s_level(39))
    flagged = [ch for ch in forster_channels(species, pair) if abs(ch.defect_hz) < 1e9]
    assert flagged
    finals = {(ch.final.a.label, ch.final.b.label) for ch in flagged}
    assert ("38P3/2", "38P3/2") in finals


# ---------------------------------------------------------------------------
# C6

def test_c6_rb_70s_71s(species):
    coeffs = c6_coefficient(species, s_level(70), s_level(71))
    assert coeffs.c6_ghz_um6 == pytest.approx(1575.028270210703, rel=1e-6)


def test_c6_equals_channel_sum(species):
    coeffs = c6_coefficient(species, s_level(70), s_level(71))
    total = math.fsum(ch.contribution_ghz_um6 for ch in coeffs.channels)
    assert coeffs.c6_ghz_um6 == pytest.approx(total, rel=1e-12)
    # the ranking means the tail is numerically irrelevant
    head = math.fsum(
        ch.contribution_ghz_um6
        for ch in coeffs.channels
        if abs(ch.contribution_ghz_um6) > 1e-6 * abs(coeffs.c6_ghz_um6)
    )
    assert head == pytest.approx(coeffs.c6_ghz_um6, rel=1e-4)


def test_c6_exchange_symmetry(species):
    ab = c6_coefficient(species, s_level(70), s_level(71)).c6_ghz_um6
    ba = c6_coefficient(species, s_level(71), s_level(70)).c6_ghz_um6
    assert ab == pytest.approx(ba, rel=1e-12)


def test_c6_truncation_convergence(species):
    narrow = c6_coefficient(species, s_level(70), s_level(71), max_delta_n=1)
    wide = c6_coefficient(species, s_level(70), s_level(71), max_delta_n=5)
    assert narrow.c6_ghz_um6 == pytest.approx(wide.c6_ghz_um6, rel=0.1)


# Convergence of C6(nS, (n+1)S) in the channel truncation and the radial grid.
# C6 crosses zero between n = 29 and 30 (-0.0105 GHz um^6 at n = 30), so
# each move is stated in r_b6 = (2 pi |C6| / omega)^(1/6), whose relative
# move does not depend on omega, and the sign must hold. The largest move
# measured is 1.4e-6 (n = 100, 2,000 to 4,000 points).
R_B6_REL_TOL = 5e-6


def _r_b6_move(c6, other):
    assert math.copysign(1.0, other) == math.copysign(1.0, c6)
    return abs((abs(other) / abs(c6)) ** (1.0 / 6.0) - 1.0)


@pytest.mark.parametrize("n", [30, 50, 70, 100])
def test_c6_converged_in_truncation_and_grid(species, monkeypatch, n):
    a, b = s_level(n), s_level(n + 1)
    c6 = c6_coefficient(species, a, b).c6_ghz_um6
    wide = c6_coefficient(species, a, b, max_delta_n=8).c6_ghz_um6
    assert _r_b6_move(c6, wide) < R_B6_REL_TOL
    monkeypatch.setattr(qdt, "GRID_POINTS", 4000)
    fine = c6_coefficient(species, a, b).c6_ghz_um6
    assert fine != c6
    assert _r_b6_move(c6, fine) < R_B6_REL_TOL


def test_c6_branches_converged_in_grid(species, monkeypatch):
    """Each (70S, 71S) branch moves by 3.6e-7 in r_b6 from 2,000 to 4,000 points."""
    branches = c6_branches(species, s_level(70), s_level(71))
    monkeypatch.setattr(qdt, "GRID_POINTS", 4000)
    fine = c6_branches(species, s_level(70), s_level(71))
    for c6, other in zip(branches, fine):
        assert _r_b6_move(c6, other) < R_B6_REL_TOL


def test_c6_raises_on_resonance(species, monkeypatch):
    monkeypatch.setattr(pair_module, "RESONANCE_THRESHOLD_HZ", 1e9)
    with pytest.raises(ResonanceError) as exc_info:
        c6_coefficient(species, s_level(38), s_level(39))
    channel = exc_info.value.channel
    assert channel.final.a.label == "38P3/2"
    assert channel.final.b.label == "38P3/2"
    with pytest.raises(ResonanceError):
        c6_branches(species, s_level(38), s_level(39))
    # with a loose enough notion of "degenerate" the sum goes through
    monkeypatch.setattr(pair_module, "RESONANCE_THRESHOLD_HZ", 1e3)
    coeffs = c6_coefficient(species, s_level(38), s_level(39))
    assert math.isfinite(coeffs.c6_ghz_um6)


# ---------------------------------------------------------------------------
# C6 branches of the degenerate pair manifold


@pytest.mark.parametrize("n_b, n_branches", [(71, 4), (70, 2)])
def test_c6_branches_mean_is_channel_sum(species, n_b, n_branches):
    """The trace of the effective Hamiltonian is the channel-sum mean."""
    a, b = s_level(70), s_level(n_b)
    branches = c6_branches(species, a, b)
    assert len(branches) == n_branches
    assert list(branches) == sorted(branches)
    mean = math.fsum(branches) / len(branches)
    assert mean == pytest.approx(c6_coefficient(species, a, b).c6_ghz_um6, rel=1e-9)


def test_c6_branches_against_diagonalisation(species):
    """Branches of (70S, 71S) from the full pair Hamiltonian at d = 20 um.

    At M = 0 the extremal eigen-shift is the strongest branch. At M = 1
    the manifold holds two branches, so the weakest one follows from the
    diagonalisation's mean and extremal shifts as 2 mean - extremal.
    """
    a, b = s_level(70), s_level(71)
    d = 20.0

    def fit(M, branch):
        shift = pair_hamiltonian_shift(
            species, PairState(a, b, M), d, branch=branch, max_delta_n=2
        )
        return shift * d**6 * 1e-9

    branches = c6_branches(species, a, b, max_delta_n=2)
    assert max(branches, key=abs) == pytest.approx(fit(0.0, "extremal"), rel=1e-3)

    branches = c6_branches(species, a, b, 1.0, max_delta_n=2)
    assert len(branches) == 2
    weakest = 2.0 * fit(1.0, "mean") - fit(1.0, "extremal")
    assert min(branches, key=abs) == pytest.approx(weakest, rel=2e-3)


# ---------------------------------------------------------------------------
# direct diagonalisation cross-checks

def _pair_hamiltonian_loop(species, pair, manifolds, d_um):
    """The pair Hamiltonian filled one manifold pair at a time: the oracle
    for the class-pair fill, which must give the same bits."""
    offsets, energies = [], []
    for pa, pb in manifolds:
        states = pair_m_states(pa.J, pb.J, pair.M)
        offsets.append((len(energies), len(states)))
        energies.extend([pair_energy(species, pa, pb)] * len(states))
    hamiltonian = np.diag(np.array(energies) - pair_energy(species, pair.a, pair.b))
    scale = C3_PREFACTOR_HZ_UM3 / d_um**3
    for i, (pa, pb) in enumerate(manifolds):
        off_i, len_i = offsets[i]
        for k in range(i + 1, len(manifolds)):
            pc, pd = manifolds[k]
            block = angular_block(pa, pb, pc, pd, pair.M)
            if not block.any():
                continue
            r1 = radial_matrix_element(species, pa, pc)
            r2 = radial_matrix_element(species, pb, pd)
            off_k, len_k = offsets[k]
            sub = scale * r1 * r2 * block
            hamiltonian[off_k : off_k + len_k, off_i : off_i + len_i] = sub
            hamiltonian[off_i : off_i + len_i, off_k : off_k + len_k] = sub.T
    return hamiltonian


@pytest.mark.parametrize(
    "a, b, M, max_delta_n",
    [
        (s_level(70), p_level(70, 0.5), 0.0, 2),
        (s_level(70), s_level(71), 1.0, 1),
        (s_level(60), s_level(60), 0.0, 1),
    ],
)
def test_pair_hamiltonian_matches_per_pair_loop(species, a, b, M, max_delta_n):
    pair = PairState(a, b, M)
    manifolds = _first_shell_manifolds(pair, max_delta_n)
    hamiltonian, _ = _pair_hamiltonian(species, pair, manifolds, 20.0)
    assert np.array_equal(hamiltonian, _pair_hamiltonian_loop(species, pair, manifolds, 20.0))


def test_shift_vanishes_at_large_separation(species):
    pair = PairState(s_level(70), s_level(71))
    assert abs(pair_hamiltonian_shift(species, pair, 1000.0)) < 1e-3


def test_shift_argument_validation(species):
    pair = PairState(s_level(70), s_level(71))
    with pytest.raises(ValueError):
        pair_hamiltonian_shift(species, pair, 0.0)
    with pytest.raises(ValueError):
        pair_hamiltonian_shift(species, pair, 10.0, branch="upper")


def test_shift_refuses_strong_mixing(species):
    pair = PairState(s_level(70), s_level(71))
    with pytest.raises(RydgateError):
        pair_hamiltonian_shift(species, pair, 1.0)


PAIR_SHIFT_GOLDEN = Path(__file__).parent / "data" / "golden" / "pair_shift.json"


def test_diagonalisation_route_reproduces_golden(species):
    """pair_hamiltonian_shift at pair_diag's separations and c6_branches,
    bitwise against stored repr floats; no command golden reaches them."""
    golden = json.loads(PAIR_SHIFT_GOLDEN.read_text())
    max_delta_n = golden["max_delta_n"]
    for case in golden["pair_hamiltonian_shift"]:
        pair = PairState(RydbergLevel(*case["a"]), RydbergLevel(*case["b"]))
        if pair.b.L == 0:  # pair_diag's c6 case: d = 2.5 r_b6 at 1 MHz
            c6 = c6_coefficient(species, pair.a, pair.b, max_delta_n=max_delta_n).c6_ghz_um6
            assert repr(2.5 * (abs(c6) * 1e9 / 1e6) ** (1.0 / 6.0)) == case["d_um"]
        d_um = float(case["d_um"])
        shift = pair_hamiltonian_shift(species, pair, d_um, max_delta_n=max_delta_n)
        assert repr(shift) == case["shift_hz"], pair.label
    for case in golden["c6_branches"]:
        a, b = RydbergLevel(*case["a"]), RydbergLevel(*case["b"])
        branches = c6_branches(species, a, b, case["M"], max_delta_n=max_delta_n)
        assert [repr(x) for x in branches] == case["c6_ghz_um6"], case["M"]


def test_c3_against_diagonalisation_n50(species):
    """|shift| * d^3 from the full pair Hamiltonian reproduces C3."""
    a, b = s_level(50), p_level(50, 0.5)
    c3 = c3_coefficient(species, a, b)
    pair = PairState(a, b)
    fits = []
    for d in (15.0, 30.0):
        shift = pair_hamiltonian_shift(species, pair, d)
        fits.append(abs(shift) * d**3 * 1e-9)
    for fit in fits:
        assert fit == pytest.approx(c3, rel=0.05)
    # the product is nearly d-independent, the signature of a 1/d^3 law
    assert fits[0] == pytest.approx(fits[1], rel=0.02)


def test_c3_against_diagonalisation_n70(species):
    a, b = s_level(70), p_level(70, 0.5)
    c3 = c3_coefficient(species, a, b)
    shift = pair_hamiltonian_shift(species, PairState(a, b), 20.0)
    assert abs(shift) * 20.0**3 * 1e-9 == pytest.approx(c3, rel=0.05)
