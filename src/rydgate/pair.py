"""Pair interaction coefficients from dipole-dipole channel sums.

Sign conventions, fixed here once:

* A channel's Forster defect is ``E_final - E_initial`` in Hz.
* ``C6 > 0`` means the pair energy shifts upward (repulsive van der
  Waals); the second-order sum is ``sum_ch c3_ch^2 / (E_i - E_f)``.
* ``c3_coefficient`` returns the magnitude of the resonant-exchange
  coefficient; the physical pair manifold splits as ``+/- C3 / d^3``.

Dipole-coupled pairs (resonant exchange, 1/d^3) and van der Waals pairs
(1/d^6) are both covered; ``c6_coefficient`` gives the manifold mean of
the van der Waals shift and ``c6_branches`` its eigen-shifts. Both refuse
a channel whose defect is below ``RESONANCE_THRESHOLD_HZ``, where the
second-order sum is meaningless. A channel sum reads one grid over
(final of a, final of b) as arrays: each atom's finals, each (L, J) class
pair's angular factor and each level's energy are formed once, and the
radial integrals come in one request. Channel objects are formed only
where channels are read, and ``InteractionCoefficients.channels`` on first
read. ``pair_hamiltonian_shift`` diagonalises the pair Hamiltonian on the
first shell of dipole-connected states and is the independent cross-check
for all of them.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .angular import angular_block, angular_factor, exchange_singular_value, pair_m_states
from .constants import C3_PREFACTOR_HZ_UM3, DEFAULT_MAX_DELTA_N, MAX_L, check_domain
from .constants import RESONANCE_THRESHOLD_HZ
from .errors import ResonanceError, RydgateError
from .levels import RydbergLevel, valid_j
from .qdt import level_energy, radial_matrix_element, radial_matrix_elements
from .species import AtomSpecies

__all__ = [
    "PairState",
    "ForsterChannel",
    "InteractionCoefficients",
    "pair_energy",
    "c3_coefficient",
    "forster_channels",
    "c6_coefficient",
    "c6_branches",
    "pair_hamiltonian_shift",
    "DEFAULT_MAX_DELTA_N",
    "MAX_L",
    "RESONANCE_THRESHOLD_HZ",
]


@dataclasses.dataclass(frozen=True)
class PairState:
    """Two-atom state |a b> at fixed total projection M along the pair axis."""

    a: RydbergLevel
    b: RydbergLevel
    M: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.M) > self.a.J + self.b.J:
            raise ValueError(
                f"|M| = {abs(self.M)} exceeds J_a + J_b = {self.a.J + self.b.J}"
            )
        if not pair_m_states(self.a.J, self.b.J, self.M):
            raise ValueError(f"no (m_a, m_b) combination reaches M = {self.M}")

    @property
    def label(self) -> str:
        return f"({self.a.label}, {self.b.label})"


@dataclasses.dataclass(frozen=True)
class ForsterChannel:
    """One two-atom dipole channel out of a pair state, at that state's M.

    ``coupling_ghz_um3`` is the signed product K3 * R1 * R2 * A_rms; its
    square divided by ``E_i - E_f`` (in GHz) gives ``contribution_ghz_um6``,
    the channel's additive part of C6.
    """

    final: PairState
    defect_hz: float
    coupling_ghz_um3: float
    contribution_ghz_um6: float


@dataclasses.dataclass(frozen=True)
class InteractionCoefficients:
    """C6 of ``pair``, and its channels, strongest first, formed on first read."""

    c6_ghz_um6: float
    pair: PairState
    arrays: tuple = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def channels(self) -> tuple[ForsterChannel, ...]:
        return _channel_objects(self.pair, *self.arrays)


def pair_energy(species: AtomSpecies, level_a: RydbergLevel, level_b: RydbergLevel) -> float:
    """Unperturbed two-atom energy in Hz."""
    return level_energy(species, level_a) + level_energy(species, level_b)


def c3_coefficient(
    species: AtomSpecies,
    level_a: RydbergLevel,
    level_b: RydbergLevel,
    M: float = 0.0,
) -> float:
    """Resonant exchange coefficient |C3| in GHz um^3 for the pair (a, b).

    The degenerate manifold {|ab>, |ba>} splits into branches at
    +/- C3 / d^3 with C3 = K3 R_ab^2 sigma_max, sigma_max the extremal
    singular value of the exchange block at the given M. Raises ValueError
    for an M no pair state reaches, RydgateError if not dipole-coupled.
    """
    PairState(level_a, level_b, M)
    sigma = exchange_singular_value(level_a, level_b, M)
    if sigma == 0.0:
        raise RydgateError(
            f"levels {level_a.label} and {level_b.label} are not dipole-coupled "
            "(need Delta L = +/-1 on both atoms); no resonant exchange interaction"
        )
    radial = radial_matrix_element(species, level_a, level_b)
    return C3_PREFACTOR_HZ_UM3 * 1e-9 * radial * radial * sigma


def _dipole_finals(level: RydbergLevel, max_delta_n: int) -> list[RydbergLevel]:
    """Levels dipole-reachable from ``level`` within the n and L (``MAX_L``) truncation."""
    return [
        RydbergLevel(n_f, l_f, j_f)
        for l_f in (level.L - 1, level.L + 1)
        if 0 <= l_f <= MAX_L
        for n_f in range(max(level.n - max_delta_n, l_f + 1), level.n + max_delta_n + 1)
        for j_f in (l_f - 0.5, l_f + 0.5)
        if valid_j(l_f, j_f)
    ]


def _orderings(
    a: RydbergLevel, b: RydbergLevel
) -> list[tuple[RydbergLevel, RydbergLevel]]:
    """Level orderings of the initial manifold: |a b>, and |b a> for distinct levels."""
    return [(a, b)] if a == b else [(a, b), (b, a)]


def _channel_grid(
    a: RydbergLevel, b: RydbergLevel, M: float, max_delta_n: int
) -> tuple[tuple[list[RydbergLevel], list[RydbergLevel]], np.ndarray]:
    """Each atom's dipole finals out of |a b>, and the angular factor of every
    (final of a, final of b), zero for a closed channel, as a 2-D array.

    The factor depends only on the (L, J) classes of the two finals, so each
    class pair forms it once. Row-major order is final-of-a-major order.
    """
    finals = (_dipole_finals(a, max_delta_n), _dipole_finals(b, max_delta_n))
    ca, cb = ({(f.L, f.J): f for f in fs} for fs in finals)  # (L, J) -> a final of it
    index = [[list(c).index((f.L, f.J)) for f in fs] for c, fs in zip((ca, cb), finals)]
    table = [[angular_factor(a, b, fa, fb, M) for fb in cb.values()] for fa in ca.values()]
    return finals, np.array(table).reshape(len(ca), len(cb))[np.ix_(*index)]


def _channel_key(channel: ForsterChannel) -> tuple:
    fa, fb = channel.final.a, channel.final.b
    return (fa.n, fa.L, fa.J, fb.n, fb.L, fb.J)


def _channels(species: AtomSpecies, pair: PairState, max_delta_n: int) -> tuple:
    """The channels out of ``pair`` in ``_channel_key`` order: each atom's finals,
    each channel's final of a and of b (indices), and arrays of K3 * R1 * R2 and the
    coupling (GHz um^3), the defect (Hz) and the contribution (GHz um^6)."""
    check_domain("max_delta_n", max_delta_n)
    finals, factor = _channel_grid(pair.a, pair.b, pair.M, max_delta_n)
    # Each atom's finals in (n, L, J) order: row-major order is then _channel_key order.
    order = [sorted(range(len(fs)), key=fs.__getitem__) for fs in finals]
    finals = tuple([fs[p] for p in o] for fs, o in zip(finals, order))
    factor = factor[np.ix_(*order)]
    atoms = list(zip((pair.a, pair.b), finals))
    levels = dict.fromkeys([pair.a, pair.b, *finals[0], *finals[1]])
    energy = {lv: level_energy(species, lv) for lv in levels}
    keys = list(dict.fromkeys((initial, f) for initial, fs in atoms for f in fs))
    radial = dict(zip(keys, radial_matrix_elements(species, keys)))
    r_a, r_b = (np.array([radial[initial, f] for f in fs]) for initial, fs in atoms)
    e_a, e_b = (np.array([energy[f] for f in fs]) for fs in finals)
    product = C3_PREFACTOR_HZ_UM3 * 1e-9 * r_a[:, None] * r_b
    coupling = product * factor
    i, k = np.nonzero(coupling)
    coupling = coupling[i, k]
    defect = e_a[i] + e_b[k] - (energy[pair.a] + energy[pair.b])
    with np.errstate(divide="ignore"):  # an exact degeneracy ranks first, as +inf
        contribution = np.where(defect != 0.0, coupling * coupling / (-defect * 1e-9), np.inf)
    return finals, i, k, product[i, k], defect, coupling, contribution


def _channel_objects(pair: PairState, finals, i, k, _, *values) -> tuple[ForsterChannel, ...]:
    """The ``_channels`` of ``pair`` as objects, strongest first."""
    rows = zip(i.tolist(), k.tolist(), *(v.tolist() for v in values))
    channels = [
        ForsterChannel(PairState(finals[0][p], finals[1][q], pair.M), *v) for p, q, *v in rows
    ]
    channels.sort(key=lambda ch: (-abs(ch.contribution_ghz_um6), _channel_key(ch)))
    return tuple(channels)


def forster_channels(
    species: AtomSpecies,
    pair: PairState,
    max_delta_n: int = DEFAULT_MAX_DELTA_N,
) -> tuple[ForsterChannel, ...]:
    """Enumerate two-atom dipole channels out of ``pair``, strongest first.

    Channels are ranked by |contribution| = coupling^2 / |defect|; exact
    degeneracies rank first. Zero-coupling combinations are dropped.
    """
    return _channel_objects(pair, *_channels(species, pair, max_delta_n))


def c6_coefficient(
    species: AtomSpecies,
    level_a: RydbergLevel,
    level_b: RydbergLevel,
    M: float = 0.0,
    *,
    max_delta_n: int = DEFAULT_MAX_DELTA_N,
) -> InteractionCoefficients:
    """Van der Waals coefficient from the second-order channel sum.

    C6 = sum over channels of c3_ch^2 / (E_i - E_f), in GHz um^6, averaged
    over the degenerate initial manifold at the given M (RMS angular
    factors). That average is the trace of the second-order effective
    Hamiltonian over the manifold, not an eigen-shift: when the manifold
    splits, as (70S, 71S) does by a factor of 11, no pair state is
    shifted by this value. ``c6_branches`` returns the split shifts.
    Raises ResonanceError when any channel defect falls below
    ``RESONANCE_THRESHOLD_HZ``, where the perturbative sum is meaningless.
    """
    pair = PairState(level_a, level_b, M)
    arrays = _channels(species, pair, max_delta_n)
    *_, defect, _, contribution = arrays
    if (np.abs(defect) < RESONANCE_THRESHOLD_HZ).any():
        channels = _channel_objects(pair, *arrays)
        worst = next(ch for ch in channels if abs(ch.defect_hz) < RESONANCE_THRESHOLD_HZ)
        raise ResonanceError(
            f"pair {pair.label} has a near-degenerate channel {worst.final.label} "
            f"with defect {worst.defect_hz / 1e6:.3f} MHz; second-order sum is invalid",
            channel=worst,
        )
    total = 0.0
    for x in contribution.tolist():  # in _channel_key order
        total += x
    return InteractionCoefficients(total, pair, arrays)


def c6_branches(
    species: AtomSpecies,
    level_a: RydbergLevel,
    level_b: RydbergLevel,
    M: float = 0.0,
    *,
    max_delta_n: int = DEFAULT_MAX_DELTA_N,
) -> tuple[float, ...]:
    """Van der Waals eigen-shifts of the initial pair manifold, GHz um^6.

    The manifold is every m-combination at the given M of |a b> and, for
    distinct levels, of |b a>. Second-order degenerate perturbation theory
    gives it the effective Hamiltonian

        H_eff = sum_f V|f><f|V / (E_i - E_f)    (times 1/d^6)

    over the channels of ``c6_coefficient``, each coupling its radial product
    times its class pair's angular block; each ordering couples only to its
    own truncated finals, and a final reached by both orderings couples them.
    Returns the eigenvalues of H_eff in ascending order. Their mean is the
    ``c6_coefficient`` value; the branches themselves are the C6 of the
    pair eigenstates (Walker & Saffman, PRA 77, 032723 (2008)). Raises
    ResonanceError under the same guard as ``c6_coefficient``.
    """
    orderings = _orderings(level_a, level_b)
    starts = [0]
    for a, b in orderings:
        starts.append(starts[-1] + len(pair_m_states(a.J, b.J, M)))
    dim = starts[-1]

    # final pair -> (defect in GHz, coupling rows x initial basis in GHz um^3)
    finals: dict[tuple, tuple[float, np.ndarray]] = {}
    for (a, b), start, stop in zip(orderings, starts, starts[1:]):
        coeffs = c6_coefficient(species, a, b, M, max_delta_n=max_delta_n)
        (finals_a, finals_b), i, k, radial, defect, *_ = coeffs.arrays
        blocks = {}  # (L, J) class pair -> angular block
        for p, q, r, e in zip(i.tolist(), k.tolist(), radial.tolist(), defect.tolist()):
            fa, fb = finals_a[p], finals_b[q]
            cls = (fa.L, fa.J, fb.L, fb.J)
            if cls not in blocks:
                blocks[cls] = angular_block(a, b, fa, fb, M)
            if (fa, fb) not in finals:
                finals[fa, fb] = (e * 1e-9, np.zeros((blocks[cls].shape[0], dim)))
            finals[fa, fb][1][:, start:stop] = r * blocks[cls]

    h_eff = np.zeros((dim, dim))
    for key in sorted(finals):  # (final of a, final of b): _channel_key order
        defect, coupling = finals[key]
        h_eff += coupling.T @ coupling / -defect
    return tuple(float(x) for x in np.linalg.eigvalsh(h_eff))


def _first_shell_manifolds(
    pair: PairState, max_delta_n: int
) -> list[tuple[RydbergLevel, RydbergLevel]]:
    """Initial pair manifold(s) plus every dipole-connected pair, in first-seen order.

    The order is part of the result: eigh on a permuted basis differs in the last bits.
    """
    initial = _orderings(pair.a, pair.b)
    finals = []
    for a, b in initial:
        (finals_a, finals_b), factor = _channel_grid(a, b, pair.M, max_delta_n)
        finals += [(finals_a[p], finals_b[q]) for p, q in zip(*np.nonzero(factor))]
    return list(dict.fromkeys(initial + finals))


def _pair_hamiltonian(
    species: AtomSpecies,
    pair: PairState,
    manifolds: list[tuple[RydbergLevel, RydbergLevel]],
    d_um: float,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Pair Hamiltonian in Hz relative to the initial pair energy.

    The basis is every m-combination at ``pair.M`` of each manifold in
    turn; returns the matrix and each manifold's (offset, length).
    """
    # Flatten to m-resolved basis states; record each manifold's slice.
    offsets = []
    energies = []
    e_initial = pair_energy(species, pair.a, pair.b)
    for pa, pb in manifolds:
        states = pair_m_states(pa.J, pb.J, pair.M)
        offsets.append((len(energies), len(states)))
        energies.extend([pair_energy(species, pa, pb)] * len(states))
    hamiltonian = np.diag(np.array(energies) - e_initial)

    # V_dd couplings. A block depends only on the angular class (L, J per
    # atom) of its two manifolds, so each class pair builds it once and
    # writes all of its manifold pairs with one gather. The radial
    # integrals of every coupled level pair come from one request first.
    # The lower-index manifold is the source and every element is formed
    # as scale * r1 * r2 * block.
    classes: dict[tuple, list[int]] = {}
    for idx, (pa, pb) in enumerate(manifolds):
        classes.setdefault((pa.L, pa.J, pb.L, pb.J), []).append(idx)
    level_index: dict[RydbergLevel, int] = {}
    atoms = np.array(
        [[level_index.setdefault(lv, len(level_index)) for lv in m] for m in manifolds]
    )
    blocks = []
    for src in classes.values():
        for dst in classes.values():
            i, k = np.meshgrid(src, dst, indexing="ij")
            below = i < k
            if not below.any():
                continue
            pa, pb = manifolds[src[0]]
            pc, pd = manifolds[dst[0]]
            block = angular_block(pa, pb, pc, pd, pair.M)
            if block.any():
                blocks.append((block, i[below], k[below]))

    levels = list(level_index)
    radial = np.zeros((len(levels), len(levels)))
    if blocks:
        # Each unordered level pair once, in first-seen order.
        p, q = np.concatenate(
            [[atoms[i, atom], atoms[k, atom]] for _, i, k in blocks for atom in (0, 1)], axis=1
        )
        p, q = np.minimum(p, q), np.maximum(p, q)
        first = np.sort(np.unique(p * len(levels) + q, return_index=True)[1])
        p, q = p[first], q[first]
        radial[p, q] = radial[q, p] = radial_matrix_elements(
            species, [(levels[a], levels[b]) for a, b in zip(p.tolist(), q.tolist())]
        )

    starts = np.array([off for off, _ in offsets])
    scale = C3_PREFACTOR_HZ_UM3 / d_um**3
    for block, i, k in blocks:
        r1 = radial[atoms[i, 0], atoms[k, 0]]
        r2 = radial[atoms[i, 1], atoms[k, 1]]
        sub = (scale * r1 * r2)[:, None, None] * block
        rows = starts[k][:, None] + np.arange(block.shape[0])
        cols = starts[i][:, None] + np.arange(block.shape[1])
        hamiltonian[rows[:, :, None], cols[:, None, :]] = sub
        hamiltonian[cols[:, :, None], rows[:, None, :]] = sub.transpose(0, 2, 1)
    return hamiltonian, offsets


def pair_hamiltonian_shift(
    species: AtomSpecies,
    pair: PairState,
    d_um: float,
    *,
    branch: str = "auto",
    max_delta_n: int = DEFAULT_MAX_DELTA_N,
) -> float:
    """Interaction shift in Hz at separation d from direct diagonalisation.

    Builds the two-atom Hamiltonian on the first shell of dipole-connected
    pair states at the pair's M (same truncation as the channel sum, so
    the two routes are comparable at matched basis) and diagonalises it.
    The returned shift belongs to the eigenspace adiabatically connected
    to the non-interacting pair manifold, identified by overlap.

    branch="mean" averages the shifts of that eigenspace (weights = squared
    overlap with the initial manifold). For a van der Waals pair this is
    the degeneracy-averaged second-order result through O(V^2): the
    splitting of the manifold into ``c6_branches`` cancels in the mean,
    exactly as it cancels in the direct channel sum. Agreement of this
    branch with ``c6_coefficient`` therefore confirms only that mean, not
    the shift of any pair state. branch="extremal" returns the shift of
    largest magnitude among eigenstates dominated by the initial manifold
    (single-state overlap >= 0.5), matching the +/- C3/d^3 branch a
    distance fit resolves for dipole-coupled pairs and the strongest of
    ``c6_branches`` for van der Waals pairs. branch="auto" picks
    "extremal" when the pair is exchange-resonant, else "mean".
    """
    check_domain("d_um", d_um)
    if branch not in ("auto", "mean", "extremal"):
        raise ValueError(f"unknown branch {branch!r}")
    if branch == "auto":
        resonant = exchange_singular_value(pair.a, pair.b, pair.M) != 0.0
        branch = "extremal" if resonant else "mean"

    manifolds = _first_shell_manifolds(pair, max_delta_n)
    n_initial = len(_orderings(pair.a, pair.b))

    hamiltonian, offsets = _pair_hamiltonian(species, pair, manifolds, d_um)
    dim = len(hamiltonian)
    eigvals, eigvecs = np.linalg.eigh(hamiltonian)

    init_dim = sum(offsets[i][1] for i in range(n_initial))
    weights = np.zeros(dim)
    for i in range(n_initial):
        off, length = offsets[i]
        weights += np.sum(eigvecs[off : off + length, :] ** 2, axis=0)

    if branch == "mean":
        # The init_dim eigenstates carrying the most initial-manifold
        # character form the adiabatic continuation of the free manifold.
        top = np.argsort(weights)[::-1][:init_dim]
        coverage = float(np.sum(weights[top])) / init_dim
        if coverage < 0.5:
            raise RydgateError(
                f"initial-manifold weight {coverage:.3f} at d = {d_um} um is "
                f"spread across the basis for {pair.label}; level mixing is too "
                "strong for a perturbative branch (reduce interaction or note "
                "a resonance)"
            )
        return float(np.dot(weights[top], eigvals[top]) / np.sum(weights[top]))

    candidates = np.flatnonzero(weights >= 0.5)
    if candidates.size == 0:
        raise RydgateError(
            f"no eigenstate at d = {d_um} um retains >= 0.5 overlap with the "
            f"{pair.label} manifold; basis mixing is too strong for a branch "
            "assignment"
        )
    extremal = candidates[np.argmax(np.abs(eigvals[candidates]))]
    return float(eigvals[extremal])
