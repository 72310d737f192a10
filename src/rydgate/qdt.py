"""Quantum defect theory: level energies, radial wavefunctions, lifetimes.

Level energies are ordinary frequencies in Hz measured from the ionization
limit, E(n, L, J) = -Ry_species / n*^2 with the Rydberg-Ritz defect
delta(n) = delta0 + delta2 / (n - delta0)^2.

Radial wavefunctions solve the Coulomb radial equation at the quantum-defect
energy by inward Numerov integration on a square-root-scaled grid (uniform in
sqrt(r)). With x = sqrt(r) and u(r) = x^(1/2) w(x), the radial equation
u'' = Q(r) u becomes w'' = G(x) w with

    G(x) = -8 + 4 x^2 / n*^2 + (4 L (L+1) + 3/4) / x^2

in atomic units, which Numerov integrates with uniform step in x. The grid
runs from r_outer = 2 n* (n* + 15) a0 down to an inner cutoff at the larger
of the core radius a0 n*^(1/3) and the classical inner turning point. Levels
with zero quantum defect have no core region to excise, so their cutoff
drops to max(1e-3 a0, 0.05 x inner turning point); a divergence guard raises
if an inward solution grows back in the classically forbidden region.
Every grid has ``GRID_POINTS`` samples, read at call time; the caches key on
it, so a changed value never reads a value solved at another.

Solves run in vectorised passes, one row per (level, grid), and each row is
bitwise the scalar recurrence. ``radial_matrix_elements`` solves all the
uncached elements of one request together, each level once per distinct
grid; a single element or wavefunction is a request of one.
"""

from __future__ import annotations

import collections
import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .constants import ALPHA_FS, HBAR, K_BOLTZMANN, check_domain
from .errors import NumericsError, RydgateError
from .levels import RydbergLevel
from .species import AtomSpecies

__all__ = [
    "GRID_POINTS",
    "RadialSolution",
    "effective_quantum_number",
    "level_energy",
    "radial_wavefunction",
    "radial_matrix_element",
    "radial_matrix_elements",
    "lifetime",
]


def effective_quantum_number(species: AtomSpecies, level: RydbergLevel) -> float:
    """n* = n - delta(n) for the level's (L, J) series."""
    delta0, delta2 = species.defect_coefficients(level.L, level.J)
    if level.n - delta0 <= 0.0:
        raise RydgateError(
            f"{level}: n is below the validity of the {species.name} defect table"
        )
    delta = delta0 + delta2 / (level.n - delta0) ** 2
    n_star = level.n - delta
    if n_star <= 0.0:
        raise RydgateError(f"{level}: effective quantum number {n_star} <= 0")
    return n_star


def level_energy(species: AtomSpecies, level: RydbergLevel) -> float:
    """Level energy in Hz, negative, measured from the ionization limit."""
    n_star = effective_quantum_number(species, level)
    return -species.rydberg_constant / n_star**2


# Samples per sqrt-scaled radial grid.
GRID_POINTS = 2000


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy's composite Simpson rule along the last axis. scipy is imported
    here, at the first radial integral, not with the package: it is most of
    the import time, and commands that never integrate do not need it."""
    from scipy.integrate import simpson

    return simpson(y, x=x)


@dataclass(frozen=True)
class RadialSolution:
    """Normalised radial solution u(r) = r R(r) on its grid.

    r is in Bohr radii; integral of u^2 dr equals 1 within norm_error.
    The outermost lobe of u is positive.
    """

    level: RydbergLevel
    n_star: float
    r: np.ndarray
    u: np.ndarray
    nodes: int
    norm_error: float

    def expectation_r(self) -> float:
        """<r> in Bohr radii."""
        x = np.sqrt(self.r)
        return float(_simpson(2.0 * x**3 * self.u**2, x))


def _inner_cutoff(n_star: float, L: int, has_core: bool) -> float:
    # Classical inner turning point of the Coulomb orbit at E = -1/(2 n*^2).
    disc = n_star * n_star - L * (L + 1)
    r_turn = n_star * (n_star - math.sqrt(disc)) if disc > 0.0 else n_star * n_star
    if has_core:
        return max(n_star ** (1.0 / 3.0), r_turn)
    return max(1e-3, 0.05 * r_turn)


def _grid_bounds(species: AtomSpecies, level: RydbergLevel) -> tuple[float, float, float]:
    """(n*, r_in, r_out) of the level's own radial grid, in Bohr radii."""
    n_star = effective_quantum_number(species, level)
    delta0, _ = species.defect_coefficients(level.L, level.J)
    r_in = _inner_cutoff(n_star, level.L, has_core=delta0 != 0.0)
    return n_star, r_in, 2.0 * n_star * (n_star + 15.0)


# Solves per Numerov pass: wide enough to spread the per-step numpy calls
# over many levels, narrow enough that a pass's temporaries (about ten
# arrays of rows x grid points) stay a few megabytes.
_PASS_ROWS = 32
# Inward steps taken between two checks for the 1e250 rescale.
_RESCALE_STRIDE = 64


def _numerov_inward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Integrate w'' = g w inward along each row of x, seeded at the tail.

    Each row of x is a uniform grid and the same row of g its G(x). Row by
    row, the result is bitwise that of the scalar recurrence
    w_{k-1} f_{k-1} = (12 - 10 f_k) w_k - f_{k+1} w_{k+1}, which divides the
    whole row by 1e250 at the first step whose value exceeds that. Here the
    steps run in strides without that test; a stride in which some row went
    past it is taken back to the first such step, and those rows rescaled.
    """
    # Per row, as a one-level solve has it: a numpy-scalar square can differ
    # in the last bit from the array square.
    h2 = np.array([(row[1] - row[0]) ** 2 for row in x])
    # Grid points along axis 0, so each step reads and writes contiguous
    # rows. In-place steps keep the pass to a few arrays of its size.
    f = np.multiply(g.T, h2 / 12.0, order="C")
    np.subtract(1.0, f, out=f)
    a = np.multiply(f, 10.0)
    np.subtract(12.0, a, out=a)
    w = np.zeros_like(f)
    w[-2] = 1e-12
    f_at, a_at, w_at = list(f), list(a), list(w)
    tmp = np.empty(len(x))
    k = len(f) - 2
    with np.errstate(over="ignore", invalid="ignore"):
        while k > 0:
            stop = max(k - _RESCALE_STRIDE, 0)
            for j in range(k, stop, -1):
                out = w_at[j - 1]
                np.multiply(a_at[j], w_at[j], out)
                np.multiply(f_at[j + 1], w_at[j + 1], tmp)
                np.subtract(out, tmp, out)
                np.divide(out, f_at[j - 1], out)
            big = np.abs(w[stop:k]) > 1e250
            steps = np.flatnonzero(big.any(axis=1))
            if steps.size:
                stop += steps[-1]
                w[stop:, big[steps[-1]]] /= 1e250
            k = stop
    del f, a, f_at, a_at, w_at  # freed before the transposed copy is made
    return np.ascontiguousarray(w.T)


def _solve_on_grid(n_star: list[float], L: list[int], x: np.ndarray) -> np.ndarray:
    """u unnormalised, one row per level: energy -1/(2 n*^2) and orbital
    momentum L on the sqrt-grid row of x."""
    # Python-float constants per row, as a one-level solve has them.
    n2 = np.array([[v**2] for v in n_star])
    c = np.array([[4.0 * l * (l + 1) + 0.75] for l in L])
    # g = -8 + 4 x^2 / n*^2 + c / x^2, in place.
    x2 = x * x
    g = np.multiply(x2, 4.0)
    g /= n2
    g += -8.0
    g += np.divide(c, x2, out=x2)
    del x2
    u = _numerov_inward(x, g)
    del g
    u *= np.sqrt(x)
    return u


def _check_divergence(
    level: RydbergLevel, n_star: float, r: np.ndarray, u: np.ndarray
) -> None:
    """Raise if the inward solution grew back inside the forbidden region."""
    disc = n_star * n_star - level.L * (level.L + 1)
    if disc <= 0.0:
        return
    r_turn = n_star * (n_star - math.sqrt(disc))
    inside = r < 0.98 * r_turn
    if np.count_nonzero(inside) < 8:
        return
    mag = np.abs(u[inside])
    i_min = int(np.argmin(mag))
    floor = mag[i_min]
    peak = float(np.max(np.abs(u)))
    if mag[0] > 50.0 * max(floor, 1e-290) and mag[0] > 1e-6 * peak and i_min > 0:
        raise NumericsError(
            f"{level}: inward solution diverges below the inner turning point "
            f"(|u| grows from {floor:.3e} to {mag[0]:.3e} inside r < {r_turn:.2f} a0); "
            "raise the inner cutoff or reduce L"
        )


def _count_nodes(u: np.ndarray) -> int:
    floor = 1e-9 * float(np.max(np.abs(u)))
    sig = u[np.abs(u) > floor]
    if sig.size < 2:
        return 0
    return int(np.count_nonzero(np.signbit(sig[1:]) != np.signbit(sig[:-1])))


def _normalised_solutions(
    levels: list[RydbergLevel], n_stars: list[float], xs: list[np.ndarray]
) -> np.ndarray:
    """u for each level on its sqrt-grid xs[i], one row each, divergence-guarded
    and normalised to unit norm; raises for the first bad level in list order."""
    u = np.empty((len(xs), len(xs[0])))
    for lo in range(0, len(xs), _PASS_ROWS):
        hi = lo + _PASS_ROWS
        x = np.stack(xs[lo:hi])
        w = _solve_on_grid(n_stars[lo:hi], [lv.L for lv in levels[lo:hi]], x)
        norm2 = _simpson(2.0 * x * w * w, x)
        for level, n_star, x_row, w_row, n2 in zip(
            levels[lo:hi], n_stars[lo:hi], x, w, norm2.tolist()
        ):
            _check_divergence(level, n_star, x_row * x_row, w_row)
            if n2 <= 0.0 or not math.isfinite(n2):
                raise NumericsError(f"{level}: non-finite norm in radial solution")
        np.divide(w, np.sqrt(norm2)[:, None], out=u[lo:hi])
    return u


@functools.lru_cache(maxsize=4096)
def _radial_solution_cached(
    species: AtomSpecies, level: RydbergLevel, points: int
) -> RadialSolution:
    n_star, r_in, r_out = _grid_bounds(species, level)
    if r_in >= r_out:
        raise NumericsError(f"{level}: inner cutoff {r_in} exceeds outer {r_out}")
    x = np.linspace(math.sqrt(r_in), math.sqrt(r_out), points)
    u = _normalised_solutions([level], [n_star], [x])[0]

    coarse = float(_simpson(2.0 * x[::2] * u[::2] ** 2, x[::2]))
    norm_error = abs(coarse - 1.0)

    r = x * x
    u.setflags(write=False)
    r.setflags(write=False)
    return RadialSolution(
        level=level,
        n_star=n_star,
        r=r,
        u=u,
        nodes=_count_nodes(u),
        norm_error=norm_error,
    )


def radial_wavefunction(species: AtomSpecies, level: RydbergLevel) -> RadialSolution:
    """Normalised u(r) for one level on its sqrt-scaled grid."""
    return _radial_solution_cached(species, level, GRID_POINTS)


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")
# Matrix elements, one plain table per (species, grid points), keyed by level
# pairs as (n, L, J, n, L, J) tuples, which hash far faster than the level and
# species records. Unbounded: each entry is one float, and the largest
# command (forster over n = 30..100) holds 2,448 of them.
_element_tables: dict[tuple, dict[tuple, float]] = {}
_element_counts = collections.Counter()


def _element_cache_clear() -> None:
    _element_tables.clear()
    _element_counts.clear()


# lru_cache's accounting for the tables; not a class, since perfbench finds
# caches as module values with a callable ``cache_clear``.
_matrix_element_cached = types.SimpleNamespace(
    cache_info=lambda: _CacheInfo(
        _element_counts["hits"],
        _element_counts["misses"],
        None,
        sum(len(table) for table in _element_tables.values()),
    ),
    cache_clear=_element_cache_clear,
)


def _solve_elements(
    species: AtomSpecies, pairs: list[tuple[RydbergLevel, RydbergLevel]], points: int
) -> list[float]:
    """<a| r |b> for distinct level pairs, each solved on the pair's shared grid.

    Each level is solved once per distinct grid, all of them together.
    """
    grids: dict[tuple[float, float], int] = {}  # (r_in, r_out) -> index into xs
    rows: dict[tuple[RydbergLevel, int], int] = {}  # (level, grid) -> solve row
    xs, levels, n_stars, row_grids, plan = [], [], [], [], []
    for level_a, level_b in pairs:
        na, in_a, out_a = _grid_bounds(species, level_a)
        nb, in_b, out_b = _grid_bounds(species, level_b)
        # Shared grid: the wider outer range and the safer (larger) inner cutoff.
        r_in, r_out = max(in_a, in_b), max(out_a, out_b)
        gi = grids.setdefault((r_in, r_out), len(grids))
        if gi == len(xs):
            xs.append(np.linspace(math.sqrt(r_in), math.sqrt(r_out), points))
        for level, n_star in ((level_a, na), (level_b, nb)):
            if rows.setdefault((level, gi), len(rows)) == len(levels):
                levels.append(level)
                n_stars.append(n_star)
                row_grids.append(gi)
        plan.append((gi, rows[level_a, gi], rows[level_b, gi]))
    u = _normalised_solutions(levels, n_stars, [xs[gi] for gi in row_grids])
    values = []
    for lo in range(0, len(plan), _PASS_ROWS):
        gis, ia, ib = (list(col) for col in zip(*plan[lo : lo + _PASS_ROWS]))
        x = np.stack([xs[gi] for gi in gis])
        y = x**3
        y *= 2.0
        y *= u[ia]
        y *= u[ib]
        values += _simpson(y, x).tolist()
    return values


def radial_matrix_elements(
    species: AtomSpecies, pairs: list[tuple[RydbergLevel, RydbergLevel]]
) -> list[float]:
    """<a| r |b> in Bohr radii for each (a, b) in pairs, in one request.

    Each element is ``radial_matrix_element(species, a, b)``; the uncached
    ones are solved together, each level once per distinct grid.
    """
    keys = []
    for level_a, level_b in pairs:
        if abs(level_a.L - level_b.L) != 1:
            raise RydgateError(
                f"dipole matrix element needs |delta L| = 1, "
                f"got {level_a.label} and {level_b.label}"
            )
        # The lower level first, as RydbergLevel orders them.
        a, b = (level_a.n, level_a.L, level_a.J), (level_b.n, level_b.L, level_b.J)
        keys.append(b + a if b < a else a + b)
    table = _element_tables.setdefault((species, GRID_POINTS), {})
    # Counted as lru_cache counts the keys looked up one by one: a repeat of
    # a missing key is a hit.
    missing = dict.fromkeys(key for key in keys if key not in table)
    _element_counts["misses"] += len(missing)
    _element_counts["hits"] += len(keys) - len(missing)
    if missing:
        levels = [(RydbergLevel(*key[:3]), RydbergLevel(*key[3:])) for key in missing]
        table.update(zip(missing, _solve_elements(species, levels, GRID_POINTS)))
    return [table[key] for key in keys]


def radial_matrix_element(
    species: AtomSpecies, level_a: RydbergLevel, level_b: RydbergLevel
) -> float:
    """<a| r |b> in Bohr radii, both levels solved on one shared grid.

    Dipole selection rule |L_a - L_b| = 1 is enforced here. Symmetric in
    its level arguments; the magnitude is what enters interaction
    coefficients.
    """
    return radial_matrix_elements(species, [(level_a, level_b)])[0]


def lifetime(species: AtomSpecies, level: RydbergLevel, temperature: float) -> float:
    """Total decay rate Gamma in 1/s at the given radiation temperature.

    Gamma = Gamma_rad + Gamma_bbr. The radiative part uses the species'
    fitted scaling 1 / (tau_s n*^alpha); the blackbody part uses the
    universal quadratic-in-1/n* form 4 alpha_fs^3 k_B T / (3 hbar n*^2),
    valid when k_B T far exceeds the neighbouring transition energies
    (room temperature at high n). temperature = 0 returns the purely
    radiative rate.
    """
    check_domain("radiation_temp", temperature, "radiation temperature")
    n_star = effective_quantum_number(species, level)
    tau_s_ns, alpha = species.lifetime_scaling(level.L)
    gamma_rad = 1.0 / (tau_s_ns * 1e-9 * n_star**alpha)
    gamma_bbr = (
        4.0 * ALPHA_FS**3 * K_BOLTZMANN * temperature / (3.0 * HBAR * n_star**2)
    )
    return gamma_rad + gamma_bbr
