"""Atomic species data: quantum defects and lifetime scaling coefficients.

A species is loaded from a line-oriented data file (see ``data/rb87.species``
for the grammar and the shipped rubidium-87 dataset). Species objects are
frozen and hashable so they can key memoised radial solutions.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from importlib import resources

from .constants import RYDBERG_HZ_INF
from .errors import SpeciesDataError
from .levels import valid_j
from .textio import Document, parse_document_file, parse_float, parse_int


@dataclass(frozen=True)
class DefectEntry:
    L: int
    J: float
    delta0: float
    delta2: float


@dataclass(frozen=True)
class LifetimeEntry:
    L: int
    tau_s_ns: float
    alpha: float


@dataclass(frozen=True)
class AtomSpecies:
    """One alkali species: identity, mass, and Rydberg-series coefficients.

    Energies derived from this object are ordinary frequencies in Hz.
    ``ionization_reference`` locates the series limit relative to the ground
    state and is carried for reporting; level energies themselves are
    measured down from the ionization limit.
    """

    name: str
    mass: float                   # kg
    rydberg_constant: float       # Hz, mass corrected
    ionization_reference: float   # Hz
    defects: tuple[DefectEntry, ...]
    lifetimes: tuple[LifetimeEntry, ...]

    def defect_coefficients(self, L: int, J: float) -> tuple[float, float]:
        """(delta0, delta2) for series (L, J).

        Levels with L > 4 fall back to zero defect; anything else missing
        from the table is a data error.
        """
        for entry in self.defects:
            if entry.L == L and entry.J == J:
                return entry.delta0, entry.delta2
        if L > 4:
            return 0.0, 0.0
        raise SpeciesDataError(
            f"species {self.name}: no quantum defect entry for L={L}, J={J}"
        )

    def lifetime_scaling(self, L: int) -> tuple[float, float]:
        """(tau_s in ns, alpha) of the radiative lifetime fit for L."""
        for entry in self.lifetimes:
            if entry.L == L:
                return entry.tau_s_ns, entry.alpha
        raise SpeciesDataError(
            f"species {self.name}: no lifetime scaling entry for L={L}"
        )


def _species_from_document(doc: Document) -> AtomSpecies:
    src = doc.source
    name = doc.require_scalar("species", "name")
    mass = float(doc.require_scalar("species", "mass_kg"))
    rydberg = float(doc.require_scalar("species", "rydberg_constant_hz"))
    ionization = float(doc.require_scalar("species", "ionization_reference_hz"))

    if mass <= 0.0:
        raise SpeciesDataError(f"{src}: mass_kg must be positive")
    if abs(rydberg - RYDBERG_HZ_INF) > 1e-3 * RYDBERG_HZ_INF:
        raise SpeciesDataError(
            f"{src}: rydberg_constant_hz {rydberg!r} deviates more than 0.1% "
            f"from the infinite-mass value {RYDBERG_HZ_INF:.6e}"
        )

    defects = []
    seen = set()
    for tokens, lineno in doc.section_rows("defects"):
        if len(tokens) != 4:
            raise SpeciesDataError(
                f"{src}:{lineno}: defect rows need 4 fields (L J delta0 delta2)"
            )
        L = parse_int(tokens[0], src, lineno, "L")
        J = parse_float(tokens[1], src, lineno, "J")
        d0 = parse_float(tokens[2], src, lineno, "delta0")
        d2 = parse_float(tokens[3], src, lineno, "delta2")
        if L < 0:
            raise SpeciesDataError(f"{src}:{lineno}: L must be non-negative")
        if not valid_j(L, J):
            raise SpeciesDataError(f"{src}:{lineno}: J={J} is not L +/- 1/2 and positive for L={L}")
        if d0 < 0.0:
            raise SpeciesDataError(f"{src}:{lineno}: delta0 must be >= 0")
        if (L, J) in seen:
            raise SpeciesDataError(f"{src}:{lineno}: duplicate defect entry L={L} J={J}")
        seen.add((L, J))
        defects.append(DefectEntry(L, J, d0, d2))
    if not defects:
        raise SpeciesDataError(f"{src}: no [defects] rows")

    lifetimes = []
    seen_l = set()
    for tokens, lineno in doc.section_rows("lifetimes"):
        if len(tokens) != 3:
            raise SpeciesDataError(
                f"{src}:{lineno}: lifetime rows need 3 fields (L tau_s_ns alpha)"
            )
        L = parse_int(tokens[0], src, lineno, "L")
        tau_s = parse_float(tokens[1], src, lineno, "tau_s_ns")
        alpha = parse_float(tokens[2], src, lineno, "alpha")
        if tau_s <= 0.0:
            raise SpeciesDataError(f"{src}:{lineno}: tau_s_ns must be positive")
        if alpha <= 0.0:
            raise SpeciesDataError(f"{src}:{lineno}: alpha must be positive")
        if L in seen_l:
            raise SpeciesDataError(f"{src}:{lineno}: duplicate lifetime entry L={L}")
        seen_l.add(L)
        lifetimes.append(LifetimeEntry(L, tau_s, alpha))

    return AtomSpecies(
        name=name,
        mass=mass,
        rydberg_constant=rydberg,
        ionization_reference=ionization,
        defects=tuple(defects),
        lifetimes=tuple(lifetimes),
    )


def load_species(path) -> AtomSpecies:
    """Load a species data file, validating tables and reporting line numbers."""
    return _species_from_document(parse_document_file(path))


def species_digest(data: bytes) -> str:
    """SHA-256 of a species file's bytes, as run manifests record it."""
    return hashlib.sha256(data).hexdigest()


@functools.lru_cache(maxsize=None)
def rb87() -> AtomSpecies:
    """The packaged rubidium-87 dataset."""
    with resources.as_file(
        resources.files("rydgate.data").joinpath("rb87.species")
    ) as path:
        return load_species(path)
