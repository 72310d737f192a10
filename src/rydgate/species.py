"""Atomic species data: quantum defects and lifetime scaling coefficients.

A species is loaded from a line-oriented data file (see ``data/rb87.species``
for the grammar and the shipped rubidium-87 dataset). Every number in it
must lie in its ``constants.DOMAINS`` entry, as a command-line setting
must. Species objects are frozen and hashable so they can key memoised
radial solutions.
"""

from __future__ import annotations

import functools
import hashlib
import pathlib
from dataclasses import dataclass, field
from importlib import resources

from .constants import RYDBERG_HZ_INF, check_domain
from .errors import SpeciesDataError
from .levels import valid_j
from .textio import Document, parse_document

PACKAGED = "packaged:rb87.species"  # the packaged file's name in messages and manifests


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
    measured down from the ionization limit. ``digest`` is the SHA-256 of
    the file the species was loaded from (empty for one built in code); it
    takes no part in equality or hashing.
    """

    name: str
    mass: float                   # kg
    rydberg_constant: float       # Hz, mass corrected
    ionization_reference: float   # Hz
    defects: tuple[DefectEntry, ...]
    lifetimes: tuple[LifetimeEntry, ...]
    digest: str = field(default="", compare=False)

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


def _number(token: str, name: str, where: str):
    """``token`` as the value of field ``name`` (an int for ``L``, else a
    float) in its ``constants.DOMAINS`` entry; else SpeciesDataError at
    ``where``, the file and the line where one exists."""
    integer = name == "L"
    try:
        value = int(token) if integer else float(token)
    except ValueError:
        kind = "an integer" if integer else "a number"
        raise SpeciesDataError(f"{where}: {name} is not {kind}: {token!r}") from None
    try:
        return check_domain(name, value)
    except ValueError as exc:
        raise SpeciesDataError(f"{where}: {exc}") from None


def _rows(doc: Document, section: str, names: tuple[str, ...]):
    """Each data row of ``section`` as (its numbers, its file:line)."""
    for tokens, lineno in doc.section_rows(section):
        where = f"{doc.source}:{lineno}"
        if len(tokens) != len(names):
            raise SpeciesDataError(
                f"{where}: {section[:-1]} rows need {len(names)} fields ({' '.join(names)})"
            )
        yield [_number(tok, name, where) for tok, name in zip(tokens, names)], where


def _species_from_document(doc: Document, digest: str) -> AtomSpecies:
    mass, rydberg, ionization = (
        _number(doc.require_scalar("species", key), key, doc.where("species", key))
        for key in ("mass_kg", "rydberg_constant_hz", "ionization_reference_hz")
    )
    if abs(rydberg - RYDBERG_HZ_INF) > 1e-3 * RYDBERG_HZ_INF:
        raise SpeciesDataError(
            f"{doc.where('species', 'rydberg_constant_hz')}: rydberg_constant_hz "
            f"{rydberg!r} deviates more than 0.1% "
            f"from the infinite-mass value {RYDBERG_HZ_INF:.6e}"
        )

    defects = {}
    for (L, J, d0, d2), where in _rows(doc, "defects", ("L", "J", "delta0", "delta2")):
        if not valid_j(L, J):
            raise SpeciesDataError(f"{where}: J={J} is not L +/- 1/2 and positive for L={L}")
        if (L, J) in defects:
            raise SpeciesDataError(f"{where}: duplicate defect entry L={L} J={J}")
        defects[L, J] = DefectEntry(L, J, d0, d2)
    if not defects:
        raise SpeciesDataError(f"{doc.source}: no [defects] rows")

    lifetimes = {}
    for (L, tau_s, alpha), where in _rows(doc, "lifetimes", ("L", "tau_s_ns", "alpha")):
        if L in lifetimes:
            raise SpeciesDataError(f"{where}: duplicate lifetime entry L={L}")
        lifetimes[L] = LifetimeEntry(L, tau_s, alpha)

    return AtomSpecies(
        name=doc.require_scalar("species", "name"),
        mass=mass,
        rydberg_constant=rydberg,
        ionization_reference=ionization,
        defects=tuple(defects.values()),
        lifetimes=tuple(lifetimes.values()),
        digest=digest,
    )


def load_species(path=None) -> AtomSpecies:
    """The species of the data file at ``path`` (default: the packaged
    rubidium-87 dataset), its ``digest`` set from the one read of its bytes.

    Raises SpeciesDataError, naming the file and, where one exists, the
    line, when the file is unreadable or malformed or a number lies outside
    its domain.
    """
    if path is None:
        file, source = resources.files("rydgate.data").joinpath("rb87.species"), PACKAGED
    else:
        file, source = pathlib.Path(path), str(path)
    try:
        data = file.read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpeciesDataError(f"cannot read {source}: {exc}") from None
    return _species_from_document(parse_document(text, source), species_digest(data))


def species_digest(data: bytes) -> str:
    """SHA-256 of a species file's bytes, as run manifests record it."""
    return hashlib.sha256(data).hexdigest()


@functools.lru_cache(maxsize=None)
def rb87() -> AtomSpecies:
    """The packaged rubidium-87 dataset, loaded once."""
    return load_species()
