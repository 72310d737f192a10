"""rydgate: design toolkit for a microwave-controlled Rydberg photonic CZ gate.

Layers, bottom up:

* ``species`` / ``qdt``: quantum-defect atomic structure (energies, radial
  matrix elements, lifetimes) from a species data file,
* ``angular`` / ``pair``: dipole-dipole pair interactions (C3, Forster
  channels, perturbative C6, and a brute-force pair-Hamiltonian oracle),
* ``lengthscales``: blockade radii, the gate operating window, and the
  figure of merit for level-scheme comparisons,
* ``gate``: two-level pulse dynamics and the pointwise gate fidelity,
* ``averaging``: motional dephasing, site averaging, operating-point
  optimisation,
* ``sweeps`` / ``cli``: reproducible parameter scans behind the ``rydgate``
  command.

The public names below load with their defining submodule on first access
(PEP 562), so ``import rydgate`` and the command line's usage checks do not
pay for numpy and the numerical layers.
"""

import importlib

from .constants import TWOPI

__version__ = "0.1.0"

# defining submodule -> the public names it gives the package
_EXPORTS = {
    "errors": "NumericsError ResonanceError RydgateError SpeciesDataError WindowError",
    "levels": "RydbergLevel parse_level p_level s_level",
    "species": "AtomSpecies load_species rb87",
    "textio": "",
    "qdt": "RadialSolution effective_quantum_number level_energy lifetime "
    "radial_matrix_element radial_wavefunction",
    "angular": "angular_block angular_factor dipole_component exchange_singular_value "
    "wigner_3j wigner_6j",
    "pair": "ForsterChannel InteractionCoefficients PairState c3_coefficient c6_branches "
    "c6_coefficient forster_channels pair_energy pair_hamiltonian_shift",
    "lengthscales": "Lengthscales MeritPoint RadiiPoint blockade_radii figure_of_merit "
    "radii_point",
    "gate": "GateParams component_amplitudes fidelity_curve two_level_pulse",
    "averaging": "AveragedFidelity DephasingParams averaged_fidelity motional_dephasing "
    "optimize_d11 site_average",
    "sweeps": "RunManifest SweepSpec fidelity_sweep",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["TWOPI", *_SOURCE]


def __getattr__(name):
    """A submodule, or a public name from its defining submodule; the name
    is then bound here, so later lookups do not come back."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
