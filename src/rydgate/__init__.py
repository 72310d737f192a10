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
"""

from .constants import TWOPI
from .errors import (
    NumericsError,
    ResonanceError,
    RydgateError,
    SpeciesDataError,
    WindowError,
)
from .levels import RydbergLevel, parse_level, p_level, s_level
from .species import AtomSpecies, load_species, rb87
from .qdt import (
    RadialSolution,
    effective_quantum_number,
    level_energy,
    lifetime,
    radial_matrix_element,
    radial_wavefunction,
)

__version__ = "0.1.0"

from .angular import (
    angular_block,
    angular_factor,
    dipole_component,
    exchange_singular_value,
    wigner_3j,
    wigner_6j,
)
from .pair import (
    ForsterChannel,
    InteractionCoefficients,
    PairState,
    c3_coefficient,
    c6_branches,
    c6_coefficient,
    forster_channels,
    pair_energy,
    pair_hamiltonian_shift,
)
from .lengthscales import (
    Lengthscales,
    MeritPoint,
    RadiiPoint,
    blockade_radii,
    figure_of_merit,
    radii_point,
)
from .gate import (
    GateParams,
    component_amplitudes,
    fidelity_curve,
    two_level_pulse,
)
from .averaging import (
    AveragedFidelity,
    DephasingParams,
    averaged_fidelity,
    motional_dephasing,
    optimize_d11,
    site_average,
)
from .sweeps import RunManifest, SweepSpec, fidelity_sweep
