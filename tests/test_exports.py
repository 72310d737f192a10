"""Every name a rydgate module lists in ``__all__`` exists in it, the package
gives each public name from its defining submodule and loads only that
submodule's layers, and every demo script still imports against the public
API."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rydgate

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Every name ``import rydgate`` bound when it imported all its layers at
# once, by the submodule that defines it; each submodule is a name too.
PACKAGE_NAMES = {
    "constants": "TWOPI",
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


def test_package_names_are_the_defining_objects():
    expected = {}
    for module_name, names in PACKAGE_NAMES.items():
        module = expected[module_name] = importlib.import_module(f"rydgate.{module_name}")
        expected.update((name, getattr(module, name)) for name in names.split())
    assert len(expected) == 65
    assert [name for name, obj in expected.items() if getattr(rydgate, name) is not obj] == []
    assert set(expected) <= set(dir(rydgate))
    with pytest.raises(AttributeError):
        rydgate.no_such_name


def test_a_package_name_loads_only_its_own_layers():
    # A fresh interpreter: this suite has imported every layer already.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from rydgate import pair_hamiltonian_shift\n"
        "print(*sorted(m for m in sys.modules if m.startswith('rydgate.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True,
        timeout=120,
    )
    loaded = set(out.stdout.split())
    assert "rydgate.pair" in loaded
    unused = ("gate", "averaging", "lengthscales", "sweeps", "cli")
    assert not loaded & {f"rydgate.{m}" for m in unused}


def test_every_all_entry_is_defined():
    names = ["rydgate"] + [f"rydgate.{m.name}" for m in pkgutil.iter_modules(rydgate.__path__)]
    assert "rydgate.gate" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{a}" for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
