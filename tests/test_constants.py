"""The physical constants are scipy's CODATA values, written as literals;
scipy stays off the import path until the first radial integral, and numpy
until a command has passed its usage checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.constants
from scipy.constants import physical_constants

from rydgate import constants

ROOT = Path(__file__).resolve().parent.parent


def test_literals_equal_scipy_values():
    assert constants.PLANCK_H == scipy.constants.h
    assert constants.K_BOLTZMANN == scipy.constants.k
    assert constants.E_CHARGE == scipy.constants.e
    assert constants.EPS0 == scipy.constants.epsilon_0
    assert constants.ALPHA_FS == scipy.constants.fine_structure
    assert constants.BOHR_RADIUS == physical_constants["Bohr radius"][0]
    assert constants.RYDBERG_HZ_INF == physical_constants["Rydberg constant times c in Hz"][0]
    assert constants.HBAR == scipy.constants.hbar


# Run in a fresh interpreter: this suite imports scipy itself (test_gate.py
# at collection), so sys.modules here says nothing about rydgate's imports.
_PROBE = r"""
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def numpy_modules():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))

seen, numpy = {}, {}
import rydgate
numpy["import rydgate"] = numpy_modules()
import rydgate.cli
from rydgate.species import rb87
rb87()
seen["import"] = scipy_modules()
numpy["import"] = numpy_modules()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = []
    for argv in (
        ["--help"],
        ["radii", "--bogus"],
        ["radii", "--n", "100:30"],
        ["fidelity", "--axis", "detuning"],
        ["fidelity", "--values", "nan"],
    ):
        codes.append(rydgate.cli.main(argv))
        seen[" ".join(argv)] = scipy_modules()
        numpy[" ".join(argv)] = numpy_modules()
seen["codes"] = codes
seen["numpy"] = numpy
from rydgate import p_level, radial_matrix_element, s_level
radial_matrix_element(rb87(), s_level(70), p_level(70, 0.5))
seen["integrated"] = "scipy.integrate" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_loads_at_the_first_radial_integral():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, check=True, capture_output=True, text=True,
        timeout=120,
    )
    seen = json.loads(out.stdout)
    assert seen["codes"] == [0, 2, 2, 2, 2]
    for stage in ("import", "--help", "radii --bogus", "radii --n 100:30"):
        assert seen[stage] == [], stage
    assert seen["fidelity --axis detuning"] == seen["fidelity --values nan"] == []
    assert seen["numpy"] == {stage: [] for stage in seen["numpy"]}
    assert len(seen["numpy"]) == 7
    assert seen["integrated"]

