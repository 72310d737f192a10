"""The physical constants are scipy's CODATA values, written as literals;
scipy stays off the import path until the first radial integral, and numpy
until a command has passed its usage checks; the domain table names the
setting it rejects; the command line runs OpenBLAS on one thread unless
its caller has set a thread variable."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants
from scipy.constants import physical_constants

from rydgate import constants
from rydgate.constants import check_axis_values, check_domain

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


def test_domain_checks():
    assert check_domain("n", 2) == 2
    assert check_domain("eta_c", 1.0) == 1.0
    with pytest.raises(ValueError, match=r"^--n must be an integer >= 2, got 1$"):
        check_domain("n", 1, "--n")
    with pytest.raises(ValueError, match="^q must be finite"):
        check_domain("q", math.nan)
    assert check_axis_values("n", (70.0, 60.0)) == (70.0, 60.0)
    for axis, values in [("n", (60.5,)), ("q", ()), ("q", (1.0, 1.0)), ("x", (1.0,))]:
        with pytest.raises(ValueError):
            check_axis_values(axis, values)


# Usage errors that used to compute the working point (C3, C6 and three
# lifetimes) or crash on n = 1 before they exited 2.
_BEFORE_PHYSICS = [
    ["fidelity", "--values", "3,1,2"],
    ["fidelity", "--values", "1,1"],
    ["fidelity", "--values", "0"],
    ["fidelity", "--q", "-1"],
    ["fidelity", "--temperature-uk", "-1"],
    ["fidelity", "--eta-c", "2"],
    ["fidelity", "--omega-mu-mhz", "0"],
    ["fidelity", "--omega-c-mhz", "-1"],
    ["fidelity", "--omega-eit-mhz", "0"],
    ["fidelity", "--d-far-um", "0"],
    ["fidelity", "--lambda-sw-um", "0"],
    ["fidelity", "--bbr-temp-k", "-1"],
    ["fidelity", "--axis", "q", "--values=-1,1"],
    ["fidelity", "--axis", "temperature", "--values=-1,1"],
    ["fidelity", "--axis", "n", "--values", "0,1"],
    ["fidelity", "--axis", "n", "--values", "50.5,60"],
    ["fidelity", "--axis", "n", "--values", "1,2"],
    ["fidelity", "--n", "0"],
    ["radii", "--n", "1"],
    ["merit", "--n", "1:2"],
    ["forster", "--n", "1"],
]

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
    ) + tuple(json.loads(sys.argv[1])):
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
        [sys.executable, "-c", _PROBE, json.dumps(_BEFORE_PHYSICS)], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    seen = json.loads(out.stdout)
    assert seen["codes"] == [0, 2, 2, 2, 2] + [2] * len(_BEFORE_PHYSICS)
    for stage in ("import", "--help", "radii --bogus", "radii --n 100:30"):
        assert seen[stage] == [], stage
    assert seen["fidelity --axis detuning"] == seen["fidelity --values nan"] == []
    for argv in _BEFORE_PHYSICS:
        assert seen[" ".join(argv)] == [], argv
    assert seen["numpy"] == {stage: [] for stage in seen["numpy"]}
    assert len(seen["numpy"]) == 7 + len(_BEFORE_PHYSICS)
    assert seen["integrated"]


# The same fresh-interpreter rule: OpenBLAS reads its thread variables once,
# when numpy loads it, and this suite has loaded numpy long before.
_THREADS_PROBE = r"""
import ctypes, json, os, sys
if sys.argv[1] == "numpy first":
    import numpy
before = dict(os.environ)
import rydgate.cli
code = rydgate.cli.main(["fidelity", "--values", "1", "--out", sys.argv[2]])
threads = None
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas64" in ln and ".so" in ln})
except OSError:
    libs = []
for path in libs:
    fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if fn is not None:
        fn.argtypes, fn.restype = [], ctypes.c_int
        threads = fn()
print(json.dumps({"code": code, "before": before, "after": dict(os.environ), "threads": threads}))
"""


@pytest.mark.parametrize("case", ["fresh", "OMP_NUM_THREADS=2", "numpy first"])
def test_cli_runs_openblas_on_one_thread_unless_told_otherwise(case, tmp_path):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if case == "OMP_NUM_THREADS=2":
        env["OMP_NUM_THREADS"] = "2"
    out = subprocess.run(
        [sys.executable, "-c", _THREADS_PROBE, case, str(tmp_path)], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["code"] == 0
    if case == "fresh":
        assert seen["after"] == {**seen["before"], "OPENBLAS_NUM_THREADS": "1"}
        if seen["threads"] is not None:  # numpy's OpenBLAS exports its thread getter
            assert seen["threads"] == 1
    else:
        assert seen["after"] == seen["before"]
