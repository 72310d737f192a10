"""perfbench's tracer still finds every hook it measures.

The tracer wraps public functions by attribute (``angular_factor``,
``np.linalg.eigh``, ...) and reads a few private ones (``qdt._solve_on_grid``,
the caches). A refactor that moves one of them makes the tracer report a
problem instead of a figure, so each spec below runs the tracer in a fresh
interpreter, as the benchmark does, and expects no problems.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _trace(tmp_path, spec) -> dict:
    """Run the tracer on ``spec`` in a fresh interpreter; returns its summary."""
    if spec["kind"] == "cli":
        spec = {**spec, "argv": spec["argv"] + ["--out", str(tmp_path / "out")]}
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "trace.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spec_path), str(out_path)],
        env=env,
        check=True,
        timeout=120,
    )
    return json.loads(out_path.read_text())


ONE_ROW_FIDELITY = {"kind": "cli", "argv": ["fidelity", "--values", "1", "--workers", "1"]}
ONE_FIXED_ROW_FIDELITY = {"kind": "cli", "argv": ONE_ROW_FIDELITY["argv"] + ["--d11", "fixed:18"]}


@pytest.mark.parametrize(
    "spec",
    [
        ONE_ROW_FIDELITY,
        {"kind": "pair_diag", "n": 66, "max_delta_n": 1},
    ],
    ids=["fidelity", "pair_diag"],
)
def test_tracer_finds_every_hook(tmp_path, spec):
    summary = _trace(tmp_path, spec)
    assert summary["problems"] == []
    assert summary["rows"] >= 1


def test_fidelity_row_evaluates_the_curve_once(tmp_path):
    # One table of f0, its 16- and 8-point nodes in one call, serves every
    # d11 search grid and the average at the optimum. The row averages
    # once, at the optimum.
    metrics = _trace(tmp_path, ONE_ROW_FIDELITY)["metrics"]
    assert metrics["gate.curve.points"] == 4418
    assert metrics["gate.curve.calls"] == 1
    assert metrics["averaging.optimize_d11.calls"] == 1
    assert metrics["averaging.averaged_fidelity.calls"] == 1


def test_fixed_d11_row_skips_the_optimiser(tmp_path):
    # A pinned separation is one site average: one table over d11 +/- 8
    # sigma, in one curve call.
    metrics = _trace(tmp_path, ONE_FIXED_ROW_FIDELITY)["metrics"]
    assert metrics["gate.curve.points"] == 3578
    assert metrics["gate.curve.calls"] == 1
    assert metrics["averaging.optimize_d11.calls"] == 0
    assert metrics["averaging.averaged_fidelity.calls"] == 1
