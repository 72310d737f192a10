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


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cli", "argv": ["fidelity", "--values", "1", "--workers", "1"]},
        {"kind": "pair_diag", "n": 66, "max_delta_n": 1},
    ],
    ids=["fidelity", "pair_diag"],
)
def test_tracer_finds_every_hook(tmp_path, spec):
    if spec["kind"] == "cli":
        spec["argv"] += ["--out", str(tmp_path / "out")]
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
    summary = json.loads(out_path.read_text())
    assert summary["problems"] == []
    assert summary["rows"] >= 1
