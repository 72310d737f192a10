"""Golden artifacts: each command reruns on a small input and must reproduce
the stored CSV and SVG bytes exactly, the stored manifest and its stdout.

The files in ``tests/data/golden`` were written by the same commands at
``--workers 1``. The stored manifests leave out ``wall_clock_s`` and the
``out`` setting, which differ between runs; in the stored stdout the output
directory reads ``OUT``. Any change to the arithmetic behind a command shows
up here as a byte difference; regenerate the goldens only for a deliberate
physics change.
"""

import json
from pathlib import Path

import pytest

from rydgate.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = [
    (("radii", "--n", "60:61"), ("radii.csv", "radii.svg")),
    (("merit", "--n", "60:61"), ("merit.csv", "merit.svg")),
    (("forster", "--n", "38:39"), ("forster.csv",)),
    (("fidelity", "--values", "0.1,0.3,1"), ("fidelity.csv", "fidelity.svg")),
]


@pytest.mark.parametrize("argv, artifacts", CASES, ids=[c[0][0] for c in CASES])
def test_command_reproduces_golden_bytes(tmp_path, argv, artifacts):
    assert main([*argv, "--workers", "1", "--out", str(tmp_path)]) == 0
    for name in artifacts:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("argv", [c[0] for c in CASES], ids=[c[0][0] for c in CASES])
def test_command_reproduces_golden_manifest_and_stdout(tmp_path, capsys, argv):
    command = argv[0]
    assert main([*argv, "--workers", "1", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "OUT")
    assert stdout == (GOLDEN / f"{command}.stdout").read_text()

    manifest = json.loads((tmp_path / f"{command}.manifest.json").read_text())
    assert isinstance(manifest.pop("wall_clock_s"), float)
    assert manifest["config"].pop("out") == str(tmp_path)
    assert manifest == json.loads((GOLDEN / f"{command}.manifest.json").read_text())
