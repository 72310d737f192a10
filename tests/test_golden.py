"""Golden artifacts: each command reruns on a small input and must reproduce
the stored CSV and SVG bytes exactly.

The files in ``tests/data/golden`` were written by the same commands at
``--workers 1``. Manifests are not compared: they hold the wall time.
Any change to the arithmetic behind a command shows up here as a byte
difference; regenerate the goldens only for a deliberate physics change.
"""

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
