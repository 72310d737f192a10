"""Golden artifacts: each command reruns on a small input and must reproduce
the stored CSV and SVG bytes exactly, the stored manifest and its stdout.

The files in ``tests/data/golden`` were written by the same commands at
``--workers 1``, each under its case name: ``fidelity_n.csv`` holds the
``fidelity.csv`` of the n-axis case. The stored manifests leave out ``wall_clock_s`` and the
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

# (case name, argv, artifact suffixes)
CASES = [
    ("radii", ("radii", "--n", "60:61"), (".csv", ".svg")),
    ("merit", ("merit", "--n", "60:61"), (".csv", ".svg")),
    ("forster", ("forster", "--n", "38:39"), (".csv",)),
    ("fidelity", ("fidelity", "--values", "0.1,0.3,1"), (".csv", ".svg")),
    ("fidelity_omega_c", ("fidelity", "--axis", "omega_c", "--values", "5,20"), (".csv", ".svg")),
    ("fidelity_n", ("fidelity", "--axis", "n", "--values", "60:61"), (".csv", ".svg")),
    (
        "fidelity_q",
        ("fidelity", "--axis", "q", "--values", "0.1,0.3", "--d11", "fixed:20"),
        (".csv", ".svg"),
    ),
    (
        "fidelity_temperature",
        ("fidelity", "--axis", "temperature", "--values", "0.05,1"),
        (".csv", ".svg"),
    ),
]
IDS = [c[0] for c in CASES]


# The pool path of the commands whose rows the runner flattens (and, for
# forster, sorts) must write the same bytes as the serial one.
POOLED = [(*c, "2") for c in CASES if c[0] in ("radii", "merit", "forster")]


@pytest.mark.parametrize(
    "case, argv, suffixes, workers",
    [(*c, "1") for c in CASES] + POOLED,
    ids=IDS + [f"{c[0]}-workers2" for c in POOLED],
)
def test_command_reproduces_golden_bytes(tmp_path, case, argv, suffixes, workers):
    assert main([*argv, "--workers", workers, "--out", str(tmp_path)]) == 0
    for suffix in suffixes:
        written = (tmp_path / f"{argv[0]}{suffix}").read_bytes()
        assert written == (GOLDEN / f"{case}{suffix}").read_bytes(), case + suffix


@pytest.mark.parametrize("case, argv", [c[:2] for c in CASES], ids=IDS)
def test_command_reproduces_golden_manifest_and_stdout(tmp_path, capsys, case, argv):
    command = argv[0]
    assert main([*argv, "--workers", "1", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "OUT")
    assert stdout == (GOLDEN / f"{case}.stdout").read_text()

    manifest = json.loads((tmp_path / f"{command}.manifest.json").read_text())
    assert isinstance(manifest.pop("wall_clock_s"), float)
    assert manifest["config"].pop("out") == str(tmp_path)
    assert manifest == json.loads((GOLDEN / f"{case}.manifest.json").read_text())
