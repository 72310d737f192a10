"""End-to-end CLI runs, in process via cli.main().

Covers artifact layout, exit-code contract, config-file precedence, and
the byte-level reproducibility of CSV output across worker counts.
"""

import json

import pytest

from rydgate.cli import main
from rydgate.sweeps import (
    FIDELITY_COLUMNS,
    FORSTER_COLUMNS,
    MERIT_COLUMNS,
    RADII_COLUMNS,
)
from rydgate.textio import read_csv


def _run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# radii

def test_radii_single_n(tmp_path, capsys):
    out = tmp_path / "radii_run"
    assert _run("radii", "--n", "70:70", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "1 rows" in captured.out

    header, rows = read_csv(out / "radii.csv")
    assert header == list(RADII_COLUMNS)
    assert len(rows) == 1
    n, r_cross, r_same, r_b3, flag = rows[0]
    assert n == "70" and flag == "0"
    ratio = float(r_b3) / float(r_cross)
    assert 2.0 < ratio < 4.0

    assert (out / "radii.svg").read_bytes().startswith(b"<svg")
    manifest = json.loads((out / "radii.manifest.json").read_text())
    assert manifest["rows"] == ["ok"]
    assert manifest["config"]["command"] == "radii"
    assert len(manifest["species_sha256"]) == 64


def test_radii_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run("radii", "--n", "68:70", "--out", str(out_a)) == 0
    assert _run("radii", "--n", "68:70", "--out", str(out_b)) == 0
    assert (out_a / "radii.csv").read_bytes() == (out_b / "radii.csv").read_bytes()
    assert (out_a / "radii.svg").read_bytes() == (out_b / "radii.svg").read_bytes()


def test_radii_numerics_error_fails_the_row(tmp_path, capsys, monkeypatch):
    from rydgate import sweeps
    from rydgate.errors import NumericsError

    real = sweeps.radii_point

    def diverges_at_61(species, n, omega):
        if n == 61:
            raise NumericsError("inward solution diverges")
        return real(species, n, omega)

    monkeypatch.setattr(sweeps, "radii_point", diverges_at_61)
    out = tmp_path / "radii_fail"
    assert _run("radii", "--n", "60:61", "--workers", "1", "--out", str(out)) == 1
    assert "radii: 1 row(s) failed" in capsys.readouterr().err
    manifest = json.loads((out / "radii.manifest.json").read_text())
    assert manifest["rows"] == ["ok", "error: NumericsError: inward solution diverges"]
    _, rows = read_csv(out / "radii.csv")
    assert rows[0][0] == "60" and float(rows[0][1]) > 0.0
    assert rows[1] == ["61", "nan", "nan", "nan", "0"]


# ---------------------------------------------------------------------------
# merit

def test_merit_range(tmp_path):
    out = tmp_path / "merit_run"
    assert _run("merit", "--n", "68:72", "--out", str(out)) == 0
    header, rows = read_csv(out / "merit.csv")
    assert header == list(MERIT_COLUMNS)
    assert [row[0] for row in rows] == ["68", "69", "70", "71", "72"]
    for row in rows:
        assert float(row[1]) > 0.0
        assert row[3] == "0"
    assert (out / "merit.svg").exists()


def test_merit_numerics_error_fails_the_row(tmp_path, capsys, monkeypatch):
    from rydgate import sweeps
    from rydgate.errors import NumericsError

    real = sweeps.figure_of_merit

    def diverges_at_61(species, n, temperature):
        if n == 61:
            raise NumericsError("inward solution diverges")
        return real(species, n, temperature)

    monkeypatch.setattr(sweeps, "figure_of_merit", diverges_at_61)
    out = tmp_path / "merit_fail"
    assert _run("merit", "--n", "60:61", "--workers", "1", "--out", str(out)) == 1
    assert "1 row(s) failed" in capsys.readouterr().err
    manifest = json.loads((out / "merit.manifest.json").read_text())
    assert manifest["rows"] == ["ok", "error: NumericsError: inward solution diverges"]
    _, rows = read_csv(out / "merit.csv")
    assert rows[0][0] == "60" and float(rows[0][1]) > 0.0
    assert rows[1] == ["61", "nan", "nan", "0"]


# ---------------------------------------------------------------------------
# fidelity

def test_fidelity_fixed_sweep_and_worker_invariance(tmp_path):
    base = [
        "fidelity",
        "--axis", "omega_mu",
        "--values", "0.2,0.25,0.3",
        "--d11", "fixed:18",
        "--q", "0.2",
    ]
    out_1, out_2 = tmp_path / "w1", tmp_path / "w2"
    assert _run(*base, "--out", str(out_1), "--workers", "1") == 0
    assert _run(*base, "--out", str(out_2), "--workers", "2") == 0
    bytes_1 = (out_1 / "fidelity.csv").read_bytes()
    assert bytes_1 == (out_2 / "fidelity.csv").read_bytes()
    assert (out_1 / "fidelity.svg").read_bytes() == (out_2 / "fidelity.svg").read_bytes()

    header, rows = read_csv(out_1 / "fidelity.csv")
    assert header == list(FIDELITY_COLUMNS)
    assert [float(r[0]) for r in rows] == [0.2, 0.25, 0.3]
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["d11_um"].startswith("1.8")
        assert 0.0 < float(cells["f_total"]) <= 1.0
        assert cells["window_ok"] == "1"


def test_fidelity_row_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "bad_row"
    code = _run(
        "fidelity", "--axis", "n", "--values", "38",
        "--d11", "fixed:15", "--out", str(out),
    )
    assert code == 1
    assert "failed" in capsys.readouterr().err
    manifest = json.loads((out / "fidelity.manifest.json").read_text())
    assert manifest["rows"][0].startswith("error")
    header, rows = read_csv(out / "fidelity.csv")
    cells = dict(zip(header, rows[0]))
    assert cells["f_total"] == "nan"
    assert cells["window_ok"] == "0"


# ---------------------------------------------------------------------------
# forster

def test_forster_range_flags_the_known_degeneracy(tmp_path):
    out = tmp_path / "forster_run"
    assert _run("forster", "--n", "36:40", "--out", str(out)) == 0
    header, rows = read_csv(out / "forster.csv")
    assert header == list(FORSTER_COLUMNS)
    assert rows
    top = dict(zip(header, rows[0]))
    assert top["n"] == "38"
    assert top["final_a"] == "38P3/2" and top["final_b"] == "38P3/2"
    defects = [abs(float(r[5])) for r in rows]
    assert defects == sorted(defects)


def test_forster_zero_threshold_header_only(tmp_path):
    out = tmp_path / "forster_zero"
    assert _run("forster", "--n", "38:38", "--threshold-mhz", "0", "--out", str(out)) == 0
    text = (out / "forster.csv").read_text()
    assert text == ",".join(FORSTER_COLUMNS) + "\n"


def test_forster_numerics_error_fails_the_row(tmp_path, capsys, monkeypatch):
    from rydgate import sweeps
    from rydgate.errors import NumericsError

    real = sweeps.forster_channels

    def diverges_at_39(species, pair, **kwargs):
        if pair.a.n == 39:
            raise NumericsError("inward solution diverges")
        return real(species, pair, **kwargs)

    monkeypatch.setattr(sweeps, "forster_channels", diverges_at_39)
    out = tmp_path / "forster_fail"
    assert _run("forster", "--n", "38:39", "--workers", "1", "--out", str(out)) == 1
    assert "forster: 1 row(s) failed" in capsys.readouterr().err
    manifest = json.loads((out / "forster.manifest.json").read_text())
    assert manifest["rows"] == ["ok", "error: NumericsError: inward solution diverges"]
    header, rows = read_csv(out / "forster.csv")
    assert rows
    assert {dict(zip(header, row))["n"] for row in rows} == {"38"}


# ---------------------------------------------------------------------------
# exit-code contract

@pytest.mark.parametrize(
    "argv",
    [
        ("radii", "--n", "100:30"),
        ("radii", "--omega-mhz", "-1"),
        ("fidelity", "--values", "abc"),
        ("fidelity", "--values", "5:1:10:log"),
        ("fidelity", "--d11", "sideways"),
        ("fidelity", "--values", "0"),
        ("fidelity", "--axis", "omega_c", "--values=0,1"),
        ("fidelity", "--axis", "q", "--values=-1,1"),
        ("fidelity", "--axis", "temperature", "--values=-1,1"),
        ("fidelity", "--axis", "n", "--values", "50,inf"),
        ("merit", "--radiation-temp-k", "-5"),
        ("forster", "--threshold-mhz", "-2"),
    ],
)
def test_usage_errors_exit_2(tmp_path, capsys, argv):
    assert _run(*argv, "--out", str(tmp_path)) == 2
    assert "rydgate" in capsys.readouterr().err


def test_unknown_axis_exits_2(tmp_path, capsys):
    assert _run("fidelity", "--axis", "detuning", "--out", str(tmp_path)) == 2
    assert "axis" in capsys.readouterr().err


def test_missing_species_file_exits_3(tmp_path, capsys):
    code = _run(
        "radii", "--n", "70:70",
        "--species", str(tmp_path / "nope.species"),
        "--out", str(tmp_path),
    )
    assert code == 3
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files

def test_config_supplies_defaults_and_flags_override(tmp_path):
    out_cfg = tmp_path / "from_config"
    config = tmp_path / "run.cfg"
    config.write_text(
        "[common]\n"
        f"out = {out_cfg}\n"
        "[radii]\n"
        "n = 70:70\n"
        "omega_mhz = 2.0\n"
    )
    assert _run("radii", "--config", str(config)) == 0
    header, rows = read_csv(out_cfg / "radii.csv")
    assert [r[0] for r in rows] == ["70"]
    manifest = json.loads((out_cfg / "radii.manifest.json").read_text())
    assert manifest["config"]["omega_mhz"] == "2.0"

    # the explicit flag wins over the config value
    out_flag = tmp_path / "flag_wins"
    assert _run("radii", "--config", str(config), "--n", "72:72", "--out", str(out_flag)) == 0
    _, rows = read_csv(out_flag / "radii.csv")
    assert [r[0] for r in rows] == ["72"]
