"""End-to-end CLI runs, in process via cli.main().

Covers artifact layout, exit-code contract, config-file precedence, and
the byte-level reproducibility of CSV output across worker counts.
"""

import csv
import json
import math
import re
import warnings
from importlib import resources

import pytest

from rydgate import gate, pair
from rydgate.cli import (
    _COMMANDS,
    MAX_ROWS,
    UsageError,
    _parse_axis_values,
    _parse_n_range,
    main,
)
from rydgate.constants import AXES, DOMAINS, check_domain
from rydgate.sweeps import (
    FIDELITY_COLUMNS,
    FORSTER_COLUMNS,
    MERIT_COLUMNS,
    RADII_COLUMNS,
)


def read_csv(path):
    """(header, rows) of a CSV artifact, read with the stdlib parser."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--q", "1e-300"), 0),
        (("--lambda-sw-um", "1e-300"), 0),
        (("--q", "1e300"), 0),
        (("--d11", "fixed:1e-300"), 0),
        (("--d11", "fixed:1e-300", "--q", "0"), 1),
        (("--d11", "fixed:10", "--d-far-um", "1e-300"), 1),
    ],
)
def test_fidelity_extreme_settings_give_a_row(tmp_path, capfd, argv, code):
    """Settings inside their domains at the edge of the floats end in a
    limit or a typed row error: never a traceback, never an ok row of nan."""
    out = tmp_path / "edge"
    assert _run("fidelity", "--values", "1", *argv, "--out", str(out)) == code
    err = capfd.readouterr().err
    assert "Warning" not in err
    status = json.loads((out / "fidelity.manifest.json").read_text())["rows"][0]
    header, rows = read_csv(out / "fidelity.csv")
    cells = dict(zip(header, rows[0]))
    if code:
        assert status.startswith("error: NumericsError")
        assert err == "fidelity: 1 row(s) failed; see manifest\n"
    else:
        assert not status.startswith("error") and err == ""
        assert all(math.isfinite(float(cells[k])) for k in ("f0_avg", "eta_m", "f_total"))


def test_fidelity_error_row_reports_a_known_window(tmp_path):
    # the working point is fine; only its site average fails: with no
    # spread, f0 at d11 = 1e-300 is nan
    out = tmp_path / "edge"
    argv = ("--values", "1", "--d11", "fixed:1e-300", "--q", "0")
    assert _run("fidelity", *argv, "--out", str(out)) == 1
    status = json.loads((out / "fidelity.manifest.json").read_text())["rows"][0]
    assert status.startswith("error: NumericsError")
    header, rows = read_csv(out / "fidelity.csv")
    assert dict(zip(header, rows[0]))["window_ok"] == "1"


@pytest.mark.parametrize("axis", ["q", "temperature"])
@pytest.mark.parametrize("value", ["1e30", "1e300"])
def test_fidelity_one_huge_axis_value_writes_every_artifact(tmp_path, axis, value):
    out = tmp_path / "huge"
    assert _run("fidelity", "--axis", axis, "--values", value, "--out", str(out)) in (0, 1)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["fidelity.csv", "fidelity.manifest.json", "fidelity.svg"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--values", "1", "--d11", "fixed:1e300"),
        ("--values", "1", "--omega-c-mhz", "1e-300"),
        ("--values", "1", "--omega-eit-mhz", "1e-300"),
        ("--axis", "omega_c", "--values", "1e-300"),
    ],
)
def test_fidelity_prints_extreme_distances_in_bounded_digits(tmp_path, capsys, argv):
    out = tmp_path / "far"
    assert _run("fidelity", *argv, "--out", str(out)) in (0, 1)
    status = json.loads((out / "fidelity.manifest.json").read_text())["rows"][0]
    for text in (capsys.readouterr().out, status):
        numbers = re.findall(r"\d[\d.e+-]*", text)
        assert max(map(len, numbers), default=0) <= 25, text


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

NINES = "9" * 400  # an integer past the float range

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
        ("forster", "--n", "70", "--max-delta-n", "-1"),
        ("radii", "--n", "70", "--config", "nan.cfg/missing.cfg"),
        ("radii", "--n", "70", "--workers", "0"),
        ("radii", "--n", "70", "--omega-mhz", "nan"),
        ("radii", "--n", "70", "--omega-mhz", "inf"),
        ("merit", "--n", "70", "--radiation-temp-k", "nan"),
        ("forster", "--n", "38", "--threshold-mhz", "nan"),
        ("fidelity", "--values", "1", "--temperature-uk", "nan"),
        ("fidelity", "--values", "1", "--d-far-um", "nan"),
        ("fidelity", "--values", "1", "--bbr-temp-k", "nan"),
        ("fidelity", "--values", "1", "--q", "nan"),
        ("fidelity", "--values", "1", "--d11", "fixed:nan"),
        ("merit", "--n", "70", "--config", "nan.cfg"),
        ("fidelity", "--values", "nan"),
        ("fidelity", "--values", "1:inf:1"),
        ("radii", "--n", "70", "--out", "nan.cfg/sub"),
        ("radii", "--n", "1"),
        ("merit", "--n", "1:2"),
        ("forster", "--n", "1"),
        ("fidelity", "--axis", "n", "--values", "1,2"),
        ("radii", "--n", NINES),
        ("radii", "--n", "70", "--workers", NINES),
        ("forster", "--n", "70", "--max-delta-n", NINES),
    ],
)
def test_usage_errors_exit_2(tmp_path, capsys, argv):
    # nan.cfg names a config file in tmp_path with a non-finite value; as a
    # regular file it also makes nan.cfg/sub an --out that cannot be created
    # and nan.cfg/missing.cfg a config file that cannot be read.
    # An input's own --out follows the default one, so it wins.
    (tmp_path / "nan.cfg").write_text("[merit]\nradiation_temp_k = nan\n")
    argv = [str(tmp_path / a) if a.startswith("nan.cfg") else a for a in argv]
    assert _run(argv[0], "--out", str(tmp_path), *argv[1:]) == 2
    assert "rydgate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("fidelity", "--q", "-1"),
        ("fidelity", "--temperature-uk", "-1"),
        ("fidelity", "--eta-c", "2"),
        ("fidelity", "--omega-mu-mhz", "0"),
        ("fidelity", "--omega-c-mhz", "-1"),
        ("fidelity", "--omega-eit-mhz", "0"),
        ("fidelity", "--d-far-um", "0"),
        ("fidelity", "--lambda-sw-um", "0"),
        ("fidelity", "--bbr-temp-k", "-1"),
        ("fidelity", "--n", "1"),
        ("fidelity", "--d11", "fixed:-1"),
        ("fidelity", "--workers", "0"),
        ("radii", "--omega-mhz", "0"),
        ("radii", "--n", "0"),
        ("merit", "--radiation-temp-k", "-5"),
        ("forster", "--threshold-mhz", "-2"),
        ("forster", "--max-delta-n", "-1"),
        ("forster", "--n", "1"),
        ("radii", "--n", NINES),
        ("radii", "--workers", NINES),
        ("forster", "--max-delta-n", NINES),
    ],
)
def test_usage_error_names_its_flag(tmp_path, capsys, argv):
    assert _run(*argv, "--out", str(tmp_path)) == 2
    assert argv[1] in capsys.readouterr().err


def test_ranges_up_to_the_row_limit_are_built():
    assert MAX_ROWS == 100_000
    assert len(_parse_n_range("2:100001")) == MAX_ROWS
    assert len(_parse_axis_values("1:100000:1", "q")) == MAX_ROWS
    assert len(_parse_axis_values("1:10:100000:log", "q")) == MAX_ROWS


@pytest.mark.parametrize(
    "parse, args, rows",
    [
        (_parse_n_range, ("2:100002",), "100001"),
        (_parse_n_range, ("2:10000000000",), "9999999999"),
        (_parse_axis_values, ("2:100002", "n"), "100001"),
        (_parse_axis_values, ("1:100001:1", "q"), "100001"),
        (_parse_axis_values, ("0.01:10:1e-12", "omega_mu"), "9990000000001"),
        (_parse_axis_values, ("1:10:100001:log", "q"), "100001"),
        (_parse_axis_values, ("1:10:10000000000:log", "omega_mu"), "10000000000"),
    ],
)
def test_ranges_over_the_row_limit_are_refused_before_they_are_built(parse, args, rows):
    flag = "--n" if parse is _parse_n_range else "--values"
    with pytest.raises(UsageError, match=f"^{flag} asks for {rows} rows"):
        parse(*args)


@pytest.mark.parametrize(
    "argv",
    [("radii", "--n", "2:10000000000"), ("fidelity", "--values", "1:10:10000000000:log")],
)
def test_oversized_range_exits_2_naming_its_flag(tmp_path, capsys, argv):
    assert _run(*argv, "--out", str(tmp_path / "fresh")) == 2
    assert f"{argv[1]} asks for" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


def test_unknown_axis_exits_2(tmp_path, capsys):
    assert _run("fidelity", "--axis", "detuning", "--out", str(tmp_path)) == 2
    assert "axis" in capsys.readouterr().err


def test_uncreatable_out_names_the_path(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert _run("radii", "--n", "70", "--out", str(out)) == 2
    assert f"cannot create output directory {out}" in capsys.readouterr().err


def test_missing_species_file_exits_3(tmp_path, capsys):
    code = _run(
        "radii", "--n", "70:70",
        "--species", str(tmp_path / "nope.species"),
        "--out", str(tmp_path),
    )
    assert code == 3
    assert "cannot read" in capsys.readouterr().err


RB87 = resources.files("rydgate.data").joinpath("rb87.species").read_text()


@pytest.mark.parametrize(
    "command, line, bad, field",
    [
        ("radii", "mass_kg = 1.44316090e-25", "mass_kg = abc", "mass_kg"),
        ("fidelity", "mass_kg = 1.44316090e-25", "mass_kg = nan", "mass_kg"),
        ("radii", "rydberg_constant_hz = 3.2898211940e15", "rydberg_constant_hz = nan",
         "rydberg_constant_hz"),
        ("radii", "0   1.368    3.0008", "0   inf    3.0008", "tau_s_ns"),
        ("radii", "2   1.0761   2.9898", "-1  1.0761   2.9898", "L"),
        ("radii", "name = Rb87", "name = Rb87\nname = Rb", "name"),
    ],
    ids=["mass-not-a-number", "mass-nan", "rydberg-nan", "tau-inf", "negative-l",
         "duplicate-key"],
)
def test_bad_species_file_exits_3_naming_file_and_field(tmp_path, capsys, command, line, bad,
                                                         field):
    species = tmp_path / "bad.species"
    assert line in RB87
    species.write_text(RB87.replace(line, bad))
    argv = ["--n", "70"] if command == "radii" else ["--values", "1"]
    assert _run(command, *argv, "--species", str(species), "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert str(species) in err and field in err, err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (("radii", "--n", "70", "--species", "nan.species"), 3),
        (("radii", "--n", "100:30"), 2),
        (("fidelity", "--values", "3,1,2"), 2),
        (("fidelity", "--d11", "bogus"), 2),
    ],
    ids=["species-nan", "n-range", "values", "d11"],
)
def test_failed_run_creates_no_out_directory(tmp_path, capsys, argv, code):
    (tmp_path / "nan.species").write_text(RB87.replace("mass_kg = 1.44316090e-25",
                                                       "mass_kg = nan"))
    argv = [str(tmp_path / a) if a == "nan.species" else a for a in argv]
    out = tmp_path / "fresh" / "sub"
    assert _run(*argv, "--out", str(out)) == code
    assert "rydgate" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


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


def test_config_sections_of_other_commands_are_read_by_them_only(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "[common]\nthreshold_mhz = 5\n"  # forster's, so radii leaves it be
        "[radii]\nn = 70:70\n[fidelity]\nq = 0.3\n[forster]\nmax_delta_n = 1\n"
    )
    assert _run("radii", "--config", str(config), "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "radii.manifest.json").read_text())
    assert "threshold_mhz" not in manifest["config"]


@pytest.mark.parametrize(
    "text, named",
    [
        ("[radii]\nomega = 5\n", ("[radii]", "'omega'")),
        ("[radii]\nn = 70\n\nomega = 5\n", ("run.cfg:4: [radii] has no setting 'omega'",)),
        ("[radii]\nthreshold_mhz = 5\n", ("[radii]", "'threshold_mhz'")),
        ("[fidelity]\nomega_mhz = 5\n", ("[fidelity]", "'omega_mhz'")),
        ("[common]\nomega = 5\n", ("[common]", "'omega'")),
        ("[common]\nconfig = other.cfg\n", ("[common]", "'config'")),
        ("[radi]\nomega_mhz = 5\n", ("[radi]",)),
        ("omega_mhz = 5\n", ("[]",)),
        ("[radii]\n70 72\n", ("[radii]", ":2:")),
        ("[radii]\nomega_mhz =\n", (":2:", "malformed")),
        ("[radii]\nomega_mhz = 2\nomega_mhz = 3\n", (":3:", "duplicate", "'omega_mhz'")),
    ],
    ids=["key", "key-line", "other-command-key", "other-section-key", "common-key", "config-key",
         "section", "no-section", "data-row", "malformed-line", "duplicate-key"],
)
def test_config_typos_exit_2(tmp_path, capsys, text, named):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert _run("radii", "--n", "70", "--config", str(config), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named), err
    assert not (tmp_path / "radii.csv").exists()


def test_forster_threshold_default_is_the_resonance_threshold():
    settings = {name: (default, text) for name, _, default, text in _COMMANDS["forster"][1]}
    assert settings["threshold_mhz"][0] == pair.RESONANCE_THRESHOLD_HZ / 1e6
    assert settings["threshold_mhz"][1].endswith(
        f"(default {pair.RESONANCE_THRESHOLD_HZ / 1e6:g})"
    )


def test_fidelity_defaults_are_the_gate_constants():
    settings = {name: (default, text) for name, _, default, text in _COMMANDS["fidelity"][1]}
    assert settings["lambda_sw_um"][0] is gate.DEFAULT_LAMBDA_SW_UM
    assert settings["eta_c"][0] is gate.DEFAULT_ETA_C
    assert settings["lambda_sw_um"][1].endswith(f"(default {gate.DEFAULT_LAMBDA_SW_UM:g})")
    assert settings["eta_c"][1].endswith(f"(default {gate.DEFAULT_ETA_C:g})")
    assert settings["d_far_um"][1].endswith(f"(default {gate.DEFAULT_D_FAR_FACTOR:g}*d11)")


# ---------------------------------------------------------------------------
# domain edges: every numeric setting and every sweep axis at the edges of
# the floats, derived from the command table, so a new setting is covered

_EDGES = ("2.2250738585072014e-308", "1e-300", "1e-30", "0", "1e30", "1e300",
          "1.7976931348623157e308")
_EDGE_BASE = {"radii": ("--n", "70"), "merit": ("--n", "70"), "forster": ("--n", "70"),
              "fidelity": ("--values", "1")}


def _edge_inputs():
    """(argv, domain name) for each setting other than n and workers, and
    each fidelity axis other than n, at each edge value."""
    for command, (_, settings, _) in _COMMANDS.items():
        for key, cast, *_ in settings:
            if cast is str or key == "n":
                continue
            stem = key.rsplit("_", 1)[0] if key.endswith(("_mhz", "_uk", "_um", "_k")) else key
            for value in _EDGES:
                yield (command, *_EDGE_BASE[command], f"--{key.replace('_', '-')}", value), stem
    for axis in AXES:
        if axis != "n":
            for value in _EDGES:
                yield ("fidelity", "--axis", axis, "--values", value), axis


def _in_domain(name, text):
    try:
        check_domain(name, float(text))
    except ValueError:
        return False
    return True


_LONG_NUMBER = re.compile(r"\d[\d.]*(?:[eE][-+]?\d+)?")


@pytest.mark.parametrize(
    "argv, domain", [pytest.param(*case, id=" ".join(case[0])) for case in _edge_inputs()]
)
def test_every_input_at_a_domain_edge_ends_cleanly(tmp_path, capsys, argv, domain):
    """Exit 0 or 1 with a manifest, or 2 where the domain (or the integer
    parse, or the unit conversion) rejects the value; no exception, no
    warning, every row that is not an error finite but the NaN radii of a
    resonance-flagged row, and no number of more than 25 characters."""
    assert domain in DOMAINS
    out = tmp_path / "edge"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run(*argv, "--out", str(out))
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if not _in_domain(domain, argv[-1]):
        assert code == 2
    texts = [capsys.readouterr().out]
    if code != 2:
        command = argv[0]
        manifest = (out / f"{command}.manifest.json").read_text()
        texts.append(manifest)
        if (out / f"{command}.svg").exists():
            texts.append((out / f"{command}.svg").read_text())
        (status,) = json.loads(manifest)["rows"]  # one n or one axis value
        header, rows = read_csv(out / f"{command}.csv")
        for row in rows if not status.startswith("error") else []:
            cells = dict(zip(header, row))
            for name, cell in cells.items():
                if re.fullmatch(r"[-+]?(inf|nan|[\d.]+(e[-+]?\d+)?)", cell):
                    flagged = cells.get("resonance_flag") == "1" and name.startswith("r_b6")
                    assert math.isfinite(float(cell)) or (flagged and cell == "nan"), (name, row)
    for text in texts:
        assert max(map(len, _LONG_NUMBER.findall(text)), default=0) <= 25, text
