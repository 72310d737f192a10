"""Key-value document grammar and deterministic CSV round trips."""

import csv

import pytest

from rydgate.errors import SpeciesDataError
from rydgate.textio import format_fixed, format_float, parse_document, parse_document_file, write_csv

SAMPLE = """
# leading comment
top_key = 1.5

[alpha]
name = demo   # trailing comment
0 0.5 3.13 0.178
1 1.5 2.64 0.29

[beta]
x = -2
"""


def test_sections_scalars_and_rows():
    doc = parse_document(SAMPLE, source="sample")
    assert doc.scalars[""]["top_key"] == "1.5"
    assert doc.section_scalars("alpha")["name"] == "demo"
    rows = doc.section_rows("alpha")
    assert [tokens for tokens, _ in rows] == [
        ["0", "0.5", "3.13", "0.178"],
        ["1", "1.5", "2.64", "0.29"],
    ]
    # line numbers are 1-based positions in the original text
    assert rows[0][1] == 7
    assert doc.section_scalars("beta") == {"x": "-2"}
    assert doc.section_rows("missing") == []


def test_require_scalar_names_section_and_key():
    doc = parse_document(SAMPLE, source="sample")
    assert doc.require_scalar("alpha", "name") == "demo"
    with pytest.raises(SpeciesDataError, match=r"'nope'.*\[alpha\]"):
        doc.require_scalar("alpha", "nope")


def test_malformed_section_header_reports_line():
    with pytest.raises(SpeciesDataError, match="f:2"):
        parse_document("ok = 1\n[unclosed\n", source="f")


def test_malformed_assignment_reports_line():
    with pytest.raises(SpeciesDataError, match="f:1"):
        parse_document("key =\n", source="f")
    with pytest.raises(SpeciesDataError, match="f:1"):
        parse_document("= value\n", source="f")


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(SpeciesDataError, match="cannot read"):
        parse_document_file(tmp_path / "nope.species")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"[radii]\nname = M\xfcller\n")
    with pytest.raises(SpeciesDataError, match="cannot read"):
        parse_document_file(latin1)


def test_duplicate_key_reports_the_second_line():
    # The same key in another section is no duplicate; a reopened section is the same one.
    assert parse_document("[a]\nx = 1\n[b]\nx = 2\n").section_scalars("b") == {"x": "2"}
    with pytest.raises(SpeciesDataError, match=r"f:6: duplicate key 'x' in \[a\]"):
        parse_document("[a]\nx = 1\n[b]\nx = 2\n[a]\nx = 3\n", source="f")


def test_format_float_is_12_significant_digits():
    assert format_float(1.0) == "1.00000000000e+00"
    assert format_float(-0.125) == "-1.25000000000e-01"
    assert format_float(6.02214076e23) == "6.02214076000e+23"


def test_format_fixed_is_fixed_point_below_a_million():
    assert format_fixed(21.70035525570, 3) == "21.700"
    assert format_fixed(17.0712, 2) == "17.07"
    assert format_fixed(999999.0, 2) == "999999.00"
    assert format_fixed(1e-300, 3) == "0.000"
    assert format_fixed(float("nan"), 3) == "nan"


@pytest.mark.parametrize("x", [1e6, 1e300, -1.7976931348623157e308, float("inf")])
def test_format_fixed_is_scientific_from_a_million_up(x):
    text = format_fixed(x, 3)
    assert float(text) == float(f"{x:.3e}") and len(text) <= 11


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    header = ["n", "value", "flag", "label"]
    table = [
        [70, 1.2345678901234e-7, True, "alpha"],
        [71, float("nan"), False, "beta"],
    ]
    write_csv(path, header, table)
    text = path.read_bytes().decode("utf-8")
    assert "\r" not in text
    assert text.endswith("\n")
    with open(path, newline="", encoding="utf-8") as fh:
        header_back, *rows = csv.reader(fh)
    assert header_back == header
    assert rows[0] == ["70", "1.23456789012e-07", "1", "alpha"]
    assert rows[1][1] == "nan"
    assert rows[1][2] == "0"
