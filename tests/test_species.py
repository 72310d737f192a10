"""Species data loading and validation."""

import re
from importlib import resources

import pytest

from rydgate.constants import RYDBERG_HZ_INF
from rydgate.errors import SpeciesDataError
from rydgate.species import load_species, rb87, species_digest

MINIMAL = f"""
[species]
name = test
mass_kg = 1.4e-25
rydberg_constant_hz = {RYDBERG_HZ_INF:.6e}
ionization_reference_hz = 1.0e15

[defects]
0 0.5 3.13 0.18
1 0.5 2.65 0.29
1 1.5 2.64 0.29
2 1.5 1.35 -0.6
2 2.5 1.34 -0.6

[lifetimes]
0 1.37 3.0
1 2.76 3.0
2 2.09 3.0
"""


def write_and_load(tmp_path, text):
    path = tmp_path / "s.species"
    path.write_text(text)
    return load_species(path)


def test_packaged_rb87(species):
    assert species.name.lower().startswith("rb") or "87" in species.name
    assert species.mass == pytest.approx(1.443e-25, rel=1e-3)
    assert species.rydberg_constant == pytest.approx(RYDBERG_HZ_INF, rel=1e-3)
    # the five series every scan touches
    for L, J in [(0, 0.5), (1, 0.5), (1, 1.5), (2, 1.5), (2, 2.5)]:
        d0, _ = species.defect_coefficients(L, J)
        assert d0 > 0.0
    for L in (0, 1, 2):
        tau_s, alpha = species.lifetime_scaling(L)
        assert tau_s > 0 and alpha > 0


def test_species_is_hashable(species):
    assert {species: 1}[species] == 1


def test_high_l_defect_fallback(species):
    assert species.defect_coefficients(5, 4.5) == (0.0, 0.0)
    assert species.defect_coefficients(7, 6.5) == (0.0, 0.0)


def test_missing_low_l_entry_is_an_error(species):
    with pytest.raises(SpeciesDataError, match="L=4"):
        species.defect_coefficients(4, 3.5)


def test_missing_lifetime_entry_is_an_error(species):
    with pytest.raises(SpeciesDataError, match="L=9"):
        species.lifetime_scaling(9)


def test_minimal_file_loads(tmp_path):
    sp = write_and_load(tmp_path, MINIMAL)
    assert sp.name == "test"
    assert sp.defect_coefficients(2, 2.5) == (1.34, -0.6)
    assert sp.lifetime_scaling(1) == (2.76, 3.0)


def test_unreadable_file(tmp_path):
    with pytest.raises(SpeciesDataError, match="cannot read"):
        load_species(tmp_path / "nope.species")
    path = tmp_path / "latin1.species"
    path.write_bytes(MINIMAL.replace("name = test", "name = M\xfcller").encode("latin-1"))
    with pytest.raises(SpeciesDataError, match="cannot read"):
        load_species(path)


def test_missing_required_key(tmp_path):
    text = MINIMAL.replace("mass_kg = 1.4e-25\n", "")
    with pytest.raises(SpeciesDataError, match="mass_kg"):
        write_and_load(tmp_path, text)


def test_rydberg_constant_sanity_bound(tmp_path):
    text = MINIMAL.replace(f"{RYDBERG_HZ_INF:.6e}", f"{RYDBERG_HZ_INF * 1.01:.6e}")
    with pytest.raises(SpeciesDataError, match="0.1%"):
        write_and_load(tmp_path, text)


def test_duplicate_defect_entry(tmp_path):
    text = MINIMAL.replace("0 0.5 3.13 0.18", "0 0.5 3.13 0.18\n0 0.5 3.10 0.20")
    with pytest.raises(SpeciesDataError, match="duplicate"):
        write_and_load(tmp_path, text)


def test_bad_j_for_l(tmp_path):
    text = MINIMAL.replace("1 1.5 2.64 0.29", "1 2.5 2.64 0.29")
    with pytest.raises(SpeciesDataError, match="not L"):
        write_and_load(tmp_path, text)


def test_negative_j_for_s_series(tmp_path):
    text = MINIMAL.replace("0 0.5 3.13 0.18", "0 -0.5 3.13 0.18")
    with pytest.raises(SpeciesDataError, match="not L"):
        write_and_load(tmp_path, text)


def test_defect_row_width(tmp_path):
    text = MINIMAL.replace("0 0.5 3.13 0.18", "0 0.5 3.13")
    with pytest.raises(SpeciesDataError, match="4 fields"):
        write_and_load(tmp_path, text)


def test_no_defect_rows(tmp_path):
    head, _, tail = MINIMAL.partition("[defects]")
    text = head + "[defects]\n\n[lifetimes]" + tail.partition("[lifetimes]")[2]
    with pytest.raises(SpeciesDataError, match="defects"):
        write_and_load(tmp_path, text)


def test_nonpositive_lifetime_coefficient(tmp_path):
    text = MINIMAL.replace("1 2.76 3.0", "1 -2.76 3.0")
    with pytest.raises(SpeciesDataError, match="tau_s_ns"):
        write_and_load(tmp_path, text)


def test_rb87_cached_instance():
    assert rb87() is rb87()


def test_digest_is_of_the_bytes_loaded(tmp_path):
    path = tmp_path / "s.species"
    path.write_text(MINIMAL)
    sp = load_species(path)
    assert sp.digest == species_digest(path.read_bytes())
    packaged = resources.files("rydgate.data").joinpath("rb87.species").read_bytes()
    assert rb87().digest == species_digest(packaged)
    # A comment changes the bytes, not the species: the digest takes no
    # part in equality or hashing.
    other = tmp_path / "t.species"
    other.write_text(MINIMAL + "# a comment\n")
    twin = load_species(other)
    assert twin.digest != sp.digest and twin == sp and hash(twin) == hash(sp)


def test_number_errors_carry_file_line_and_field(tmp_path):
    path = tmp_path / "s.species"
    with pytest.raises(SpeciesDataError, match=re.escape(f"{path}:9: delta0 is not a number")):
        write_and_load(tmp_path, MINIMAL.replace("0 0.5 3.13 0.18", "0 0.5 abc 0.18"))
    with pytest.raises(SpeciesDataError, match=re.escape(f"{path}:10: L is not an integer")):
        write_and_load(tmp_path, MINIMAL.replace("1 0.5 2.65 0.29", "1.5 0.5 2.65 0.29"))


def test_scalar_errors_carry_file_and_line(tmp_path):
    path = tmp_path / "s.species"
    with pytest.raises(SpeciesDataError,
                       match=re.escape(f"{path}:4: mass_kg must be finite, got nan")):
        write_and_load(tmp_path, MINIMAL.replace("mass_kg = 1.4e-25", "mass_kg = nan"))
    rydberg = f"rydberg_constant_hz = {RYDBERG_HZ_INF:.6e}"
    with pytest.raises(SpeciesDataError, match=re.escape(f"{path}:5: rydberg_constant_hz")):
        write_and_load(tmp_path, MINIMAL.replace(rydberg, "rydberg_constant_hz = 3.0e15"))


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("mass_kg = 1.4e-25", "mass_kg = 0", "mass_kg"),
        ("ionization_reference_hz = 1.0e15", "ionization_reference_hz = inf",
         "ionization_reference_hz"),
        ("0 0.5 3.13 0.18", "0 0.5 -3.13 0.18", "delta0"),
        ("0 0.5 3.13 0.18", "0 0.5 3.13 nan", "delta2"),
        ("1 2.76 3.0", "1 2.76 0", "alpha"),
    ],
)
def test_numbers_outside_their_domain(tmp_path, old, new, field):
    with pytest.raises(SpeciesDataError, match=f"{field} must be"):
        write_and_load(tmp_path, MINIMAL.replace(old, new))
