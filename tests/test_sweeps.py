"""Sweep engine: spec validation, ordered parallel evaluation, manifests,
and the row builders behind each CLI table."""

import hashlib
import json
import math

import numpy as np
import pytest

from rydgate.constants import TWOPI
from rydgate.gate import GateParams
from rydgate.sweeps import (
    FIDELITY_COLUMNS,
    FORSTER_COLUMNS,
    MERIT_COLUMNS,
    RADII_COLUMNS,
    RunManifest,
    SweepSpec,
    fidelity_sweep,
    forster_rows,
    make_manifest,
    merit_rows,
    radii_rows,
    run_indexed,
    species_digest,
)


def _fixed_params(species, **overrides):
    base = dict(
        omega_mu=TWOPI * 0.25e6,
        omega_c=TWOPI * 10e6,
        d11=12.0,
        temperature=1e-7,
        q=0.2,
    )
    base.update(overrides)
    return GateParams.for_level_system(species, 70, **base)


# ---------------------------------------------------------------------------
# spec validation

def test_sweep_spec_validation(species):
    fixed = _fixed_params(species)
    good = dict(axis="omega_mu", values=(1e6, 2e6), fixed=fixed)
    SweepSpec(**good)
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "axis": "detuning"})
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "values": ()})
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "values": (1e6, 3e6, 2e6)})
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "d11_mode": "auto"})
    with pytest.raises(ValueError):
        SweepSpec(axis="n", values=(60.5, 70.0), fixed=fixed)
    with pytest.raises(ValueError):
        SweepSpec(axis="n", values=(-10.0,), fixed=fixed)
    with pytest.raises(ValueError, match="finite"):
        SweepSpec(axis="n", values=(50.0, math.inf), fixed=fixed)
    with pytest.raises(ValueError, match="Rabi"):
        SweepSpec(**{**good, "values": (0.0, 1e6)})
    with pytest.raises(ValueError, match="q must"):
        SweepSpec(axis="q", values=(-1.0, 1.0), fixed=fixed)
    # descending is fine, it is still strictly monotone
    SweepSpec(**{**good, "values": (2e6, 1e6)})


# ---------------------------------------------------------------------------
# manifest

def test_manifest_round_trip(tmp_path):
    manifest = make_manifest(
        "deadbeef",
        {"command": "fidelity", "axis": "omega_mu", "workers": 2},
        wall_clock_s=1.25,
        row_status=["ok", "error: no window", "ok"],
    )
    path = tmp_path / "run.json"
    manifest.write(path)
    payload = json.loads(path.read_text())
    assert payload["species_sha256"] == "deadbeef"
    assert tuple(sorted(payload["config"].items())) == manifest.config
    assert payload["rows"] == ["ok", "error: no window", "ok"]
    assert payload["wall_clock_s"] == 1.25
    assert payload["tool_version"] == manifest.tool_version
    assert manifest.n_errors == 1


def test_species_digest_is_sha256():
    assert species_digest(b"abc") == hashlib.sha256(b"abc").hexdigest()


# ---------------------------------------------------------------------------
# ordered parallel evaluation

def test_run_indexed_preserves_order():
    payloads = [49.0, 36.0, 25.0, 16.0, 9.0]
    serial = run_indexed(math.sqrt, payloads, workers=1)
    parallel = run_indexed(math.sqrt, payloads, workers=3)
    assert serial == [7.0, 6.0, 5.0, 4.0, 3.0]
    assert parallel == serial


# ---------------------------------------------------------------------------
# fidelity sweep

def test_fidelity_sweep_fixed_d11(species):
    fixed = _fixed_params(species, q=0.0)
    spec = SweepSpec(
        axis="omega_mu",
        values=(TWOPI * 0.2e6, TWOPI * 0.3e6),
        fixed=fixed,
        d11_mode="fixed",
    )
    header, table, status = fidelity_sweep(species, spec)
    assert header == list(FIDELITY_COLUMNS)
    assert status == ["ok", "ok"]  # q = 0 needs no quadrature at all
    assert len(table) == 2
    for row, mhz in zip(table, (0.2, 0.3)):
        cells = dict(zip(header, row))
        assert cells["axis_value"] == pytest.approx(mhz, rel=1e-12)
        assert cells["d11_um"] == fixed.d11
        assert cells["eta_m"] == 1.0
        assert cells["f_total"] == pytest.approx(
            cells["eta_m"] * cells["f0_avg"], rel=1e-12
        )
        assert 0.0 < cells["f_total"] <= 1.0
        assert cells["window_ok"] is True


def test_fidelity_sweep_reports_quadrature_warnings(species):
    """At finite q the fringe structure near a poorly chosen separation
    exceeds what the default quadrature resolves; the row says so but
    still carries the (approximate) numbers."""
    fixed = _fixed_params(species, d11=14.0)
    spec = SweepSpec(
        axis="omega_mu",
        values=(TWOPI * 0.2e6,),
        fixed=fixed,
        d11_mode="fixed",
    )
    header, table, status = fidelity_sweep(species, spec)
    assert status[0].startswith("warning")
    assert "quadrature" in status[0]
    cells = dict(zip(header, table[0]))
    assert math.isfinite(cells["f_total"])
    assert cells["window_ok"] is True


def test_fidelity_sweep_resonant_n_row(species):
    fixed = _fixed_params(species)
    spec = SweepSpec(axis="n", values=(38.0,), fixed=fixed)
    header, table, status = fidelity_sweep(species, spec)
    assert len(status) == 1 and status[0].startswith("error")
    cells = dict(zip(header, table[0]))
    assert cells["axis_value"] == 38.0
    assert math.isnan(cells["f_total"]) and math.isnan(cells["d11_um"])
    assert cells["window_ok"] is False


def test_fidelity_sweep_worker_count_invariance(species):
    fixed = _fixed_params(species)
    spec = SweepSpec(
        axis="q",
        values=(0.1, 0.2, 0.3),
        fixed=fixed,
        d11_mode="fixed",
    )
    header1, table1, status1 = fidelity_sweep(species, spec, workers=1)
    header2, table2, status2 = fidelity_sweep(species, spec, workers=2)
    assert header1 == header2
    assert status1 == status2
    assert table1 == table2  # bitwise-equal floats, not just close


# ---------------------------------------------------------------------------
# table builders

def test_radii_rows_header_and_flags(species):
    header, table, status = radii_rows(species, [37, 38], TWOPI * 1e6)
    assert header == list(RADII_COLUMNS)
    assert status == ["ok", "ok"]
    by_n = {row[0]: row for row in table}
    assert math.isnan(by_n[38][1]) and by_n[38][4] is True
    assert by_n[37][1] > 0 and by_n[37][4] is False


def test_merit_rows_resonant_n_gets_nan(species):
    header, table, status = merit_rows(species, [38, 70], 300.0)
    assert header == list(MERIT_COLUMNS)
    assert status == ["ok", "ok"]
    flagged, clean = table[0], table[1]
    assert flagged[0] == 38 and math.isnan(flagged[1]) and flagged[3] is True
    assert clean[0] == 70 and clean[1] > 0 and clean[3] is False


def test_forster_rows_ranking(species):
    header, table, status = forster_rows(species, range(36, 41), 1e9)
    assert header == list(FORSTER_COLUMNS)
    assert all(s == "ok" for s in status)
    assert table, "expected near-degenerate channels in this range"
    defects = [abs(row[5]) for row in table]
    assert defects == sorted(defects)
    top = table[0]
    assert top[0] == 38
    assert top[3] == "38P3/2" and top[4] == "38P3/2"


def test_forster_rows_zero_threshold_is_empty(species):
    header, table, status = forster_rows(species, [38], 0.0)
    assert table == []
    assert status == ["ok"]
