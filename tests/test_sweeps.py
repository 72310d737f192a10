"""Sweep engine: spec validation, ordered parallel evaluation, manifests,
and the row builders behind each CLI table."""

import hashlib
import json
import math
import os
from concurrent.futures import Executor, Future

import numpy as np
import pytest

from rydgate import averaging, sweeps
from rydgate.averaging import averaged_fidelity, optimize_d11
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
    merit_rows,
    radii_rows,
    run_indexed,
)
from rydgate.species import species_digest


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
        SweepSpec(axis="n", values=(60.5, 70.0), fixed=fixed)
    with pytest.raises(ValueError):
        SweepSpec(axis="n", values=(-10.0,), fixed=fixed)
    with pytest.raises(ValueError):  # the level system needs an nP level
        SweepSpec(axis="n", values=(1.0,), fixed=fixed)
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
    manifest = RunManifest(
        tool_version="0.1.0",
        species_digest="deadbeef",
        config={"command": "fidelity", "axis": "omega_mu", "workers": "2"},
        wall_clock_s=1.25,
        row_status=("ok", "error: no window", "ok"),
    )
    path = tmp_path / "run.json"
    manifest.write(path)
    payload = json.loads(path.read_text())
    assert payload["species_sha256"] == "deadbeef"
    assert payload["config"] == {"axis": "omega_mu", "command": "fidelity", "workers": "2"}
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


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each pool run_indexed starts; its tasks run here."""
    sizes = []

    class InProcessPool(Executor):
        """Stands in for ProcessPoolExecutor: records its size, runs each task here."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, arg):
            future = Future()
            future.set_result(fn(arg))
            return future

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_run_indexed_pool_no_larger_than_payloads(pool_sizes, monkeypatch):
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 64)
    assert run_indexed(math.sqrt, [9.0, 4.0, 1.0], workers=64) == [3.0, 2.0, 1.0]
    assert run_indexed(math.sqrt, [16.0, 9.0, 4.0, 1.0], workers=2) == [4.0, 3.0, 2.0, 1.0]
    assert pool_sizes == [3, 2]


@pytest.mark.parametrize("cpus", [3, 1, None, "host"])
def test_run_indexed_pool_no_larger_than_the_cpus(pool_sizes, monkeypatch, cpus):
    """5,000 rows at --workers 5000 start one process per CPU, and none on a
    host of one CPU or an unknown count."""
    if cpus != "host":
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
    limit = os.cpu_count() or 1
    payloads = [float(x) for x in range(5000)]
    assert run_indexed(math.sqrt, payloads, workers=5000) == [math.sqrt(x) for x in payloads]
    assert pool_sizes == ([limit] if limit > 1 else [])


# ---------------------------------------------------------------------------
# fidelity sweep

def test_fidelity_sweep_fixed_d11(species):
    fixed = _fixed_params(species, q=0.0)
    spec = SweepSpec(
        axis="omega_mu",
        values=(TWOPI * 0.2e6, TWOPI * 0.3e6),
        fixed=fixed,
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


def test_fidelity_sweep_optimises_an_open_d11(species):
    """A working point without d11 gets the optimiser's separation per row."""
    fixed = _fixed_params(species, d11=None)
    spec = SweepSpec(axis="omega_mu", values=(fixed.omega_mu,), fixed=fixed)
    header, table, status = fidelity_sweep(species, spec)
    best = optimize_d11(fixed)
    cells = dict(zip(header, table[0]))
    assert cells["d11_um"] == best.d11_used
    assert cells["f_total"] == best.f_total


def test_fidelity_sweep_reports_quadrature_warnings(species, monkeypatch):
    """Panels too coarse for the fringe structure near the separation leave
    the site average uncertain; the row says so but still carries the
    (approximate) numbers."""
    monkeypatch.setattr(averaging, "_PANEL_PHASE", 200.0)
    fixed = _fixed_params(species, d11=14.0)
    spec = SweepSpec(
        axis="omega_mu",
        values=(TWOPI * 0.2e6,),
        fixed=fixed,
    )
    header, table, status = fidelity_sweep(species, spec)
    assert status[0].startswith("warning")
    assert "site average uncertain" in status[0]
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


def test_fidelity_sweep_n_axis_keeps_every_setting(species):
    """An n-axis row is the working point built at that n from all of the
    fixed point's settings, the optional ones and the radiation temperature
    included."""
    settings = dict(
        omega_mu=TWOPI * 0.25e6, omega_c=TWOPI * 10e6, d11=21.0, temperature=1e-7,
        q=0.2, omega_eit=TWOPI * 8e6, d_far=60.0, lambda_sw=0.9, eta_c=0.8,
    )
    fixed = GateParams.for_level_system(species, 70, bbr_temperature=300.0, **settings)
    spec = SweepSpec(axis="n", values=(60.0,), fixed=fixed)
    header, table, status = fidelity_sweep(species, spec)
    expected = averaged_fidelity(
        GateParams.for_level_system(species, 60, bbr_temperature=300.0, **settings)
    )
    cells = dict(zip(header, table[0]))
    assert not status[0].startswith("error")
    assert cells["f0_avg"] == expected.f0_avg
    assert cells["eta_m"] == expected.eta_m
    assert cells["f_total"] == expected.f_total
    assert cells["coupling_budget"] == expected.coupling_budget == 0.8**2


def test_fidelity_sweep_worker_count_invariance(species):
    fixed = _fixed_params(species)
    spec = SweepSpec(
        axis="q",
        values=(0.1, 0.2, 0.3),
        fixed=fixed,
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
    assert status == ["ok", "resonant: (38P3/2, 38P3/2)"]
    by_n = {row[0]: row for row in table}
    assert math.isnan(by_n[38][1]) and by_n[38][4] is True
    assert by_n[37][1] > 0 and by_n[37][4] is False


def test_merit_rows_resonant_n_gets_nan(species):
    header, table, status = merit_rows(species, [38, 70], 300.0)
    assert header == list(MERIT_COLUMNS)
    assert status == ["resonant: (38P3/2, 38P3/2)", "ok"]
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
