"""Reproducible parameter sweeps behind the command-line front end.

Rows are keyed by input index and evaluated on a process pool; every
row function is pure, so output bytes are identical at any worker
count.  Per-row failures (resonant channel sums, empty operating
windows) are recorded in the row and in the run manifest, as
``error: <Type>: <msg>``, instead of aborting the sweep.

Unit conventions at this layer: GateParams fields are SI/internal
(rad/s, K, um); the ``axis_value`` CSV column is written in display
units (MHz for Rabi-frequency axes, uK for the temperature axis) so
artifacts read like lab numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .averaging import averaged_fidelity, optimize_d11
from .constants import TWOPI
from .errors import ResonanceError, RydgateError
from .gate import GateParams
from .lengthscales import _level_system, figure_of_merit, radii_point
from .pair import DEFAULT_MAX_DELTA_N, DEFAULT_MAX_L, PairState, forster_channels
from .species import AtomSpecies

__all__ = [
    "SWEEP_AXES",
    "FIDELITY_COLUMNS",
    "SweepSpec",
    "RunManifest",
    "run_indexed",
    "fidelity_sweep",
    "radii_rows",
    "merit_rows",
    "forster_rows",
]

SWEEP_AXES = ("omega_mu", "omega_c", "n", "q", "temperature")

FIDELITY_COLUMNS = (
    "axis_value",
    "d11_um",
    "f0_avg",
    "eta_m",
    "f_total",
    "coupling_budget",
    "window_ok",
)

RADII_COLUMNS = ("n", "r_b6_cross_um", "r_b6_same_um", "r_b3_um", "resonance_flag")
MERIT_COLUMNS = ("n", "O", "gamma_used_hz", "resonance_flag")
FORSTER_COLUMNS = (
    "n",
    "initial_a",
    "initial_b",
    "final_a",
    "final_b",
    "defect_hz",
    "coupling_ghz_um3",
)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One-axis fidelity sweep: which knob, its values, everything else fixed.

    ``values`` are in internal units (rad/s for the omega axes, K for
    temperature, plain numbers for n and q) and must be strictly
    monotone.  ``fixed`` supplies every non-axis parameter; for the n
    axis each row rebuilds the interaction coefficients and decay rates
    from atomic structure at ``bbr_temperature``.
    """

    axis: str
    values: tuple[float, ...]
    fixed: GateParams
    d11_mode: str = "opt"
    bbr_temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; choose from {SWEEP_AXES}")
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one axis value")
        diffs = np.diff(np.asarray(self.values, dtype=float))
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("axis values must be strictly monotone")
        if self.d11_mode not in ("opt", "fixed"):
            raise ValueError("d11_mode must be 'opt' or 'fixed'")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"axis values must be finite, got {list(self.values)}")
        if self.axis == "n":
            bad = [v for v in self.values if float(v) != int(v) or v < 1]
            if bad:
                raise ValueError(f"n axis values must be positive integers, got {bad}")
        else:
            # Every value must make a valid working point before any row runs.
            for v in self.values:
                dataclasses.replace(self.fixed, **{self.axis: float(v)})


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a sweep byte-for-byte.

    The CSV content is a pure function of (tool_version, species_digest,
    config); wall clock and row statuses record how the run went.
    """

    tool_version: str
    species_digest: str
    config: tuple[tuple[str, str], ...]
    wall_clock_s: float
    row_status: tuple[str, ...]

    def write(self, path) -> None:
        payload = {
            "tool_version": self.tool_version,
            "species_sha256": self.species_digest,
            "config": {k: v for k, v in self.config},
            "wall_clock_s": self.wall_clock_s,
            "rows": list(self.row_status),
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @property
    def n_errors(self) -> int:
        return sum(1 for s in self.row_status if s.startswith("error"))


def species_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_manifest(
    digest: str, config: dict, wall_clock_s: float, row_status
) -> RunManifest:
    cfg = tuple(sorted((str(k), str(v)) for k, v in config.items()))
    return RunManifest(
        tool_version=__version__,
        species_digest=digest,
        config=cfg,
        wall_clock_s=float(wall_clock_s),
        row_status=tuple(row_status),
    )


def _error_status(exc: RydgateError) -> str:
    """Status of a failed row; every command's failures start with 'error'."""
    return f"error: {type(exc).__name__}: {exc}"


def run_indexed(row_func, payloads, workers: int = 1) -> list:
    """Evaluate ``row_func`` over payloads, results in input order.

    Results land in a slot keyed by input index, so worker count and
    completion order cannot change the output.
    """
    payloads = list(payloads)
    if workers <= 1 or len(payloads) <= 1:
        return [row_func(p) for p in payloads]
    out: list = [None] * len(payloads)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(row_func, p): i for i, p in enumerate(payloads)}
        for fut, idx in futures.items():
            out[idx] = fut.result()
    return out


# ---------------------------------------------------------------------------
# fidelity sweep


def _params_for_axis_value(
    species: AtomSpecies, spec: SweepSpec, value: float
) -> GateParams:
    if spec.axis == "n":
        return GateParams.for_level_system(
            species,
            int(value),
            omega_mu=spec.fixed.omega_mu,
            omega_c=spec.fixed.omega_c,
            d11=spec.fixed.d11,
            temperature=spec.fixed.temperature,
            q=spec.fixed.q,
            bbr_temperature=spec.bbr_temperature,
            omega_eit=spec.fixed.omega_eit,
            d_far=spec.fixed.d_far,
            lambda_sw=spec.fixed.lambda_sw,
            eta_c=spec.fixed.eta_c,
        )
    return dataclasses.replace(spec.fixed, **{spec.axis: float(value)})


_AXIS_DISPLAY_SCALE = {
    "omega_mu": 1.0 / (TWOPI * 1e6),  # rad/s -> MHz
    "omega_c": 1.0 / (TWOPI * 1e6),
    "temperature": 1e6,  # K -> uK
    "n": 1.0,
    "q": 1.0,
}


def _fidelity_row(args):
    """One sweep row: (status, cells dict). Top level so pools can pickle it."""
    species, spec, value = args
    display = float(value) * _AXIS_DISPLAY_SCALE[spec.axis]
    nan = float("nan")
    cells = {
        "axis_value": display,
        "d11_um": nan,
        "f0_avg": nan,
        "eta_m": nan,
        "f_total": nan,
        "coupling_budget": nan,
        "window_ok": False,
    }
    try:
        params = _params_for_axis_value(species, spec, value)
        scales = params.lengthscales
        if spec.d11_mode == "opt":
            d_used, avg = optimize_d11(params)
        else:
            avg = averaged_fidelity(params)
            d_used = params.d11
        cells.update(
            d11_um=d_used,
            f0_avg=avg.f0_avg,
            eta_m=avg.eta_m,
            f_total=avg.f_total,
            coupling_budget=avg.coupling_budget,
            window_ok=scales.window_ok,
        )
        if avg.warnings:
            return "warning: " + "; ".join(avg.warnings), cells
        return "ok", cells
    except RydgateError as exc:
        return _error_status(exc), cells


def fidelity_sweep(species: AtomSpecies, spec: SweepSpec, workers: int = 1):
    """Run the sweep; returns (header, table rows, row statuses)."""
    results = run_indexed(
        _fidelity_row, [(species, spec, v) for v in spec.values], workers
    )
    table = [[cells[c] for c in FIDELITY_COLUMNS] for _, cells in results]
    return list(FIDELITY_COLUMNS), table, [s for s, _ in results]


# ---------------------------------------------------------------------------
# radii / merit / forster rows


def _radii_row(args):
    species, n, omega = args
    nan = float("nan")
    try:
        point = radii_point(species, n, omega)
    except RydgateError as exc:
        return _error_status(exc), [n, nan, nan, nan, False]
    cells = [
        point.n,
        nan if point.r_b6_cross_um is None else point.r_b6_cross_um,
        nan if point.r_b6_same_um is None else point.r_b6_same_um,
        point.r_b3_um,
        point.resonant,
    ]
    return "ok", cells


def radii_rows(species: AtomSpecies, n_values, omega: float, workers: int = 1):
    results = run_indexed(_radii_row, [(species, n, omega) for n in n_values], workers)
    return list(RADII_COLUMNS), [c for _, c in results], [s for s, _ in results]


def _merit_row(args):
    species, n, temperature = args
    nan = float("nan")
    try:
        point = figure_of_merit(species, n, temperature)
    except ResonanceError:
        return "ok", [n, nan, nan, True]
    except RydgateError as exc:
        return _error_status(exc), [n, nan, nan, False]
    return "ok", [n, point.merit, point.gamma_used, False]


def merit_rows(species: AtomSpecies, n_values, temperature: float, workers: int = 1):
    results = run_indexed(
        _merit_row, [(species, n, temperature) for n in n_values], workers
    )
    return list(MERIT_COLUMNS), [c for _, c in results], [s for s, _ in results]


def _forster_row(args):
    species, n, threshold_hz, max_delta_n, max_l = args
    control, target, _ = _level_system(n)
    pair = PairState(control, target)
    try:
        channels = forster_channels(
            species, pair, max_delta_n=max_delta_n, max_l=max_l
        )
    except RydgateError as exc:
        return _error_status(exc), []
    rows = []
    for ch in channels:
        if abs(ch.defect_hz) < threshold_hz:
            rows.append(
                [
                    n,
                    ch.initial.a.label,
                    ch.initial.b.label,
                    ch.final.a.label,
                    ch.final.b.label,
                    ch.defect_hz,
                    ch.coupling_ghz_um3,
                ]
            )
    return "ok", rows


def forster_rows(
    species: AtomSpecies,
    n_values,
    threshold_hz: float,
    max_delta_n: int = DEFAULT_MAX_DELTA_N,
    max_l: int = DEFAULT_MAX_L,
    workers: int = 1,
):
    """Near-resonant channels across a range of n, sorted by |defect|."""
    results = run_indexed(
        _forster_row,
        [(species, n, threshold_hz, max_delta_n, max_l) for n in n_values],
        workers,
    )
    rows = [row for _, per_n in results for row in per_n]
    rows.sort(key=lambda r: (abs(r[5]), r[0], r[3], r[4]))
    return list(FORSTER_COLUMNS), rows, [s for s, _ in results]
