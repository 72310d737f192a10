"""Reproducible parameter sweeps behind the command-line front end.

Every command's rows come from one runner: a pure row function per
input returns ``(status, rows)``, ``rows`` being a list of CSV rows (one
for radii, merit and fidelity, zero or more for forster).  Results are
kept in input order at any worker count, so output bytes do not depend
on the process pool.  Per-row failures (resonant channel sums, empty
operating windows) are recorded in the row and in the run manifest, as
``error: <Type>: <msg>``, instead of aborting the sweep; a radii or merit
row whose pair has a near-degenerate channel is flagged, not failed, as
``resonant: <channel>``.

Unit conventions at this layer: GateParams fields are SI/internal
(rad/s, K, um); the ``axis_value`` CSV column is written in display
units (MHz for Rabi-frequency axes, uK for the temperature axis) so
artifacts read like lab numbers.  ``AXES`` (from ``constants``) holds each
axis's two unit conversions and its plot label.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor

from .averaging import averaged_fidelity, optimize_d11
from .constants import AXES, DEFAULT_MAX_DELTA_N, SWEEP_AXES, check_axis_values
from .errors import ResonanceError, RydgateError
from .gate import GateParams
from .lengthscales import _level_system, figure_of_merit, radii_point
from .pair import PairState, forster_channels
from .species import AtomSpecies

__all__ = [
    "AXES",
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
    temperature, plain numbers for n and q) and pass ``check_axis_values``.
    ``fixed`` supplies every non-axis parameter, the d11 choice included
    (None optimises it per row); for the n axis each row rebuilds the
    working point from ``fixed.settings`` at that n.
    """

    axis: str
    values: tuple[float, ...]
    fixed: GateParams

    def __post_init__(self) -> None:
        check_axis_values(self.axis, self.values)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a sweep byte-for-byte.

    The CSV content is a pure function of (tool_version, species_digest,
    config); wall clock and row statuses record how the run went.
    """

    tool_version: str
    species_digest: str
    config: dict[str, str]
    wall_clock_s: float
    row_status: tuple[str, ...]

    def write(self, path) -> None:
        payload = {
            "tool_version": self.tool_version,
            "species_sha256": self.species_digest,
            "config": self.config,
            "wall_clock_s": self.wall_clock_s,
            "rows": list(self.row_status),
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @property
    def n_errors(self) -> int:
        return sum(1 for s in self.row_status if s.startswith("error"))


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
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        futures = {pool.submit(row_func, p): i for i, p in enumerate(payloads)}
        for fut, idx in futures.items():
            out[idx] = fut.result()
    return out


def _run_rows(columns, row_func, payloads, workers: int):
    """Run a command's rows; returns (header, table rows, row statuses).

    ``row_func`` returns ``(status, rows)`` per payload, ``rows`` a list
    of CSV rows; the table joins them in input order, one status per
    payload.
    """
    results = run_indexed(row_func, payloads, workers)
    table = [row for _, rows in results for row in rows]
    return list(columns), table, [status for status, _ in results]


# ---------------------------------------------------------------------------
# fidelity sweep


def _fidelity_row(args):
    """One sweep row: (status, [row]). Top level so pools can pickle it."""
    species, spec, value = args
    _, to_display, _ = AXES[spec.axis]
    display = to_display(float(value))
    window_ok = False  # until the working point's lengthscales are known
    try:
        if spec.axis == "n":
            params = GateParams.for_level_system(species, int(value), **spec.fixed.settings)
        else:
            params = dataclasses.replace(spec.fixed, **{spec.axis: float(value)})
        window_ok = params.lengthscales.window_ok
        avg = averaged_fidelity(params) if params.d11 is not None else optimize_d11(params)
    except RydgateError as exc:
        nan = float("nan")
        return _error_status(exc), [[display, nan, nan, nan, nan, nan, window_ok]]
    row = [display, avg.d11_used, avg.f0_avg, avg.eta_m, avg.f_total, avg.coupling_budget, window_ok]
    if avg.warnings:
        return "warning: " + "; ".join(avg.warnings), [row]
    return "ok", [row]


def fidelity_sweep(species: AtomSpecies, spec: SweepSpec, workers: int = 1):
    """Run the sweep; returns (header, table rows, row statuses)."""
    payloads = [(species, spec, v) for v in spec.values]
    return _run_rows(FIDELITY_COLUMNS, _fidelity_row, payloads, workers)


# ---------------------------------------------------------------------------
# radii / merit / forster rows


def _radii_row(args):
    species, n, omega = args
    nan = float("nan")
    try:
        point = radii_point(species, n, omega)
    except RydgateError as exc:
        return _error_status(exc), [[n, nan, nan, nan, False]]
    cells = [
        point.n,
        nan if point.r_b6_cross_um is None else point.r_b6_cross_um,
        nan if point.r_b6_same_um is None else point.r_b6_same_um,
        point.r_b3_um,
        point.resonant,
    ]
    return "ok" if point.resonance is None else f"resonant: {point.resonance}", [cells]


def radii_rows(species: AtomSpecies, n_values, omega: float, workers: int = 1):
    payloads = [(species, n, omega) for n in n_values]
    return _run_rows(RADII_COLUMNS, _radii_row, payloads, workers)


def _merit_row(args):
    species, n, temperature = args
    nan = float("nan")
    try:
        point = figure_of_merit(species, n, temperature)
    except ResonanceError as exc:
        return f"resonant: {exc.channel.final.label}", [[n, nan, nan, True]]
    except RydgateError as exc:
        return _error_status(exc), [[n, nan, nan, False]]
    return "ok", [[n, point.merit, point.gamma_used, False]]


def merit_rows(species: AtomSpecies, n_values, temperature: float, workers: int = 1):
    payloads = [(species, n, temperature) for n in n_values]
    return _run_rows(MERIT_COLUMNS, _merit_row, payloads, workers)


def _forster_row(args):
    species, n, threshold_hz, max_delta_n = args
    control, target, _ = _level_system(n)
    pair = PairState(control, target)
    try:
        channels = forster_channels(species, pair, max_delta_n=max_delta_n)
    except RydgateError as exc:
        return _error_status(exc), []
    initial = [n, pair.a.label, pair.b.label]
    return "ok", [
        [*initial, ch.final.a.label, ch.final.b.label, ch.defect_hz, ch.coupling_ghz_um3]
        for ch in channels
        if abs(ch.defect_hz) < threshold_hz
    ]


def forster_rows(
    species: AtomSpecies,
    n_values,
    threshold_hz: float,
    max_delta_n: int = DEFAULT_MAX_DELTA_N,
    workers: int = 1,
):
    """Near-resonant channels across a range of n, sorted by |defect|."""
    payloads = [(species, n, threshold_hz, max_delta_n) for n in n_values]
    header, rows, status = _run_rows(FORSTER_COLUMNS, _forster_row, payloads, workers)
    rows.sort(key=lambda r: (abs(r[5]), r[0], r[3], r[4]))
    return header, rows, status
