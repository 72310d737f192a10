"""Command-line front end: ``rydgate <radii|merit|fidelity|forster>``.

All frequencies on the command line and in config files are ordinary
frequencies in MHz (nu, not omega); conversion to angular rad/s happens
here, once.  Motional temperatures are in uK, radiation temperatures in
K.  Each command writes ``<cmd>.csv`` plus a JSON run manifest (and an
SVG where a plot makes sense) into ``--out``.

Config files use the same line-oriented grammar as species files, with
one section per command plus ``[common]``; command-line flags override
config values.

Every command is one row of ``_COMMANDS``: its settings, each a
(key, cast, default, help) tuple that gives the ``--flag``, the config key
and the manifest entry, and one function that checks the settings and
computes the rows.  ``_run_command`` does the rest once for all four.

Exit codes: 0 clean, 1 row-level failures recorded in the CSV, 2 usage
errors, 3 unreadable or malformed data files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from importlib import resources

from .constants import mhz_to_rad_s
from .errors import RydgateError, SpeciesDataError
from .gate import GateParams
from .species import AtomSpecies, load_species
from .svgplot import Series, render_plot
from .sweeps import (
    SWEEP_AXES,
    SweepSpec,
    fidelity_sweep,
    forster_rows,
    make_manifest,
    merit_rows,
    radii_rows,
    species_digest,
)
from .textio import parse_document_file, write_csv

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """Bad command-line or config input; message names the offending token."""


def _parse_n_range(text: str) -> list[int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"bad n range {text!r}: expected lo:hi integers") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"bad n range {text!r}: need 1 <= lo <= hi")
    return list(range(lo, hi + 1))


def _parse_axis_values(text: str, axis: str) -> tuple[float, ...]:
    """Axis values in display units. Comma list, lo:hi:step, lo:hi:count:log."""
    text = text.strip()
    if "," in text:
        try:
            return tuple(float(tok) for tok in text.split(","))
        except ValueError:
            raise UsageError(f"bad values list {text!r}") from None
    parts = text.split(":")
    try:
        if len(parts) == 4 and parts[3] == "log":
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if lo <= 0 or hi <= lo or count < 2:
                raise ValueError
            step = (math.log10(hi) - math.log10(lo)) / (count - 1)
            return tuple(10.0 ** (math.log10(lo) + i * step) for i in range(count))
        if len(parts) == 3:
            lo, hi, step = (float(p) for p in parts)
            if step <= 0 or hi < lo:
                raise ValueError
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            return tuple(lo + i * step for i in range(count))
        if len(parts) == 2 and axis == "n":
            return tuple(float(v) for v in _parse_n_range(text))
        if len(parts) == 1:
            return (float(parts[0]),)
    except ValueError:
        pass
    raise UsageError(
        f"bad values {text!r}: expected comma list, lo:hi:step, or lo:hi:count:log"
    )


_AXIS_TO_INTERNAL = {
    "omega_mu": mhz_to_rad_s,
    "omega_c": mhz_to_rad_s,
    "temperature": lambda v: v * 1e-6,
    "n": float,
    "q": float,
}

_AXIS_LABEL = {
    "omega_mu": "nu_mu (MHz)",
    "omega_c": "nu_c (MHz)",
    "n": "principal quantum number n",
    "q": "q = w0 / r_b6",
    "temperature": "temperature (uK)",
}


def _load_species_arg(path) -> tuple[AtomSpecies, str, str]:
    """(species, sha256 digest, human-readable source)."""
    if path is None:
        res = resources.files("rydgate.data").joinpath("rb87.species")
        data = res.read_bytes()
        with resources.as_file(res) as p:
            return load_species(p), species_digest(data), "packaged:rb87.species"
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SpeciesDataError(f"cannot read {path}: {exc}") from exc
    return load_species(path), species_digest(data), str(path)


# ---------------------------------------------------------------------------
# commands: each checks its settings, computes its rows and returns
# ((header, table, status), plot or None, summary line).  A plot is the
# render_plot keywords, with ``columns`` for its series: (table column,
# label, dashed), each plotted against column 0.


def _radii(s, species, csv_path):
    if s["omega_mhz"] <= 0:
        raise UsageError(f"--omega-mhz must be positive, got {s['omega_mhz']}")
    rows = radii_rows(
        species, _parse_n_range(s["n"]), mhz_to_rad_s(s["omega_mhz"]), s["workers"]
    )
    table = rows[1]
    plot = dict(
        columns=[
            (3, "r_b3 (um)", False),
            (1, "r_b6 nS,(n+1)S (um)", False),
            (2, "r_b6 nS,nS (um)", True),
        ],
        title=f"Blockade radii, nu = {s['omega_mhz']:g} MHz",
        xlabel="principal quantum number n",
        ylabel="radius (um)",
        ylog=True,
    )
    flagged = sum(1 for r in table if r[4])
    return rows, plot, f"radii: {len(table)} rows -> {csv_path} ({flagged} resonance-flagged)"


def _merit(s, species, csv_path):
    temp_k = s["radiation_temp_k"]
    if temp_k < 0:
        raise UsageError(f"--radiation-temp-k must be non-negative, got {temp_k}")
    rows = merit_rows(species, _parse_n_range(s["n"]), temp_k, s["workers"])
    table = rows[1]
    plot = dict(
        columns=[(1, "O", False)],
        title=f"Figure of merit, radiation T = {temp_k:g} K",
        xlabel="principal quantum number n",
        ylabel="O = C3^2 / (C6 hbar Gamma)",
        ylog=True,
    )
    flagged = sum(1 for r in table if r[3])
    return rows, plot, f"merit: {len(table)} rows -> {csv_path} ({flagged} resonance-flagged)"


def _fidelity(s, species, csv_path):
    axis = s["axis"]
    if axis not in SWEEP_AXES:
        raise UsageError(f"unknown axis {axis!r}; choose from {', '.join(SWEEP_AXES)}")
    d11_text = s["d11"]
    if d11_text == "opt":
        d11_mode, d11_um = "opt", 20.0
    elif d11_text.startswith("fixed:"):
        try:
            d11_um = float(d11_text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad --d11 value {d11_text!r}") from None
        if d11_um <= 0:
            raise UsageError(f"--d11 separation must be positive, got {d11_um}")
        d11_mode = "fixed"
    else:
        raise UsageError(f"bad --d11 mode {d11_text!r}: expected 'opt' or 'fixed:<um>'")
    values = tuple(
        _AXIS_TO_INTERNAL[axis](v) for v in _parse_axis_values(s["values"], axis)
    )
    nu_eit = s["omega_eit_mhz"]
    try:
        fixed = GateParams.for_level_system(
            species,
            s["n"],
            omega_mu=mhz_to_rad_s(s["omega_mu_mhz"]),
            omega_c=mhz_to_rad_s(s["omega_c_mhz"]),
            d11=d11_um,
            temperature=s["temperature_uk"] * 1e-6,
            q=s["q"],
            bbr_temperature=s["bbr_temp_k"],
            omega_eit=None if nu_eit is None else mhz_to_rad_s(nu_eit),
            d_far=s["d_far_um"],
            lambda_sw=s["lambda_sw_um"],
            eta_c=s["eta_c"],
        )
        spec = SweepSpec(
            axis=axis,
            values=values,
            fixed=fixed,
            d11_mode=d11_mode,
            bbr_temperature=s["bbr_temp_k"],
        )
    except (ValueError, RydgateError) as exc:
        raise UsageError(str(exc)) from None

    rows = fidelity_sweep(species, spec, s["workers"])
    table = rows[1]
    plot = dict(
        columns=[(4, "f_total", False), (2, "f0_avg", True), (3, "eta_m", True)],
        title=f"Averaged gate fidelity vs {axis}",
        xlabel=_AXIS_LABEL[axis],
        ylabel="fidelity",
        xlog=axis in ("omega_mu", "omega_c"),
    )
    finite = [row for row in table if not math.isnan(row[4])]
    if not finite:
        return rows, plot, f"fidelity: {len(table)} rows -> {csv_path}; no finite rows"
    best = max(finite, key=lambda row: row[4])
    summary = (
        f"fidelity: {len(table)} rows -> {csv_path}; "
        f"best f_total = {best[4]:.4f} at {axis} = {best[0]:g} "
        f"(d11 = {best[1]:.2f} um); coupling budget eta_c^2 = {best[5]:.3f}, "
        f"overall = {best[5] * best[4]:.4f}"
    )
    return rows, plot, summary


def _forster(s, species, csv_path):
    if s["threshold_mhz"] < 0:
        raise UsageError(f"--threshold-mhz must be non-negative, got {s['threshold_mhz']}")
    rows = forster_rows(
        species,
        _parse_n_range(s["n"]),
        s["threshold_mhz"] * 1e6,
        s["max_delta_n"],
        s["max_l"],
        s["workers"],
    )
    return rows, None, f"forster: {len(rows[1])} channel rows -> {csv_path}"


# ---------------------------------------------------------------------------
# the command table: settings are (key, cast, default, help)

_COMMON = (
    ("species", str, None, "species data file (default: packaged 87Rb)"),
    ("out", str, ".", "output directory (default: current directory)"),
    ("workers", int, 1, "parallel row workers (default 1)"),
)

_COMMANDS = {
    "radii": (
        "blockade radii vs principal quantum number",
        (
            ("n", str, "30:100", "n range lo:hi (default 30:100)"),
            ("omega_mhz", float, 1.0, "EIT/microwave linewidth nu in MHz (default 1)"),
        ),
        _radii,
    ),
    "merit": (
        "level-system figure of merit vs n",
        (
            ("n", str, "30:100", "n range lo:hi (default 30:100)"),
            (
                "radiation_temp_k",
                float,
                300.0,
                "radiation temperature in K for decay rates (default 300)",
            ),
        ),
        _merit,
    ),
    "fidelity": (
        "averaged gate fidelity along one axis",
        (
            ("axis", str, "omega_mu", f"sweep axis, one of {', '.join(SWEEP_AXES)}"),
            (
                "values",
                str,
                "0.01:10:25:log",
                "axis values: comma list, lo:hi:step, or lo:hi:count:log "
                "(MHz for omega axes, uK for temperature)",
            ),
            ("n", int, 70, "principal quantum number (default 70)"),
            ("omega_mu_mhz", float, 0.3, "microwave Rabi nu_mu in MHz (default 0.3)"),
            ("omega_c_mhz", float, 10.0, "coupling Rabi nu_c in MHz (default 10)"),
            (
                "omega_eit_mhz",
                float,
                None,
                "EIT window linewidth in MHz (default: the coupling Rabi frequency)",
            ),
            ("q", float, 0.2, "waist to blockade-radius ratio (default 0.2)"),
            ("temperature_uk", float, 0.1, "motional temperature in uK (default 0.1)"),
            (
                "d11",
                str,
                "opt",
                "'opt' to optimize the pair separation, or fixed:<um> (default opt)",
            ),
            ("d_far_um", float, None, "non-adjacent pair separation in um (default 5*d11)"),
            ("lambda_sw_um", float, 1.25, "spin-wave wavelength in um (default 1.25)"),
            ("eta_c", float, 0.9, "per-site coupling efficiency (default 0.9)"),
            (
                "bbr_temp_k",
                float,
                0.0,
                "radiation temperature in K for decay rates (default 0: radiative only)",
            ),
        ),
        _fidelity,
    ),
    "forster": (
        "near-resonant pair channels across n",
        (
            ("n", str, "30:50", "n range lo:hi (default 30:50)"),
            ("threshold_mhz", float, 10.0, "|defect| cut in MHz (default 10)"),
            ("max_delta_n", int, 5, "principal-number search width (default 5)"),
            ("max_l", int, 2, "orbital momentum cap for channels (default 2)"),
        ),
        _forster,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Design scans for a microwave-controlled Rydberg photonic CZ gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, settings, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for key, cast, _, help_text in _COMMON:
            p.add_argument(f"--{key}", type=cast, help=help_text)
        p.add_argument("--config", help="key-value config file; flags override it")
        for key, cast, _, help_text in settings:
            p.add_argument(f"--{key.replace('_', '-')}", type=cast, help=help_text)
    return parser


def _resolve_settings(args, settings) -> dict:
    """Each setting from its flag, else ``[<command>]`` then ``[common]``
    of the config file, else its default."""
    doc = parse_document_file(args.config) if args.config else None
    resolved = {}
    for key, cast, default, _ in settings:
        value = getattr(args, key)
        if value is None and doc is not None:
            for section in (args.command, "common"):
                raw = doc.section_scalars(section).get(key)
                if raw is not None:
                    try:
                        value = cast(raw)
                    except ValueError:
                        raise UsageError(f"config key {key!r}: cannot parse {raw!r}") from None
                    break
        resolved[key] = default if value is None else value
    return resolved


def _run_command(args) -> int:
    command = args.command
    _, settings, run = _COMMANDS[command]
    settings = _COMMON + settings
    s = _resolve_settings(args, settings)
    outdir = s["out"] = s["out"] or "."
    os.makedirs(outdir, exist_ok=True)
    species, digest, s["species"] = _load_species_arg(s["species"])

    csv_path = os.path.join(outdir, f"{command}.csv")
    t0 = time.perf_counter()
    (header, table, status), plot, summary = run(s, species, csv_path)
    wall = time.perf_counter() - t0

    write_csv(csv_path, header, table)
    if plot is not None:
        xs = [row[0] for row in table]
        series = [
            Series(xs, [row[i] for row in table], label, dashed=dashed)
            for i, label, dashed in plot.pop("columns")
        ]
        render_plot(os.path.join(outdir, f"{command}.svg"), series, **plot)
    # make_manifest writes str(value), which for a float is its repr
    config = {key: "default" if s[key] is None else s[key] for key, *_ in settings}
    config["command"] = command
    manifest = make_manifest(digest, config, wall, status)
    manifest.write(os.path.join(outdir, f"{command}.manifest.json"))
    print(summary)
    if manifest.n_errors:
        print(f"{command}: {manifest.n_errors} row(s) failed; see manifest", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run_command(args)
    except (UsageError, SpeciesDataError) as exc:
        print(f"rydgate {args.command}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3


if __name__ == "__main__":
    sys.exit(main())
