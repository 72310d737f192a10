"""Command-line front end: ``rydgate <radii|merit|fidelity|forster>``.

All frequencies on the command line and in config files are ordinary
frequencies in MHz (nu, not omega); conversion to angular rad/s happens
here, once.  Motional temperatures are in uK, radiation temperatures in
K.  Each command writes ``<cmd>.csv`` plus a JSON run manifest (and an
SVG where a plot makes sense) into ``--out``.

Config files use the same line-oriented grammar as species files, with
one section per command plus ``[common]``; command-line flags override
config values, and a section, key or data row that no command reads is a
usage error.

Every command is one row of ``_COMMANDS``: its settings, each a
(key, cast, default, help) tuple that gives the ``--flag``, the config key
and the manifest entry, and one function that parses its n range or axis
values and computes the rows.  ``_run_command`` does the rest once for all
four; every number must lie in its ``constants.DOMAINS`` entry.  Parsing,
settings, the species and every usage check need no numerical module: a
command imports ``sweeps`` (and with it numpy) only once they have passed.
So ``main`` runs before OpenBLAS loads, and sets ``OPENBLAS_NUM_THREADS=1``
unless the caller has set it, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``.

Exit codes: 0 clean, 1 row-level failures recorded in the CSV, 2 usage
errors (every config file problem among them), 3 a species file that is
unreadable, malformed or outside its domain.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time

from .constants import AXES, DEFAULT_D_FAR_FACTOR, DEFAULT_ETA_C, DEFAULT_LAMBDA_SW_UM, mhz_to_rad_s
from .constants import DEFAULT_MAX_DELTA_N, check_axis_values, check_domain
from .constants import RESONANCE_THRESHOLD_HZ
from .errors import RydgateError, SpeciesDataError
from .species import PACKAGED, load_species
from .svgplot import Series, render_plot
from .textio import format_fixed, parse_document_file, write_csv

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """Bad command-line or config input; message names the offending token."""


def _check(name: str, value, label: str):
    """``constants.check_domain``, failing as a usage error."""
    try:
        return check_domain(name, value, label)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except OverflowError:  # from math.isfinite, on an integer past the float range
        raise UsageError(f"{label} must be finite, got an integer too large for a float") from None


MAX_ROWS = 100_000  # far above the 71 rows of the largest documented scan


def _check_rows(count: int, label: str) -> None:
    """Refuse a range of more than ``MAX_ROWS`` rows before it is built."""
    if count > MAX_ROWS:
        raise UsageError(f"{label} asks for {count} rows; at most {MAX_ROWS} are allowed")


def _parse_n_range(text: str, label: str = "--n") -> list[int]:
    parts = text.split(":")
    try:
        if len(parts) > 2:
            raise ValueError
        lo, hi = int(parts[0]), int(parts[-1])  # "n" is the range n:n
    except ValueError:
        raise UsageError(f"bad n range {text!r}: expected lo:hi integers") from None
    if hi < lo:
        raise UsageError(f"bad n range {text!r}: need lo <= hi")
    _check("n", lo, label)
    _check_rows(hi - lo + 1, label)
    return list(range(lo, hi + 1))


def _parse_axis_values(text: str, axis: str) -> tuple[float, ...]:
    """Axis values in display units. Comma list, lo:hi:step, lo:hi:count:log."""
    text = text.strip()
    parts = text.split(":")
    values = None
    try:
        if "," in text:
            values = tuple(float(tok) for tok in text.split(","))
        elif len(parts) == 4 and parts[3] == "log":
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if lo <= 0 or hi <= lo or count < 2:
                raise ValueError
            _check_rows(count, "--values")
            step = (math.log10(hi) - math.log10(lo)) / (count - 1)
            values = tuple(10.0 ** (math.log10(lo) + i * step) for i in range(count))
        elif len(parts) == 3:
            lo, hi, step = (float(p) for p in parts)
            if step <= 0 or hi < lo:
                raise ValueError
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            _check_rows(count, "--values")
            values = tuple(lo + i * step for i in range(count))
        elif len(parts) == 2 and axis == "n":
            values = tuple(float(v) for v in _parse_n_range(text, "--values"))
        elif len(parts) == 1:
            values = (float(parts[0]),)
    except (ValueError, OverflowError):  # OverflowError: an infinite lo:hi:step range
        pass
    if values is None:
        raise UsageError(
            f"bad values {text!r}: expected comma list, lo:hi:step, or lo:hi:count:log"
        )
    try:
        return check_axis_values(axis, values)
    except ValueError as exc:
        raise UsageError(f"--axis {axis} --values {text}: {exc}") from None


# ---------------------------------------------------------------------------
# commands: each parses its n range or axis values, computes its rows and returns
# ((header, table, status), plot or None, summary line).  A plot is the
# render_plot keywords, with ``columns`` for its series: (table column,
# label, dashed), each plotted against column 0.


def _radii(s, species, csv_path):
    n_values = _parse_n_range(s["n"])
    from .sweeps import radii_rows
    rows = radii_rows(species, n_values, mhz_to_rad_s(s["omega_mhz"]), s["workers"])
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
    n_values = _parse_n_range(s["n"])
    from .sweeps import merit_rows
    rows = merit_rows(species, n_values, temp_k, s["workers"])
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
    values = _parse_axis_values(s["values"], axis)
    to_internal, _, axis_label = AXES[axis]
    d11_text, d11_um = s["d11"], None  # None: the rows optimise it
    if d11_text.startswith("fixed:"):
        try:
            d11_um = check_domain("d11", float(d11_text.split(":", 1)[1]), "separation")
        except ValueError as exc:
            raise UsageError(f"bad --d11 value {d11_text!r}: {exc}") from None
    elif d11_text != "opt":
        raise UsageError(f"bad --d11 mode {d11_text!r}: expected 'opt' or 'fixed:<um>'")
    values = tuple(to_internal(v) for v in values)
    from .gate import GateParams
    from .sweeps import SweepSpec, fidelity_sweep
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
        spec = SweepSpec(axis=axis, values=values, fixed=fixed)
    except (ValueError, RydgateError) as exc:
        raise UsageError(str(exc)) from None

    rows = fidelity_sweep(species, spec, s["workers"])
    table = rows[1]
    plot = dict(
        columns=[(4, "f_total", False), (2, "f0_avg", True), (3, "eta_m", True)],
        title=f"Averaged gate fidelity vs {axis}",
        xlabel=axis_label,
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
        f"(d11 = {format_fixed(best[1], 2)} um); coupling budget eta_c^2 = {best[5]:.3f}, "
        f"overall = {best[5] * best[4]:.4f}"
    )
    return rows, plot, summary


def _forster(s, species, csv_path):
    n_values = _parse_n_range(s["n"])
    from .sweeps import forster_rows
    rows = forster_rows(species, n_values, s["threshold_mhz"] * 1e6, s["max_delta_n"], s["workers"])
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
            ("axis", str, "omega_mu", f"sweep axis, one of {', '.join(AXES)}"),
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
            (
                "d_far_um",
                float,
                None,
                f"non-adjacent pair separation in um (default {DEFAULT_D_FAR_FACTOR:g}*d11)",
            ),
            (
                "lambda_sw_um",
                float,
                DEFAULT_LAMBDA_SW_UM,
                f"spin-wave wavelength in um (default {DEFAULT_LAMBDA_SW_UM:g})",
            ),
            (
                "eta_c",
                float,
                DEFAULT_ETA_C,
                f"per-site coupling efficiency (default {DEFAULT_ETA_C:g})",
            ),
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
            (
                "threshold_mhz",
                float,
                RESONANCE_THRESHOLD_HZ / 1e6,
                f"|defect| cut in MHz (default {RESONANCE_THRESHOLD_HZ / 1e6:g})",
            ),
            (
                "max_delta_n",
                int,
                DEFAULT_MAX_DELTA_N,
                f"principal-number search width (default {DEFAULT_MAX_DELTA_N})",
            ),
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


def _read_config(path, command: str) -> dict:
    """The raw ``[<command>]`` values of a config file over its ``[common]``
    ones.  A section, key or data row that no command reads is a usage
    error, as is a file that cannot be read or parsed; a ``[common]`` key
    may be any command's setting."""
    try:
        doc = parse_document_file(path)
    except SpeciesDataError as exc:
        raise UsageError(str(exc)) from None
    known = {cmd: {key for key, *_ in _COMMON + spec[1]} for cmd, spec in _COMMANDS.items()}
    known["common"] = set().union(*known.values())
    for section in {**doc.scalars, **doc.rows}:
        if section not in known:
            raise UsageError(f"config {doc.source}: unknown section [{section}]")
        for key in doc.section_scalars(section):
            if key not in known[section]:
                raise UsageError(
                    f"config {doc.where(section, key)}: [{section}] has no setting {key!r}"
                )
        for _, lineno in doc.section_rows(section):
            raise UsageError(f"config {doc.source}:{lineno}: data row in [{section}]")
    return {**doc.section_scalars("common"), **doc.section_scalars(command)}


def _resolve_settings(args, settings) -> dict:
    """Each setting from its flag, else ``[<command>]`` then ``[common]``
    of the config file, else its default."""
    config = _read_config(args.config, args.command) if args.config else {}
    resolved = {}
    for key, cast, default, _ in settings:
        value, raw = getattr(args, key), config.get(key)
        if value is None and raw is not None:
            try:
                value = cast(raw)
            except ValueError:
                raise UsageError(f"config key {key!r}: cannot parse {raw!r}") from None
        if value is not None and cast is not str:
            stem = key.rsplit("_", 1)[0] if key.endswith(("_mhz", "_uk", "_um", "_k")) else key
            _check(stem, value, f"--{key.replace('_', '-')}")
        resolved[key] = default if value is None else value
    return resolved


def _run_command(args) -> int:
    command = args.command
    _, settings, run = _COMMANDS[command]
    settings = _COMMON + settings
    s = _resolve_settings(args, settings)
    species = load_species(s["species"])
    s["species"] = s["species"] or PACKAGED
    outdir = s["out"] = s["out"] or "."
    new_dirs = []  # the directories this run creates, deepest first
    path = os.path.normpath(outdir)
    while path and not os.path.exists(path):
        new_dirs.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {outdir}: {exc.strerror}") from None

    csv_path = os.path.join(outdir, f"{command}.csv")
    t0 = time.perf_counter()
    try:
        (header, table, status), plot, summary = run(s, species, csv_path)
    except (UsageError, SpeciesDataError):
        for path in new_dirs:  # a failed run leaves no --out behind
            with contextlib.suppress(OSError):
                os.rmdir(path)  # removes only an empty directory
        raise
    wall = time.perf_counter() - t0

    write_csv(csv_path, header, table)
    if plot is not None:
        xs = [row[0] for row in table]
        series = [
            Series(xs, [row[i] for row in table], label, dashed=dashed)
            for i, label, dashed in plot.pop("columns")
        ]
        render_plot(os.path.join(outdir, f"{command}.svg"), series, **plot)
    from . import __version__
    from .sweeps import RunManifest
    # str of a float is its repr
    config = {key: "default" if s[key] is None else str(s[key]) for key, *_ in settings}
    config["command"] = command
    manifest = RunManifest(__version__, species.digest, config, wall, tuple(status))
    manifest.write(os.path.join(outdir, f"{command}.manifest.json"))
    print(summary)
    if manifest.n_errors:
        print(f"{command}: {manifest.n_errors} row(s) failed; see manifest", file=sys.stderr)
        return 1
    return 0


_THREAD_VARS = frozenset({"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"})


def main(argv=None) -> int:
    # OpenBLAS's idle pool spins; a caller's thread variable, or a numpy loaded already, wins
    if "numpy" not in sys.modules and not _THREAD_VARS.intersection(os.environ):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
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
