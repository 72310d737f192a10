"""Command-line front end: ``rydgate <radii|merit|fidelity|forster>``.

All frequencies on the command line and in config files are ordinary
frequencies in MHz (nu, not omega); conversion to angular rad/s happens
here, once.  Motional temperatures are in uK, radiation temperatures in
K.  Each command writes ``<cmd>.csv`` plus a JSON run manifest (and an
SVG where a plot makes sense) into ``--out``.

Config files use the same line-oriented grammar as species files, with
one section per command plus ``[common]``; command-line flags override
config values.

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

from .constants import TWOPI, mhz_to_rad_s
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
from .textio import Document, parse_document_file, write_csv

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """Bad command-line or config input; message names the offending token."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Design scans for a microwave-controlled Rydberg photonic CZ gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--species", help="species data file (default: packaged 87Rb)")
        p.add_argument("--out", help="output directory (default: current directory)")
        p.add_argument("--workers", type=int, help="parallel row workers (default 1)")
        p.add_argument("--config", help="key-value config file; flags override it")

    p_radii = sub.add_parser("radii", help="blockade radii vs principal quantum number")
    common(p_radii)
    p_radii.add_argument("--n", help="n range lo:hi (default 30:100)")
    p_radii.add_argument(
        "--omega-mhz", type=float, help="EIT/microwave linewidth nu in MHz (default 1)"
    )

    p_merit = sub.add_parser("merit", help="level-system figure of merit vs n")
    common(p_merit)
    p_merit.add_argument("--n", help="n range lo:hi (default 30:100)")
    p_merit.add_argument(
        "--radiation-temp-k",
        type=float,
        help="radiation temperature in K for decay rates (default 300)",
    )

    p_fid = sub.add_parser("fidelity", help="averaged gate fidelity along one axis")
    common(p_fid)
    p_fid.add_argument("--axis", help=f"sweep axis, one of {', '.join(SWEEP_AXES)}")
    p_fid.add_argument(
        "--values",
        help=(
            "axis values: comma list, lo:hi:step, or lo:hi:count:log "
            "(MHz for omega axes, uK for temperature)"
        ),
    )
    p_fid.add_argument("--n", dest="n_fixed", type=int, help="principal quantum number (default 70)")
    p_fid.add_argument("--omega-mu-mhz", type=float, help="microwave Rabi nu_mu in MHz (default 0.3)")
    p_fid.add_argument("--omega-c-mhz", type=float, help="coupling Rabi nu_c in MHz (default 10)")
    p_fid.add_argument(
        "--omega-eit-mhz",
        type=float,
        help="EIT window linewidth in MHz (default: the coupling Rabi frequency)",
    )
    p_fid.add_argument("--q", type=float, help="waist to blockade-radius ratio (default 0.2)")
    p_fid.add_argument("--temperature-uk", type=float, help="motional temperature in uK (default 0.1)")
    p_fid.add_argument(
        "--d11",
        help="'opt' to optimize the pair separation, or fixed:<um> (default opt)",
    )
    p_fid.add_argument("--d-far-um", type=float, help="non-adjacent pair separation in um (default 5*d11)")
    p_fid.add_argument("--lambda-sw-um", type=float, help="spin-wave wavelength in um (default 1.25)")
    p_fid.add_argument("--eta-c", type=float, help="per-site coupling efficiency (default 0.9)")
    p_fid.add_argument(
        "--bbr-temp-k",
        type=float,
        help="radiation temperature in K for decay rates (default 0: radiative only)",
    )

    p_for = sub.add_parser("forster", help="near-resonant pair channels across n")
    common(p_for)
    p_for.add_argument("--n", help="n range lo:hi (default 30:50)")
    p_for.add_argument(
        "--threshold-mhz", type=float, help="|defect| cut in MHz (default 10)"
    )
    p_for.add_argument("--max-delta-n", type=int, help="principal-number search width (default 5)")
    p_for.add_argument("--max-l", type=int, help="orbital momentum cap for channels (default 2)")

    return parser


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path) -> Document:
    return parse_document_file(path)


def _cfg_get(doc: Document | None, section: str, key: str):
    if doc is None:
        return None
    for sec in (section, "common"):
        value = doc.section_scalars(sec).get(key)
        if value is not None:
            return value
    return None


def _resolve(flag_value, doc, section, key, default, cast):
    if flag_value is not None:
        return flag_value
    raw = _cfg_get(doc, section, key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(f"config key {key!r}: cannot parse {raw!r}") from None


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
    "omega_mu": lambda v: mhz_to_rad_s(v),
    "omega_c": lambda v: mhz_to_rad_s(v),
    "temperature": lambda v: v * 1e-6,
    "n": float,
    "q": float,
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


def _prepare_out(outdir) -> str:
    outdir = outdir or "."
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _nan_gap(values):
    return tuple(float("nan") if v is None else float(v) for v in values)


# ---------------------------------------------------------------------------
# commands


def _cmd_radii(args) -> int:
    doc = _load_config(args.config) if args.config else None
    n_text = _resolve(args.n, doc, "radii", "n", "30:100", str)
    omega_mhz = _resolve(args.omega_mhz, doc, "radii", "omega_mhz", 1.0, float)
    workers = _resolve(args.workers, doc, "radii", "workers", 1, int)
    outdir = _prepare_out(_resolve(args.out, doc, "radii", "out", ".", str))
    if omega_mhz <= 0:
        raise UsageError(f"--omega-mhz must be positive, got {omega_mhz}")
    n_values = _parse_n_range(n_text)
    species, digest, src = _load_species_arg(
        _resolve(args.species, doc, "radii", "species", None, str)
    )

    t0 = time.perf_counter()
    header, table, status = radii_rows(species, n_values, mhz_to_rad_s(omega_mhz), workers)
    wall = time.perf_counter() - t0

    csv_path = os.path.join(outdir, "radii.csv")
    write_csv(csv_path, header, table)
    ns = [row[0] for row in table]
    render_plot(
        os.path.join(outdir, "radii.svg"),
        [
            Series(ns, _nan_gap([r[3] for r in table]), "r_b3 (um)"),
            Series(ns, _nan_gap([r[1] for r in table]), "r_b6 nS,(n+1)S (um)"),
            Series(ns, _nan_gap([r[2] for r in table]), "r_b6 nS,nS (um)", dashed=True),
        ],
        title=f"Blockade radii, nu = {omega_mhz:g} MHz",
        xlabel="principal quantum number n",
        ylabel="radius (um)",
        ylog=True,
    )
    make_manifest(
        digest,
        {
            "command": "radii",
            "species": src,
            "n": n_text,
            "omega_mhz": repr(float(omega_mhz)),
            "out": outdir,
            "workers": workers,
        },
        wall,
        status,
    ).write(os.path.join(outdir, "radii.manifest.json"))
    flagged = sum(1 for r in table if r[4])
    print(f"radii: {len(table)} rows -> {csv_path} ({flagged} resonance-flagged)")
    return 0


def _cmd_merit(args) -> int:
    doc = _load_config(args.config) if args.config else None
    n_text = _resolve(args.n, doc, "merit", "n", "30:100", str)
    temp_k = _resolve(args.radiation_temp_k, doc, "merit", "radiation_temp_k", 300.0, float)
    workers = _resolve(args.workers, doc, "merit", "workers", 1, int)
    outdir = _prepare_out(_resolve(args.out, doc, "merit", "out", ".", str))
    if temp_k < 0:
        raise UsageError(f"--radiation-temp-k must be non-negative, got {temp_k}")
    n_values = _parse_n_range(n_text)
    species, digest, src = _load_species_arg(
        _resolve(args.species, doc, "merit", "species", None, str)
    )

    t0 = time.perf_counter()
    header, table, status = merit_rows(species, n_values, temp_k, workers)
    wall = time.perf_counter() - t0

    csv_path = os.path.join(outdir, "merit.csv")
    write_csv(csv_path, header, table)
    ns = [row[0] for row in table]
    render_plot(
        os.path.join(outdir, "merit.svg"),
        [Series(ns, _nan_gap([r[1] for r in table]), "O")],
        title=f"Figure of merit, radiation T = {temp_k:g} K",
        xlabel="principal quantum number n",
        ylabel="O = C3^2 / (C6 hbar Gamma)",
        ylog=True,
    )
    make_manifest(
        digest,
        {
            "command": "merit",
            "species": src,
            "n": n_text,
            "radiation_temp_k": repr(float(temp_k)),
            "out": outdir,
            "workers": workers,
        },
        wall,
        status,
    ).write(os.path.join(outdir, "merit.manifest.json"))
    flagged = sum(1 for r in table if r[3])
    print(f"merit: {len(table)} rows -> {csv_path} ({flagged} resonance-flagged)")
    n_err = sum(1 for st in status if st.startswith("error"))
    if n_err:
        print(f"merit: {n_err} row(s) failed; see manifest", file=sys.stderr)
        return 1
    return 0


def _cmd_fidelity(args) -> int:
    doc = _load_config(args.config) if args.config else None
    axis = _resolve(args.axis, doc, "fidelity", "axis", "omega_mu", str)
    if axis not in SWEEP_AXES:
        raise UsageError(f"unknown axis {axis!r}; choose from {', '.join(SWEEP_AXES)}")
    values_text = _resolve(args.values, doc, "fidelity", "values", "0.01:10:25:log", str)
    n_fixed = _resolve(args.n_fixed, doc, "fidelity", "n", 70, int)
    nu_mu = _resolve(args.omega_mu_mhz, doc, "fidelity", "omega_mu_mhz", 0.3, float)
    nu_c = _resolve(args.omega_c_mhz, doc, "fidelity", "omega_c_mhz", 10.0, float)
    nu_eit = _resolve(args.omega_eit_mhz, doc, "fidelity", "omega_eit_mhz", None, float)
    q = _resolve(args.q, doc, "fidelity", "q", 0.2, float)
    temp_uk = _resolve(args.temperature_uk, doc, "fidelity", "temperature_uk", 0.1, float)
    d11_text = _resolve(args.d11, doc, "fidelity", "d11", "opt", str)
    d_far = _resolve(args.d_far_um, doc, "fidelity", "d_far_um", None, float)
    lambda_sw = _resolve(args.lambda_sw_um, doc, "fidelity", "lambda_sw_um", 1.25, float)
    eta_c = _resolve(args.eta_c, doc, "fidelity", "eta_c", 0.9, float)
    bbr_k = _resolve(args.bbr_temp_k, doc, "fidelity", "bbr_temp_k", 0.0, float)
    workers = _resolve(args.workers, doc, "fidelity", "workers", 1, int)
    outdir = _prepare_out(_resolve(args.out, doc, "fidelity", "out", ".", str))

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

    display_values = _parse_axis_values(values_text, axis)
    values = tuple(_AXIS_TO_INTERNAL[axis](v) for v in display_values)

    species, digest, src = _load_species_arg(
        _resolve(args.species, doc, "fidelity", "species", None, str)
    )

    try:
        fixed = GateParams.for_level_system(
            species,
            n_fixed,
            omega_mu=mhz_to_rad_s(nu_mu),
            omega_c=mhz_to_rad_s(nu_c),
            d11=d11_um,
            temperature=temp_uk * 1e-6,
            q=q,
            bbr_temperature=bbr_k,
            omega_eit=None if nu_eit is None else mhz_to_rad_s(nu_eit),
            d_far=d_far,
            lambda_sw=lambda_sw,
            eta_c=eta_c,
        )
        spec = SweepSpec(
            axis=axis,
            values=values,
            fixed=fixed,
            d11_mode=d11_mode,
            bbr_temperature=bbr_k,
        )
    except (ValueError, RydgateError) as exc:
        raise UsageError(str(exc)) from None

    t0 = time.perf_counter()
    header, table, status = fidelity_sweep(species, spec, workers)
    wall = time.perf_counter() - t0

    csv_path = os.path.join(outdir, "fidelity.csv")
    write_csv(csv_path, header, table)
    axis_vals = [row[0] for row in table]
    render_plot(
        os.path.join(outdir, "fidelity.svg"),
        [
            Series(axis_vals, _nan_gap([r[4] for r in table]), "f_total"),
            Series(axis_vals, _nan_gap([r[2] for r in table]), "f0_avg", dashed=True),
            Series(axis_vals, _nan_gap([r[3] for r in table]), "eta_m", dashed=True),
        ],
        title=f"Averaged gate fidelity vs {axis}",
        xlabel=_AXIS_LABEL[axis],
        ylabel="fidelity",
        xlog=axis in ("omega_mu", "omega_c"),
    )
    make_manifest(
        digest,
        {
            "command": "fidelity",
            "species": src,
            "axis": axis,
            "values": values_text,
            "n": n_fixed,
            "omega_mu_mhz": repr(float(nu_mu)),
            "omega_c_mhz": repr(float(nu_c)),
            "omega_eit_mhz": "default" if nu_eit is None else repr(float(nu_eit)),
            "q": repr(float(q)),
            "temperature_uk": repr(float(temp_uk)),
            "d11": d11_text,
            "d_far_um": "default" if d_far is None else repr(float(d_far)),
            "lambda_sw_um": repr(float(lambda_sw)),
            "eta_c": repr(float(eta_c)),
            "bbr_temp_k": repr(float(bbr_k)),
            "out": outdir,
            "workers": workers,
        },
        wall,
        status,
    ).write(os.path.join(outdir, "fidelity.manifest.json"))

    finite = [(row, st) for row, st in zip(table, status) if not math.isnan(row[4])]
    if finite:
        best = max(finite, key=lambda rs: rs[0][4])[0]
        print(
            f"fidelity: {len(table)} rows -> {csv_path}; "
            f"best f_total = {best[4]:.4f} at {axis} = {best[0]:g} "
            f"(d11 = {best[1]:.2f} um); coupling budget eta_c^2 = {best[5]:.3f}, "
            f"overall = {best[5] * best[4]:.4f}"
        )
    else:
        print(f"fidelity: {len(table)} rows -> {csv_path}; no finite rows")
    n_err = sum(1 for st in status if st.startswith("error"))
    if n_err:
        print(f"fidelity: {n_err} row(s) failed; see manifest", file=sys.stderr)
        return 1
    return 0


def _cmd_forster(args) -> int:
    doc = _load_config(args.config) if args.config else None
    n_text = _resolve(args.n, doc, "forster", "n", "30:50", str)
    threshold_mhz = _resolve(args.threshold_mhz, doc, "forster", "threshold_mhz", 10.0, float)
    max_delta_n = _resolve(args.max_delta_n, doc, "forster", "max_delta_n", 5, int)
    max_l = _resolve(args.max_l, doc, "forster", "max_l", 2, int)
    workers = _resolve(args.workers, doc, "forster", "workers", 1, int)
    outdir = _prepare_out(_resolve(args.out, doc, "forster", "out", ".", str))
    if threshold_mhz < 0:
        raise UsageError(f"--threshold-mhz must be non-negative, got {threshold_mhz}")
    n_values = _parse_n_range(n_text)
    species, digest, src = _load_species_arg(
        _resolve(args.species, doc, "forster", "species", None, str)
    )

    t0 = time.perf_counter()
    header, table, status = forster_rows(
        species, n_values, threshold_mhz * 1e6, max_delta_n, max_l, workers
    )
    wall = time.perf_counter() - t0

    csv_path = os.path.join(outdir, "forster.csv")
    write_csv(csv_path, header, table)
    make_manifest(
        digest,
        {
            "command": "forster",
            "species": src,
            "n": n_text,
            "threshold_mhz": repr(float(threshold_mhz)),
            "max_delta_n": max_delta_n,
            "max_l": max_l,
            "out": outdir,
            "workers": workers,
        },
        wall,
        status,
    ).write(os.path.join(outdir, "forster.manifest.json"))
    print(f"forster: {len(table)} channel rows -> {csv_path}")
    return 0


_AXIS_LABEL = {
    "omega_mu": "nu_mu (MHz)",
    "omega_c": "nu_c (MHz)",
    "n": "principal quantum number n",
    "q": "q = w0 / r_b6",
    "temperature": "temperature (uK)",
}

_DISPATCH = {
    "radii": _cmd_radii,
    "merit": _cmd_merit,
    "fidelity": _cmd_fidelity,
    "forster": _cmd_forster,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"rydgate {args.command}: {exc}", file=sys.stderr)
        return 2
    except SpeciesDataError as exc:
        print(f"rydgate {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
