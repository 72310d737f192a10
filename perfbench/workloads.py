"""The benchmark workloads: inputs from a seed, commands, correctness checks.

Each workload runs the program as a fresh interpreter, because every
``rydgate`` invocation starts with cold caches and users pay that cost.

* ``sweep_omega``: ``rydgate fidelity --axis omega_mu`` on 25 log-spaced
  values at n = 70. C3/C6 are computed once; gate and averaging do the work.
* ``pair_diag``: ``perfbench/pair_diag.py`` diagonalises two pair
  Hamiltonians; no CLI command reaches that layer. qdt, angular and pair
  do the work.

Between them they cover every layer, with a no-change case each way:
averaging does no work in pair_diag, and qdt, angular and pair almost none
in sweep_omega.

The seed moves the n, the sweep end points and the motional temperature;
it never changes how many rows a run has.

Outputs are held to values stored in ``data/seed_values.json``, made at
the commit this benchmark was defined on (its ``source`` says how), not
to values the code under test computes:

* pair_diag: the channel-sum coefficient and the diagonalised fit
  |shift| d^k, within ``STORED_REL_TOL``, and their deviation within the
  test suite's tolerances;
* sweep_omega: C3, C6 and the decay rates at n = 70 within
  ``STORED_REL_TOL``, and each row's f0_avg no further from the dense
  reference (reference.py, built from the stored values) than the parent
  commit's own rule is at the same d11, plus the reference's error and
  the digits the seed rule loses where the phase winds fastest.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_VALUES = os.path.join(HERE, "data", "seed_values.json")

STORED_REL_TOL = 1e-4  # above the ~3e-5 drift a radial-grid change may bring
F0_SLACK = 1e-9  # f0_avg cells carry 12 significant digits
OMEGA_ROWS = 25
OMEGA_N = 70
PAIR_DIAG_MAX_DELTA_N = 2

# CLI defaults of `rydgate fidelity`, needed to rebuild each row's working point.
NU_MU_MHZ = 0.3
NU_C_MHZ = 10.0
Q = 0.2


def _seed_values() -> dict:
    with open(SEED_VALUES, encoding="utf-8") as fh:
        return json.load(fh)


def _off(got: float, want: float) -> bool:
    return not abs(got - want) <= STORED_REL_TOL * abs(want)


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]


@dataclasses.dataclass
class Check:
    """Outcome of the correctness checks on one invocation's output."""

    rows: int
    failed: set
    warned: int = 0
    figures: dict = dataclasses.field(default_factory=dict)


class SweepOmega:
    name = "sweep_omega"
    rows = OMEGA_ROWS
    alt_workers = 2  # the CSV must not change with the worker count
    artifact = "fidelity.csv"

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        lo = -2.0 + 0.1 * rng.random()  # log10 of nu_mu in MHz
        hi = 1.0 - 0.1 * rng.random()
        values = [10.0 ** (lo + (hi - lo) * k / (OMEGA_ROWS - 1)) for k in range(OMEGA_ROWS)]
        return {
            "values": ",".join(repr(v) for v in values),
            "axis_values": values,
            "temperature_uk": round(rng.uniform(0.05, 0.2), 6),
        }

    def command(self, inputs, out, workers):
        return [sys.executable, "-m", "rydgate.cli", "fidelity",
                "--axis", "omega_mu", "--values", inputs["values"],
                "--n", str(OMEGA_N), "--d11", "opt",
                "--temperature-uk", repr(inputs["temperature_uk"]),
                "--workers", str(workers), "--out", out]

    def trace_spec(self, inputs, out):
        return {"kind": "cli", "argv": self.command(inputs, out, 1)[3:]}

    def check(self, data: bytes, inputs, out) -> Check:
        from reference import GatePoint, dense_site_average, seed_site_average
        from rydgate import GateParams
        from rydgate.constants import mhz_to_rad_s
        from rydgate.species import rb87

        with open(os.path.join(out, "fidelity.manifest.json"), encoding="utf-8") as fh:
            status = json.load(fh)["rows"]
        rows = _csv_rows(data)
        failed = {k for k, s in enumerate(status) if s.startswith("error")}
        if len(status) != len(rows):
            failed |= set(range(len(rows)))
        warned = sum(1 for s in status if s.startswith("warning"))

        stored = _seed_values()["gate"]
        params = GateParams.for_level_system(
            rb87(), OMEGA_N, omega_mu=mhz_to_rad_s(NU_MU_MHZ), omega_c=mhz_to_rad_s(NU_C_MHZ),
            d11=20.0, temperature=inputs["temperature_uk"] * 1e-6, q=Q,
        )
        drifted = [k for k in ("c3_ghz_um3", "c6_ghz_um6", "gamma_r", "gamma_rp", "gamma_p")
                   if _off(getattr(params, k), stored[k])]
        if drifted:  # every row is built on these
            failed |= set(range(len(rows)))

        r_b6 = (2.0 * math.pi * abs(stored["c6_ghz_um6"]) * 1e9 / mhz_to_rad_s(NU_C_MHZ)) ** (1 / 6)
        sigma = math.sqrt(2.0) * Q * r_b6
        errs, seed_errs, ests = [], [], []
        for k, (row, value) in enumerate(zip(rows, inputs["axis_values"])):
            d11, f0_avg = float(row[1]), float(row[2])
            if not (math.isfinite(d11) and math.isfinite(f0_avg) and d11 > 0):
                failed.add(k)
                continue
            point = GatePoint(mhz_to_rad_s(value), stored["c3_ghz_um3"], stored["c6_ghz_um6"],
                              stored["gamma_r"], stored["gamma_rp"], stored["gamma_p"])
            ref, est = dense_site_average(point, d11, sigma)
            seed_f0, lost = seed_site_average(point, d11, sigma)
            errs.append(abs(f0_avg - ref))
            seed_errs.append(abs(seed_f0 - ref))
            ests.append(est)
            if errs[-1] > seed_errs[-1] + lost + est + F0_SLACK:
                failed.add(k)
        return Check(
            rows=len(rows),
            failed=failed,
            warned=warned,
            figures={
                "drifted_from_stored": drifted,
                "f0_avg_max_err": max(errs, default=0.0),
                "f0_avg_seed_max_err": max(seed_errs, default=0.0),
                "f0_avg_ref_err_est": max(ests, default=0.0),
                "f0_avg_err_by_row": errs,
            },
        )


class PairDiag:
    name = "pair_diag"
    rows = 2
    alt_workers = None
    artifact = None  # pair_diag.py's stdout is the output

    def inputs(self, seed: int) -> dict:
        return {"n": random.Random(seed).randrange(66, 75), "max_delta_n": PAIR_DIAG_MAX_DELTA_N}

    def command(self, inputs, out, workers):
        return [sys.executable, os.path.join(HERE, "pair_diag.py"),
                str(inputs["n"]), str(inputs["max_delta_n"])]

    def trace_spec(self, inputs, out):
        return {"kind": "pair_diag", **inputs}

    def check(self, data: bytes, inputs, out) -> Check:
        stored = _seed_values()["pair_diag"]
        want = stored["rows"][str(inputs["n"])]
        results = [json.loads(line) for line in data.decode("utf-8").splitlines() if line]
        failed = set(range(len(results), self.rows))
        for k, r in enumerate(results):
            ref = want[r["case"]]
            if (not r["rel_dev"] <= r["tolerance"] or _off(r["coefficient"], ref["coefficient"])
                    or _off(r["fit"], ref["fit"])):
                failed.add(k)
        return Check(
            rows=len(results),
            failed=failed,
            figures={
                "rel_dev": {r["case"]: r["rel_dev"] for r in results},
                "rel_dev_from_stored": {
                    r["case"]: {q: r[q] / want[r["case"]][q] - 1.0 for q in ("coefficient", "fit")}
                    for r in results
                },
            },
        )


WORKLOADS = {w.name: w for w in (SweepOmega(), PairDiag())}
