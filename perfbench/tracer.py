"""In-process span tracer for the rydgate layers, and the traced-run entry point.

The tracer never edits the program. It replaces each traced function by a
wrapper at every module attribute that holds it (``pair`` imports
``radial_matrix_element`` from ``qdt``, ``averaging`` imports
``blockade_radii`` from ``lengthscales``, and so on), so every call site is covered. Spans are
kept in memory as ``[name, parent, start, end]`` and written out once, when
the run ends. A span's self time is its duration minus that of its direct
children; the run is single-threaded, so children never overlap.

Run as a script, it executes one workload in this fresh interpreter with
tracing on:

    PYTHONPATH=src python3 perfbench/tracer.py SPEC.json OUT.json

SPEC holds ``{"kind": "cli", "argv": [...]}`` (arguments of ``rydgate``) or
``{"kind": "pair_diag", "n": ..., "max_delta_n": ...}``. Process-pool
children are not traced, so CLI specs must ask for ``--workers 1``.

A few figures come from private hooks of the program (the Numerov solver,
the lru_caches). When one of them is missing its metric is not reported
as 0: the run lists it under ``problems``, so the tracer has to be brought
up to date on purpose.
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import sys
import time

# Layers, bottom up; a span's layer is the part of its name before the first dot.
LAYERS = ("qdt", "angular", "pair", "lengthscales", "gate", "averaging", "sweeps", "cli")


class Tracer:
    """Span recorder with per-row key bookkeeping for reuse ratios."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: collections.Counter = collections.Counter()
        self.row = -1
        self._stack: list[int] = []
        self._first_row: dict[str, dict] = collections.defaultdict(dict)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = time.perf_counter()

    def wrap(self, name, fn, *, before=None, after=None, row=False):
        """Wrapper recording a span ``name`` around each call of ``fn``.

        ``before(args, kwargs)`` runs inside the span before the call;
        ``after(result)`` may replace the result; ``row`` starts a new row.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                if row:
                    self.row += 1
                    self.counts["rows"] += 1
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                return result if after is None else after(result)
            finally:
                self.close(idx)

        return traced

    def key_seen(self, family: str, key) -> None:
        """Count a call keyed by ``key``: calls, distinct keys, cross-row reuse."""
        first = self._first_row[family]
        self.counts[family + ".calls_keyed"] += 1
        if key not in first:
            first[key] = self.row
        elif first[key] < self.row:
            self.counts[family + ".cross_row"] += 1

    def distinct(self, family: str) -> int:
        return len(self._first_row[family])

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]


def _replace_everywhere(modules, fn, wrapper) -> None:
    """Bind ``wrapper`` at every module attribute that holds ``fn``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def _lru_caches(module):
    return [v for v in vars(module).values() if callable(getattr(v, "cache_clear", None))]


def clear_caches() -> None:
    """Empty the qdt and angular lru_caches, as in a fresh CLI process."""
    from rydgate import angular, qdt

    for module in (qdt, angular):
        for cached in _lru_caches(module):
            cached.cache_clear()


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions of every layer, plus the two numpy kernels.

    Returns the problems found: private hooks that are missing.
    """
    import numpy as np

    from rydgate import angular, averaging, cli, gate, lengthscales, pair, qdt, sweeps

    modules = [m for n, m in sorted(sys.modules.items()) if n == "rydgate" or n.startswith("rydgate.")]
    t = tracer

    def level_pair_key(args, kwargs):
        a, b = args[1], args[2]
        grid = args[3] if len(args) > 3 else kwargs.get("grid")
        t.key_seen("qdt.radial_matrix_element", (min(a, b), max(a, b), grid))

    def block_key(args, kwargs):
        levels = args[:4]
        M = args[4] if len(args) > 4 else kwargs.get("M", 0.0)
        t.key_seen("angular.angular_block", tuple((lv.L, lv.J) for lv in levels) + (M,))

    def count_channels(channels):
        t.counts["pair.forster_channels.channels"] += len(channels)
        return channels

    def count_points(args, kwargs):
        t.counts["gate.curve.points"] += int(np.size(args[0]))

    def wrap_curve(curve):
        return t.wrap("gate.curve", curve, before=count_points)

    plain = [
        (qdt, "radial_matrix_element", level_pair_key),
        (angular, "angular_block", block_key),
        (angular, "angular_factor", None),
        (angular, "exchange_singular_value", None),
        (pair, "c3_coefficient", None),
        (pair, "c6_coefficient", None),
        (pair, "pair_hamiltonian_shift", None),
        (lengthscales, "blockade_radii", None),
        (averaging, "optimize_d11", None),
        (averaging, "averaged_fidelity", None),
        (averaging, "site_average", None),
    ]
    for module, attr, before in plain:
        fn = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        _replace_everywhere(modules, fn, t.wrap(f"{layer}.{attr}", fn, before=before))

    fn = pair.forster_channels
    _replace_everywhere(modules, fn, t.wrap("pair.forster_channels", fn, after=count_channels))
    fn = gate.fidelity_curve
    _replace_everywhere(modules, fn, t.wrap("gate.fidelity_curve", fn, after=wrap_curve))

    run_indexed = sweeps.run_indexed

    def run_indexed_rows(row_func, *args, **kwargs):
        # Workers = 1 here, so each row runs, and is timed, in this process.
        return run_indexed(t.wrap("sweeps.row", row_func, row=True), *args, **kwargs)

    _replace_everywhere(modules, run_indexed, t.wrap("sweeps.run_indexed", run_indexed_rows))

    for_level = gate.GateParams.__dict__["for_level_system"].__func__
    gate.GateParams.for_level_system = classmethod(t.wrap("gate.for_level_system", for_level))

    # Numerov solves are counted at qdt's private solver, the one private function wrapped.
    problems = []
    if hasattr(qdt, "_solve_on_grid"):
        qdt._solve_on_grid = t.wrap("qdt.numerov", qdt._solve_on_grid)
    else:
        problems.append("private hook qdt._solve_on_grid is gone: qdt.numerov_* not measured")

    for attr in ("load_species", "parse_document_file"):
        if hasattr(cli, attr):
            setattr(cli, attr, t.wrap("cli.setup", getattr(cli, attr)))
    for attr in ("write_csv", "render_plot"):
        if hasattr(cli, attr):
            setattr(cli, attr, t.wrap("cli.io", getattr(cli, attr)))
    sweeps.RunManifest.write = t.wrap("cli.io", sweeps.RunManifest.write)

    np.polynomial.hermite.hermgauss = t.wrap("averaging.hermgauss", np.polynomial.hermite.hermgauss)
    np.linalg.eigh = t.wrap("pair.eigh", np.linalg.eigh)
    return problems


# lru_caches read for hit fractions: metric -> (module, attribute names).
CACHES = {
    "qdt.me_cache.hit_frac": ("qdt", ("_matrix_element_cached",)),
    "qdt.solution_cache.hit_frac": ("qdt", ("_radial_solution_cached",)),
    "angular.wigner_cache.hit_frac": ("angular", ("_wigner_3j_two", "_wigner_6j_two")),
}


def _cache_hit_frac(cached) -> float:
    hits = misses = 0
    for fn in cached:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0


def summarize(tracer: Tracer, problems: list[str]) -> dict:
    """Per-layer figures from the spans and counters of one traced run."""
    import rydgate

    selfs = tracer.self_times()
    by_name = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, total
    for (name, _, t0, t1), s in zip(tracer.spans, selfs):
        agg = by_name[name]
        agg[0] += 1
        agg[1] += s
        agg[2] += t1 - t0
    roots = [i for i, sp in enumerate(tracer.spans) if sp[1] < 0]
    root_wall = sum(tracer.spans[i][3] - tracer.spans[i][2] for i in roots)

    # Self-check: the self times under each root add up to no more than its wall time.
    root_of: list[int] = []
    subtree_self = collections.defaultdict(float)
    for i, ((_, parent, _, _), s) in enumerate(zip(tracer.spans, selfs)):
        root_of.append(i if parent < 0 else root_of[parent])  # parents precede children
        subtree_self[root_of[i]] += s
    problems = problems + [
        f"self times under root {tracer.spans[r][0]} exceed its wall time"
        for r in roots
        if subtree_self[r] > (tracer.spans[r][3] - tracer.spans[r][2]) * (1 + 1e-9) + 1e-9
    ]
    if min(selfs, default=0.0) < -1e-6:
        problems.append("negative self time: overlapping child spans")

    m: dict[str, float] = {}

    def agg(name):
        return by_name.get(name, (0, 0.0, 0.0))

    def calls_self(name):
        m[name + ".calls"], m[name + ".self_s"], _ = agg(name)

    for name in (
        "qdt.radial_matrix_element",
        "angular.angular_block",
        "angular.angular_factor",
        "angular.exchange_singular_value",
        "pair.c3_coefficient",
        "pair.c6_coefficient",
        "pair.forster_channels",
        "pair.pair_hamiltonian_shift",
        "lengthscales.blockade_radii",
        "gate.for_level_system",
        "gate.curve",
        "averaging.optimize_d11",
        "averaging.averaged_fidelity",
        "averaging.site_average",
        "averaging.hermgauss",
    ):
        calls_self(name)
    c = tracer.counts
    me = "qdt.radial_matrix_element"
    m[me + ".distinct_frac"] = tracer.distinct(me) / max(c[me + ".calls_keyed"], 1)
    m[me + ".cross_row_frac"] = c[me + ".cross_row"] / max(c[me + ".calls_keyed"], 1)
    m["qdt.numerov_solves"], m["qdt.numerov.self_s"], _ = agg("qdt.numerov")
    for metric, (module, attrs) in CACHES.items():
        cached = [getattr(getattr(rydgate, module), a, None) for a in attrs]
        if all(callable(getattr(fn, "cache_info", None)) for fn in cached):
            m[metric] = _cache_hit_frac(cached)
        else:
            problems.append(f"lru_cache {module}.{'/'.join(attrs)} is gone: {metric} not measured")
    ab = "angular.angular_block"
    m[ab + ".distinct_frac"] = tracer.distinct(ab) / max(c[ab + ".calls_keyed"], 1)
    m["pair.forster_channels.channels"] = c["pair.forster_channels.channels"]
    m["pair.eigh_s"] = agg("pair.eigh")[2]
    m["gate.curve.points"] = c["gate.curve.points"]
    rows = [t1 - t0 for name, _, t0, t1 in tracer.spans if name == "sweeps.row"]
    m["sweeps.rows"] = len(rows)
    m["sweeps.row_s.p50"] = statistics.median(rows) if rows else 0.0
    m["sweeps.row_s.max"] = max(rows, default=0.0)
    m["sweeps.run_indexed.wall_s"] = agg("sweeps.run_indexed")[2]
    m["averaging.points_per_row"] = c["gate.curve.points"] / max(c["rows"], 1)
    m["cli.setup.self_s"] = agg("cli.setup")[1]
    m["cli.io.self_s"] = agg("cli.io")[1]

    layer_self = collections.defaultdict(float)
    for name, (_, self_s, _) in by_name.items():
        layer_self[name.split(".", 1)[0]] += self_s
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = layer_self[layer] / root_wall if root_wall > 0 else 0.0
    return {
        "metrics": m,
        "root_wall_s": root_wall,
        "unattributed_self_s": sum(v for k, v in layer_self.items() if k not in LAYERS),
        "rows": c["rows"],
        "problems": problems,
    }


def _run_spec(spec: dict, tracer: Tracer) -> list[str]:
    """Run one workload under ``tracer``; returns the hooks install() missed."""
    idx = tracer.open("cli.setup")
    import rydgate.cli
    from rydgate.species import rb87

    tracer.close(idx)
    problems = install(tracer)
    clear_caches()
    if spec["kind"] == "cli":
        idx = tracer.open("cli.main")
        try:
            code = rydgate.cli.main(spec["argv"])
        finally:
            tracer.close(idx)
        if code != 0:
            raise SystemExit(f"traced rydgate run exited with {code}")
        return problems
    import pair_diag

    idx = tracer.open("cli.setup")
    species = rb87()
    tracer.close(idx)
    for case in pair_diag.cases(spec["n"]):
        run_case = tracer.wrap("bench.case", pair_diag.run_case, row=True)
        run_case(species, case, spec["max_delta_n"])
    return problems


def main(argv) -> int:
    spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer()
    summary = summarize(tracer, _run_spec(spec, tracer))
    summary["spans"] = tracer.spans
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
