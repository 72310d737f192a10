"""rydgate benchmark: one workload, timed end to end, checked, optionally traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and defined in workloads.py. For
``--seconds`` the workload's command is run again and again at
``--workers 1``, each time as a fresh interpreter with tracing off; wall
clock, user + sys CPU of the process tree and its peak RSS come from
``os.wait4``. ``setup_s`` is the median of SETUP_REPEATS fresh
interpreters that import ``rydgate.cli`` and load the packaged species.

The host is shared and its speed drifts by tens of percent for minutes at a
time, which moves every process alike. So the fixed work of calibrate.py is
timed as a fresh interpreter too, and the time metrics are reported at a
reference host speed: the ``wall_s`` and ``setup_s`` medians are multiplied
by CAL_REF_S / (median calibration wall time of this run), and ``cpu_s`` by
CAL_REF_CPU_S / (median calibration CPU time), because time the host takes
away from the guest shows in wall time but not in CPU time. The raw medians
and the factors are in the report line. A calibration run follows every
workload run and a set-up run every other one, so both sample the same
stretch of time as the workload; their time does not count towards
``--seconds``.

After the timed loop the outputs are checked: against stored values, for
identical bytes across runs, and across worker counts. With ``--trace 1``
one more fresh interpreter runs the workload in-process under tracer.py at
``--workers 1`` and the per-layer metrics are reported instead of the
end-to-end ones.

Thread variables (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS) are recorded, not
set: the program runs with the environment it is given.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A fuller report goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS, Check

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
CAL_MIN = 5  # calibration runs per run, at least
# Median wall and CPU time of calibrate.py on the host the benchmark was defined
# on (2 vCPUs of a shared Intel Xeon host, Python 3.11, numpy 2.4, OpenBLAS 2 threads).
CAL_REF_S = 1.18
CAL_REF_CPU_S = 1.63
RUN_DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s
SETUP_CODE = "import rydgate.cli\nfrom rydgate.species import rb87\nrb87()\n"
ENV_PROBE = r"""
import ctypes, json, platform
from importlib.metadata import version
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": version("scipy"),
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
}))
"""


class Sample:
    """One finished child process: wall, CPU of its tree, peak RSS, exit code."""

    def __init__(self, wall_s, cpu_s, rss_mb, code, stdout):
        self.wall_s, self.cpu_s, self.rss_mb = wall_s, cpu_s, rss_mb
        self.code, self.stdout = code, stdout


def run_process(argv, env, cwd, log_path, deadline) -> Sample:
    """Run argv to completion; rusage covers the child and every process it reaped."""
    with open(log_path, "wb") as out, open(log_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "rb") as fh:
        stdout = fh.read()
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, stdout)


def environment(root, env) -> dict:
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=root,
                           capture_output=True, text=True, timeout=60)
    record = json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.stderr[-500:]}
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    record.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        git_sha=sha,
        src_sha256=digest.hexdigest(),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    )
    return record


def line_diff(a: bytes, b: bytes, header: int) -> set:
    """Row indices whose bytes differ (every row if the row counts differ)."""
    la, lb = a.splitlines()[header:], b.splitlines()[header:]
    if len(la) != len(lb):
        return set(range(max(len(la), len(lb))))
    return {k for k, (x, y) in enumerate(zip(la, lb)) if x != y}


def artifact_bytes(wl, out, sample) -> bytes:
    if wl.artifact is None:
        return sample.stdout
    path = os.path.join(out, wl.artifact)
    if sample.code != 0 or not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    problems = []

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rydgate", "cli.py")):
        print(f"perfbench: no rydgate source tree under {root}/src", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, os.path.join(root, "src"))  # the checks call the library

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    base = os.path.join(HERE, "out", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(base, ignore_errors=True)
    out = os.path.join(base, "cli")
    os.makedirs(out)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
    )
    record = {"workload": wl.name, "seed": args.seed, "inputs": inputs,
              "environment": environment(root, env)}

    setup, cal = [], []
    setup_wanted = 0 if args.trace else SETUP_REPEATS
    cal_wanted = 0 if args.trace else CAL_MIN

    def run_setup():
        setup.append(run_process([sys.executable, "-c", SETUP_CODE], env, root,
                                 os.path.join(base, f"setup{len(setup)}.log"), deadline))

    def run_cal():
        cal.append(run_process([sys.executable, os.path.join(HERE, "calibrate.py")], env, root,
                               os.path.join(base, f"cal{len(cal)}.log"), deadline))

    # Timed region: fresh processes, tracing off, until --seconds of workload
    # runs have passed. A calibration run follows every workload run and a
    # set-up run every other one; both are timed apart and not counted.
    samples, outputs = [], []
    t_start = time.perf_counter()

    def timed_s():
        return time.perf_counter() - t_start - sum(s.wall_s for s in setup + cal)

    while not samples or timed_s() < args.seconds:
        s = run_process(wl.command(inputs, out, 1), env, root,
                        os.path.join(base, f"run{len(samples)}.log"), deadline)
        samples.append(s)
        outputs.append(artifact_bytes(wl, out, s))
        if cal_wanted:
            run_cal()
        if len(samples) % 2 == 0 and len(setup) < setup_wanted:
            run_setup()
    timed = timed_s()
    while len(setup) < setup_wanted:
        run_setup()
    while len(cal) < cal_wanted:
        run_cal()
    if any(c.code != 0 for c in setup + cal):
        problems.append("a set-up or calibration run failed")

    # Correctness, outside the timed region.
    header = 0 if wl.artifact is None else 1
    ok = samples[0].code == 0
    check = wl.check(outputs[0], inputs, out) if ok else Check(rows=0, failed=set(range(wl.rows)))
    runs = list(zip(samples, outputs))
    alt = None
    if wl.alt_workers is not None:
        alt = run_process(wl.command(inputs, out, wl.alt_workers), env, root,
                          os.path.join(base, "alt_workers.log"), deadline)
        runs.append((alt, artifact_bytes(wl, out, alt)))
    every_row = set(range(wl.rows))
    failed = 0
    for sample, data in runs:
        if sample.code != 0:
            bad = every_row
        else:
            missing = set(range(check.rows, wl.rows))
            bad = check.failed | missing | line_diff(outputs[0], data, header)
        failed += len(bad & every_row)
    attempted = wl.rows * len(runs)

    wall = statistics.median(s.wall_s for s in samples)
    cpu = statistics.median(s.cpu_s for s in samples)
    if args.trace:
        with open(os.path.join(base, "trace_spec.json"), "w", encoding="utf-8") as fh:
            json.dump(wl.trace_spec(inputs, out), fh)
        trace_out = os.path.join(base, "trace.json")
        traced = run_process(
            [sys.executable, os.path.join(HERE, "tracer.py"),
             os.path.join(base, "trace_spec.json"), trace_out],
            env, root, os.path.join(base, "trace.log"), deadline)
        if traced.code != 0:
            print(f"perfbench: traced run failed, see {base}/trace.log.err", file=sys.stderr)
            return 1
        with open(trace_out, encoding="utf-8") as fh:
            summary = json.load(fh)
        problems += summary["problems"]
        values = dict(summary["metrics"])
        values["trace.overhead_frac"] = traced.wall_s / wall - 1.0
        values["averaging.warned_frac"] = check.warned / max(check.rows, 1)
        values["averaging.f0_avg_max_err"] = check.figures.get("f0_avg_max_err", 0.0)
        record["trace"] = {
            "note": "traced in-process at --workers 1: spans inside pool children are not collected",
            "traced_wall_s": traced.wall_s,
            "untraced_wall_s": wall,
            "root_wall_s": summary["root_wall_s"],
            "unattributed_self_s": summary["unattributed_self_s"],
        }
    else:
        setup_raw = statistics.median(s.wall_s for s in setup)
        wall_factor = CAL_REF_S / statistics.median(c.wall_s for c in cal)
        cpu_factor = CAL_REF_CPU_S / statistics.median(c.cpu_s for c in cal)
        record["host"] = {"wall_factor": wall_factor, "cpu_factor": cpu_factor,
                          "raw": {"wall_s": wall, "setup_s": setup_raw, "cpu_s": cpu}}
        values = {
            "wall_s": wall * wall_factor,
            "setup_s": setup_raw * wall_factor,
            "cpu_s": cpu * cpu_factor,
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        }

    # Self-check: every declared metric present, with its declared unit.
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record.update(
        samples=len(samples),
        timed_s=timed,
        wall_s=[s.wall_s for s in samples],
        cpu_s=[s.cpu_s for s in samples],
        peak_rss_mb=[s.rss_mb for s in samples],
        setup_s=[s.wall_s for s in setup],
        cal_s=[c.wall_s for c in cal],
        cal_cpu_s=[c.cpu_s for c in cal],
        alt_workers={"workers": wl.alt_workers, "wall_s": alt.wall_s, "cpu_s": alt.cpu_s} if alt else None,
        rows=check.rows,
        failed_frac=failed / attempted,
        warned_frac=check.warned / max(check.rows, 1),
        figures=check.figures,
        problems=problems,
        metrics=metrics,
    )
    with open(os.path.join(base, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(out, ignore_errors=True)
    for p in problems:
        print(f"perfbench: self-check: {p}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "inputs", "samples", "rows",
                                              "failed_frac", "warned_frac", "figures",
                                              "environment")}
                     | {k: record[k] for k in ("trace", "host") if k in record}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
