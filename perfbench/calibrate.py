"""Fixed calibration work, timed between workload runs to gauge the host's speed.

A shared host's speed drifts by tens of percent over spells of seconds to
minutes, and every process on it slows alike. run.py times this script as a
fresh interpreter after every workload run, and scales the workload's
medians by the calibration's (see CAL_REF_S and CAL_REF_CPU_S in run.py),
so the end-to-end figures follow the program and not the host's spell.

It never imports ``rydgate``, and its work never changes: a change to the
program cannot move it. The mix follows what the workloads spend time on:
interpreter start and the numpy and scipy.integrate imports, a dense
symmetric eigensolver, vectorised array expressions, Gauss-Hermite rules,
and pure-Python loops over floats and dict keys.

Usage: ``python3 perfbench/calibrate.py``. It prints nothing.
"""

import numpy as np
import scipy.integrate  # noqa: F401  (the program imports it; most of the cost)


def main() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160))
    a = a + a.T
    for _ in range(10):
        np.linalg.eigh(a)
    for order in range(20, 60):
        np.polynomial.hermite.hermgauss(order)
    x = np.linspace(0.1, 10.0, 2000)
    acc = 0.0
    for k in range(1500):
        acc += float(np.sum(np.cos(x * k) / x**3))
    s = 0
    for i in range(300000):
        s += i * i
    table = {}
    for i in range(100000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + 1.5


if __name__ == "__main__":
    main()
