"""A fixed reference kernel that gauges how fast the shared machine runs right now.

The machine this benchmark was tuned on shares its cores with other tenants.
Everything in a process, pure-Python loops and numpy alike, runs up to 1.7x
slower for stretches of a fraction of a second to minutes, and a run's
passes differ by 25-35% from one to the next at the same input. Raw pass
times therefore spread by 0.11-0.15 (IQR over median) between 18 s runs
of the same code. So the benchmark runs this kernel before and after every
op it times and reports each time at the reference speed of the machine:

    t_ref = t * (REFERENCE_S / mean(kernel before, kernel after)) ** exponent

with an exponent fitted for each workload (EXPONENTS).

The kernel's parts use the same kinds of work as the knorm workloads: a
scalar floating-point loop (the incomplete gamma series, bisection oracles),
a Newton logistic fit on a 10 000 x 7 design (erm), sorting and cumulative
sums over 2048 x 103 box points (kt membership) and many tiny numpy calls
(samplers and gauges called one point at a time). Its inputs are fixed, so
it does the same work in every run of every version of knorm.
"""

from __future__ import annotations

import math
from time import perf_counter, process_time

import numpy as np

_RNG = np.random.default_rng(20180125)
_X = _RNG.standard_normal((10_000, 7))
_Y = (_RNG.random(10_000) < 0.5).astype(float)
_U = _RNG.uniform(-2.0, 2.0, (2048, 103))
_V = np.ones(3)


def _scalar():
    s = 0.0
    for k in range(1, 30_000):
        s += math.exp(-k * 1e-4) * math.log1p(k) / (k + 0.5)
    return s


def _newton():
    b = np.zeros(7)
    for _ in range(8):
        p = 1.0 / (1.0 + np.exp(-(_X @ b)))
        hess = (_X * (p * (1.0 - p))[:, None]).T @ _X
        b = b - np.linalg.solve(hess + np.eye(7), _X.T @ (p - _Y))
    return b


def _box():
    a = np.sort(np.abs(_U), axis=1)[:, ::-1]
    return (np.cumsum(a, axis=1) <= 3.0).all(axis=1)


def _calls():
    s = 0.0
    for _ in range(3000):
        s += float(np.dot(_V, _V)) + float(np.max(np.abs(_V)))
    return s


PARTS = (_scalar, _newton, _box, _calls)

#: wall seconds of one probe() on the reference machine at its fast speed: a
#: 2-core Intel Xeon VM, Python 3.11, numpy 2.4, scipy-openblas with 2 threads
REFERENCE_S = 0.030

#: How a workload's time grows with the kernel's: the slope of log(op
#: time) on log(kernel time around the op), fitted on 4-minute recordings of
#: each workload with the kernel around every op, after smoothing both over
#: 25 ops (slopes 0.76, 0.94, 0.78). The kernel leans harder on pure-Python
#: loops, which slow down most when the machine is busy. Cut into 18 s
#: stretches, those recordings gave pass times that spread between stretches
#: by 0.106 / 0.134 / 0.151 (IQR over median) as measured and by
#: 0.016 / 0.024 / 0.037 at the reference speed.
EXPONENTS = {"logistic": 0.75, "coverage-kt12": 0.95, "choose-mech": 0.8}

#: The same for a fresh `import knorm.cli`: over 14 runs of 5 starts, the
#: spread of the run's median start was 0.23 as measured and 0.14 with 0.75.
START_EXPONENT = 0.75


def probe():
    """Wall and CPU seconds of one run of the kernel."""
    t0, c0 = perf_counter(), process_time()
    for part in PARTS:
        part()
    return perf_counter() - t0, process_time() - c0


def to_reference(seconds, before, after, exponent):
    """Times measured between the kernel times before and after, at the reference speed."""
    return [t * (2.0 * REFERENCE_S / (b + a)) ** exponent
            for t, b, a in zip(seconds, before, after)]


def reference_start(start):
    """Run start() between two probes; returns its wall seconds at the
    reference speed and as measured."""
    before = probe()
    seconds = start()
    after = probe()
    return to_reference([seconds], [before[0]], [after[0]], START_EXPONENT)[0], seconds


def reference_pass(workload, seed):
    """Run one pass of workload with a probe before each op and after the last.

    Returns the pass result, its wall and CPU seconds at the reference speed
    and its measured wall seconds.
    """
    probes = []
    res = workload.run_pass(seed, probe=lambda: probes.append(probe()))
    probes.append(probe())
    walls, cpus = zip(*probes)
    exponent = EXPONENTS[workload.name]
    wall = sum(to_reference(res.op_seconds, walls, walls[1:], exponent))
    cpu = sum(to_reference(res.op_cpu_seconds, cpus, cpus[1:], exponent))
    return res, wall, cpu, sum(res.op_seconds)
