"""knorm benchmark: one workload, end-to-end metrics or per-layer metrics plus a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload logistic|coverage-kt12|choose-mech \
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
measures the per-layer metrics, then alternates untraced and traced passes
of the workload to attribute its time to modules. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Earlier lines give the machine, digest changes and known defects; a full
report and the span list go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calib

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: fresh `import knorm.cli` starts per --trace 0 run, spread over its timed passes
SETUP_STARTS = 5
#: fresh `import knorm` starts per --trace 1 run
IMPORT_STARTS = 3


def fresh_start(module):
    """Wall seconds of one fresh interpreter that imports module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def check_digests(digests):
    """Names of the canonical-seed digests that differ from the recorded ones."""
    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh)
    return sorted(name for name, value in digests.items() if recorded.get(name) != value)


class Totals:
    """Ops attempted, failed and with wrong output, and what each failure said."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []

    def add(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.wrong += res.wrong
        self.errors.extend(res.errors)


def pass_time(per_seed):
    """Mean over the run's seeds of the median time of one pass at that seed.

    The seeds are fixed by the run seed, so the inputs behind the time are too.
    """
    return statistics.fmean(statistics.median(passes) for passes in per_seed.values())


def cycle(seeds, seconds, step):
    """Call step(i, seed) over the seeds in turn: each seed once, then until the
    calls have taken seconds in all. Yields the seconds taken after each call."""
    spent, i = 0.0, 0
    while i < len(seeds) or spent < seconds:
        t0 = perf_counter()
        step(i, seeds[i % len(seeds)])
        spent += perf_counter() - t0
        i += 1
        yield spent


def end_to_end(workload, seeds, seconds, totals):
    """Time passes over the fixed seeds, with fresh-interpreter starts spread among them.

    Pass times are at the machine's reference speed (see calib.py). Each
    seed's check outcome counts once. setup_s is the median of the starts.
    """
    walls = {s: [] for s in seeds}
    cpus = {s: [] for s in seeds}
    measured = {s: [] for s in seeds}

    def step(i, s):
        res, wall, cpu, raw = calib.reference_pass(workload, s)
        if i < len(seeds):
            totals.add(res)
        walls[s].append(wall)
        cpus[s].append(cpu)
        measured[s].append(raw)

    fresh_start("knorm.cli")  # the first start compiles bytecode
    setup, measured_setup = [], []
    for spent in cycle(seeds, seconds, step):
        while len(setup) < SETUP_STARTS * min(spent / seconds, 1.0):
            ref, raw = calib.reference_start(lambda: fresh_start("knorm.cli"))
            setup.append(ref)
            measured_setup.append(raw)
    wall = pass_time(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": workload.ops_per_pass / wall,
        "cpu_s": pass_time(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops": (totals.attempted - totals.failed) / totals.attempted,
    }
    return metrics, {"setup": setup, "measured_setup": measured_setup, "walls": walls,
                     "cpus": cpus, "measured_walls": measured}


def traced_run(workload, seeds, seconds, totals, spans_path):
    """Untraced and traced passes of each seed, in alternating order; time per layer.

    Pass times are at the machine's reference speed, as in end_to_end. A
    layer's self_s is its share of all traced self time, times the traced
    pass time, so the layers add up to the traced pass time and
    trace_overhead_pct relates that to the untraced pass time.
    """
    from spans import LAYERS, Tracer

    tracer = Tracer()
    op_times = {on: {s: [] for s in seeds} for on in (False, True)}
    first_pass_end = []

    def step(i, s):
        order = (False, True) if (i + i // len(seeds)) % 2 == 0 else (True, False)
        for on in order:
            if on:
                with tracer.active():
                    res, wall, _, _ = calib.reference_pass(workload, s)
                if not first_pass_end:
                    first_pass_end.append(len(tracer.spans))
            else:
                res, wall, _, _ = calib.reference_pass(workload, s)
                if i < len(seeds):
                    totals.add(res)
            op_times[on][s].append(wall)

    for _ in cycle(seeds, seconds, step):
        pass
    tracer.write(spans_path)
    self_total, _ = tracer.summarize()
    _, first_calls = tracer.summarize(first_pass_end[0])
    traced, untraced = pass_time(op_times[True]), pass_time(op_times[False])
    traced_self = sum(self_total.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = traced * self_total[layer] / traced_self
        metrics[f"{layer}.calls"] = first_calls[layer]
    metrics["trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics, {"traced_walls": op_times[True], "untraced_walls": op_times[False]}


def metric_units(section):
    """Name -> unit of the metrics BENCHMARK.json lists in section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("logistic", "coverage-kt12", "choose-mech"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "knorm", "__init__.py")):
        sys.stderr.write(f"error: no knorm sources under {SRC}; run from a checkout root\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    from workloads import CANONICAL_SEED, WORKLOADS, paper_defects, pass_seeds

    workload = WORKLOADS[args.workload]
    totals = Totals()
    # untimed warm-up at the canonical seed; its outputs are the digested ones
    canonical = workload.run_pass(CANONICAL_SEED, digest=True)
    totals.add(canonical)
    digests = canonical.digests
    defects = sorted(paper_defects(CANONICAL_SEED))
    seeds = pass_seeds(workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        section = "end_to_end"
        metrics, samples = end_to_end(workload, seeds, args.seconds, totals)
    else:
        from layers import all_metrics

        section = "per_layer"
        fresh_start("knorm")  # the first start compiles bytecode
        metrics = all_metrics()
        metrics["cli.import_knorm_s"] = statistics.median(
            fresh_start("knorm") for _ in range(IMPORT_STARTS))
        metrics["known_defects"] = len(defects)
        traced, samples = traced_run(workload, seeds, args.seconds, totals,
                                     os.path.join(OUT_DIR, f"spans-{tag}.csv"))
        metrics.update(traced)
    units = metric_units(section)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(metrics) ^ set(units))}")

    changed = check_digests(digests)
    info = machine()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "digests": digests,
        "changed_digests": changed, "defects": defects, "pass_seeds": seeds,
        "errors": totals.errors, "samples": samples,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print("machine: " + json.dumps(info))
    print("changed digests: " + (", ".join(changed) if changed else "none"))
    for defect in defects:
        print("known defect: " + defect)
    for error in totals.errors[:10]:
        print("failed op: " + error)
    print(json.dumps({
        "correct": totals.wrong == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
