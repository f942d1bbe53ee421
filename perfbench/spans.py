"""Spans around calls into each knorm module, recorded from outside the package.

Tracing rebinds the public names the CLI and harness call, where they are imported
(module globals, or class attributes for methods), to wrappers that append
a span (name, layer, start, end, parent) to an in-memory list. Leaving the
`active()` block restores the original bindings, so untraced passes run the
unmodified program. A layer's self time is the duration of its spans minus
the part covered by their child spans.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from knorm import cli, erm, geometry, harness, linreg, ordering, sampling

LAYERS = ("cli", "harness", "erm", "sampling", "geometry", "linreg", "ordering", "incgamma")

# (where the name is bound, the name, the layer that defines the callee)
TARGETS = (
    (cli, "main", "cli"),
    (harness, "simulate_logistic", "harness"),
    (harness, "simulate_coverage", "harness"),
    (harness, "run_diagnostics", "harness"),
    (harness, "ks_statistic", "harness"),
    (harness.ResultTable, "long_csv", "harness"),
    (harness.ResultTable, "summary_csv", "harness"),
    (harness, "logistic_loss_spec", "erm"),
    (harness, "minimize_erm", "erm"),
    (harness, "objective_perturbation", "erm"),
    (erm, "minimize_erm", "erm"),
    (erm, "sample_noise", "sampling"),
    (cli, "sample_noise", "sampling"),
    (harness, "sample_l1_mech", "sampling"),
    (harness, "sample_l2_mech", "sampling"),
    (harness, "sample_linf_mech", "sampling"),
    (harness, "sample_k_mech_rejection", "sampling"),
    (linreg, "sample_l1_mech", "sampling"),
    (linreg, "sample_linf_mech", "sampling"),
    (linreg, "sample_k_mech_rejection", "sampling"),
    (sampling.RngStream, "generator", "sampling"),
    (geometry.NormBall, "member_many", "geometry"),
    (geometry.NormBall, "gauge_many", "geometry"),
    (ordering, "volume_monte_carlo", "geometry"),
    (ordering, "ball_containment", "geometry"),
    (harness, "lp_norm", "geometry"),
    (harness, "build_statistic", "linreg"),
    (harness, "sanitize_statistic", "linreg"),
    (harness, "dp_estimate", "linreg"),
    (cli, "kt_ball", "linreg"),
    (linreg, "kt_ball", "linreg"),
    (cli, "compare", "ordering"),
    (harness, "gamma_cdf", "incgamma"),
)


class Tracer:
    """In-memory span list; spans[i] = [name, layer, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _wrap(self, fn, name, layer):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                open_.pop()

        return traced

    @contextmanager
    def active(self):
        """Trace every target for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        try:
            for (owner, attr, layer), (_, _, fn) in zip(TARGETS, saved):
                name = f"{getattr(owner, '__name__', '')}.{attr}"
                setattr(owner, attr, self._wrap(fn, name, layer))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def summarize(self, end=None):
        """Self seconds and call counts per layer over spans[:end]."""
        spans = self.spans[:end]
        child = [0.0] * len(spans)
        for _, _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s, calls = defaultdict(float), Counter()
        for (_, layer, t0, t1, _), covered in zip(spans, child):
            self_s[layer] += (t1 - t0) - covered
            calls[layer] += 1
        return self_s, calls

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,layer,start,end,parent\n")
            for i, (name, layer, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{layer},{t0!r},{t1!r},{parent}\n")
