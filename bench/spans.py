"""Spans and counters around qfluct's layers, recorded from outside.

``Tracer.install`` wraps each listed function in every qfluct module that
holds it, so a name imported with ``from .x import f`` is wrapped where the
importing module looks it up (``qfluct.correlators.boltzmann_table``,
``qfluct.junction.eigh_tridiagonal``).  A span records its name, layer
metric, parent span, start and end, and stays in memory until the round
ends.  Hot scalar helpers (``ladder_coefficient``, the per-sector-pair
``eigh_tridiagonal``) only bump counters.  A listed function that the
program no longer has is reported in ``missing``, so that its metrics do not
silently read 0.

A layer's self time is the time of its spans minus the part their child
spans cover.  The time inside an operation but outside any span is
``trace.outside_s``; it holds the benchmark's own timing and any layer work
that no listed function covers.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

import numpy as np

TIME_METRICS = [
    "sectors.table_build_s",
    "gap.solve_s",
    "correlators.self_s",
    "circle.self_s",
    "circle.diag_s",
    "circle.dyson_self_s",
    "junction.element_self_s",
    "junction.circle_compare_s",
    "junction.dyson_self_s",
    "quadrature.s",
    "fitting.fit_s",
]

COUNT_METRICS = [
    "sectors.table_builds",
    "sectors.table_entries",
    "sectors.ladder_calls",
    "gap.solves",
    "gap.iterations",
    "correlators.evals",
    "correlators.entries_walked",
    "correlators.exact_zeros",
    "circle.diag_calls",
    "circle.basis_dim_max",
    "circle.hop_strings",
    "junction.elements",
    "junction.chain_solves",
    "junction.chain_sites",
    "quadrature.calls",
    "quadrature.channels",
    "fitting.fits",
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _bump(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += 1
    return count


def _count_table(tracer, args, kwargs, table):
    params, n_spins = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "n_spins")
    entries = sum(int(row.sz.size) for row in table.rows)
    tracer.counts["sectors.table_builds"] += 1
    tracer.counts["sectors.table_entries"] += entries
    tracer.table_entries[(params.epsilon, params.t_c, params.beta, n_spins)] = entries


def _walked(tracer, params, n_spins, steps):
    """Flat table length times ladder steps; the length is that of the
    table last built for these parameters, or the full (N/2+1)^2."""
    key = (params.epsilon, params.t_c, params.beta, n_spins)
    tracer.counts["correlators.entries_walked"] += (
        tracer.table_entries.get(key, (n_spins // 2 + 1) ** 2) * steps)


def _count_word(tracer, args, kwargs, value):
    params, n_spins = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "n_spins")
    word = _arg(args, kwargs, 2, "word")
    force = _arg(args, kwargs, 4, "force_numeric", False)
    tracer.counts["correlators.evals"] += 1
    steps = word.total_m + word.total_n
    if steps == 0 or (word.total_m != word.total_n and not force):
        tracer.counts["correlators.exact_zeros"] += 1
    else:
        _walked(tracer, params, n_spins, steps)


def _count_evolution(tracer, args, kwargs, value):
    params, n_spins = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "n_spins")
    n, m = _arg(args, kwargs, 2, "n"), _arg(args, kwargs, 3, "m")
    tracer.counts["correlators.evals"] += 1
    if n != m or m == 0:
        tracer.counts["correlators.exact_zeros"] += 1
    else:
        _walked(tracer, params, n_spins, m)


def _count_w(tracer, args, kwargs, value):
    tracer.counts["correlators.evals"] += 1
    if _arg(args, kwargs, 2, "m") == 0 or _arg(args, kwargs, 3, "t") == 0.0:
        tracer.counts["correlators.exact_zeros"] += 1


def _count_gap(tracer, args, kwargs, sol):
    tracer.counts["gap.solves"] += 1
    tracer.counts["gap.iterations"] += sol.iterations


def _count_diag(tracer, args, kwargs, result):
    dim = int(np.shape(_arg(args, kwargs, 0, "a"))[0])
    tracer.counts["circle.diag_calls"] += 1
    tracer.counts["circle.basis_dim_max"] = max(tracer.counts["circle.basis_dim_max"], dim)


def _count_hops(tracer, args, kwargs, result):
    order = _arg(args, kwargs, 3, "order")
    tracer.counts["circle.hop_strings"] += 2 ** (order + 1) - 1  # sum of 2^k, k <= K


def _count_chain(tracer, args, kwargs, result):
    tracer.counts["junction.chain_solves"] += 1
    tracer.counts["junction.chain_sites"] += len(_arg(args, kwargs, 0, "d"))


def _count_quadrature(tracer, args, kwargs, result):
    tracer.counts["quadrature.calls"] += 1
    tracer.counts["quadrature.channels"] += int(np.shape(result)[0])


# (module, function, layer time metric or None for a counter only, counter)
WRAPPED = [
    ("qfluct.sectors", "boltzmann_table", "sectors.table_build_s", _count_table),
    ("qfluct.sectors", "ladder_coefficient", None, _bump("sectors.ladder_calls")),
    ("qfluct.gap", "solve_gap", "gap.solve_s", _count_gap),
    ("qfluct.correlators", "correlation_finite_n", "correlators.self_s", _count_word),
    ("qfluct.correlators", "single_layer_evolution_element", "correlators.self_s",
     _count_evolution),
    ("qfluct.correlators", "w_expectation", "correlators.self_s", _count_w),
    ("qfluct.correlators", "pair_expectation", "correlators.self_s",
     _bump("correlators.evals")),
    ("qfluct.circle", "spectrum", "circle.self_s", None),
    ("qfluct.circle", "propagator", "circle.self_s", None),
    ("qfluct.circle", "phase_peaked_state", "circle.self_s", None),
    ("qfluct.circle", "josephson_current", "circle.self_s", None),
    ("qfluct.circle", "eigh", "circle.diag_s", _count_diag),
    ("numpy.linalg", "eigvalsh", "circle.diag_s", _count_diag),
    ("qfluct.circle", "dyson_circle", "circle.dyson_self_s", _count_hops),
    ("qfluct.circle", "dyson_defect", "circle.dyson_self_s", None),
    ("qfluct.junction", "evolution_element", "junction.element_self_s",
     _bump("junction.elements")),
    ("qfluct.junction", "eigh_tridiagonal", None, _count_chain),
    ("qfluct.junction", "circle_element", "junction.circle_compare_s", None),
    ("qfluct.junction", "dyson_junction", "junction.dyson_self_s", None),
    ("qfluct.junction", "dyson_junction_defect", "junction.dyson_self_s", None),
    ("qfluct.quadrature", "ordered_phase_integral", "quadrature.s", _count_quadrature),
    ("qfluct.fitting", "fit_power_law", "fitting.fit_s", _bump("fitting.fits")),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [function, metric, parent index or -1, start, end]
        self.counts = collections.Counter()
        self.table_entries = {}
        self.wall_s = 0.0
        self.outside_s = 0.0
        self.missing = []
        self._stack = []
        self._op_first_span = 0

    @classmethod
    def install(cls):
        tracer = cls()
        for module_name, name, metric, count in WRAPPED:
            tracer._wrap(module_name, name, metric, count)
        return tracer

    def _wrap(self, module_name, name, metric, count):
        original = getattr(sys.modules.get(module_name), name, None)
        label = f"{module_name}.{name}"
        if original is None:
            self.missing.append(label)
            return
        spans, stack = self.spans, self._stack

        if metric is None:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                count(self, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                index = len(spans)
                span = [label, metric, stack[-1] if stack else -1, 0.0, 0.0]
                spans.append(span)
                stack.append(index)
                span[3] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[4] = time.perf_counter()
                    stack.pop()
                if count is not None:
                    count(self, args, kwargs, result)
                return result
        functools.update_wrapper(wrapper, original)

        holders = [sys.modules[module_name]] + [
            module for key, module in list(sys.modules.items())
            if key == "qfluct" or key.startswith("qfluct.")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def begin_op(self):
        self._op_first_span = len(self.spans)

    def end_op(self, latency):
        covered = sum(end - start for _, _, parent, start, end
                      in self.spans[self._op_first_span:] if parent < 0)
        self.wall_s += latency
        self.outside_s += latency - covered

    def report(self):
        """Per-layer self times and counts of the round, plus its spans."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(TIME_METRICS, 0.0)
        for (_, metric, _, start, end), inner in zip(self.spans, child):
            self_s[metric] += (end - start) - inner
        origin = self.spans[0][3] if self.spans else 0.0
        return {
            "wall_s": self.wall_s,
            "outside_s": self.outside_s,
            "missing": self.missing,
            "self_s": self_s,
            "counts": {name: int(self.counts[name]) for name in COUNT_METRICS},
            "spans": [[name, parent, start - origin, end - origin]
                      for name, _, parent, start, end in self.spans],
        }
