"""One round of a workload in a fresh process.

Reads ``{"plan": [...], "trace": bool}`` on stdin, times ``import qfluct``
(the set-up every CLI run pays), runs each planned operation once and
writes one JSON object on stdout: the set-up time, the peak resident
memory of this process (``VmHWM``, which starts afresh at ``exec``, unlike
``ru_maxrss``, which keeps the parent's peak), and per operation its
latency and output.  Each latency covers only the public qfluct call;
building parameter objects and converting outputs happen outside it.
Before and after the operations it times a fixed reference computation
three times; ``run.py`` scales every time of the round to one machine
speed by the median of the six (``machine_s``).
"""

import json
import math
import statistics
import sys
import time

_start = time.perf_counter()
import qfluct  # noqa: E402  (the timed set-up)
SETUP_S = time.perf_counter() - _start

import numpy as np  # noqa: E402
from scipy.linalg import eigh_tridiagonal  # noqa: E402

from qfluct import circle, correlators, fitting, gap, junction  # noqa: E402

import spans  # noqa: E402
import workloads as w  # noqa: E402


def _complex(z):
    z = complex(z)
    return [z.real, z.imag]


def _layer(layer):
    return qfluct.ModelParams(epsilon=layer["epsilon"], t_c=layer["t_c"],
                              beta=layer["beta"], mu=layer.get("mu", 0.0))


def _junction(cfg):
    return qfluct.JunctionParams(
        left=qfluct.ModelParams(beta=cfg["beta"], **cfg["left"]),
        right=qfluct.ModelParams(beta=cfg["beta"], **cfg["right"]),
        lam=cfg["lam"], e_c=cfg["e_c"], n_g=cfg["n_g"], beta=cfg["beta"])


def _circuit(cfg):
    return (qfluct.CircuitParams(e_c=cfg["e_c"], e_j=cfg["e_j"], n_g=cfg["n_g"]),
            qfluct.ChargeBasisTruncation(cfg["n_max"]))


def _pair(element):
    return tuple(element[0]), tuple(element[1])


def _prepare(op, ctx):
    """Return ``(call, convert)`` for one operation: ``call`` is the timed
    public call, ``convert`` turns its result into JSON."""
    kind = op["kind"]
    if kind == "gap":
        layer = op["layer"]
        ctx["layer"] = _layer(layer)

        def convert(sol):
            ctx["gap"] = sol
            return {"delta": sol.delta}
        return (lambda: gap.solve_gap(layer["epsilon"], layer["t_c"], layer["beta"]),
                convert)
    if kind == "word":
        word = correlators.FluctuationWord.from_triples(op["word"])
        params, sol, n = ctx["layer"], ctx["gap"], op["n"]

        def convert(value):
            ctx.setdefault("series", {}).setdefault(op.get("series"), []).append(
                (n, complex(value)))
            return _complex(value)
        return lambda: correlators.correlation_finite_n(params, n, word, sol), convert
    if kind == "w_expectation":
        params = ctx["layer"]
        return (lambda: correlators.w_expectation(params, op["n"], op["power"], op["time"]),
                _complex)
    if kind == "pair_expectation":
        params = ctx["layer"]
        return lambda: correlators.pair_expectation(params, op["n"]), float
    if kind == "evolution":
        params, sol, k = ctx["layer"], ctx["gap"], op["excitations"]
        return (lambda: correlators.single_layer_evolution_element(
            params, op["n"], k, k, op["time"], sol), _complex)
    if kind == "fit":
        points = ctx["series"][op["series"]]
        ns = [n for n, _ in points]
        errors = [abs(v - 1.0) for _, v in points]
        return (lambda: fitting.fit_power_law(ns, errors),
                lambda fit: {"exponent": fit.exponent, "amplitude": fit.amplitude,
                             "n": ns, "errors": errors})
    if kind == "layer_gaps":
        params = _junction(op["junction"])
        ctx["junction"] = params

        def convert(gaps):
            ctx["gaps"] = gaps
            return {"delta": [gaps[0].delta, gaps[1].delta]}
        return lambda: junction.layer_gaps(params), convert
    if kind == "junction_element":
        params, gaps = ctx["junction"], ctx["gaps"]
        source, target = _pair(op["element"])
        return (lambda: junction.evolution_element(params, op["n"], source, target,
                                                   op["time"], gaps=gaps),
                lambda el: _complex(el.value))
    if kind == "circle_element":
        params, gaps = ctx["junction"], ctx["gaps"]
        source, target = _pair(op["element"])
        return (lambda: junction.circle_element(params, source, target, op["time"],
                                                gaps=gaps), _complex)
    if kind == "circle_dyson":
        cfg = w.DYSON_CIRCLE
        params, trunc = _circuit(cfg)
        return (lambda: circle.dyson_defect(params, trunc, cfg["time"], op["order"]),
                lambda r: {"defect": r[0], "bound": r[1]})
    if kind == "junction_dyson":
        cfg = w.DYSON_JUNCTION
        params, gaps = ctx["junction"], ctx["gaps"]
        elements = [_pair(e) for e in cfg["elements"]]

        def convert(result):
            deviations, bound = result
            return {"deviations": [deviations[e] for e in elements], "bound": bound}
        return (lambda: junction.dyson_junction_defect(
            params, op["n"], cfg["time"], op["order"], elements, gaps=gaps), convert)
    if kind == "spectrum":
        cfg = op["circuit"]
        params, trunc = _circuit(cfg)
        return (lambda: circle.spectrum(params, trunc, cfg["levels"]),
                lambda r: {"energies": [float(e) for e in r.energies],
                           "converged": bool(r.converged)})
    if kind == "current":
        cfg = w.CIRCLE_JOB
        params, trunc = _circuit(cfg)

        def call():
            state = circle.phase_peaked_state(trunc, op["phi"], cfg["packet_width"])
            return circle.josephson_current(params, trunc, state)
        return call, float
    raise ValueError(f"unknown operation kind {kind!r}")


def _peak_rss_mib():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


MACHINE_REPEAT = 3


def _machine_times():
    """Times of ``MACHINE_REPEAT`` runs of a fixed computation that calls no
    qfluct code: a scalar Python loop and small tridiagonal eigensolves,
    the two kinds of work qfluct's operations are made of.  The two cores
    of the benchmark machine are shared, and their speed changes by a third
    over minutes with the load of other tenants; these times follow it."""
    diag, off = np.linspace(0.0, 1.0, 12), np.linspace(0.5, 1.5, 11)
    times = []
    for _ in range(MACHINE_REPEAT):
        start = time.perf_counter()
        acc = 0.0
        for i in range(1, 100_000):
            acc += math.lgamma(i) * math.sqrt(i) / (i + 1.0)
        for i in range(1000):
            eigh_tridiagonal(diag + i * 1e-3, off)
        times.append(time.perf_counter() - start)
    return times


def run(plan, tracer=None):
    ctx = {}
    records = []
    for op in plan:
        record = {"latency": 0.0, "value": None, "error": None}
        try:
            call, convert = _prepare(op, ctx)
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                result = call()
            finally:
                record["latency"] = time.perf_counter() - start
                if tracer is not None:
                    tracer.end_op(record["latency"])
            record["value"] = convert(result)
        except Exception as exc:  # a failed operation is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    return records


def main():
    job = json.load(sys.stdin)
    before = _machine_times()
    tracer = spans.Tracer.install() if job["trace"] else None
    records = run(job["plan"], tracer)
    out = {
        "setup_s": SETUP_S,
        "peak_rss_mib": _peak_rss_mib(),
        "records": records,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    out["machine_s"] = statistics.median(before + _machine_times())
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
