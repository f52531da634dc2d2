"""Output checks of every workload.

Each operation's output is compared against a computation made apart from
the code path under test (the dense oracles in ``qfluct.dense``, the
standard-library sector sum in ``reference.py``, a circle Hamiltonian
built here) or against a property the method must have (exact zeros,
exact phases, normalization, factorial bounds, convergence trends).  No
check compares against stored output.

``references`` computes the expected values once per run and lists the
problems it finds in the program's sector tables; ``check`` returns the
indices of the operations whose output fails; ``self_check`` plants wrong
values and confirms that ``check`` rejects each of them.
"""

from __future__ import annotations

import cmath
import copy
import math
import random

import numpy as np

from qfluct import dense, gap, junction, sectors
from qfluct.correlators import FluctuationWord

import reference
import workloads as w

EXACT_REFERENCE_MAX_N = 256
WORD_BATCH_REFERENCE_WORDS = 16


def _complex(pair):
    return complex(pair[0], pair[1])


def _balanced(triples):
    return sum(m for _, _, m in triples) == sum(n for _, n, _ in triples)


def _phase(triples):
    """exp(i sum_j (a_1 + ... + a_j)(m_j - n_j)), from the word's triples."""
    running, total = 0.0, 0.0
    for alpha, n, m in triples:
        running += alpha
        total += running * (m - n)
    return cmath.exp(1j * total)


def _model(layer):
    return sectors.ModelParams(epsilon=layer["epsilon"], t_c=layer["t_c"],
                               beta=layer["beta"], mu=layer.get("mu", 0.0))


def _junction_layers(cfg):
    return [dict(cfg[side], beta=cfg["beta"]) for side in ("left", "right")]


def _table_sizes(workload, plan):
    """Every (layer, N) whose sector table the workload builds."""
    if workload in ("layer_sweep", "word_batch"):
        return [(w.LAYER, n) for n in sorted({op["n"] for op in plan if "n" in op})]
    cfg, sizes = (w.JUNCTION, w.JUNCTION_N) if workload == "junction_sweep" else (
        w.DYSON_JUNCTION, w.DYSON_JUNCTION["n_list"])
    return [(layer, n) for layer in _junction_layers(cfg) for n in sizes]


def _normalization_problems(workload, plan):
    problems = []
    for layer, n in _table_sizes(workload, plan):
        table = sectors.boltzmann_table(_model(layer), n)
        total = math.fsum(float(np.sum(np.exp(row.log_degeneracy + row.log_rho)))
                          for row in table.rows)
        del table
        if abs(total - 1.0) > 1e-12:
            problems.append(f"table at N={n} normalizes to {total!r}")
    return problems


def _circle_hamiltonian(e_c, e_j, n_g, grid):
    h = np.diag(e_c * (grid - n_g) ** 2)
    hop = np.full(grid.size - 1, 0.5 * e_j)
    return h + np.diag(hop, 1) + np.diag(hop, -1)


def _circle_propagator(e_c, e_j, n_g, offset, n_max, t):
    """U(t) on the charge window, from a Hamiltonian built here."""
    grid = np.arange(-n_max, n_max + 1) + offset
    evals, vecs = np.linalg.eigh(_circle_hamiltonian(e_c, e_j, n_g, grid))
    return grid, (vecs * np.exp(-1j * t * evals)) @ vecs.T


def _circle_levels(cfg, n_max):
    grid = np.arange(-n_max, n_max + 1, dtype=float)
    h = _circle_hamiltonian(cfg["e_c"], cfg["e_j"], cfg["n_g"], grid)
    return np.linalg.eigvalsh(h)[:cfg["levels"]]


def references(workload, plan, seed):
    """Expected values for the operations of one plan, keyed by op index,
    plus problems found in the tables the program builds."""
    refs = {"exact": {}, "dense": {}, "problems": _normalization_problems(workload, plan)}
    if workload in ("layer_sweep", "word_batch"):
        layer = w.LAYER
        delta = reference.gap_delta(layer["epsilon"], layer["t_c"], layer["beta"])
        refs["delta"] = delta
        sums = {}

        def layer_sum(n):
            if n not in sums:
                sums[n] = reference.SectorSum(layer["epsilon"], layer["t_c"], layer["beta"],
                                              n, layer["mu"])
            return sums[n]

        chosen = set()
        if workload == "word_batch":
            balanced = [op["index"] for op in plan
                        if op["kind"] == "word" and op["n"] == EXACT_REFERENCE_MAX_N
                        and _balanced(op["word"])]
            chosen = set(random.Random(f"check:{seed}").sample(
                balanced, WORD_BATCH_REFERENCE_WORDS))
            sol = gap.solve_gap(layer["epsilon"], layer["t_c"], layer["beta"])
            params = _model(layer)
        for i, op in enumerate(plan):
            n = op.get("n", 0)
            kind = op["kind"]
            if kind == "word" and n <= w.WORD_BATCH_DENSE_N and workload == "word_batch":
                word = FluctuationWord.from_triples(op["word"])
                refs["dense"][i] = dense.dense_correlation(params, n, word, sol)
            if n > EXACT_REFERENCE_MAX_N or n <= w.WORD_BATCH_DENSE_N:
                continue
            if kind == "word" and (workload == "layer_sweep" or op["index"] in chosen):
                refs["exact"][i] = layer_sum(n).word(op["word"], delta)
            elif kind == "w_expectation":
                refs["exact"][i] = layer_sum(n).w_power(op["power"], op["time"])
            elif kind == "pair_expectation":
                refs["exact"][i] = layer_sum(n).pair()
            elif kind == "evolution":
                refs["exact"][i] = layer_sum(n).evolution(op["excitations"], op["time"], delta)
    elif workload == "junction_sweep":
        cfg = w.JUNCTION
        left, right = _junction_layers(cfg)
        deltas = [reference.gap_delta(x["epsilon"], x["t_c"], x["beta"]) for x in (left, right)]
        refs["delta"] = deltas
        params = junction.JunctionParams(
            left=_model(left), right=_model(right), lam=cfg["lam"], e_c=cfg["e_c"],
            n_g=cfg["n_g"], beta=cfg["beta"])
        gl, gr = junction.layer_gaps(params)
        oracle = dense.DenseJunction(_model(left), _model(right), cfg["lam"], cfg["e_c"],
                                     cfg["n_g"], gl, gr, 2)
        e_j = 2.0 * cfg["lam"] * deltas[0] * deltas[1]
        for i, op in enumerate(plan):
            if "element" not in op:
                continue
            source, target = op["element"]
            if sum(source) != sum(target):
                continue
            if op["kind"] == "junction_element" and op["n"] == 2:
                refs["dense"][i] = oracle.element(tuple(source), tuple(target), op["time"])
            elif op["kind"] == "circle_element":
                offset = 0.0 if sum(source) % 2 == 0 else 0.5
                grid, u = _circle_propagator(cfg["e_c"], e_j, cfg["n_g"], offset, 48,
                                             op["time"])
                row = int(np.argmin(np.abs(grid - (target[0] - target[1]) / 2)))
                col = int(np.argmin(np.abs(grid - (source[0] - source[1]) / 2)))
                refs["exact"][i] = complex(u[row, col])
    else:
        cfg = w.DYSON_JUNCTION
        refs["delta"] = [reference.gap_delta(x["epsilon"], x["t_c"], x["beta"])
                         for x in _junction_layers(cfg)]
        for i, op in enumerate(plan):
            if op["kind"] == "spectrum" and not op.get("free"):
                refs["exact"][i] = _circle_levels(op["circuit"], 2 * op["circuit"]["n_max"])
    return refs


def _close(value, expected, rel):
    return abs(value - expected) <= rel * abs(expected)


def check(workload, plan, records, refs):
    """Indices of the operations that raised or whose output fails a check."""
    failed = {i for i, rec in enumerate(records) if rec["error"] is not None}
    ok = [rec["error"] is None for rec in records]

    def fail(i, condition):
        if ok[i] and not condition:
            failed.add(i)

    for i, (op, rec) in enumerate(zip(plan, records)):
        if not ok[i]:
            continue
        kind, value = op["kind"], rec["value"]
        exact, dense_ref = refs["exact"].get(i), refs["dense"].get(i)
        if kind == "gap":
            fail(i, _close(value["delta"], refs["delta"], 1e-10))
        elif kind == "layer_gaps":
            fail(i, all(_close(a, b, 1e-10) for a, b in zip(value["delta"], refs["delta"])))
        elif kind == "word":
            z = _complex(value)
            if not _balanced(op["word"]):
                fail(i, value[0] == 0.0 and value[1] == 0.0)
                continue
            if z != 0:
                fail(i, abs(z / abs(z) - _phase(op["word"])) <= 1e-12)
            if dense_ref is not None:
                fail(i, abs(z - dense_ref) <= 1e-10)
            if exact is not None:
                fail(i, _close(z, exact, 1e-10))
        elif kind in ("w_expectation", "evolution"):
            z = _complex(value)
            if kind == "w_expectation":
                fail(i, abs(z) <= 1.0 + 1e-12)
            if exact is not None:
                fail(i, _close(z, exact, 1e-10))
        elif kind == "pair_expectation":
            if exact is not None:
                fail(i, _close(value, exact, 1e-10))
        elif kind == "fit":
            fail(i, _fit_ok(plan, records, op, value))
        elif kind in ("junction_element", "circle_element"):
            z = _complex(value)
            source, target = op["element"]
            if sum(source) != sum(target):
                fail(i, value[0] == 0.0 and value[1] == 0.0)
            if dense_ref is not None:
                fail(i, abs(z - dense_ref) <= 1e-10)
            if exact is not None:
                fail(i, abs(z - exact) <= 1e-10)
        elif kind == "circle_dyson":
            cfg = w.DYSON_CIRCLE
            bound = (abs(cfg["e_j"]) * cfg["time"]) ** (op["order"] + 1) / math.factorial(
                op["order"] + 1)
            fail(i, _close(value["bound"], bound, 1e-12) and value["defect"] <= bound)
        elif kind == "junction_dyson":
            cfg = w.DYSON_JUNCTION
            bound = (2.0 * abs(cfg["lam"]) * cfg["time"]) ** (op["order"] + 1) / math.factorial(
                op["order"] + 1)
            fail(i, _close(value["bound"], bound, 1e-12)
                 and max(value["deviations"]) <= bound)
        elif kind == "spectrum":
            energies = np.array(value["energies"])
            fail(i, value["converged"])
            if op.get("free"):
                cfg = op["circuit"]
                grid = np.arange(-2 * cfg["n_max"], 2 * cfg["n_max"] + 1)
                want = np.sort((grid - cfg["n_g"]) ** 2)[:cfg["levels"]]
                fail(i, float(np.max(np.abs(energies - want))) <= 1e-12)
            if exact is not None:
                fail(i, float(np.max(np.abs(energies - exact))) <= 1e-10)
        elif kind == "current":
            cfg = w.CIRCLE_JOB
            fail(i, abs(value - cfg["e_j"] * math.sin(op["phi"]))
                 <= abs(cfg["e_j"]) * cfg["packet_width"])

    _check_trends(workload, plan, records, refs, ok, fail)
    return failed


def _fit_ok(plan, records, op, value):
    """Pair-word decay exponent -1 +- 0.3 (criterion 3), agreeing with a
    least-squares slope computed here from the same correlator values."""
    xs, ys = [], []
    for other, rec in zip(plan, records):
        if other["kind"] == "word" and other.get("series") == op["series"]:
            err = abs(_complex(rec["value"]) - 1.0) if rec["value"] else 0.0
            if err > 0:
                xs.append(math.log(other["n"]))
                ys.append(math.log(err))
    if len(xs) < 4:
        return False
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    slope = (math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / math.fsum((x - mx) ** 2 for x in xs))
    return abs(value["exponent"] + 1.0) <= 0.3 and abs(value["exponent"] - slope) <= 1e-9


def _check_trends(workload, plan, records, refs, ok, fail):
    if workload == "layer_sweep":
        # criterion 9: the error of <S+S->/N^2 to Delta^2 decreases strictly
        target = refs["delta"] ** 2
        previous = math.inf
        for i, op in enumerate(plan):
            if op["kind"] == "pair_expectation" and ok[i]:
                err = abs(records[i]["value"] - target)
                fail(i, err < previous)
                previous = err
    elif workload == "junction_sweep":
        # criterion 7: the error against the circle does not increase after the first N
        circle_value = {}
        errors = {}
        for i, op in enumerate(plan):
            if not ok[i] or "element" not in op:
                continue
            key = str(op["element"])
            z = _complex(records[i]["value"])
            if op["kind"] == "circle_element":
                circle_value[key] = z
            elif key in circle_value:
                errors.setdefault(key, []).append((i, abs(z - circle_value[key])))
        for series in errors.values():
            for (_, before), (i, after) in zip(series[1:], series[2:]):
                fail(i, after <= before)
    elif workload == "dyson_orders":
        # E(n_g) = E(1 - n_g) on an integer charge grid
        rows = {op["dispersion"]: i for i, op in enumerate(plan) if "dispersion" in op}
        last = max(rows)
        for k, i in rows.items():
            j = rows[last - k]
            if ok[i] and ok[j]:
                gap_ = np.max(np.abs(np.array(records[i]["value"]["energies"])
                                     - np.array(records[j]["value"]["energies"])))
                fail(i, float(gap_) <= 1e-10)


def _planted(workload, plan, refs):
    """(label, op index, new value) for each planted wrong value."""
    planted = []
    exact_words = [i for i in refs["exact"] if plan[i]["kind"] == "word"]
    if exact_words:
        i = exact_words[0]
        z = refs["exact"][i] * (1.0 + 1e-8)
        planted.append(("correlator off by 1e-8 relative", i, [z.real, z.imag]))
    if workload == "word_batch":
        i = next(i for i, op in enumerate(plan)
                 if op["kind"] == "word" and not _balanced(op["word"]))
        planted.append(("nonzero unbalanced word", i, [1e-17, 0.0]))
    if workload == "junction_sweep":
        i = min(refs["dense"])
        z = refs["dense"][i] + 1e-8
        planted.append(("junction element off against the dense oracle", i,
                        [z.real, z.imag]))
    if workload == "dyson_orders":
        i = next(i for i, op in enumerate(plan) if op["kind"] == "circle_dyson")
        cfg = w.DYSON_CIRCLE
        bound = abs(cfg["e_j"]) * cfg["time"]
        planted.append(("Dyson defect above its bound", i,
                        {"defect": bound * (1.0 + 1e-6), "bound": bound}))
    return planted


def self_check(workload, plan, records, refs):
    """Plant each wrong value into a copy of a round's records and return
    the labels of those the checker let through."""
    missed = []
    already_failed = check(workload, plan, records, refs)
    for label, i, value in _planted(workload, plan, refs):
        if i in already_failed:
            continue
        mutated = copy.deepcopy(records)
        mutated[i]["value"] = value
        if i not in check(workload, plan, mutated, refs):
            missed.append(label)
    return missed
