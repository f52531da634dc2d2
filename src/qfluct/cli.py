"""Command-line entry point.

One JSON config per run, CSV for curves and tables, JSON for single
objects; stdout carries a short summary only.  Every output file starts
with a provenance header (config hash, package version, gap solutions
used) so runs are reproducible and diffable.  Identical configs produce
byte-identical files: float fields are written with repr (shortest
round-trip) and all orderings are fixed.

The four config commands share one run path, ``_run``: it reads and parses
the config, the command computes and returns its results, and then it
writes every file, so a run that fails leaves no output behind.

Exit codes: 0 ok, 1 selftest failure, 2 config error, 3 solver
non-convergence (includes asking for fluctuations in the normal phase),
4 truncation non-convergence, 5 internal numerical error (also any
unexpected exception, reported on one ``internal error:`` line).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import circle, correlators, dense, gap, junction, quadrature, sectors
from .errors import (NormalPhaseError, NumericalError, ParameterError,
                     SolverError, TruncationError)

# largest deviation from the dense oracles that `selftest` passes
_SELFTEST_TOL = 1e-10


# ---------------------------------------------------------------- config i/o

def _load_config(path) -> dict:
    if path is None:
        raise ParameterError("this command needs --config <file.json>")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError("config must be a JSON object")
    return cfg


def _is_num(value) -> bool:
    # finite and representable as a float: rejects NaN, inf and huge integers
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    return isinstance(value, int) and _is_num(value)


def _is_list(value, valid) -> bool:
    return isinstance(value, list) and all(map(valid, value))


def _is_factor(value) -> bool:  # a word factor [alpha, n >= 0, m >= 0]
    return (_is_list(value, _is_num) and len(value) == 3
            and all(_is_int(v) and v >= 0 for v in value[1:]))


def _parser(valid, expected: str, convert=lambda value: value):
    """The ``(key, value)`` parser of one value type: ``convert(value)`` for a
    value that ``valid`` accepts, else a ``ParameterError`` saying what the
    key must be."""
    def parse(key, value):
        if not valid(value):
            raise ParameterError(f"config key '{key}' must be {expected}")
        return convert(value)
    return parse


_num = _parser(_is_num, "a finite number", float)
_int = _parser(_is_int, "an integer")
_num_list = _parser(lambda v: _is_list(v, _is_num), "a list of finite numbers",
                    lambda v: [float(x) for x in v])
_int_list = _parser(lambda v: _is_list(v, _is_int) and v != [],
                    "a non-empty list of integers")
_word = _parser(lambda v: _is_list(v, _is_factor),
                "a list of [alpha, n>=0, m>=0] triples",
                correlators.FluctuationWord.from_triples)
_elements = _parser(
    lambda v: _is_list(v, lambda e: _is_list(e, _is_int) and len(e) == 4) and v != [],
    "a non-empty list of [nL, nR, nL', nR'] integer quadruples",
    lambda v: [((e[0], e[1]), (e[2], e[3])) for e in v])
_layer = _parser(lambda v: isinstance(v, dict), "an object",
                 lambda v: _read(v, _LAYER_KEYS))


def _read(cfg: dict, keys: dict) -> dict:
    """Every key of one ``{key: (parser, default)}`` table, parsed from ``cfg``
    in table order."""
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k, (_, d) in keys.items() if d is _REQUIRED and k not in cfg)
    if missing:
        raise ParameterError(f"missing config keys: {', '.join(missing)}")
    return {key: parse(key, cfg.get(key, default)) for key, (parse, default) in keys.items()}


_REQUIRED = object()  # the default of a key that every config sets
_LAYER_KEYS = {"epsilon": (_num, _REQUIRED), "t_c": (_num, _REQUIRED)}
# {command: {key: (parser, default)}}, the one place a config key is named
_CONFIG_KEYS = {
    "gap": {"epsilon": (_num, _REQUIRED), "t_c": (_num, _REQUIRED), "lambda": (_num, 1.0),
            "betas": (_num_list, _REQUIRED)},
    "converge": {"epsilon": (_num, _REQUIRED), "t_c": (_num, _REQUIRED),
                 "beta": (_num, _REQUIRED), "word": (_word, [[0.0, 1, 1]]),
                 "n_list": (_int_list, [64, 128, 256, 512, 1024, 2048, 4096]),
                 "w_power": (_int, 1), "time": (_num, 1.0)},
    "circle": {"e_c": (_num, _REQUIRED), "e_j": (_num, _REQUIRED), "n_g": (_num, 0.0),
               "n_max": (_int, 32), "levels": (_int, 5), "dispersion_points": (_int, 21),
               "phase_points": (_int, 25), "packet_width": (_num, 0.5)},
    "junction": {"left": (_layer, _REQUIRED), "right": (_layer, _REQUIRED),
                 "beta": (_num, _REQUIRED), "lambda": (_num, _REQUIRED),
                 "e_c": (_num, _REQUIRED), "n_g": (_num, 0.0), "time": (_num, _REQUIRED),
                 "n_list": (_int_list, [4, 8, 12]),
                 "elements": (_elements, [[0, 0, 1, -1]]), "dyson_order": (_int, 2)},
}


# ------------------------------------------------------------------- output

def _provenance(command: str, cfg: dict, extra: dict) -> dict:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return {"command": command, "config_sha256": hashlib.sha256(blob).hexdigest(),
            "package": f"qfluct {__version__}", **extra}


def _write_csv(path: Path, prov: dict, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(prov):
            fh.write(f"# {key}={prov[key]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_json(path: Path, prov: dict, payload: dict):
    payload = dict(payload)
    payload["_provenance"] = prov
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _gap_provenance(tag: str, sol: gap.GapSolution) -> dict:
    return {
        f"gap_{tag}_delta": repr(sol.delta),
        f"gap_{tag}_omega": repr(sol.omega),
        f"gap_{tag}_residual": repr(sol.residual),
    }


def _run(args) -> int:
    """Read the config, run the command on its parsed keys, then write every
    file the command returned and print its summary.  A command returns
    ``(provenance extras, {file name: (header, rows) for a CSV or payload
    for a JSON file}, summary)``; the summary points at the first file."""
    cfg = _load_config(args.config)
    extras, files, summary = args.func(_read(cfg, _CONFIG_KEYS[args.command]))
    out = Path(args.out)
    prov = _provenance(args.command, cfg, extras)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if name.endswith(".csv"):
            _write_csv(out / name, prov, *content)
        else:
            _write_json(out / name, prov, content)
    print(f"{summary} -> {out / next(iter(files))}")
    return 0


# ----------------------------------------------------------------- commands

def cmd_gap(c: dict):
    betas = c["betas"]
    if len(set(betas)) != len(betas):
        print("warning: duplicate beta values deduplicated", file=sys.stderr)
    rows = gap.critical_current_curve(c["lambda"], c["epsilon"], c["t_c"], betas)
    coldest = gap.solve_gap(c["epsilon"], c["t_c"], max(betas))
    files = {"gap_curve.csv": (["T", "beta", "delta", "bold_delta", "E_J"], rows),
             "gap_solution.json": dataclasses.asdict(coldest)}
    return (_gap_provenance("coldest", coldest), files,
            f"gap: {len(rows)} temperatures, coldest delta={coldest.delta:.6g}")


def cmd_converge(c: dict):
    params = sectors.ModelParams(epsilon=c["epsilon"], t_c=c["t_c"], beta=c["beta"])
    n_list = c["n_list"]
    sol = gap.solve_gap(params.epsilon, params.t_c, params.beta)
    sweep = correlators.convergence_sweep(params, c["word"], sol, n_list)
    w_rows = []
    # largest sizes first: their tables are the ones the sweep left cached
    for n in reversed(n_list):
        w_val = correlators.w_expectation(params, n, c["w_power"], c["time"])
        w_rows.append((n, w_val.real, w_val.imag, abs(w_val - 1.0)))
    w_rows.reverse()

    w_errs = [row[3] for row in w_rows]
    fit_payload = {
        "prediction": [sweep.prediction.real, sweep.prediction.imag],
        "fit": None if sweep.fit is None else dataclasses.asdict(sweep.fit),
        # largest error sector pruning may add to a correlator value
        "discarded_bound": sweep.discarded_bound,
        # measured approach of <W(t)^m> to 1, reported rather than asserted
        "w_trend": {
            "first_abs_err": w_errs[0], "final_abs_err": w_errs[-1],
            "decreasing": all(b <= a for a, b in zip(w_errs, w_errs[1:])),
        },
    }
    files = {
        "converge_correlator.csv": (
            ["N", "re", "im", "abs_err"],
            [(n, v.real, v.imag, e)
             for n, v, e in zip(sweep.n_values, sweep.values, sweep.abs_errors)]),
        "w_expectation.csv": (["N", "re", "im", "abs_err"], w_rows),
        "converge_fit.json": fit_payload,
        "word_echo.json": {"word": c["word"].to_triples()},
    }
    exp_text = "n/a" if sweep.fit is None else f"{sweep.fit.exponent:.3f}"
    return (_gap_provenance("layer", sol), files,
            f"converge: {len(n_list)} sizes, fitted exponent {exp_text}")


def cmd_circle(c: dict):
    params = circle.CircuitParams(e_c=c["e_c"], e_j=c["e_j"], n_g=c["n_g"])
    trunc = circle.ChargeBasisTruncation(c["n_max"])
    levels, dispersion_points = c["levels"], c["dispersion_points"]
    phase_points, width = c["phase_points"], c["packet_width"]

    def converged_spectrum(circuit):
        result = circle.spectrum(circuit, trunc, levels)
        if not result.converged:
            raise TruncationError(f"spectrum at n_g={circuit.n_g!r} not converged: relative "
                                  f"truncation bound {result.max_rel_shift:.3e}")
        return result.energies

    energies = converged_spectrum(params)
    disp_rows = []
    for i in range(dispersion_points):
        n_g = i / (dispersion_points - 1) if dispersion_points > 1 else 0.0
        circuit = circle.CircuitParams(params.e_c, params.e_j, n_g)
        disp_rows.append([n_g] + [float(e) for e in converged_spectrum(circuit)])

    current_rows = []
    for i in range(phase_points):
        phi = 2.0 * math.pi * i / (phase_points - 1) if phase_points > 1 else 0.0
        state = circle.phase_peaked_state(trunc, phi, width)
        current_rows.append((phi, circle.josephson_current(params, trunc, state)))

    files = {
        "spectrum.csv": (["index", "energy"], [(i, float(e)) for i, e in enumerate(energies)]),
        "dispersion.csv": (["n_g"] + [f"E{i}" for i in range(levels)], disp_rows),
        "current.csv": (["phi_bar", "current"], current_rows),
    }
    return {}, files, f"circle: {levels} levels (ground {energies[0]:.6g})"


def cmd_junction(c: dict):
    params = junction.JunctionParams(
        left=sectors.ModelParams(**c["left"], beta=c["beta"]),
        right=sectors.ModelParams(**c["right"], beta=c["beta"]),
        lam=c["lambda"], e_c=c["e_c"], n_g=c["n_g"], beta=c["beta"],
    )
    t, n_list, elements, order = c["time"], c["n_list"], c["elements"], c["dyson_order"]

    gaps = junction.layer_gaps(params)
    dyson_n = min(n_list)  # the Dyson bound holds uniformly in N
    deviations, bound = junction.dyson_junction_defect(
        params, dyson_n, t, order, elements, gaps=gaps)
    rows_by_n = junction.meso_compare(params, n_list, elements, t, gaps=gaps)
    # the quadrature accepts a Dyson term once its Legendre tail is within this,
    # so a measured deviation below it is unresolved, even where the bound is smaller
    exact = (row.finite_values[n_list.index(dyson_n)] for row in rows_by_n)
    resolution = quadrature._TOL * max(1.0, *map(abs, exact))

    manifest = {
        "params": {key: c[key] for key in
                   ("left", "right", "lambda", "e_c", "n_g", "beta", "time")},
        "gap_solutions": {side: dataclasses.asdict(sol)
                          for side, sol in zip(("left", "right"), gaps)},
        "n_list": n_list,
        "elements": [[*s, *d] for s, d in elements],
        "trend": [
            {"element": [*r.source, *r.target],
             "non_increasing_after_first": r.non_increasing_after_first,
             "final_over_initial": r.final_over_initial}
            for r in rows_by_n
        ],
    }
    files = {"run_manifest.json": manifest}  # first: the summary names it
    for i, n in enumerate(n_list):
        files[f"elements_N{n}.csv"] = (
            ["nL", "nR", "nLp", "nRp", "t", "re", "im", "abs_err_vs_meso"],
            [(*row.source, *row.target, t, row.finite_values[i].real,
              row.finite_values[i].imag, row.abs_errors[i]) for row in rows_by_n])
    files["dyson_report.csv"] = (
        ["N", "K", "t", "bound", "measured_max_abs_dev", "resolution"],
        [(dyson_n, order, t, bound, max(deviations.values()), resolution)])
    extras = {**_gap_provenance("left", gaps[0]), **_gap_provenance("right", gaps[1])}
    return (extras, files, f"junction: {len(elements)} elements over N={n_list}, "
                           f"dyson K={order} bound {bound:.3e}")


# ----------------------------------------------------------------- selftest

def _worst(differences) -> float:
    """Largest ``|difference|``; a NaN, which Python's ``max`` may drop,
    propagates so that the check fails."""
    return float(np.max([abs(d) for d in differences]))


def _selftest_checks():
    """Yield ``(name, deviation, tolerance)`` for every oracle check, in order."""
    params = sectors.ModelParams(epsilon=0.7, t_c=1.0, beta=1.3)
    for n in (2, 4, 6):
        table = sectors.boltzmann_table(params, n)
        sector_levels = np.sort(np.concatenate(
            [np.repeat(row.eta, row.degeneracy) for row in table.rows]))
        dense_levels = np.sort(np.linalg.eigvalsh(dense.pairing_hamiltonian(params, n)))
        if sector_levels.shape != dense_levels.shape:
            dev = float("inf")  # wrong level count, e.g. a broken multiplicity
        else:
            dev = float(np.max(np.abs(sector_levels - dense_levels)))
        yield f"sector spectrum vs dense (N={n})", dev, _SELFTEST_TOL

        counted = dense.casimir_multiplicities(n)
        mismatch = max(abs(counted.get(float(row.s), 0) - row.degeneracy)
                       for row in table.rows)
        yield f"multiplicities vs Casimir count (N={n})", float(mismatch), 0.5

    worst = 0
    for n in range(2, 41, 2):
        total = sum(sectors.multiplicity(n, s) * (2 * s + 1)
                    for s in range(n // 2 + 1))
        worst = max(worst, abs(total - 2**n))
    yield "dimension sum rule (N<=40)", float(worst), 0.5

    params = sectors.ModelParams(epsilon=0.3, t_c=1.0, beta=1.6, mu=0.2)
    sol = gap.solve_gap(params.epsilon, params.t_c, params.beta)
    words = [correlators.FluctuationWord.from_triples(triples) for triples in (
        [[0.0, 1, 1]],
        [[0.0, 0, 1], [0.0, 1, 0]],
        [[0.4, 0, 1], [-1.1, 1, 0]],
        [[0.9, 1, 2], [0.0, 2, 1]],
        [[0.0, 0, 2], [0.3, 1, 0], [0.0, 1, 0]],
    )]
    for n in (2, 4):
        worst = _worst(correlators.correlation_finite_n(params, n, word, sol)
                       - dense.dense_correlation(params, n, word, sol)
                       for word in words)
        yield f"correlators vs dense (N={n})", worst, _SELFTEST_TOL

        worst = _worst(correlators.single_layer_evolution_element(params, n, a, b, 0.8, sol)
                       - dense.dense_evolution_element(params, n, a, b, 0.8, sol)
                       for a, b in ((0, 0), (1, 1), (2, 2), (0, 1)))
        yield f"evolution elements vs dense (N={n})", worst, _SELFTEST_TOL

        worst = _worst(correlators.w_expectation(params, n, m, 0.9)
                       - dense.dense_w_expectation(params, n, m, 0.9)
                       for m in (1, 2))
        yield f"dephasing expectation vs dense (N={n})", worst, _SELFTEST_TOL

    params = junction.JunctionParams(
        left=sectors.ModelParams(epsilon=0.2, t_c=1.0, beta=2.0),
        right=sectors.ModelParams(epsilon=0.0, t_c=1.2, beta=2.0),
        lam=0.8, e_c=0.5, n_g=0.25, beta=2.0,
    )
    gaps = junction.layer_gaps(params)
    oracle = dense.DenseJunction(params.left, params.right, params.lam, params.e_c,
                                 params.n_g, gaps[0], gaps[1], 2)
    worst = _worst(junction.evolution_element(params, 2, source, target, 0.7,
                                              gaps=gaps).value
                   - oracle.element(source, target, 0.7)
                   for source, target in [((0, 0), (0, 0)), ((0, 0), (1, -1)),
                                          ((1, -1), (1, -1)), ((1, 0), (0, 1)),
                                          ((0, 0), (1, 1))])
    yield "junction elements vs dense (N=2)", worst, _SELFTEST_TOL


def cmd_selftest(args) -> int:
    failures = 0
    for name, deviation, threshold in _selftest_checks():
        passed = deviation <= threshold
        print(f"{'PASS' if passed else 'FAIL'}  {name}: max deviation {deviation:.3e} "
              f"(tolerance {threshold:.1e})")
        failures += not passed

    if failures:
        print(f"selftest: {failures} check(s) failed")
        return 1
    print("selftest: all checks passed")
    return 0


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfluct",
        description="Strong-coupling pairing model, its collective fluctuations, "
                    "and the charge qubit they converge to.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gap": (cmd_gap, "gap equation and critical-current curve"),
        "converge": (cmd_converge, "finite-size correlator convergence sweeps"),
        "circle": (cmd_circle, "charge-basis spectra, dispersion and current"),
        "junction": (cmd_junction, "two-layer element convergence and "
                                   "perturbative-propagator report"),
        "selftest": (cmd_selftest, "small-N brute-force oracle suite"),
    }
    for name, (func, help_text) in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        if name != "selftest":  # the oracle suite reads no config, writes no files
            cmd.add_argument("--config", default=None, help="JSON config file")
            cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--workers", type=int, default=1,
                         help="ignored; every run is serial")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args) if args.command == "selftest" else _run(args)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NormalPhaseError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # any other failure is a defect, reported as code 5
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
