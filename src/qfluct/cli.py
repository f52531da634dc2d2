"""Command-line entry point.

One JSON config per run, CSV for curves and tables, JSON for single
objects; stdout carries a short summary only.  Every output file starts
with a provenance header (config hash, package version, gap solutions
used) so runs are reproducible and diffable.  Identical configs produce
byte-identical files: float fields are written with repr (shortest
round-trip) and all orderings are fixed.

Exit codes: 0 ok, 1 selftest failure, 2 config error, 3 solver
non-convergence (includes asking for fluctuations in the normal phase),
4 truncation non-convergence, 5 internal numerical error (also any
unexpected exception, reported on one ``internal error:`` line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import circle, correlators, dense, gap, junction, sectors
from .errors import (NormalPhaseError, NumericalError, ParameterError,
                     SolverError, TruncationError)

DEFAULT_N_LIST = [64, 128, 256, 512, 1024, 2048, 4096]


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


def _check_keys(cfg: dict, allowed, required):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ParameterError(f"missing config keys: {', '.join(missing)}")


def _is_num(value) -> bool:
    # finite and representable as a float: rejects NaN, inf and huge integers
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _num(cfg, key, default=None):
    value = cfg.get(key, default)
    if not _is_num(value):
        raise ParameterError(f"config key '{key}' must be a finite number")
    return float(value)


def _int(cfg, key, default=None):
    value = cfg.get(key, default)
    if not _is_int(value):
        raise ParameterError(f"config key '{key}' must be an integer")
    return value


def _num_list(cfg, key, default=None):
    value = cfg.get(key, default)
    if not isinstance(value, list) or not all(_is_num(v) for v in value):
        raise ParameterError(f"config key '{key}' must be a list of finite numbers")
    return [float(v) for v in value]


def _int_list(cfg, key, default=None):
    value = cfg.get(key, default)
    if not isinstance(value, list) or not value or not all(_is_int(v) for v in value):
        raise ParameterError(f"config key '{key}' must be a non-empty list of integers")
    return value


def _parse_word(raw) -> correlators.FluctuationWord:
    if not isinstance(raw, list):
        raise ParameterError("word must be a list of [alpha, n, m] triples")
    triples = []
    for item in raw:
        if (not isinstance(item, list) or len(item) != 3 or not _is_num(item[0])
                or not _is_int(item[1]) or not _is_int(item[2])
                or item[1] < 0 or item[2] < 0):
            raise ParameterError(f"malformed word factor {item!r}, "
                                 "expected [alpha, n>=0, m>=0]")
        triples.append(item)
    return correlators.FluctuationWord.from_triples(triples)


# ------------------------------------------------------------------- output

def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _provenance(command: str, cfg: dict, extra: dict | None = None) -> dict:
    prov = {
        "command": command,
        "config_sha256": _config_hash(cfg),
        "package": f"qfluct {__version__}",
    }
    if extra:
        prov.update(extra)
    return prov


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, prov: dict, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(prov):
            fh.write(f"# {key}={prov[key]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, prov: dict, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _gap_json(sol: gap.GapSolution) -> dict:
    return {
        "delta": sol.delta, "omega": sol.omega, "c": sol.c, "phase": sol.phase,
        "converged": sol.converged, "residual": sol.residual,
        "iterations": sol.iterations, "normal_residual": sol.normal_residual,
    }


# ----------------------------------------------------------------- commands

def cmd_gap(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"epsilon", "t_c", "lambda", "betas"}, {"epsilon", "t_c", "betas"})
    epsilon = _num(cfg, "epsilon")
    t_c = _num(cfg, "t_c")
    lam = _num(cfg, "lambda", 1.0)
    betas = _num_list(cfg, "betas")
    if not betas:
        raise ParameterError("empty beta grid")
    if len(set(betas)) != len(betas):
        print("warning: duplicate beta values deduplicated", file=sys.stderr)
        betas = list(dict.fromkeys(betas))

    rows = gap.critical_current_curve(lam, epsilon, t_c, betas)
    coldest = gap.solve_gap(epsilon, t_c, max(betas))

    out = Path(args.out)
    prov = _provenance("gap", cfg, _gap_provenance("coldest", coldest))
    _write_csv(out / "gap_curve.csv", prov,
               ["T", "beta", "delta", "bold_delta", "E_J"], rows)
    _write_json(out / "gap_solution.json", prov, _gap_json(coldest))
    print(f"gap: {len(rows)} temperatures, coldest delta={coldest.delta:.6g} "
          f"-> {out / 'gap_curve.csv'}")
    return 0


def cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg,
                {"epsilon", "t_c", "beta", "mu", "word", "n_list", "w_power", "time"},
                {"epsilon", "t_c", "beta"})
    params = sectors.ModelParams(
        epsilon=_num(cfg, "epsilon"), t_c=_num(cfg, "t_c"),
        beta=_num(cfg, "beta"), mu=_num(cfg, "mu", 0.0),
    )
    word = _parse_word(cfg.get("word", [[0.0, 1, 1]]))
    n_list = _int_list(cfg, "n_list", DEFAULT_N_LIST)
    w_power = _int(cfg, "w_power", 1)
    w_time = _num(cfg, "time", 1.0)

    sol = gap.solve_gap(params.epsilon, params.t_c, params.beta)
    if sol.delta <= 0:
        raise NormalPhaseError(
            "requested temperature is in the normal phase; no fluctuation sweep")

    sweep = correlators.convergence_sweep(params, word, sol, n_list)
    w_rows = []
    # largest sizes first: their tables are the ones the sweep left cached
    for n in reversed(n_list):
        w_val = correlators.w_expectation(params, n, w_power, w_time)
        w_rows.append((n, w_val.real, w_val.imag, abs(w_val - 1.0)))
    w_rows.reverse()

    out = Path(args.out)
    prov = _provenance("converge", cfg, _gap_provenance("layer", sol))
    _write_csv(out / "converge_correlator.csv", prov, ["N", "re", "im", "abs_err"],
               [(n, v.real, v.imag, e)
                for n, v, e in zip(sweep.n_values, sweep.values, sweep.abs_errors)])
    _write_csv(out / "w_expectation.csv", prov, ["N", "re", "im", "abs_err"], w_rows)
    w_errs = [row[3] for row in w_rows]
    fit_payload = {
        "prediction": [sweep.prediction.real, sweep.prediction.imag],
        "fit": None if sweep.fit is None else {
            "exponent": sweep.fit.exponent, "amplitude": sweep.fit.amplitude,
            "residual_rms": sweep.fit.residual_rms, "n_points": sweep.fit.n_points,
        },
        # largest error sector pruning may add to a correlator value
        "discarded_bound": sweep.discarded_bound,
        # measured approach of <W(t)^m> to 1, reported rather than asserted
        "w_trend": {
            "first_abs_err": w_errs[0], "final_abs_err": w_errs[-1],
            "decreasing": all(b <= a for a, b in zip(w_errs, w_errs[1:])),
        },
    }
    _write_json(out / "converge_fit.json", prov, fit_payload)
    _write_json(out / "word_echo.json", prov, {"word": word.to_triples()})
    exp_text = "n/a" if sweep.fit is None else f"{sweep.fit.exponent:.3f}"
    print(f"converge: {len(n_list)} sizes, fitted exponent {exp_text} "
          f"-> {out / 'converge_correlator.csv'}")
    return 0


def cmd_circle(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg,
                {"e_c", "e_j", "n_g", "charge_offset", "n_max", "levels",
                 "dispersion_points", "phase_points", "packet_width"},
                {"e_c", "e_j"})
    params = circle.CircuitParams(
        e_c=_num(cfg, "e_c"), e_j=_num(cfg, "e_j"),
        n_g=_num(cfg, "n_g", 0.0), charge_offset=_num(cfg, "charge_offset", 0.0),
    )
    trunc = circle.ChargeBasisTruncation(_int(cfg, "n_max", 32), params.charge_offset)
    levels = _int(cfg, "levels", 5)
    if levels < 1:
        raise ParameterError("config key 'levels' must be at least 1")
    dispersion_points = _int(cfg, "dispersion_points", 21)
    phase_points = _int(cfg, "phase_points", 25)
    width = _num(cfg, "packet_width", 0.5)

    result = circle.spectrum(params, trunc, levels)
    if not result.converged:
        raise TruncationError(
            f"spectrum not converged under window doubling "
            f"(max relative shift {result.max_rel_shift:.3e})")

    disp_rows = []
    for i in range(dispersion_points):
        n_g = i / (dispersion_points - 1) if dispersion_points > 1 else 0.0
        energies = circle.spectrum(
            circle.CircuitParams(params.e_c, params.e_j, n_g, params.charge_offset),
            trunc, levels).energies
        disp_rows.append([n_g] + [float(e) for e in energies])

    current_rows = []
    for i in range(phase_points):
        phi = 2.0 * math.pi * i / (phase_points - 1) if phase_points > 1 else 0.0
        state = circle.phase_peaked_state(trunc, phi, width)
        current_rows.append((phi, circle.josephson_current(params, trunc, state)))

    out = Path(args.out)
    prov = _provenance("circle", cfg)
    _write_csv(out / "spectrum.csv", prov, ["index", "energy"],
               [(i, float(e)) for i, e in enumerate(result.energies)])
    _write_csv(out / "dispersion.csv", prov,
               ["n_g"] + [f"E{i}" for i in range(levels)], disp_rows)
    _write_csv(out / "current.csv", prov, ["phi_bar", "current"], current_rows)
    print(f"circle: {levels} levels (ground {result.energies[0]:.6g}) "
          f"-> {out / 'spectrum.csv'}")
    return 0


def cmd_junction(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg,
                {"left", "right", "beta", "lambda", "e_c", "n_g", "time",
                 "n_list", "elements", "dyson_order", "dyson_n"},
                {"left", "right", "beta", "lambda", "e_c", "time"})
    layer_cfgs = []
    for side in ("left", "right"):
        sub = cfg[side]
        if not isinstance(sub, dict):
            raise ParameterError(f"config key '{side}' must be an object")
        _check_keys(sub, {"epsilon", "t_c", "mu"}, {"epsilon", "t_c"})
        layer_cfgs.append(sectors.ModelParams(
            epsilon=_num(sub, "epsilon"), t_c=_num(sub, "t_c"),
            beta=_num(cfg, "beta"), mu=_num(sub, "mu", 0.0)))

    params = junction.JunctionParams(
        left=layer_cfgs[0], right=layer_cfgs[1], lam=_num(cfg, "lambda"),
        e_c=_num(cfg, "e_c"), n_g=_num(cfg, "n_g", 0.0), beta=_num(cfg, "beta"),
    )
    t = _num(cfg, "time")
    n_list = _int_list(cfg, "n_list", [4, 8, 12])
    raw_elements = cfg.get("elements", [[0, 0, 1, -1]])
    if (not isinstance(raw_elements, list) or not raw_elements
            or any(not isinstance(e, list) or len(e) != 4
                   or not all(_is_int(v) for v in e) for e in raw_elements)):
        raise ParameterError("elements must be a non-empty list of "
                             "[nL, nR, nL', nR'] integer quadruples")
    elements = [((e[0], e[1]), (e[2], e[3])) for e in raw_elements]
    order = _int(cfg, "dyson_order", 2)
    dyson_n = _int(cfg, "dyson_n", min(n_list))

    gaps = junction.layer_gaps(params)
    rows_by_n = junction.meso_compare(params, n_list, elements, t, gaps=gaps)

    out = Path(args.out)
    prov = _provenance("junction", cfg,
                       {**_gap_provenance("left", gaps[0]),
                        **_gap_provenance("right", gaps[1])})
    for i, n in enumerate(n_list):
        table = []
        for row in rows_by_n:
            value = row.finite_values[i]
            table.append((row.source[0], row.source[1], row.target[0], row.target[1],
                          t, value.real, value.imag, row.abs_errors[i]))
        _write_csv(out / f"elements_N{n}.csv", prov,
                   ["nL", "nR", "nLp", "nRp", "t", "re", "im", "abs_err_vs_meso"],
                   table)

    deviations, bound = junction.dyson_junction_defect(
        params, dyson_n, t, order, elements, gaps=gaps,
        tol=args.tol if args.tol else 1e-10)
    _write_csv(out / "dyson_report.csv", prov,
               ["N", "K", "t", "bound", "measured_max_abs_dev"],
               [(dyson_n, order, t, bound, max(deviations.values()))])

    manifest = {
        "params": {
            "left": {"epsilon": params.left.epsilon, "t_c": params.left.t_c,
                     "mu": params.left.mu},
            "right": {"epsilon": params.right.epsilon, "t_c": params.right.t_c,
                      "mu": params.right.mu},
            "lambda": params.lam, "e_c": params.e_c, "n_g": params.n_g,
            "beta": params.beta, "time": t,
        },
        "gap_solutions": {"left": _gap_json(gaps[0]), "right": _gap_json(gaps[1])},
        "gap_source": "solve_gap at common beta",
        "n_list": n_list,
        "elements": [[s[0], s[1], d[0], d[1]] for s, d in elements],
        "trend": [
            {"element": [r.source[0], r.source[1], r.target[0], r.target[1]],
             "non_increasing_after_first": r.non_increasing_after_first,
             "final_over_initial": r.final_over_initial}
            for r in rows_by_n
        ],
    }
    _write_json(out / "run_manifest.json", prov, manifest)
    print(f"junction: {len(elements)} elements over N={n_list}, "
          f"dyson K={order} bound {bound:.3e} -> {out / 'run_manifest.json'}")
    return 0


# ----------------------------------------------------------------- selftest

def _selftest_sectors(tol: float, report) -> bool:
    ok = True
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
        ok &= report(f"sector spectrum vs dense (N={n})", dev, tol)

        counted = dense.casimir_multiplicities(n)
        mismatch = max(abs(counted.get(float(row.s), 0) - row.degeneracy)
                       for row in table.rows)
        ok &= report(f"multiplicities vs Casimir count (N={n})", float(mismatch), 0.5)

    worst = 0
    for n in range(2, 41, 2):
        total = sum(sectors.multiplicity(n, s) * (2 * s + 1)
                    for s in range(n // 2 + 1))
        worst = max(worst, abs(total - 2**n))
    ok &= report("dimension sum rule (N<=40)", float(worst), 0.5)
    return ok


def _selftest_correlators(tol: float, report) -> bool:
    ok = True
    params = sectors.ModelParams(epsilon=0.3, t_c=1.0, beta=1.6, mu=0.2)
    sol = gap.solve_gap(params.epsilon, params.t_c, params.beta)
    words = [
        [[0.0, 1, 1]],
        [[0.0, 0, 1], [0.0, 1, 0]],
        [[0.4, 0, 1], [-1.1, 1, 0]],
        [[0.9, 1, 2], [0.0, 2, 1]],
        [[0.0, 0, 2], [0.3, 1, 0], [0.0, 1, 0]],
    ]
    for n in (2, 4):
        worst = 0.0
        for triples in words:
            word = correlators.FluctuationWord.from_triples(triples)
            fast = correlators.correlation_finite_n(params, n, word, sol)
            slow = dense.dense_correlation(params, n, word, sol)
            worst = max(worst, abs(fast - slow))
        ok &= report(f"correlators vs dense (N={n})", worst, tol)

        worst = 0.0
        for m in (0, 1, 2):
            fast = correlators.single_layer_evolution_element(
                params, n, m, m, 0.8, sol)
            slow = dense.dense_evolution_element(params, n, m, m, 0.8, sol)
            worst = max(worst, abs(fast - slow))
        fast = correlators.single_layer_evolution_element(params, n, 0, 1, 0.8, sol)
        slow = dense.dense_evolution_element(params, n, 0, 1, 0.8, sol)
        worst = max(worst, abs(fast - slow))
        ok &= report(f"evolution elements vs dense (N={n})", worst, tol)

        worst = max(abs(correlators.w_expectation(params, n, m, 0.9)
                        - dense.dense_w_expectation(params, n, m, 0.9))
                    for m in (1, 2))
        ok &= report(f"dephasing expectation vs dense (N={n})", worst, tol)
    return ok


def _selftest_junction(tol: float, report) -> bool:
    params = junction.JunctionParams(
        left=sectors.ModelParams(epsilon=0.2, t_c=1.0, beta=2.0),
        right=sectors.ModelParams(epsilon=0.0, t_c=1.2, beta=2.0),
        lam=0.8, e_c=0.5, n_g=0.25, beta=2.0,
    )
    gaps = junction.layer_gaps(params)
    pl, pr = params.layer_params()
    oracle = dense.DenseJunction(pl, pr, params.lam, params.e_c, params.n_g,
                                 gaps[0], gaps[1], 2)
    worst = 0.0
    for source, target in [((0, 0), (0, 0)), ((0, 0), (1, -1)), ((1, -1), (1, -1)),
                           ((1, 0), (0, 1)), ((0, 0), (1, 1))]:
        fast = junction.evolution_element(params, 2, source, target, 0.7,
                                          gaps=gaps).value
        slow = oracle.element(source, target, 0.7)
        worst = max(worst, abs(fast - slow))
    return report("junction elements vs dense (N=2)", worst, tol)


def cmd_selftest(args) -> int:
    tol = args.tol if args.tol else 1e-10

    failures = []

    def report(name: str, deviation: float, threshold: float) -> bool:
        passed = deviation <= threshold
        print(f"{'PASS' if passed else 'FAIL'}  {name}: max deviation {deviation:.3e} "
              f"(tolerance {threshold:.1e})")
        if not passed:
            failures.append(name)
        return passed

    _selftest_sectors(tol, report)
    _selftest_correlators(tol, report)
    _selftest_junction(tol, report)

    if failures:
        print(f"selftest: {len(failures)} check(s) failed")
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
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--workers", type=int, default=1,
                         help="ignored; every run is serial")
        cmd.add_argument("--tol", type=float, default=None, help="tolerance override")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
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
