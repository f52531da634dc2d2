import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qfluct import circle, cli, correlators, gap, junction, quadrature
from qfluct.errors import NumericalError


def run(tmp_path, command, config, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return cli.main([command, "--config", str(cfg_path), "--out", str(out), *extra]), out


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return comments, body


def test_gap_command_writes_curve(tmp_path, capsys):
    code, out = run(tmp_path, "gap",
                    {"epsilon": 0.0, "t_c": 1.0, "lambda": 1.0,
                     "betas": [2.0, 4.0, 1000.0]})
    assert code == 0
    comments, body = read_csv(out / "gap_curve.csv")
    assert body[0] == "T,beta,delta,bold_delta,E_J"
    assert len(body) == 4
    assert any("config_sha256" in c for c in comments)
    assert any("gap_coldest_delta" in c for c in comments)
    doc = json.loads((out / "gap_solution.json").read_text())
    assert doc["delta"] == 0.5
    assert set(doc) == {"delta", "omega", "residual", "iterations", "normal_residual",
                        "_provenance"}


def test_gap_command_critical_current_next_to_t_c(tmp_path):
    # E_J = 2 Delta^2 -> (3/2)(1 - T/T_c) as T -> T_c, for lambda = T_c = 1
    beta = 1.0000000001
    code, out = run(tmp_path, "gap", {"epsilon": 0.0, "t_c": 1.0, "betas": [beta, 2.0]})
    assert code == 0
    _, body = read_csv(out / "gap_curve.csv")
    warmest = body[-1].split(",")
    assert float(warmest[1]) == beta
    assert float(warmest[4]) == pytest.approx(1.5 * (1.0 - 1.0 / beta), rel=1e-5)


def test_gap_command_deterministic_output(tmp_path):
    cfg = {"epsilon": 0.1, "t_c": 1.0, "betas": [1.5, 2.5, 8.0]}
    code1, out1 = run(tmp_path / "a", "gap", cfg)
    code2, out2 = run(tmp_path / "b", "gap", cfg)
    assert code1 == code2 == 0
    assert (out1 / "gap_curve.csv").read_bytes() == (out2 / "gap_curve.csv").read_bytes()


def test_gap_command_workers_deterministic(tmp_path):
    cfg = {"epsilon": 0.0, "t_c": 1.0, "betas": [1.5, 3.0]}
    code1, out1 = run(tmp_path / "a", "gap", cfg, extra=("--workers", "2"))
    code2, out2 = run(tmp_path / "b", "gap", cfg, extra=("--workers", "2"))
    assert code1 == code2 == 0
    assert (out1 / "gap_curve.csv").read_bytes() == (out2 / "gap_curve.csv").read_bytes()


def test_gap_command_empty_grid_is_config_error(tmp_path):
    code, _ = run(tmp_path, "gap", {"epsilon": 0.0, "t_c": 1.0, "betas": []})
    assert code == 2


def test_gap_command_duplicate_betas_warn(tmp_path, capsys):
    code, out = run(tmp_path, "gap",
                    {"epsilon": 0.0, "t_c": 1.0, "betas": [2.0, 2.0, 3.0]})
    assert code == 0
    assert "duplicate" in capsys.readouterr().err
    _, body = read_csv(out / "gap_curve.csv")
    assert len(body) == 3  # header + 2 rows


def test_unknown_config_key_rejected(tmp_path):
    code, _ = run(tmp_path, "gap",
                  {"epsilon": 0.0, "t_c": 1.0, "betas": [2.0], "tc": 1.0})
    assert code == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["gap", "--config", str(tmp_path / "nope.json")]) == 2


def test_converge_command(tmp_path):
    code, out = run(tmp_path, "converge",
                    {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0,
                     "word": [[0.0, 1, 1]], "n_list": [16, 32, 64, 128]})
    assert code == 0
    _, body = read_csv(out / "converge_correlator.csv")
    assert body[0] == "N,re,im,abs_err"
    assert len(body) == 5
    fit = json.loads((out / "converge_fit.json").read_text())
    assert fit["fit"]["exponent"] == pytest.approx(-1.0, abs=0.4)
    echo = json.loads((out / "word_echo.json").read_text())
    assert echo["word"] == [[0.0, 1, 1]]
    _, wbody = read_csv(out / "w_expectation.csv")
    assert wbody[0] == "N,re,im,abs_err"


def test_converge_malformed_word(tmp_path):
    code, _ = run(tmp_path, "converge",
                  {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0, "word": [[0.0, 1]]})
    assert code == 2
    code, _ = run(tmp_path, "converge",
                  {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0, "word": [[0.0, -1, 2]]})
    assert code == 2


def test_converge_normal_phase_exit(tmp_path):
    code, _ = run(tmp_path, "converge", {"epsilon": 0.0, "t_c": 1.0, "beta": 0.5})
    assert code == 3


def test_circle_command(tmp_path):
    code, out = run(tmp_path, "circle",
                    {"e_c": 1.0, "e_j": 0.2, "n_g": 0.5, "n_max": 12,
                     "levels": 3, "dispersion_points": 5, "phase_points": 5,
                     "packet_width": 0.5})
    assert code == 0
    _, spec_body = read_csv(out / "spectrum.csv")
    assert spec_body[0] == "index,energy"
    assert len(spec_body) == 4
    _, disp_body = read_csv(out / "dispersion.csv")
    assert disp_body[0] == "n_g,E0,E1,E2"
    _, cur_body = read_csv(out / "current.csv")
    assert cur_body[0] == "phi_bar,current"


def test_circle_truncation_failure_exit(tmp_path):
    code, _ = run(tmp_path, "circle", {"e_c": 1.0, "e_j": 100.0, "n_max": 3})
    assert code == 4


def test_circle_unconverged_dispersion_point_exit(tmp_path, capsys):
    # the configured n_g = 0 converges (truncation bound 5.0e-12); at the
    # dispersion point n_g = 1.0 the bound is 1.5e-8 relative
    code, out = run(tmp_path, "circle", {"e_c": 1, "e_j": 0.5, "n_max": 4, "levels": 2,
                                         "dispersion_points": 2, "packet_width": 1.0})
    assert code == 4
    assert "n_g=1.0" in capsys.readouterr().err
    assert not out.exists()


def test_junction_command(tmp_path):
    code, out = run(tmp_path, "junction",
                    {"left": {"epsilon": 0.0, "t_c": 1.0},
                     "right": {"epsilon": 0.0, "t_c": 1.0},
                     "beta": 2.0, "lambda": 1.0, "e_c": 0.4, "time": 0.3,
                     "n_list": [4, 8], "elements": [[0, 0, 1, -1], [0, 0, 1, 1]],
                     "dyson_order": 1})
    assert code == 0
    _, body = read_csv(out / "elements_N4.csv")
    assert body[0] == "nL,nR,nLp,nRp,t,re,im,abs_err_vs_meso"
    assert len(body) == 3
    # charge-violating element is exactly zero
    violating = body[2].split(",")
    assert violating[5] == "0.0" and violating[6] == "0.0"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["gap_solutions"]["left"]["delta"] > 0
    assert manifest["trend"][0]["non_increasing_after_first"] in (True, False)
    _, dyson_body = read_csv(out / "dyson_report.csv")
    assert dyson_body[0] == "N,K,t,bound,measured_max_abs_dev,resolution"
    row = dyson_body[1].split(",")
    assert float(row[4]) <= float(row[3])


def test_junction_dyson_order_past_float_factorial(tmp_path):
    # (K+1)! exceeds the largest float from K = 170 on; the bound underflows
    code, out = run(tmp_path, "junction", {**JUNCTION, "dyson_order": 170})
    assert code == 0
    _, dyson_body = read_csv(out / "dyson_report.csv")
    row = dyson_body[1].split(",")
    assert row[1] == "170" and float(row[3]) == 0.0


@pytest.mark.parametrize("order", [2, 15, 40])
def test_junction_dyson_deviation_levels_off_at_resolution(tmp_path, order):
    # the deviation follows the factorial bound down to rounding and levels
    # off there, above the bound at high order but within the resolution
    code, out = run(tmp_path, "junction", {**JUNCTION, "dyson_order": order})
    assert code == 0
    _, dyson_body = read_csv(out / "dyson_report.csv")
    row = dict(zip(dyson_body[0].split(","), map(float, dyson_body[1].split(","))))
    assert row["measured_max_abs_dev"] <= max(row["bound"], row["resolution"])
    if order == 40:
        assert row["measured_max_abs_dev"] > row["bound"]


def test_junction_dyson_report_runs_at_the_smallest_n(tmp_path):
    # the resolution is _TOL * max(1, |U|) over the exact elements at the
    # smallest N of the sweep, which need not be the first one listed
    code, out = run(tmp_path, "junction", {**JUNCTION, "n_list": [8, 4], "dyson_order": 1,
                                           "elements": [[1, -1, 1, -1], [0, 0, 1, -1]]})
    assert code == 0
    _, body = read_csv(out / "elements_N4.csv")
    rows = [dict(zip(body[0].split(","), line.split(","))) for line in body[1:]]
    largest = max(abs(complex(float(c["re"]), float(c["im"]))) for c in rows)
    assert largest > 1.0
    _, dyson_body = read_csv(out / "dyson_report.csv")
    row = dict(zip(dyson_body[0].split(","), dyson_body[1].split(",")))
    assert row["N"] == "4"
    assert float(row["resolution"]) == quadrature._TOL * largest


def test_junction_normal_phase_exit(tmp_path):
    code, _ = run(tmp_path, "junction",
                  {"left": {"epsilon": 0.0, "t_c": 1.0},
                   "right": {"epsilon": 0.0, "t_c": 1.0},
                   "beta": 0.9, "lambda": 1.0, "e_c": 0.4, "time": 0.3})
    assert code == 3


CIRCLE = {"e_c": 1.0, "e_j": 0.2, "n_max": 12}
JUNCTION = {"left": {"epsilon": 0.0, "t_c": 1.0}, "right": {"epsilon": 0.0, "t_c": 1.0},
            "beta": 2.0, "lambda": 1.0, "e_c": 0.4, "time": 0.3, "n_list": [4]}
CONVERGE = {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0}
# the README's junction example
README_JUNCTION = {"left": {"epsilon": 0.0, "t_c": 1.0}, "right": {"epsilon": 0.0, "t_c": 1.0},
                   "beta": 2.0, "lambda": 1.0, "e_c": 0.4, "n_g": 0.2, "time": 0.3,
                   "n_list": [4, 8, 12], "elements": [[0, 0, 1, -1]], "dyson_order": 2}


@pytest.mark.parametrize("command,config", [
    ("junction", {**JUNCTION, "time": float("nan")}),
    ("circle", {**CIRCLE, "e_j": float("nan")}),
    ("circle", {**CIRCLE, "e_c": 10**400}),
    ("junction", {**JUNCTION, "n_list": []}),
    ("converge", {**CONVERGE, "n_list": []}),
    ("circle", {**CIRCLE, "levels": 0}),
    ("junction", {**JUNCTION, "n_list": [4.7]}),
    ("junction", {**JUNCTION, "elements": [[0.5, 0, 1, -1]]}),
    ("converge", {**CONVERGE, "n_list": [10**400]}),
    ("converge", {**CONVERGE, "w_power": 10**400}),
    ("circle", {**CIRCLE, "n_max": 10**400}),
    ("junction", {**JUNCTION, "dyson_order": 10**400}),
    ("converge", {**CONVERGE, "n_list": [2**62]}),
    ("junction", {**JUNCTION, "n_list": [2**62]}),
    ("junction", {**JUNCTION, "n_list": [3]}),
    ("junction", {**JUNCTION, "dyson_n": 4}),
    ("junction", {**JUNCTION, "dyson_order": -1}),
    ("junction", {**JUNCTION, "elements": [[0, 0, 25, -25]]}),
    ("converge", {**CONVERGE, "mu": 0.1}),
    ("junction", {**JUNCTION, "left": {**JUNCTION["left"], "mu": 0.0}}),
    ("circle", {**CIRCLE, "charge_offset": 0.5}),
], ids=["junction-time-nan", "circle-ej-nan", "circle-ec-huge-int", "junction-empty-n-list",
        "converge-empty-n-list", "circle-zero-levels", "junction-fractional-n",
        "junction-fractional-element", "converge-huge-n", "converge-huge-w-power",
        "circle-huge-n-max", "junction-huge-dyson-order", "converge-n-past-cap",
        "junction-dyson-n-past-cap", "junction-odd-dyson-n", "junction-dyson-n",
        "junction-negative-dyson-order",
        "junction-element-past-circle-window", "converge-mu", "junction-layer-mu",
        "circle-charge-offset"])
def test_malformed_config_is_config_error(tmp_path, capsys, command, config):
    code, out = run(tmp_path, command, config)
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()  # nothing is written before every result is computed


# a small valid config per command, and one other valid value per config key
# ("left.t_c" is the key t_c of the junction's left layer)
MOVES_BASE = {
    "gap": {"epsilon": 0.0, "t_c": 1.0, "betas": [2.0, 4.0]},
    "converge": {**CONVERGE, "n_list": [4, 8]},
    "circle": {**CIRCLE, "n_g": 0.3, "n_max": 8, "levels": 2, "dispersion_points": 2,
               "phase_points": 2, "packet_width": 0.8},
    "junction": {**JUNCTION, "n_list": [2, 4], "dyson_order": 1},
}
ALTERNATES = {
    "gap": {"epsilon": 0.1, "t_c": 1.1, "lambda": 0.5, "betas": [2.0, 5.0]},
    # a phase on a single balanced factor cancels, so the word changes a power
    "converge": {"epsilon": 0.1, "t_c": 1.1, "beta": 2.5, "word": [[0.0, 2, 2]],
                 "n_list": [4, 6], "w_power": 2, "time": 0.5},
    "circle": {"e_c": 1.2, "e_j": 0.3, "n_g": 0.1, "n_max": 9, "levels": 3,
               "dispersion_points": 3, "phase_points": 3, "packet_width": 0.6},
    "junction": {"left": {"epsilon": 0.0, "t_c": 1.2}, "right": {"epsilon": 0.0, "t_c": 1.2},
                 "left.epsilon": 0.1, "left.t_c": 1.1, "right.epsilon": 0.1,
                 "right.t_c": 1.1, "beta": 2.5, "lambda": 0.6, "e_c": 0.5, "n_g": 0.2,
                 "time": 0.4, "n_list": [2, 6], "elements": [[0, 0, 0, 0]],
                 "dyson_order": 2},
}


def results(out):
    """Every output of a run, without what only echoes the config: the ``#``
    provenance lines, ``_provenance``, the manifest's ``params`` and the word
    echo."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.name == "word_echo.json":
            continue
        if path.suffix == ".csv":
            found[path.name] = read_csv(path)[1]
        else:
            doc = json.loads(path.read_text())
            doc.pop("_provenance")
            if path.name == "run_manifest.json":
                doc.pop("params")
            found[path.name] = doc
    return found


def test_every_config_key_moves_a_result(tmp_path):
    registered = {(command, key) for command, keys in cli._CONFIG_KEYS.items()
                  for key in keys}
    registered |= {("junction", f"{side}.{key}") for side in ("left", "right")
                   for key in cli._LAYER_KEYS}
    assert {(command, key) for command, keys in ALTERNATES.items()
            for key in keys} == registered
    for command, alternates in ALTERNATES.items():
        code, out = run(tmp_path / command, command, MOVES_BASE[command])
        assert code == 0
        base = results(out)
        for key, value in alternates.items():
            config = json.loads(json.dumps(MOVES_BASE[command]))
            side, _, layer_key = key.rpartition(".")
            (config[side] if side else config)[layer_key] = value
            code, out = run(tmp_path / command / key, command, config)
            assert code == 0, key
            assert results(out) != base, f"{command}.{key} changes no result"


def test_converge_rejects_non_positive_spin_counts(tmp_path, capsys):
    # a pure-phase word at time 0 needs no sector table at any size
    code, _ = run(tmp_path, "converge", {**CONVERGE, "n_list": [-4, 0, 4, 8],
                                         "word": [[0.3, 0, 0]], "time": 0})
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def run_child(tmp_path, command, config):
    """Run the CLI in a child process, so that a run that hangs fails the
    test at the timeout instead of stalling the suite."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "qfluct.cli", command, "--config", str(cfg_path),
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=30)
    return proc, out


_SCIPY_PROBE = """
import json, sys
import qfluct, qfluct.cli
from qfluct import junction
codes = [qfluct.cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
junction.eigh_tridiagonal([0.0, 1.0], [0.5])
print(json.dumps({"codes": codes, "loaded": loaded,
                  "after_solve": "scipy.linalg" in sys.modules}))
"""


def test_numpy_only_commands_never_import_scipy(tmp_path):
    # no command imports scipy; `junction.eigh_tridiagonal` imports it on its
    # first call, and the probe's own call shows that the check would see it
    runs = [["selftest"]]  # the oracle suite reads no config
    for command, config in [("gap", {"epsilon": 0.0, "t_c": 1.0, "betas": [2.0, 4.0]}),
                            ("converge", {**CONVERGE, "n_list": [8, 16, 32]}),
                            ("circle", CIRCLE),
                            ("junction", README_JUNCTION)]:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config))
        runs.append([command, "--config", str(cfg_path), "--out", str(tmp_path / command)])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["loaded"] == []
    assert report["after_solve"]


def test_long_pair_word_reports_zero_bound(tmp_path):
    # 600 raise-lower pairs: (1/c)^1200 is past float range, but no table
    # up to N = 32 drops an entry, so the bound is exactly 0
    proc, out = run_child(tmp_path, "converge", {**CONVERGE, "word": [[0.0, 600, 600]],
                                                 "n_list": [4, 8, 16, 32]})
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "converge_fit.json").read_text())["discarded_bound"] == 0.0


def test_long_pair_word_bound_saturates(tmp_path):
    # the N >= 64 tables drop entries, so the bound is past float range
    proc, out = run_child(tmp_path, "converge", {**CONVERGE, "word": [[0.0, 600, 600]],
                                                 "n_list": [64, 128, 256, 512]})
    assert proc.returncode == 0, proc.stderr
    fit = json.loads((out / "converge_fit.json").read_text())
    assert fit["discarded_bound"] == math.inf


def test_huge_word_power_finishes(tmp_path):
    # a run of more than 2 max(s) steps kills every walk at once, whatever
    # the power, so N = 16384 costs one pass over its table
    proc, out = run_child(tmp_path, "converge", {**CONVERGE, "n_list": [4, 8, 16384],
                                                 "word": [[0.0, 10**12, 10**12]]})
    assert proc.returncode == 0, proc.stderr
    assert (out / "converge_fit.json").exists()


def test_huge_charge_element_is_config_error(tmp_path):
    # the finite-N element is exactly 0, but the charge is off the circle
    # comparator's grid
    proc, out = run_child(tmp_path, "junction",
                          {**JUNCTION, "elements": [[0, 0, 10**12, -10**12]]})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gap", "--tol", "1e-8"],
    ["selftest", "--config", "cfg.json"],
    ["junction", "--tol", "1e-8"],
    ["selftest", "--tol", "1e-8"],
], ids=["gap-tol", "selftest-config", "junction-tol", "selftest-tol"])
def test_rejected_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


SELFTEST_CHECKS = [
    "sector spectrum vs dense (N=2)", "multiplicities vs Casimir count (N=2)",
    "sector spectrum vs dense (N=4)", "multiplicities vs Casimir count (N=4)",
    "sector spectrum vs dense (N=6)", "multiplicities vs Casimir count (N=6)",
    "dimension sum rule (N<=40)",
    "correlators vs dense (N=2)", "evolution elements vs dense (N=2)",
    "dephasing expectation vs dense (N=2)",
    "correlators vs dense (N=4)", "evolution elements vs dense (N=4)",
    "dephasing expectation vs dense (N=4)",
    "junction elements vs dense (N=2)",
]


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # one PASS line per check, in a fixed order, then the verdict
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"PASS  {name}" for name in SELFTEST_CHECKS]
    assert lines[-1] == "selftest: all checks passed"


def test_selftest_tolerance_override(monkeypatch, capsys):
    # an absurdly tight tolerance must make the oracle comparisons fail
    monkeypatch.setattr(cli, "_SELFTEST_TOL", 1e-30)
    assert cli.main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_selftest_catches_corrupted_multiplicity(monkeypatch, capsys):
    from qfluct import sectors

    true_multiplicity = sectors.multiplicity

    def corrupted(n_spins, s):
        value = true_multiplicity(n_spins, s)
        return value + 1 if s == 0 else value

    monkeypatch.setattr(sectors, "multiplicity", corrupted)
    assert cli.main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("module,name,poison", [
    (junction, "evolution_element", lambda el: dataclasses.replace(el, value=complex("nan"))),
    (correlators, "correlation_finite_n", lambda value: complex("nan")),
], ids=["junction", "correlators"])
def test_selftest_fails_on_nan_after_first_check(monkeypatch, capsys, module, name, poison):
    # Python's max drops a NaN that does not come first; the check must not
    true_function = getattr(module, name)
    calls = []

    def nan_on_second_call(*args, **kwargs):
        calls.append(None)
        value = true_function(*args, **kwargs)
        return poison(value) if len(calls) == 2 else value

    monkeypatch.setattr(module, name, nan_on_second_call)
    assert cli.main(["selftest"]) == 1
    assert any(line.startswith("FAIL") and "nan" in line
               for line in capsys.readouterr().out.splitlines())


def test_junction_element_past_circle_window_names_it(tmp_path, capsys):
    code, out = run(tmp_path, "junction", {**JUNCTION, "elements": [[0, 0, 25, -25]]})
    assert code == 2
    err = capsys.readouterr().err
    assert "[0, 0] -> [25, -25]" in err and "|n| <= 24" in err


@pytest.mark.parametrize("element", [[17 * 10**307, -17 * 10**307, 0, 0],
                                     [17 * 10**307, -17 * 10**307] * 2],
                         ids=["to-0", "diagonal"])
def test_junction_labels_past_float_range_are_config_error(tmp_path, capsys, element):
    # no table entry is reached, so the finite-N element is exactly 0; the
    # circle comparator names its window
    code, out = run(tmp_path, "junction", {**JUNCTION, "elements": [element]})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "|n| <= 24" in err
    assert not out.exists()


@pytest.mark.parametrize("time,n_list", [(1e308, [64, 128]), (1e306, [64, 128, 256])])
def test_converge_time_past_phase_range_is_numerical_error(tmp_path, capsys, time, n_list):
    # t S_z passes the float range, where w_expectation's phases were nan
    code, out = run(tmp_path, "converge", {**CONVERGE, "time": time, "n_list": n_list})
    assert code == 5
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "numerical error: a phase argument is past the float range: t is too large"]
    assert not out.exists()


@pytest.mark.parametrize("command,config", [
    ("circle", {"e_c": 1.0, "e_j": 0.2, "n_g": 1e300, "n_max": 8, "levels": 3}),
    ("junction", {**README_JUNCTION, "n_g": 1e300}),
], ids=["circle", "junction"])
def test_charging_term_past_float_range_is_numerical_error(tmp_path, capsys, command, config):
    # the config is valid, but E_C (n - n_g)^2 is past the float range
    code, out = run(tmp_path, command, config)
    assert code == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error: the charging term")
    assert not out.exists()


def test_converge_reports_discarded_bound(tmp_path):
    code, out = run(tmp_path, "converge",
                    {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0,
                     "word": [[0.0, 1, 1]], "n_list": [64, 128, 256, 512]})
    assert code == 0
    fit = json.loads((out / "converge_fit.json").read_text())
    assert 0.0 < fit["discarded_bound"] < 1e-30


def test_unexpected_exception_exits_5(tmp_path, monkeypatch, capsys):
    def broken(c):
        raise ValueError("not a qfluct error\nsecond line")

    monkeypatch.setattr(cli, "cmd_gap", broken)
    code, out = run(tmp_path, "gap", {"epsilon": 0.0, "t_c": 1.0, "betas": [2.0]})
    assert code == 5
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: ValueError: not a qfluct error second line"]


@pytest.mark.parametrize("command,config,module,name,calls_before", [
    ("gap", {"epsilon": 0.0, "t_c": 1.0, "betas": [2.0, 4.0]}, gap, "solve_gap", 2),
    ("converge", {**CONVERGE, "n_list": [16, 32]}, correlators, "w_expectation", 0),
    ("circle", {**CIRCLE, "dispersion_points": 3, "phase_points": 3}, circle,
     "josephson_current", 0),
    ("junction", JUNCTION, junction, "meso_compare", 0),
], ids=["gap", "converge", "circle", "junction"])
def test_late_failure_leaves_no_output(tmp_path, monkeypatch, capsys, command, config,
                                       module, name, calls_before):
    # the command's last library call fails after every other result exists
    true_function = getattr(module, name)
    calls = []

    def fails_late(*args, **kwargs):
        calls.append(None)
        if len(calls) > calls_before:
            raise NumericalError("planted late failure")
        return true_function(*args, **kwargs)

    monkeypatch.setattr(module, name, fails_late)
    code, out = run(tmp_path, command, config)
    assert code == 5
    assert capsys.readouterr().err == "numerical error: planted late failure\n"
    assert not out.exists()
