import json

import pytest

from qfluct import cli


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
    assert doc["delta"] == pytest.approx(0.5, abs=1e-8)
    assert "_provenance" in doc


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


def test_junction_command(tmp_path):
    code, out = run(tmp_path, "junction",
                    {"left": {"epsilon": 0.0, "t_c": 1.0},
                     "right": {"epsilon": 0.0, "t_c": 1.0},
                     "beta": 2.0, "lambda": 1.0, "e_c": 0.4, "time": 0.3,
                     "n_list": [4, 8], "elements": [[0, 0, 1, -1], [0, 0, 1, 1]],
                     "dyson_order": 1, "dyson_n": 4})
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
    assert dyson_body[0] == "N,K,t,bound,measured_max_abs_dev"
    row = dyson_body[1].split(",")
    assert float(row[4]) <= float(row[3])


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


@pytest.mark.parametrize("command,config", [
    ("junction", {**JUNCTION, "time": float("nan")}),
    ("circle", {**CIRCLE, "e_j": float("nan")}),
    ("circle", {**CIRCLE, "e_c": 10**400}),
    ("junction", {**JUNCTION, "n_list": []}),
    ("converge", {**CONVERGE, "n_list": []}),
    ("circle", {**CIRCLE, "levels": 0}),
    ("junction", {**JUNCTION, "n_list": [4.7]}),
    ("junction", {**JUNCTION, "elements": [[0.5, 0, 1, -1]]}),
], ids=["junction-time-nan", "circle-ej-nan", "circle-ec-huge-int", "junction-empty-n-list",
        "converge-empty-n-list", "circle-zero-levels", "junction-fractional-n",
        "junction-fractional-element"])
def test_malformed_config_is_config_error(tmp_path, capsys, command, config):
    code, _ = run(tmp_path, command, config)
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selftest_tolerance_override(capsys):
    # an absurdly tight tolerance must make the oracle comparisons fail
    assert cli.main(["selftest", "--tol", "1e-30"]) == 1
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


def test_converge_reports_discarded_bound(tmp_path):
    code, out = run(tmp_path, "converge",
                    {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0,
                     "word": [[0.0, 1, 1]], "n_list": [64, 128, 256, 512]})
    assert code == 0
    fit = json.loads((out / "converge_fit.json").read_text())
    assert 0.0 < fit["discarded_bound"] < 1e-30


def test_unexpected_exception_exits_5(monkeypatch, capsys):
    def broken(args):
        raise ValueError("not a qfluct error\nsecond line")

    monkeypatch.setattr(cli, "cmd_gap", broken)
    assert cli.main(["gap"]) == 5
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: ValueError: not a qfluct error second line"]
