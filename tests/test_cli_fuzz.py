"""Property-based fuzzing of the config boundary: whatever a config holds,
every command ends with a documented exit code and never a traceback."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfluct import cli

BIG = 10**400
POOL = [math.nan, math.inf, -math.inf, None, True, False, "x", "", [], {},
        [[1, 2]], [[[]]], -4, 0, 3, 2.5, BIG, 0.5, 1.0, 2.0]
# Size and count keys never get large valid values: an n_max of 10^5 alone
# allocates a 2e5-square dense matrix.
SIZE_POOL = [v for v in POOL if v is not BIG] + [
    [-4, 0, 4, 8], [2, 3], [4, 2.5], [4, None], [2, 4, 6, 8], [4, 8]]
SIZE_KEYS = {"n_list", "n_max", "dyson_order", "levels",
             "dispersion_points", "phase_points"}
# word powers and charge labels are walk lengths; a walk stops once it has
# left [-s, s], so huge ones cost no more than small ones
WORDS = [[[0.0, 1, 1]], [[0.3, 0, 0]], [[0.0, 0, 1]], [[0.4, 0, 1], [-1.1, 1, 0]],
         [[0.0, 1]], [[0.0, -1, 2]], [[math.nan, 1, 1]], [[0.0, 1.5, 1]],
         [[0.0, 600, 600]], [[0.0, 10**12, 10**12]]]
ELEMENTS = [[[0, 0, 1, -1]], [[0, 0, 1, 1]], [[1, -1, 1, -1], [0, 0, 0, 0]],
            [[0.5, 0, 1, -1]], [[0, 0, 1]], [[0, None, 1, -1]], [[0, 0, 10**12, -10**12]]]
LAYER = {"epsilon": 0.0, "t_c": 1.0}

VALID = {
    "gap": {"epsilon": 0.1, "t_c": 1.0, "lambda": 1.0, "betas": [2.0, 3.0]},
    "converge": {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0, "word": [[0.0, 1, 1]],
                 "n_list": [4, 8], "w_power": 1, "time": 0.5},
    "circle": {"e_c": 1.0, "e_j": 0.2, "n_g": 0.3, "n_max": 8, "levels": 2,
               "dispersion_points": 2, "phase_points": 2, "packet_width": 0.8},
    "junction": {"left": dict(LAYER), "right": dict(LAYER), "beta": 2.0, "lambda": 0.5,
                 "e_c": 0.4, "n_g": 0.1, "time": 0.3, "n_list": [2, 4],
                 "elements": [[0, 0, 1, -1]], "dyson_order": 1},
}


def values_for(key):
    pool = SIZE_POOL if key in SIZE_KEYS else POOL
    if key == "word":
        pool = pool + WORDS
    elif key == "elements":
        pool = pool + ELEMENTS
    elif key in ("left", "right"):
        pool = pool + [dict(LAYER), {**LAYER, "mu": math.nan}, {"epsilon": 0.0},
                       {**LAYER, "beta": 2.0}, {**LAYER, "t_c": -4}]
    return st.sampled_from(pool)


def edits(command):
    keys = sorted(VALID[command])
    drop = st.tuples(st.just("drop"), st.sampled_from(keys), st.none())
    add = st.tuples(st.just("set"), st.sampled_from(["extra", "tc", ""]),
                    st.sampled_from(POOL))
    replace = st.sampled_from(keys).flatmap(
        lambda key: st.tuples(st.just("set"), st.just(key), values_for(key)))
    return st.lists(st.one_of(drop, add, replace), min_size=1, max_size=3)


def run_edited(command, ops):
    config = copy.deepcopy(VALID[command])
    for op, key, value in ops:
        if op == "drop":
            config.pop(key, None)
        else:
            config[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(VALID))
def test_base_config_runs(command):
    assert run_edited(command, [])[0] == 0


@pytest.mark.parametrize("command", sorted(VALID))
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_config_exits_with_documented_code(command, data):
    code, err = run_edited(command, data.draw(edits(command)))
    assert code in {0, 2, 3, 4, 5}, (code, err)
    assert "Traceback" not in err
