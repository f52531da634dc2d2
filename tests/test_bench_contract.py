"""The benchmark's contract with the program.  Every function the
benchmark's tracer wraps must exist in the program: a missing one turns
traced benchmark runs into ``correct: false``.  And one plain and one
traced round of every workload must check out, so that a failing output
check or too much traced time outside every span fails the test suite,
not only a benchmark run."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def wrapped_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, name, _, _ in spans.WRAPPED]


@pytest.mark.parametrize("module,name", wrapped_functions())
def test_wrapped_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_round_is_correct(workload):
    # about 2 s each: one plain and one traced round, each in a fresh worker
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    notes = "\n".join(line for line in proc.stderr.splitlines()
                      if line.startswith(("problem:", "failed:")))
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, notes
