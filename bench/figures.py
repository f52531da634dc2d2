"""Reference figures: single layer calls and CLI commands, each in a fresh
process, with wall time and peak resident memory.

    python3 bench/figures.py

Run from the root of a source checkout.  Prints Markdown tables for
``bench/README.md`` and writes the same numbers to
``bench/out/figures.json``.  Each figure is the median of ``REPEAT``
fresh processes; peak RSS is the largest over them and, for the CLI, over
the command's own worker processes.  This script imports no numpy, so the
peak that a child keeps from it across ``exec`` is far below any figure.  BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "figures"
REPEAT = 3

LAYER_SETUP = """
import time
from qfluct import circle, junction, sectors
layer = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0)
pair = junction.JunctionParams(left=layer, right=layer, lam=1.0, e_c=0.4, n_g=0.2, beta=2.0)
crit8 = junction.JunctionParams(
    left=sectors.ModelParams(epsilon=0.2, t_c=1.0, beta=2.0),
    right=sectors.ModelParams(epsilon=0.0, t_c=1.2, beta=2.0),
    lam=0.8, e_c=0.5, n_g=0.25, beta=2.0)
"""

# (table, row label, statement timed after LAYER_SETUP)
LAYER_FIGURES = (
    [("boltzmann_table", f"N={n}", f"sectors.boltzmann_table(layer, {n})")
     for n in (1024, 2048, 4096, 8192)]
    + [("junction evolution_element (0,0)->(1,-1), t=0.3", f"N={n}",
        f"junction.evolution_element(pair, {n}, (0, 0), (1, -1), 0.3)")
       for n in (8, 16, 24, 32)]
    + [("dyson_circle, n_max=8, E_C=E_J=1, t=0.5", f"K={k}",
        f"circle.dyson_circle(circle.CircuitParams(1.0, 1.0), "
        f"circle.ChargeBasisTruncation(8), 0.5, {k})")
       for k in (4, 6, 8)]
    + [("dyson_junction (0,0)->(1,-1), criterion-8 layers, t=0.4", f"N={n}, K=4",
        f"junction.dyson_junction(crit8, {n}, 0.4, 4, [((0, 0), (1, -1))])")
       for n in (8, 12, 16)]
)

CONFIGS = {
    "gap": {"epsilon": 0.0, "t_c": 1.0, "lambda": 1.0,
            "betas": [1.05, 1.2, 1.5, 2.0, 4.0, 10.0, 1000.0]},
    "converge": {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0, "word": [[0.0, 1, 1]],
                 "n_list": [64, 128, 256, 512, 1024, 2048]},
    "converge_default": {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0, "word": [[0.0, 1, 1]]},
    "circle": {"e_c": 1.0, "e_j": 0.2, "n_g": 0.5, "n_max": 32, "levels": 5,
               "dispersion_points": 21, "phase_points": 25, "packet_width": 0.3},
    "junction": {"left": {"epsilon": 0.0, "t_c": 1.0}, "right": {"epsilon": 0.0, "t_c": 1.0},
                 "beta": 2.0, "lambda": 1.0, "e_c": 0.4, "n_g": 0.2, "time": 0.3,
                 "n_list": [4, 8, 12], "elements": [[0, 0, 1, -1]], "dyson_order": 2},
}

# (row label, config name or None, extra CLI arguments)
CLI_FIGURES = [
    ("gap", "gap", []),
    ("converge (README, N<=2048)", "converge", []),
    ("converge (README, N<=2048) --workers 2", "converge", ["--workers", "2"]),
    ("converge (default N<=4096)", "converge_default", []),
    ("converge (default N<=4096) --workers 2", "converge_default", ["--workers", "2"]),
    ("circle", "circle", []),
    ("junction", "junction", []),
    ("selftest", None, []),
]

CLI = "import sys; from qfluct.cli import main; sys.exit(main())"


def _env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _measure(argv):
    """Run one process; return (stdout, wall seconds, peak RSS MiB of it
    and of the children it waited for)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL, env=_env(), cwd=ROOT, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:4]} exited with {proc.returncode}")
    return out, wall, usage.ru_maxrss / 1024.0


def _layer(statement):
    code = (LAYER_SETUP + "start = time.perf_counter()\n" + statement
            + "\nprint(time.perf_counter() - start)\n")
    times, peak = [], 0.0
    for _ in range(REPEAT):
        out, _, rss = _measure([sys.executable, "-c", code])
        times.append(float(out.split()[-1]))
        peak = max(peak, rss)
    return statistics.median(times), peak


def _cli(config, extra):
    OUT.mkdir(parents=True, exist_ok=True)
    if config is None:
        argv = ["selftest"]
    else:
        path = OUT / f"{config}.json"
        path.write_text(json.dumps(CONFIGS[config]))
        command = config.split("_")[0]
        argv = [command, "--config", str(path), "--out", str(OUT / f"{config}_out")]
    walls, peak = [], 0.0
    for _ in range(REPEAT):
        _, wall, rss = _measure([sys.executable, "-c", CLI, *argv, *extra])
        walls.append(wall)
        peak = max(peak, rss)
    return statistics.median(walls), peak


def main():
    record = {"layers": [], "cli": []}
    current = None
    for table, label, statement in LAYER_FIGURES:
        if table != current:
            print(f"\n| {table} | time (s) | peak RSS (MiB) |\n|---|---|---|")
            current = table
        seconds, rss = _layer(statement)
        record["layers"].append({"table": table, "row": label, "s": seconds, "rss_mib": rss})
        print(f"| {label} | {seconds:.3g} | {rss:.0f} |", flush=True)

    print("\n| CLI command | wall (s) | peak RSS (MiB) |\n|---|---|---|")
    for label, config, extra in CLI_FIGURES:
        seconds, rss = _cli(config, extra)
        record["cli"].append({"command": label, "s": seconds, "rss_mib": rss})
        print(f"| {label} | {seconds:.3g} | {rss:.0f} |", flush=True)

    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "figures.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(OUT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
