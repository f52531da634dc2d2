"""qfluct benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload plan is drawn from
the seed, and its expected values are computed once in this process.  Then
rounds of the whole plan run one after another, each in a fresh worker
process (empty module caches, one thread of BLAS, no pools), until
``--seconds`` have passed.  Every round's outputs are checked, and the
checker is shown to reject planted wrong values.

The two shared cores of the benchmark machine change speed by a third
over minutes with the load of other tenants.  So every worker also times a
fixed reference computation that calls no qfluct code, and every time of
its round is multiplied by ``REFERENCE_MACHINE_S`` over that time: times
are reported at the machine speed at which the reference computation
takes ``REFERENCE_MACHINE_S``.

With ``--trace 0`` the result holds the end-to-end metrics, each a median
over rounds: the wall time of the timed operations, the peak resident
memory of the worker, the latency of the workload's operation at its
largest size and the time to ``import qfluct``; and the median over
operations of each operation's median latency.  With ``--trace 1``
untraced and traced rounds alternate, the result holds the per-layer
metrics of the traced rounds and the tracing overhead, and the spans and
counters of one traced round go to ``bench/out/``.  A traced run is not
correct if a traced function is missing from the program or if more
than ``MAX_OUTSIDE_SHARE`` of its wall time falls outside every span.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
OUT = BENCH / "out"
MAX_OUTSIDE_SHARE = 0.02
REFERENCE_MACHINE_S = 0.07
WORKER_TIMEOUT_S = 150

# One BLAS thread in this process and in every worker, and one string-hash
# seed, so that every worker lays out its dictionaries alike.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                  PYTHONHASHSEED="0")


def _round(plan, traced):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps({"plan": plan, "trace": traced}),
                          capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:  # the worker died: every operation of the round failed
        sys.stderr.write(proc.stderr)
        records = [{"latency": 0.0, "value": None, "error": "worker failed"} for _ in plan]
        return {"setup_s": None, "peak_rss_mib": None, "machine_s": None, "records": records}
    return json.loads(proc.stdout.splitlines()[-1])


def _speed(result):
    """Factor that scales the times of one worker to the reference speed."""
    return REFERENCE_MACHINE_S / result["machine_s"]


def _wall(result):
    return sum(rec["latency"] for rec in result["records"])


def _end_to_end(plan, rounds):
    rounds = [r for r in rounds if r["machine_s"] is not None]
    largest = next(i for i, op in enumerate(plan) if op.get("largest"))

    def median(of):
        return statistics.median(_speed(r) * of(r) for r in rounds)
    return {
        "wall_s": (median(_wall), "s"),
        "setup_s": (median(lambda r: r["setup_s"]), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in rounds), "MiB"),
        "op_p50_ms": (1e3 * statistics.median(median(lambda r, i=i: r["records"][i]["latency"])
                                              for i in range(len(plan))), "ms"),
        "largest_op_s": (median(lambda r: r["records"][largest]["latency"]), "s"),
    }


def _per_layer(workload, seed, plain, traced, problems):
    reports = [r["trace"] for r in traced]
    speeds = [_speed(r) for r in traced]
    counts = reports[0]["counts"]
    if any(rep["counts"] != counts for rep in reports[1:]):
        raise RuntimeError("counters differ between traced rounds of one plan")
    problems += [f"traced function missing from the program: {label}"
                 for label in reports[0]["missing"]]
    for rep in reports:
        if rep["outside_s"] > MAX_OUTSIDE_SHARE * rep["wall_s"]:
            problems.append(f"{rep['outside_s']:.4g} s of {rep['wall_s']:.4g} s traced "
                            "wall time is outside every layer span")

    def median(of):
        return statistics.median(speed * of(rep) for speed, rep in zip(speeds, reports))
    traced_wall = median(lambda rep: rep["wall_s"])
    plain_wall = statistics.median(_speed(r) * _wall(r) for r in plain)
    metrics = {name: (counts[name], "count") for name in spans.COUNT_METRICS}
    for name in spans.TIME_METRICS:
        metrics[name] = (median(lambda rep: rep["self_s"][name]), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.outside_s"] = (median(lambda rep: rep["outside_s"]), "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["machine.reference_s"] = (statistics.median(r["machine_s"] for r in plain + traced),
                                      "s")

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{workload}.trace.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "traced_rounds": len(reports),
                   "untraced_wall_s": plain_wall,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "span_fields": ["function", "parent", "start_s", "end_s"],
                   "spans": reports[0]["spans"]}, fh)
        fh.write("\n")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "qfluct" / "__init__.py").is_file():
        print(f"error: no qfluct sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import checks

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    plan = workloads.plan(args.workload, args.seed)
    refs = checks.references(args.workload, plan, args.seed)
    plain, traced = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or not plain
           or (args.trace and not traced)):
        tracing = bool(args.trace) and len(traced) < len(plain)
        (traced if tracing else plain).append(_round(plan, tracing))

    attempted = failed = 0
    problems = list(refs["problems"])
    for r in plain + traced:
        bad = checks.check(args.workload, plan, r["records"], refs)
        attempted += len(plan)
        failed += len(bad)
        for i in sorted(bad):
            print(f"failed: op {i} {plan[i]['kind']} -> {r['records'][i]}", file=sys.stderr)
    missed = checks.self_check(args.workload, plan, plain[0]["records"], refs)
    problems += [f"checker accepted a planted fault: {label}" for label in missed]

    if args.trace:
        metrics = _per_layer(args.workload, args.seed, plain, traced, problems)
    else:
        metrics = _end_to_end(plan, plain)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(plain)} plain"
          f" + {len(traced)} traced  ops attempted {attempted}  failed {failed}")
    timed = [r for r in plain if r["machine_s"] is not None]
    if timed:
        print(f"  reference computation {statistics.median(r['machine_s'] for r in timed):.4g}"
              f" s, times below scaled to {REFERENCE_MACHINE_S} s; unscaled median wall time"
              f" {statistics.median(_wall(r) for r in timed):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
