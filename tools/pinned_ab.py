"""Direct A/B of two checkouts: set-up, run and decision time of one scenario.

Usage (from anywhere):

    python3 tools/pinned_ab.py --a PARENT_CHECKOUT --b CHANGE_CHECKOUT \
        --scenario el2dof-dob --tf 0.125 [--pairs 12] [--cpu N]

Each pair runs one fresh interpreter per checkout, one at a time, the
order alternating from pair to pair (a first in even pairs, b first in odd
ones).  The tool pins each of its children to the one CPU N (default: the
first CPU this process may use) with os.sched_setaffinity before the child
starts, and BLAS and OpenMP to one thread.  A child imports dobcbf from
<checkout>/src, then times `scenarios.build` + `Scenario.validate`
(setup_s) and `Scenario.run` (run_s) of {scenario: NAME, sim: {tf: TF}}
with time.perf_counter.  It then builds the scenario again and runs it
once more under the decision timers of the checkout's own benchmark,
`perfbench/tracing.install_timers`, as the benchmark times each decision
from the call for the estimate to the return of the QP, or of the filter
on a bypass.  decision_us_p50 is the median of those times in
microseconds, and decisions their count.  The timers wrap library
functions in place, so they are installed only after the timed run.

stdout is one line per run, then a summary line per metric, then one JSON
object on the last line:

    {"scenario": ..., "tf": ..., "pairs": ..., "cpu": ...,
     "metrics": {"setup_s": {"a": median, "b": median, "b_wins": count},
                 "run_s": {...}, "decision_us_p50": {...}},
     "runs": {"a": [{"setup_s": ..., "run_s": ...,
                     "decision_us_p50": ..., "decisions": ...}, ...],
              "b": [...]}}

b_wins counts the pairs in which b took less time than a; a tie counts for
neither.  Every child runs on the same CPU, so the pairs compare the
checkouts, not the CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: each metric's display scale and unit; every one is better lower
METRICS = {"setup_s": (1e3, "ms"), "run_s": (1e3, "ms"),
           "decision_us_p50": (1.0, "us")}

#: the child's program: time set-up and the run, then each decision of a
#: second run, and print one JSON line
CHILD = """
import json, statistics, sys, time
from dobcbf import scenarios
config = {"scenario": sys.argv[1], "sim": {"tf": float(sys.argv[2])}}
started = time.perf_counter()
sc = scenarios.build(config)
sc.validate()
built = time.perf_counter()
sc.run()
ended = time.perf_counter()
sys.path.insert(0, "perfbench")
import tracing
sc = scenarios.build(config)
sc.validate()
capture = {}
tracing.install_timers(sc, capture)
sc.run()
latencies = capture["latencies"]
print(json.dumps({"setup_s": built - started, "run_s": ended - built,
                  "decision_us_p50": statistics.median(latencies) / 1e3,
                  "decisions": len(latencies)}))
"""


def run_child(checkout: Path, scenario: str, tf: float, cpu: int) -> dict:
    """One fresh interpreter on checkout, pinned to cpu; its times."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, scenario, repr(tf)], env=env,
        cwd=checkout, capture_output=True, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: the child exited {done.returncode}:"
                           f"\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare(a: Path, b: Path, scenario: str, tf: float, pairs: int,
            cpu: int) -> dict:
    """Run the alternating pairs and summarise them."""
    runs = {"a": [], "b": []}
    for i in range(pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for side in order:
            rec = run_child(a if side == "a" else b, scenario, tf, cpu)
            runs[side].append(rec)
            print(f"pair {i} {side}: " + "  ".join(
                f"{name} {rec[name] * scale:.3f} {unit}"
                for name, (scale, unit) in METRICS.items()))
    metrics = {}
    for name, (scale, unit) in METRICS.items():
        before = [rec[name] for rec in runs["a"]]
        after = [rec[name] for rec in runs["b"]]
        metrics[name] = {"a": statistics.median(before),
                         "b": statistics.median(after),
                         "b_wins": sum(y < x for x, y in zip(before, after))}
        m = metrics[name]
        print(f"{name}: a {m['a'] * scale:.3f} {unit}, "
              f"b {m['b'] * scale:.3f} {unit} (median of {pairs}); "
              f"b faster in {m['b_wins']} of {pairs}")
    return {"scenario": scenario, "tf": tf, "pairs": pairs, "cpu": cpu,
            "metrics": metrics, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, type=Path,
                        help="first checkout, usually the parent")
    parser.add_argument("--b", required=True, type=Path,
                        help="second checkout, usually the change")
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--tf", required=True, type=float)
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--cpu", type=int,
                        default=min(os.sched_getaffinity(0)))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.cpu not in os.sched_getaffinity(0):
        parser.error(f"--cpu {args.cpu} is not one this process may use")
    record = compare(args.a.resolve(), args.b.resolve(), args.scenario,
                     args.tf, args.pairs, args.cpu)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
