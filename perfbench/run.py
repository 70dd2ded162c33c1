"""dobcbf benchmark: closed-loop throughput, set-up time and decision latency.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload arm-dob --seed 1 --seconds 40 --trace 0

Every repeat runs in a fresh interpreter (child.py), one at a time, pinned
to one CPU (successive repeats take turns over the CPUs the run may use),
with BLAS and OpenMP pinned to one thread.  The run repeats its workload
until --seconds is used up, checks every repeat's outputs against
reference.json / replay_states.npz, and prints the metrics by name with
their units.  Every repeat does the same work, so each integration step,
decision and replayed state is timed once per repeat (per pass, for the
replay), and its time is the fastest of those (`fastest`).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports END_TO_END, --trace 1 the per-layer LAYER_METRICS of a
traced repeat plus the tracing overhead.  --seed feeds the config's `seed`
key (sampling in Scenario.validate) and the replay order; the closed-loop
trajectories do not depend on it, so one reference serves every seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"

#: the whole run, children included, ends within this many seconds
HARD_LIMIT_S = 170.0

# Correctness tolerances against reference.json.  Floats may move at the
# ulp level under a faster implementation; status counts may move by the
# few decisions that sit exactly on the active/inactive boundary.
REL_TOL = 1e-6
ABS_TOL = 1e-9
COUNT_TOL_FRAC = 1e-3
#: replayed u against the logged u, relative to 1 + |u|
U_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "closed-loop" or "replay"
    config: dict               # dobcbf config, without the seed
    ref_key: str = ""
    replay_every: int = 0      # replay every this many recorded states
    passes: int = 0            # replay passes per untraced repeat
    traced_passes: int = 0     # replay passes per traced repeat
    states_file: str = "replay_states.npz"   # relative to perfbench/

    @property
    def mode(self) -> str:
        """The child.py mode of one untraced repeat."""
        return "cli" if self.kind == "closed-loop" else "replay"


WORKLOADS = {wl.name: wl for wl in (
    Workload("arm-dob", "closed-loop",
             {"scenario": "el2dof-dob", "sim": {"tf": 0.125}}),
    Workload("doubleint-dense", "closed-loop",
             {"scenario": "doubleint-relr", "sim": {"tf": 1.0, "log_stride": 1}}),
    Workload("arm-filter-replay", "replay", {"scenario": "el2dof-dob"},
             replay_every=4, passes=40, traced_passes=4),
)}


def tiny(wl: Workload) -> Workload:
    """The same workload at a size that runs in a second or two."""
    sim = dict(wl.config.get("sim", {}))
    if wl.kind == "closed-loop":
        sim["tf"] = 0.05
    return dataclasses.replace(
        wl, config={**wl.config, "sim": sim}, ref_key=wl.name + "@tiny",
        replay_every=20 * wl.replay_every, passes=min(wl.passes, 1),
        traced_passes=min(wl.traced_passes, 1))


#: (name, unit, better, bound): what a user of the library sees.  The time
#: bounds are wide because the 2-core development host alternates between a
#: fast and a ~1.75x slower speed every few milliseconds, with a duty cycle
#: that drifts over minutes; per-unit minima keep the spread (interquartile
#: range over median) of ten runs at 0.05-0.08 there, against 0.3-0.4 for
#: whole-run wall times.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("decision_us_p50", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: (name, unit, better, what it should move): per-layer numbers of a traced
#: repeat.  A layer the workload does not run reports 0.
LAYER_METRICS = (
    ("simulate.rk4_step.self_us", "us", "lower", "steps_per_s on arm-dob and doubleint-dense"),
    ("simulate.rk4_step.calls", "count", "lower", "exact: n_steps*substeps"),
    ("simulate.rhs.self_us", "us", "lower", "steps_per_s on arm-dob"),
    ("simulate.rhs.calls", "count", "lower", "exact: 4 x rk4_step calls"),
    ("simulate.disturbance.us", "us", "lower", "steps_per_s on arm-dob; none on doubleint-dense (one term)"),
    ("simulate.disturbance.calls", "count", "lower", "steps_per_s on arm-dob"),
    ("simulate.loop.self_us_per_step", "us", "lower", "steps_per_s on doubleint-dense (log rows)"),
    ("simulate.to_csv.s", "s", "lower", "run_s on doubleint-dense"),
    ("simulate.to_csv.bytes", "bytes", "lower", "run_s on doubleint-dense"),
    ("model.evaluate.self_us", "us", "lower", "steps_per_s on arm-dob and doubleint-dense"),
    ("model.evaluate.calls", "count", "lower", "steps_per_s on both closed-loop workloads"),
    ("el.terms.us", "us", "lower", "steps_per_s on arm-dob; none on doubleint-dense"),
    ("el.terms.calls", "count", "lower", "steps_per_s on arm-dob"),
    ("observer.gain_at.us", "us", "lower", "steps_per_s on arm-dob"),
    ("observer.integral_at.us", "us", "lower", "steps_per_s on arm-dob"),
    ("observer.estimate.us", "us", "lower", "decision_us_p50 on arm-filter-replay"),
    ("filters.constraint.us", "us", "lower", "decision_us_p50 on arm-filter-replay; steps_per_s on doubleint-dense"),
    ("filters.constraint.calls", "count", "lower", "exact: one per decision"),
    ("filters.probe.us", "us", "lower", "steps_per_s on doubleint-dense"),
    ("filters.probe.calls", "count", "lower", "exact: log rows + 1"),
    ("filters.bypass_ratio", "ratio", "lower", "share of decisions that skip the QP"),
    ("qp.instance.us", "us", "lower", "decision_us_p50 on arm-filter-replay"),
    ("qp.solve.us", "us", "lower", "decision_us_p50 on arm-filter-replay"),
    ("qp.active_ratio", "ratio", "lower", "share of solves that project"),
    ("scenarios.nominal.us", "us", "lower", "decision_us_p50 on arm-filter-replay"),
    ("scenarios.build.s", "s", "lower", "setup_s on arm-dob"),
    ("scenarios.validate.s", "s", "lower", "setup_s on arm-dob"),
    ("scenarios.derivative_bound.s", "s", "lower", "setup_s on arm-dob"),
    ("scenarios.arm_mu_bounds.s", "s", "lower", "setup_s on arm-dob"),
    ("cli.emit_plotdata.s", "s", "lower", "run_s on arm-dob"),
    ("cli.write.s", "s", "lower", "run_s on both closed-loop workloads"),
    ("decision_us_p99", "us", "lower", "tail of decision_us_p50; from the untraced repeats"),
    ("trace.overhead_frac", "ratio", "lower", "1 - traced/untraced throughput"),
)


def close(got, want) -> bool:
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def check_closed_loop(res: dict, ref: dict) -> list[str]:
    """Differences between one closed-loop repeat and its reference."""
    problems = []
    if "exit_code" in res and res["exit_code"] != ref["exit_code"]:
        problems.append(f"exit code {res['exit_code']} != {ref['exit_code']}")
    if res["aborted"]:
        problems.append("run aborted")
    for key, want in ref["summary"].items():
        got = res["summary"].get(key)
        if got is None or not close(got, want):
            problems.append(f"{key} = {got} != {want}")
    slack = COUNT_TOL_FRAC * sum(ref["status_counts"].values())
    for key, want in ref["status_counts"].items():
        got = res["status_counts"].get(key, 0)
        if abs(got - want) > slack:
            problems.append(f"status {key}: {got} != {want}")
    for key in ("rows", "csv_rows"):
        if key in res and res[key] != ref["rows"]:
            problems.append(f"{key} {res[key]} != {ref['rows']}")
    return problems


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def run_child(spec: dict, timeout: float) -> dict:
    """One repeat in a fresh interpreter; raises RuntimeError on failure."""
    out = Path(spec["out"])
    shutil.rmtree(out, ignore_errors=True)
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{spec['mode']} repeat timed out") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"{spec['mode']} repeat exited {proc.returncode}: "
                           + " | ".join(tail))
    res = json.loads((out / "result.json").read_text())
    for name in ("latencies", "step_ns"):
        if (out / f"{name}.npy").exists():
            res[name] = np.load(out / f"{name}.npy")
    shutil.rmtree(out / "run", ignore_errors=True)
    return res


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            out: Path, started: float) -> dict:
    """Repeat the workload until the time is used, alternating untraced and
    traced repeats in a traced run; return results per mode plus the
    failures of repeats that did not finish."""
    cycle = (wl.mode, wl.mode + "+trace") if trace else (wl.mode,)
    cpus = sorted(os.sched_getaffinity(0))
    results = {mode: [] for mode in cycle}
    crashed = []
    last = {}
    deadline = time.monotonic() + seconds
    for rep in range(10_000):
        mode = cycle[rep % len(cycle)]
        elapsed = time.monotonic() - started
        if rep >= len(cycle) and (time.monotonic() + last.get(mode, 0.0) > deadline
                                  or elapsed + 2 * last.get(mode, 0.0) > HARD_LIMIT_S):
            break
        base, _, traced = mode.partition("+")
        # the host's contention differs between cores, so successive cycles
        # run on successive CPUs and the per-unit minimum sees each of them
        spec = {"mode": base, "trace": bool(traced), "seed": seed, "rep": rep,
                "cpu": cpus[rep // len(cycle) % len(cpus)],
                "config": {**wl.config, "seed": seed},
                "out": str(out / f"rep{rep}"),
                "replay_every": wl.replay_every, "u_tol": U_TOL,
                "states_file": wl.states_file,
                "passes": wl.traced_passes if traced else wl.passes}
        t0 = time.monotonic()
        try:
            results[mode].append(run_child(spec, HARD_LIMIT_S - elapsed))
        except RuntimeError as exc:
            crashed.append(str(exc))
        last[mode] = time.monotonic() - t0
    return {"results": results, "crashed": crashed}


def fastest(arrays: list) -> np.ndarray:
    """Per unit of work, the fastest of its executions across repeats.

    Every repeat does the same units (integration steps, decisions, replayed
    states) in the same order, so units line up across repeats.
    """
    stacked = [np.atleast_2d(a) for a in arrays]
    if len({a.shape[1] for a in stacked}) != 1:
        raise RuntimeError("repeats did not do the same work")
    return np.concatenate(stacked).min(axis=0)


def throughput(res: dict) -> float:
    """Control steps per second: integration steps of a closed-loop run,
    decisions of a replay."""
    if "replay_s" in res:
        return res["decisions"] / res["replay_s"]
    return res["steps"] / res["sim_s"]


def judge(wl: Workload, measured: dict, reference: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) over every repeat of the run."""
    problems = list(measured["crashed"])
    attempted = failed = len(measured["crashed"])
    ref = reference.get(wl.ref_key or wl.name)
    if wl.kind == "closed-loop" and (ref is None or ref["config"] != wl.config):
        raise RuntimeError(f"no reference recorded for {wl.ref_key or wl.name} "
                           "at this size: run perfbench/record.py")
    for mode, results in measured["results"].items():
        for res in results:
            bad = list(res.get("identity_failures", []))
            if wl.kind == "replay":
                attempted += res["decisions"]
                failed += res["mismatches"]
                if res["mismatches"]:
                    bad.append(f"{res['mismatches']} replayed decisions differ")
                elif bad:
                    failed += 1
            else:
                bad += check_closed_loop(res, ref)
                attempted += 1
                failed += bool(bad)
            problems += [f"{mode}: {msg}" for msg in bad]
    return attempted, failed, problems


def end_to_end(wl: Workload, results: dict) -> tuple[dict, dict]:
    """End-to-end metric values and the sample counts behind them.

    Times are built from the fastest execution of each unit of work across
    the run's repeats (see README.md): the host's contention comes and goes
    within milliseconds, and a per-unit minimum removes it where a whole-run
    wall time cannot.
    """
    every = [r for rs in results.values() for r in rs]
    main = results[wl.mode]
    if not main:
        raise RuntimeError("no repeat finished")
    decision_us = fastest([r["latencies"] for r in main]) / 1e3
    if wl.kind == "replay":
        run_s = float(decision_us.sum()) / 1e6
        steps_per_s = decision_us.size / run_s
        executions = sum(r["latencies"].shape[0] for r in main)
    else:
        sim_s = float(fastest([r["step_ns"] for r in main]).sum()) / 1e9
        steps_per_s = main[0]["steps"] / sim_s
        run_s = sim_s + min(r["run_s"] - r["sim_s"] for r in main)
        executions = len(main)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in every),
        "steps_per_s": steps_per_s,
        "run_s": run_s,
        "decision_us_p50": float(np.percentile(decision_us, 50)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in main),
    }
    samples = {"repeats": len(main), "setups": len(every),
               "decisions": int(decision_us.size),
               "executions_per_unit": executions}
    return values, samples


def per_layer(wl: Workload, results: dict) -> tuple[dict, dict]:
    plain, traced = results[wl.mode], results[wl.mode + "+trace"]
    if not plain or not traced:
        raise RuntimeError("no traced or untraced repeat finished")
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    decision_us = fastest([r["latencies"] for r in plain]) / 1e3
    values["decision_us_p99"] = float(np.percentile(decision_us, 99))
    values["trace.overhead_frac"] = 1.0 - (
        statistics.median(throughput(r) for r in traced)
        / statistics.median(throughput(r) for r in plain))
    return values, {"traced_repeats": len(traced), "untraced_repeats": len(plain)}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        reference: dict) -> dict:
    """Measure one workload and return the full result record."""
    started = time.monotonic()
    out = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    env = environment()
    measured = measure(wl, seed, seconds, trace, out, started)
    attempted, failed, problems = judge(wl, measured, reference)
    if trace:
        values, samples = per_layer(wl, measured["results"])
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        values, samples = end_to_end(wl, measured["results"])
        units = {name: unit for name, unit, *_ in END_TO_END}
    env["loadavg_end"] = list(os.getloadavg())
    repeats = [{"mode": mode, **{k: v for k, v in r.items()
                                 if k in ("setup_s", "sim_s", "run_s", "replay_s",
                                          "peak_rss_mb")}}
               for mode, rs in measured["results"].items() for r in rs]
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env, "samples": samples,
              "problems": problems, "repeats": repeats,
              "result": {"correct": failed == 0 and not problems,
                         "attempted": attempted, "failed": failed,
                         "metrics": {name: {"value": values[name], "unit": unit}
                                     for name, unit in units.items()}}}
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dobcbf" / "__init__.py").is_file():
        print(f"no dobcbf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        record = run(wl, args.seed, args.seconds, bool(args.trace),
                     load_reference())
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(record["environment"]))
    print("samples " + json.dumps(record["samples"]))
    for msg in record["problems"]:
        print(f"problem: {msg}")
    for name, m in record["result"]["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
