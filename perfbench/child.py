"""One measured repeat of a workload, run by run.py in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the scenario, its size, the mode and the output directory:

  cli     `dobcbf run` through `cli.main`: set-up, closed-loop wall time,
          whole-run wall time, latency of each online decision, peak RSS
          and the run's outputs;
  replay  the decision path alone over the recorded arm states.

With "trace": true the repeat records the per-layer spans instead of
timing decisions.  The child
writes result.json, and the per-step and per-decision wall times in ns
(step_ns.npy, latencies.npy), into the output directory.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402


def import_library():
    """Import dobcbf from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import dobcbf
    where = Path(dobcbf.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"dobcbf imported from {where}, not from {ROOT / 'src'}")
    return dobcbf


def closed_loop_outputs(sc, log) -> dict:
    summary = sc.metrics(log)
    return {"summary": {k: summary[k] for k in
                        ("min_h", "tracking_rmse", "max_env_residual")
                        if k in summary},
            "status_counts": dict(log.status_counts),
            "rows": len(log),
            "aborted": bool(log.aborted)}


def closed_loop_identities(sc, log, s: dict, counts) -> list[str]:
    """Exact count identities between spans and the run's own counters."""
    calls = {name: row["calls"] for name, row in s.items()}
    steps = sc.simcfg.n_steps * sc.simcfg.substeps
    decisions = sum(log.status_counts.values())
    bypass = counts["filters.bypass"]
    checks = [] if log.aborted else [  # an aborted run stops short
        ("rk4_step calls = n_steps*substeps", calls.get("simulate.rk4_step", 0), steps),
        ("rhs calls = 4 x rk4_step calls", calls.get("simulate.rhs", 0),
         4 * calls.get("simulate.rk4_step", 0)),
        ("model.evaluate calls = rhs calls", calls.get("model.evaluate", 0),
         calls.get("simulate.rhs", 0)),
    ]
    checks += [
        ("constraint calls = decisions", calls.get("filters.constraint", 0), decisions),
        ("nominal calls = decisions", calls.get("scenarios.nominal", 0), decisions),
        ("estimate calls = decisions", calls.get("observer.estimate", 0), decisions),
        ("qp.solve calls = non-bypassed decisions", calls.get("qp.solve", 0),
         decisions - bypass),
        ("qp active = status active", counts["qp.active"],
         log.status_counts.get("active", 0)),
        ("qp infeasible = status infeasible", counts["qp.infeasible"],
         log.status_counts.get("infeasible", 0)),
        ("probe calls = log rows + 1", calls.get("filters.probe", 0), len(log) + 1),
    ]
    if sc.el_system is not None:
        checks.append(("el.terms calls = model.evaluate calls",
                       calls.get("el.terms", 0), calls.get("model.evaluate", 0)))
    return [f"{what}: {got} != {want}" for what, got, want in checks if got != want]


def run_cli(spec, out: Path, capture) -> dict:
    from dobcbf import cli
    cfg_path = out / "config.json"  # JSON is valid YAML for cli.load_config
    cfg_path.write_text(json.dumps(spec["config"]))
    t0 = time.perf_counter()
    code = cli.main(["run", str(cfg_path), "--out", str(out / "run")])
    run_s = time.perf_counter() - t0
    sc, log = capture["scenario"], capture["log"]
    res = {"exit_code": code, "run_s": run_s,
           "steps": sc.simcfg.n_steps * sc.simcfg.substeps,
           **closed_loop_outputs(sc, log)}
    if "marks" in capture:
        np.save(out / "step_ns.npy", np.diff(np.asarray(capture["marks"], dtype=np.int64)))
        np.save(out / "latencies.npy", np.asarray(capture["latencies"], dtype=np.int64))
    with open(out / "run" / "trajectory.csv") as fh:
        res["csv_rows"] = sum(1 for _ in fh) - 1
    return res


def run_replay(spec, out: Path, capture) -> dict:
    from dobcbf import model, observer, qp, scenarios
    sc = scenarios.build(spec["config"])
    sc.validate()
    ref = np.load(HERE / spec["states_file"])
    every = spec["replay_every"]
    ts = [float(v) for v in ref["t"][::every]]
    xs = [row.copy() for row in ref["x"][::every]]
    states = [observer.ObserverState(row.copy()) for row in ref["z"][::every]]
    u_ref = ref["u"][::every]
    n = len(ts)
    obs, m = sc.observer_cfg, sc.system.m

    # bound after instrumentation, so traced wrappers are the ones called
    estimate, as_vector = observer.estimate, model.as_vector
    nominal, constraint = sc.nominal, sc.safety.constraint
    QpInstance, solve = qp.QpInstance, qp.solve
    clock = time.perf_counter_ns

    rng = np.random.default_rng([spec["seed"], spec["rep"]])
    u_out = np.empty_like(u_ref)
    lat = np.empty((spec["passes"], n), dtype=np.int64)
    pass_s, mismatches = [], 0
    for p in range(spec["passes"]):
        order = rng.permutation(n).tolist()
        p0 = time.perf_counter()
        for i in order:
            t, x, st = ts[i], xs[i], states[i]
            c0 = clock()
            d_hat = estimate(obs, st, x)
            u_nom = as_vector(nominal(t, x), m, "u_nom")
            dec = constraint(t, x, u_nom, d_hat)
            if dec.bypass:
                u = u_nom
            else:
                u = solve(QpInstance(u_nom=u_nom, psi0=dec.psi0, psi1=dec.psi1)).u
            lat[p, i] = clock() - c0
            u_out[i] = u
        pass_s.append(time.perf_counter() - p0)
        ok = np.abs(u_out - u_ref) <= spec["u_tol"] * (1.0 + np.abs(u_ref))
        mismatches += int(np.count_nonzero(~np.all(ok, axis=1)))
    np.save(out / "latencies.npy", lat)
    return {"decisions": int(lat.size), "mismatches": mismatches,
            "pass_s": pass_s, "replay_s": float(sum(pass_s))}


def replay_identities(decisions: int, s: dict, counts) -> list[str]:
    calls = {name: row["calls"] for name, row in s.items()}
    checks = [
        ("estimate calls = decisions", calls.get("observer.estimate", 0), decisions),
        ("nominal calls = decisions", calls.get("scenarios.nominal", 0), decisions),
        ("constraint calls = decisions", calls.get("filters.constraint", 0), decisions),
        ("qp.solve calls = non-bypassed decisions", calls.get("qp.solve", 0),
         decisions - counts["filters.bypass"]),
        ("qp.instance calls = qp.solve calls", calls.get("qp.instance", 0),
         calls.get("qp.solve", 0)),
    ]
    return [f"{what}: {got} != {want}" for what, got, want in checks if got != want]


MODES = {"cli": run_cli, "replay": run_replay}


def main(argv) -> int:
    spec = json.loads(argv[1])
    os.sched_setaffinity(0, {spec["cpu"]})
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    import_library()
    tr = tracing.Tracer()
    capture: dict = {}
    tracing.instrument(tr, capture, layers=spec["trace"],
                       timers=spec["mode"] == "cli" and not spec["trace"])
    res = MODES[spec["mode"]](spec, out, capture)

    s = tr.summary()
    res["setup_s"] = (s["scenarios.build"]["total_ns"]
                      + s["scenarios.validate"]["total_ns"]) / 1e9
    if "scenarios.run" in s:
        res["sim_s"] = s["scenarios.run"]["total_ns"] / 1e9
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["trace"]:
        steps = res.get("steps", 0)
        res["layers"] = tracing.layer_metrics(s, tr.counts, steps)
        if spec["mode"] == "replay":
            res["identity_failures"] = replay_identities(res["decisions"], s,
                                                         tr.counts)
        else:
            res["identity_failures"] = closed_loop_identities(
                capture["scenario"], capture["log"], s, tr.counts)
    (out / "result.json").write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
