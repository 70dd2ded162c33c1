"""Spans and counters around the public entry points of each dobcbf module.

The benchmark never edits the library.  In a child process it replaces
module and class attributes with wrappers from this file, so every call the
library makes through those attributes is recorded.  Spans are kept in
memory as (name id, start ns, end ns, parent span index); a layer's self
time is its duration minus the durations of its direct child spans.

`instrument(tracer, capture, layers=False)` wraps only the coarse entry
points that the end-to-end metrics need (one call each per run, so their
cost is negligible); `timers=True` adds clock reads at the boundaries of
each integration step and each online decision.  `layers=True` wraps every
layer the per-layer metrics name.
"""

from __future__ import annotations

import collections
import os
import time

import numpy as np


class Tracer:
    """In-memory span recorder plus named event counters."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.spans: list = []
        self.counts = collections.Counter()
        self._stack = [-1]

    def wrap(self, name, fn):
        """Return fn wrapped in a span called name."""
        nid = self.ids.setdefault(name, len(self.ids))
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)

        return traced

    def summary(self) -> dict:
        """Per name: calls, total ns, self ns, and total ns of direct
        children by child name."""
        names = sorted(self.ids, key=self.ids.get)
        if not self.spans:
            return {}
        arr = np.array(self.spans, dtype=np.int64)
        nid, dur, parent = arr[:, 0], arr[:, 2] - arr[:, 1], arr[:, 3]
        has_parent = parent >= 0
        child_ns = np.zeros(len(arr), dtype=np.int64)
        np.add.at(child_ns, parent[has_parent], dur[has_parent])
        k = len(names)
        by_pair = np.zeros((k, k), dtype=np.int64)
        np.add.at(by_pair, (nid[parent[has_parent]], nid[has_parent]),
                  dur[has_parent])
        out = {}
        for i, name in enumerate(names):
            sel = nid == i
            out[name] = {
                "calls": int(sel.sum()),
                "total_ns": int(dur[sel].sum()),
                "self_ns": int((dur[sel] - child_ns[sel]).sum()),
                "children_ns": {names[j]: int(by_pair[i, j])
                                for j in range(k) if by_pair[i, j]},
            }
        return out


def _patch(owner, attr, tracer, name):
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))


def instrument(tracer: Tracer, capture: dict, layers: bool,
               timers: bool = False) -> None:
    """Install the wrappers in the dobcbf modules of this process.

    capture receives the last built scenario ("scenario") and the last
    closed-loop log ("log") so the caller can check outputs, and with
    timers the clock reads of `install_timers`.
    """
    from dobcbf import cli, el, observer, qp, scenarios, simulate
    from dobcbf.model import ControlAffineSystem

    build = tracer.wrap("scenarios.build", scenarios.build)

    def traced_build(config):
        sc = build(config)
        capture["scenario"] = sc
        if layers:
            _trace_scenario(tracer, sc)
        if timers:
            install_timers(sc, capture)
        return sc

    scenarios.build = traced_build
    _patch(scenarios.Scenario, "validate", tracer, "scenarios.validate")
    run = tracer.wrap("scenarios.run", scenarios.Scenario.run)

    def traced_run(self):
        log = run(self)
        capture["log"] = log
        return log

    scenarios.Scenario.run = traced_run
    if not layers:
        return

    # scenarios: derived constants and the per-run judgement
    _patch(scenarios, "derivative_bound", tracer, "scenarios.derivative_bound")
    _patch(scenarios, "arm_mu_bounds", tracer, "scenarios.arm_mu_bounds")
    _patch(scenarios.Scenario, "metrics", tracer, "scenarios.metrics")
    _patch(scenarios.Scenario, "check_invariants", tracer,
           "scenarios.check_invariants")

    # cli
    _patch(cli, "run_scenario", tracer, "cli.run_scenario")
    _patch(cli, "emit_plotdata", tracer, "cli.emit_plotdata")

    # simulate
    _patch(simulate, "run_closed_loop", tracer, "simulate.loop")
    _patch(simulate.DisturbanceSignal, "value", tracer, "simulate.disturbance")
    rk4 = tracer.wrap("simulate.rk4_step", simulate.rk4_step)
    simulate.rk4_step = lambda rhs, t, state, dt: rk4(
        tracer.wrap("simulate.rhs", rhs), t, state, dt)
    to_csv = tracer.wrap("simulate.to_csv", simulate.TrajectoryLog.to_csv)

    def traced_to_csv(self, path):
        to_csv(self, path)
        tracer.counts["simulate.to_csv.bytes"] += os.path.getsize(path)

    simulate.TrajectoryLog.to_csv = traced_to_csv

    # model: validation around the plant callbacks, which are spans of
    # their own (the fused arm plant is the el layer)
    _patch(ControlAffineSystem, "evaluate", tracer, "model.evaluate")

    def system_factory(terms_name):
        def make(**kw):
            for key in ("f", "g1", "g2"):
                kw[key] = tracer.wrap("model.callback", kw[key])
            if kw.get("terms") is not None:
                kw["terms"] = tracer.wrap(terms_name, kw["terms"])
            return ControlAffineSystem(**kw)
        return make

    scenarios.ControlAffineSystem = system_factory("model.callback")
    el.ControlAffineSystem = system_factory("el.terms")

    # observer
    _patch(observer.ObserverConfig, "gain_at", tracer, "observer.gain_at")
    _patch(observer.ObserverConfig, "integral_at", tracer,
           "observer.integral_at")
    estimate = tracer.wrap("observer.estimate", observer.estimate)
    observer.estimate = simulate.estimate = estimate

    # qp
    qp.QpInstance = tracer.wrap("qp.instance", qp.QpInstance)
    solve = tracer.wrap("qp.solve", qp.solve)

    def traced_solve(inst):
        res = solve(inst)
        tracer.counts[f"qp.{res.status}"] += 1
        return res

    qp.solve = traced_solve


def _trace_scenario(tracer: Tracer, sc) -> None:
    """Wrap the per-scenario objects: the safety filter and the nominal law."""
    constraint = tracer.wrap("filters.constraint", sc.safety.constraint)

    def traced_constraint(t, x, u_nom, d_hat):
        dec = constraint(t, x, u_nom, d_hat)
        if dec.bypass:
            tracer.counts["filters.bypass"] += 1
        return dec

    sc.safety.constraint = traced_constraint
    sc.safety.probe = tracer.wrap("filters.probe", sc.safety.probe)
    sc.nominal = tracer.wrap("scenarios.nominal", sc.nominal)


def install_timers(sc, capture: dict) -> None:
    """Clock reads at the boundaries of each control step and each decision.

    capture["marks"] gets the start of `Scenario.run`, the entry of every
    `rk4_step` and the end of the run, so consecutive differences are the
    wall time of each integration step with its decision and log row.
    capture["latencies"] gets each decision: from the simulator's call for
    the estimate to the return of the QP, or of the filter on a bypass.
    """
    from dobcbf import qp, simulate

    clock = time.perf_counter_ns
    marks = capture.setdefault("marks", [])
    latencies = capture.setdefault("latencies", [])
    start = [0]
    estimate, solve, rk4_step = simulate.estimate, qp.solve, simulate.rk4_step
    constraint, run = sc.safety.constraint, sc.run

    def timed_run():
        marks.append(clock())
        log = run()
        marks.append(clock())
        return log

    def timed_rk4_step(rhs, t, state, dt):
        marks.append(clock())
        return rk4_step(rhs, t, state, dt)

    def timed_estimate(cfg, st, x):
        start[0] = clock()
        return estimate(cfg, st, x)

    def timed_solve(inst):
        res = solve(inst)
        latencies.append(clock() - start[0])
        return res

    def timed_constraint(t, x, u_nom, d_hat):
        dec = constraint(t, x, u_nom, d_hat)
        if dec.bypass:
            latencies.append(clock() - start[0])
        return dec

    sc.run = timed_run
    simulate.rk4_step = timed_rk4_step
    simulate.estimate = timed_estimate
    qp.solve = timed_solve
    sc.safety.constraint = timed_constraint


#: span names whose direct-child time is not artifact writing in
#: cli.run_scenario
_NOT_WRITING = ("scenarios.build", "scenarios.validate", "scenarios.run",
                "scenarios.metrics", "scenarios.check_invariants")


def layer_metrics(summary: dict, counts: dict, steps: int) -> dict:
    """Per-layer metric values (see LAYER_METRICS for names and units)."""

    def stat(name, key="total_ns"):
        return summary.get(name, {}).get(key, 0)

    def per_call_us(name, key="total_ns"):
        calls = stat(name, "calls")
        return stat(name, key) / calls / 1e3 if calls else 0.0

    def seconds(name):
        return stat(name) / 1e9

    cli_children = summary.get("cli.run_scenario", {}).get("children_ns", {})
    write_ns = stat("cli.run_scenario") - sum(cli_children.get(n, 0)
                                              for n in _NOT_WRITING)
    constraint_calls = stat("filters.constraint", "calls")
    solve_calls = stat("qp.solve", "calls")
    return {
        "simulate.rk4_step.self_us": per_call_us("simulate.rk4_step", "self_ns"),
        "simulate.rk4_step.calls": stat("simulate.rk4_step", "calls"),
        "simulate.rhs.self_us": per_call_us("simulate.rhs", "self_ns"),
        "simulate.rhs.calls": stat("simulate.rhs", "calls"),
        "simulate.disturbance.us": per_call_us("simulate.disturbance"),
        "simulate.disturbance.calls": stat("simulate.disturbance", "calls"),
        "simulate.loop.self_us_per_step":
            stat("simulate.loop", "self_ns") / steps / 1e3 if steps else 0.0,
        "simulate.to_csv.s": seconds("simulate.to_csv"),
        "simulate.to_csv.bytes": counts.get("simulate.to_csv.bytes", 0),
        "model.evaluate.self_us": per_call_us("model.evaluate", "self_ns"),
        "model.evaluate.calls": stat("model.evaluate", "calls"),
        "el.terms.us": per_call_us("el.terms"),
        "el.terms.calls": stat("el.terms", "calls"),
        "observer.gain_at.us": per_call_us("observer.gain_at"),
        "observer.integral_at.us": per_call_us("observer.integral_at"),
        "observer.estimate.us": per_call_us("observer.estimate"),
        "filters.constraint.us": per_call_us("filters.constraint"),
        "filters.constraint.calls": constraint_calls,
        "filters.probe.us": per_call_us("filters.probe"),
        "filters.probe.calls": stat("filters.probe", "calls"),
        "filters.bypass_ratio":
            counts.get("filters.bypass", 0) / constraint_calls
            if constraint_calls else 0.0,
        "qp.instance.us": per_call_us("qp.instance"),
        "qp.solve.us": per_call_us("qp.solve"),
        "qp.active_ratio":
            counts.get("qp.active", 0) / solve_calls if solve_calls else 0.0,
        "scenarios.nominal.us": per_call_us("scenarios.nominal"),
        "scenarios.build.s": seconds("scenarios.build"),
        "scenarios.validate.s": seconds("scenarios.validate"),
        "scenarios.derivative_bound.s": seconds("scenarios.derivative_bound"),
        "scenarios.arm_mu_bounds.s": seconds("scenarios.arm_mu_bounds"),
        "cli.emit_plotdata.s": seconds("cli.emit_plotdata"),
        "cli.write.s": write_ns / 1e9 if "cli.run_scenario" in summary else 0.0,
    }
