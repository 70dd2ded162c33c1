"""Record the reference outputs that every benchmark run is checked against.

Usage (from the root of a checkout, on a commit known to be correct):

    python3 perfbench/record.py

Writes perfbench/reference.json (exit code, min_h, tracking_rmse,
max_env_residual, status counts and row count of each closed-loop workload,
at full and at tiny size) and perfbench/replay_states.npz (t, x, z and the
logged u of 4000 decisions, every 40th of an el2dof-dob run logged at every
0.125 ms control step over the default 20 s horizon).  The replay recording
takes about a minute and a half.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

REPLAY_STRIDE = 40
REPLAY_STATES = 4000


def record_closed_loop() -> dict:
    ref = {}
    for wl in run.WORKLOADS.values():
        if wl.kind != "closed-loop":
            continue
        for variant in (wl, run.tiny(wl)):
            spec = {"mode": "cli", "trace": False, "seed": 0, "rep": 0,
                    "cpu": min(os.sched_getaffinity(0)),
                    "config": {**variant.config, "seed": 0},
                    "out": str(run.OUT / "record")}
            res = run.run_child(spec, run.HARD_LIMIT_S)
            ref[variant.ref_key or variant.name] = {
                "config": variant.config, "exit_code": res["exit_code"],
                "summary": res["summary"],
                "status_counts": res["status_counts"], "rows": res["rows"]}
    return ref


def record_replay() -> dict:
    sys.path.insert(0, str(run.ROOT / "src"))
    from dobcbf import scenarios, simulate

    zs = []
    estimate = simulate.estimate

    def capturing_estimate(cfg, st, x):
        zs.append(st.z.copy())
        return estimate(cfg, st, x)

    simulate.estimate = capturing_estimate
    sc = scenarios.build({"scenario": "el2dof-dob",
                          "sim": {"dt": 1.25e-4, "substeps": 1, "log_stride": 1}})
    log = sc.run()
    simulate.estimate = estimate
    if len(zs) != len(log):
        raise RuntimeError("expected one decision per logged step")
    rows = np.arange(0, len(log), REPLAY_STRIDE)[:REPLAY_STATES]
    cols = lambda prefix, k: np.stack(
        [log.column(f"{prefix}{i}")[rows] for i in range(k)], axis=1)
    return {"t": log.column("t")[rows], "x": cols("x", 4),
            "z": np.asarray(zs)[rows], "u": cols("u", 2)}


def main() -> int:
    ref = record_closed_loop()
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    np.savez(HERE / "replay_states.npz", **record_replay())
    return 0


if __name__ == "__main__":
    sys.exit(main())
