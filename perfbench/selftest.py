"""Smoke self-test of the benchmark at a tiny size (about ten seconds).

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Checks that
  * BENCHMARK.json names exactly the metrics and units run.py reports;
  * every workload, untraced and traced, emits every metric with its unit,
    passes its correctness gate and its count identities;
  * the gate fails on a corrupted closed-loop reference and on corrupted
    replay states;
  * run.py exits non-zero, printing no result, in a directory holding only
    BENCHMARK.json and perfbench/.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SCRATCH = run.OUT / "selftest"


def check_benchmark_json(errors: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != {name: unit for name, unit, *_ in run.END_TO_END}:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != {name: unit for name, unit, *_ in run.LAYER_METRICS}:
        errors.append("BENCHMARK.json per_layer differs from run.LAYER_METRICS")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")


def check_emits_everything(errors: list, reference: dict) -> None:
    for wl in run.WORKLOADS.values():
        for trace, table in ((False, run.END_TO_END), (True, run.LAYER_METRICS)):
            where = f"{wl.name} trace={int(trace)}"
            result = run.run(run.tiny(wl), 0, 0.0, trace, reference)["result"]
            if not result["correct"] or result["failed"]:
                errors.append(f"{where}: gate failed on the seed code")
            metrics = result["metrics"]
            for name, unit, *_ in table:
                got = metrics.get(name)
                if got is None or got["unit"] != unit or \
                        not isinstance(got["value"], (int, float)):
                    errors.append(f"{where}: {name} missing or without unit {unit}")
            if not trace and any(m["value"] <= 0 for m in metrics.values()):
                errors.append(f"{where}: an end-to-end metric is not positive")


def check_gate_catches_corruption(errors: list, reference: dict) -> None:
    wl = run.tiny(run.WORKLOADS["arm-dob"])
    bad = copy.deepcopy(reference)
    bad[wl.ref_key]["summary"]["min_h"] += 1e-3
    result = run.run(wl, 0, 0.0, False, bad)["result"]
    if result["correct"] or not result["failed"]:
        errors.append("closed-loop gate passed a corrupted min_h")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    states = dict(np.load(HERE / "replay_states.npz"))
    states["u"] = states["u"] + 1e-3
    np.savez(SCRATCH / "corrupt_states.npz", **states)
    wl = dataclasses.replace(run.tiny(run.WORKLOADS["arm-filter-replay"]),
                             states_file=str(SCRATCH / "corrupt_states.npz"))
    result = run.run(wl, 0, 0.0, False, reference)["result"]
    if result["correct"] or result["failed"] != result["attempted"]:
        errors.append("replay gate passed corrupted logged u")


def check_fails_without_sources(errors: list) -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arm-dob",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append("run.py succeeded without library sources")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    reference = run.load_reference()
    errors: list = []
    check_benchmark_json(errors)
    check_emits_everything(errors, reference)
    check_gate_catches_corruption(errors, reference)
    check_fails_without_sources(errors)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for msg in errors:
        print(f"FAIL {msg}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
