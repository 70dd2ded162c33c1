"""tools/bench_record.py pairs parent and change runs of the benchmark by
workload, seed and length, and summarises each end-to-end metric."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_record",
                                              ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def write_run(checkout: Path, sha: str, workload: str, seed: int, values: dict,
              seconds: float = 40.0, trace: int = 0) -> None:
    out = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}"
    out.mkdir(parents=True)
    rec = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": bool(trace),
           "environment": {"git_sha": sha, "python": "3.11.7",
                           "numpy": "2.4.6", "nproc": 2},
           "result": {"correct": True,
                      "metrics": {m["name"]: {"value": values.get(m["name"], 1.0),
                                              "unit": m["unit"]}
                                  for m in METRICS}}}
    (out / "result.json").write_text(json.dumps(rec))


def test_pairs_medians_wins_and_quartiles(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    before = [10.0, 12.0, 11.0, 13.0, 9.0]
    after = [11.0, 13.0, 10.0, 14.0, 12.0]
    for seed, (b, a) in enumerate(zip(before, after), start=1):
        write_run(parent, "p" * 40, "arm-dob", seed,
                  {"steps_per_s": b, "run_s": 2.0})
        write_run(change, "c" * 40, "arm-dob", seed,
                  {"steps_per_s": a, "run_s": 1.0})
    # runs without a partner, and traced runs, are left out; a pair of
    # another length is summarised on its own
    write_run(change, "c" * 40, "arm-dob", 99, {"steps_per_s": 1e9})
    write_run(parent, "p" * 40, "arm-dob", 1, {"steps_per_s": 0.0}, trace=1)
    write_run(parent, "p" * 40, "arm-dob", 6, {}, seconds=20.0)
    write_run(change, "c" * 40, "arm-dob", 6, {}, seconds=40.0)
    write_run(parent, "p" * 40, "arm-dob", 7, {"steps_per_s": 1e9}, seconds=20.0)
    write_run(change, "c" * 40, "arm-dob", 7, {"steps_per_s": 1.0}, seconds=20.0)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--pr", "7", "--parent", str(parent), "--change",
                              str(change), "--tier1-seconds", "100.5",
                              "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert (rec["pr"], rec["sha"], rec["parent_sha"]) == (7, "c" * 40, "p" * 40)
    assert (rec["python"], rec["numpy"], rec["nproc"]) == ("3.11.7", "2.4.6", 2)
    assert rec["tier1_s"] == 100.5
    short, entry = rec["workloads"]
    assert (short["seconds"], short["pairs"], short["seeds"]) == (20.0, 1, [7])
    assert entry["workload"] == "arm-dob" and entry["seconds"] == 40.0
    assert entry["pairs"] == 5 and entry["seeds"] == [1, 2, 3, 4, 5]
    steps = entry["metrics"]["steps_per_s"]
    assert (steps["parent_median"], steps["change_median"]) == (11.0, 12.0)
    assert steps["change_wins"] == 4  # higher is better; seed 3 lost
    assert steps["parent_iqr"] == pytest.approx(12.0 - 10.0)
    run_s = entry["metrics"]["run_s"]
    assert run_s["change_wins"] == 5  # lower is better
    assert entry["metrics"]["setup_s"]["change_wins"] == 0  # ties count for neither


def test_no_pair_is_an_error(tmp_path):
    write_run(tmp_path / "parent", "p" * 40, "arm-dob", 1, {})
    write_run(tmp_path / "change", "c" * 40, "arm-dob", 2, {})
    with pytest.raises(SystemExit):
        bench_record.main(["--pr", "7", "--parent", str(tmp_path / "parent"),
                           "--change", str(tmp_path / "change"),
                           "--out", str(tmp_path / "B.json")])
