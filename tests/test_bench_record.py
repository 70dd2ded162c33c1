"""tools/bench_record.py pairs parent and change runs of the benchmark by
workload, seed and length, and summarises each end-to-end metric."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_record",
                                              ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = DECLARED["end_to_end"]
LAYERS = DECLARED["per_layer"]


def write_run(checkout: Path, sha: str, workload: str, seed: int, values: dict,
              seconds: float = 40.0, trace: int = 0, correct: bool = True) -> None:
    out = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}"
    out.mkdir(parents=True)
    rec = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": bool(trace),
           "environment": {"git_sha": sha, "python": "3.11.7",
                           "numpy": "2.4.6", "nproc": 2},
           "result": {"correct": correct,
                      "metrics": {m["name"]: {"value": values.get(m["name"], 1.0),
                                              "unit": m["unit"]}
                                  for m in (LAYERS if trace else METRICS)}}}
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


def test_runs_of_length_zero_are_left_out(tmp_path):
    # the benchmark's self-test, which Tier-1 runs, leaves seed-0 records of
    # length 0 in both checkouts, some of them not correct by design
    parent, change = tmp_path / "parent", tmp_path / "change"
    for workload in ("arm-dob", "doubleint-dense"):
        write_run(parent, "p" * 40, workload, 0, {"steps_per_s": 1e9},
                  seconds=0.0, correct=False)
        write_run(change, "c" * 40, workload, 0, {"steps_per_s": 1.0},
                  seconds=0.0, correct=False)
        write_run(parent, "p" * 40, workload, 1, {"steps_per_s": 10.0})
        write_run(change, "c" * 40, workload, 1, {"steps_per_s": 11.0})
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--pr", "7", "--parent", str(parent), "--change",
                              str(change), "--out", str(out)]) == 0
    for entry in json.loads(out.read_text())["workloads"]:
        assert (entry["seconds"], entry["pairs"], entry["seeds"]) == (40.0, 1, [1])
        assert entry["all_correct"]
        steps = entry["metrics"]["steps_per_s"]
        assert (steps["parent"], steps["change"]) == ([10.0], [11.0])
    # length-0 runs alone make no pair
    for checkout in (parent, change):
        for workload in ("arm-dob", "doubleint-dense"):
            shutil.rmtree(checkout / ".perfbench_out" / f"{workload}-seed1-trace0")
    with pytest.raises(SystemExit):
        bench_record.main(["--pr", "7", "--parent", str(parent), "--change",
                           str(change), "--out", str(out)])


def test_traced_runs_are_paired_per_layer(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        write_run(parent, "p" * 40, "arm-dob", seed, {"setup_s": 0.04})
        write_run(change, "c" * 40, "arm-dob", seed, {"setup_s": 0.02})
    # two traced pairs of one length, one of another, and a traced run
    # without a partner
    bound = "scenarios.derivative_bound.s"
    for seed, before, after in ((1, 0.025, 0.0035), (3, 0.027, 0.0031)):
        write_run(parent, "p" * 40, "arm-dob", seed,
                  {bound: before, "simulate.rk4_step.calls": 1000.0}, trace=1)
        write_run(change, "c" * 40, "arm-dob", seed,
                  {bound: after, "simulate.rk4_step.calls": 1000.0}, trace=1)
    write_run(parent, "p" * 40, "arm-dob", 4, {bound: 9.0}, seconds=20.0, trace=1)
    write_run(change, "c" * 40, "arm-dob", 4, {bound: 1.0}, seconds=20.0, trace=1)
    write_run(change, "c" * 40, "doubleint-dense", 5, {}, trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--pr", "7", "--parent", str(parent), "--change",
                              str(change), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    # the untraced pairing is unchanged by the traced runs
    entry, = rec["workloads"]
    assert (entry["pairs"], entry["seeds"]) == (2, [1, 2])
    assert entry["metrics"]["setup_s"]["change_median"] == 0.02
    short, layers = rec["per_layer"]
    assert (short["seconds"], short["pairs"], short["seeds"]) == (20.0, 1, [4])
    assert (layers["workload"], layers["seconds"]) == ("arm-dob", 40.0)
    assert (layers["pairs"], layers["seeds"]) == (2, [1, 3])
    assert set(layers["metrics"]) == {m["name"] for m in LAYERS}
    m = layers["metrics"][bound]
    assert (m["unit"], m["better"], m["pairs"]) == ("s", "lower", 2)
    assert m["parent_median"] == pytest.approx(0.026)
    assert m["change_median"] == pytest.approx(0.0033)
    assert (m["parent"], m["change"]) == ([0.025, 0.027], [0.0035, 0.0031])
    assert m["change_wins"] == 2 and "bound" not in m
    assert layers["metrics"]["simulate.rk4_step.calls"]["change_wins"] == 0


def test_traced_runs_of_another_commit_are_an_error(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, "p" * 40, "arm-dob", 1, {})
    write_run(change, "c" * 40, "arm-dob", 1, {})
    write_run(parent, "p" * 40, "arm-dob", 1, {}, trace=1)
    write_run(change, "d" * 40, "arm-dob", 1, {}, trace=1)
    with pytest.raises(SystemExit):
        bench_record.main(["--pr", "7", "--parent", str(parent), "--change",
                           str(change), "--out", str(tmp_path / "B.json")])
    # without traced pairs the record has an empty per-layer list
    shutil.rmtree(change / ".perfbench_out" / "arm-dob-seed1-trace1")
    assert bench_record.main(["--pr", "7", "--parent", str(parent), "--change",
                              str(change), "--out", str(tmp_path / "B.json")]) == 0
    assert json.loads((tmp_path / "B.json").read_text())["per_layer"] == []


def test_regressed_and_unresolved_flags(tmp_path, capsys):
    # hand values against each metric's bound in BENCHMARK.json (0.25, and
    # 0.05 for peak_rss_mb)
    assert {m["name"]: m["bound"] for m in METRICS} == {
        "setup_s": 0.25, "steps_per_s": 0.25, "run_s": 0.25,
        "decision_us_p50": 0.25, "peak_rss_mb": 0.05}
    parent, change = tmp_path / "parent", tmp_path / "change"
    runs = {
        # 30% slower: regressed; no spread: resolved
        "setup_s": ([1.0] * 5, [1.3] * 5),
        # 20% slower: inside the bound
        "run_s": ([1.0] * 5, [1.2] * 5),
        # IQR 40 - 20 over a median of 30 is 0.67 > 0.25, and the runs
        # overlap: unresolved; the median is 2 better: not regressed
        "steps_per_s": ([10.0, 20.0, 30.0, 40.0, 50.0],
                        [12.0, 22.0, 32.0, 42.0, 52.0]),
        # the same spread, but every change run beats every parent run
        "decision_us_p50": ([10.0, 20.0, 30.0, 40.0, 50.0],
                            [1.0, 2.0, 3.0, 4.0, 5.0]),
        # 6% more memory against a 5% bound
        "peak_rss_mb": ([100.0] * 5, [106.0] * 5),
    }
    for seed in range(5):
        write_run(parent, "p" * 40, "arm-dob", seed + 1,
                  {name: b[seed] for name, (b, _) in runs.items()})
        write_run(change, "c" * 40, "arm-dob", seed + 1,
                  {name: a[seed] for name, (_, a) in runs.items()})
    # a traced pair: per-layer metrics have no bound and so no flags
    write_run(parent, "p" * 40, "arm-dob", 1, {}, trace=1)
    write_run(change, "c" * 40, "arm-dob", 1, {"el.terms.us": 9.0}, trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--pr", "7", "--parent", str(parent), "--change",
                              str(change), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    metrics = rec["workloads"][0]["metrics"]
    flags = {name: (m["regressed"], m["unresolved"]) for name, m in metrics.items()}
    assert flags == {"setup_s": (True, False), "run_s": (False, False),
                     "steps_per_s": (False, True),
                     "decision_us_p50": (False, False),
                     "peak_rss_mb": (True, False)}
    layer = rec["per_layer"][0]["metrics"]["el.terms.us"]
    assert "regressed" not in layer and "unresolved" not in layer
    lines = capsys.readouterr().out.splitlines()
    setup, = [line for line in lines if " setup_s " in line]
    assert setup.endswith("regressed True  unresolved False")
    terms, = [line for line in lines if " el.terms.us " in line]
    assert "regressed" not in terms
