"""tools/pinned_ab.py times set-up, the run and each decision of one
scenario in alternating fresh interpreters of two checkouts, pinned to one
CPU."""

import importlib.util
import json
import os
from pathlib import Path

from dobcbf import scenarios

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("pinned_ab",
                                              ROOT / "tools" / "pinned_ab.py")
pinned_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pinned_ab)


def test_one_pair_reports_medians_and_wins(capsys):
    # the smallest run: one pair of this checkout against itself
    assert pinned_ab.main(["--a", str(ROOT), "--b", str(ROOT),
                           "--scenario", "scalar-rel1", "--tf", "0.01",
                           "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == \
        ["pair 0 a", "pair 0 b", "setup_s", "run_s", "decision_us_p50"]
    record = json.loads(lines[-1])
    assert record["scenario"] == "scalar-rel1" and record["tf"] == 0.01
    assert record["pairs"] == 1
    assert record["cpu"] == min(os.sched_getaffinity(0))
    # the decision timers saw every decision of the run
    log = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 0.01}}).run()
    for side in ("a", "b"):
        (run,) = record["runs"][side]
        assert sorted(run) == ["decision_us_p50", "decisions", "run_s",
                               "setup_s"]
        assert 0.0 < run["setup_s"] < 60.0 and 0.0 < run["run_s"] < 60.0
        assert 0.0 < run["decision_us_p50"] < 1e6 * run["run_s"]
        assert run["decisions"] == sum(log.status_counts.values())
    for name in ("setup_s", "run_s", "decision_us_p50"):
        metric = record["metrics"][name]
        assert metric["a"] == record["runs"]["a"][0][name]
        assert metric["b"] == record["runs"]["b"][0][name]
        assert metric["b_wins"] == int(metric["b"] < metric["a"])
