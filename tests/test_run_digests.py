"""tools/run_digests.py records the exit code, stdout and artifact digests of
the six default runs, so that two checkouts compare by one diff."""

import importlib.util
import json
from pathlib import Path

from dobcbf.scenarios import SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("run_digests",
                                              ROOT / "tools" / "run_digests.py")
run_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_digests)


def test_two_runs_agree_and_every_artifact_is_listed(tmp_path):
    records = []
    for side in ("a", "b"):
        out = tmp_path / f"{side}.json"
        assert run_digests.main(["--out", str(out),
                                 "--workdir", str(tmp_path / side),
                                 "--override", "sim.tf=0.05"]) == 0
        records.append(out.read_bytes())
    assert records[0] == records[1]
    record = json.loads(records[0])
    assert sorted(record) == sorted(SCENARIOS)
    for name, entry in record.items():
        run_dir = tmp_path / "a" / name
        files = sorted(p.relative_to(run_dir).as_posix()
                       for p in run_dir.rglob("*") if p.is_file())
        assert sorted(entry["artifacts"]) == files
        assert {"config.yaml", "trajectory.csv", "metrics.txt"} <= set(files)
        assert entry["exit_code"] == 0
        assert entry["stdout"].startswith(f"{name}: ")
        # the override reached the run
        assert "tf: 0.05" in (run_dir / "config.yaml").read_text()
