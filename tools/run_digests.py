"""Run the six default scenarios through `dobcbf run` and record digests.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 tools/run_digests.py --out DIGESTS.json \
        --workdir DIR [--override KEY=VALUE ...]

Each scenario's default configuration, `{scenario: <name>}`, is written to
DIR/<name>.yaml and run by `dobcbf.cli.main(["run", ...])` into DIR/<name>,
with every --override applied to every run.  DIGESTS.json holds, for each
scenario, the exit code, the stdout, and the SHA-256 of every artifact in
the run directory, keyed by its path relative to it.  Two checkouts give
the same artifacts, stdout and exit codes exactly when their digest files
are equal, so comparing them is `diff a.json b.json`.  To record another
checkout, run the tool with PYTHONPATH=<checkout>/src.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import yaml

from dobcbf import cli
from dobcbf.scenarios import SCENARIOS


def artifact_digests(run_dir: Path) -> dict:
    """SHA-256 of every file under run_dir, keyed by its relative path."""
    return {path.relative_to(run_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(run_dir.rglob("*")) if path.is_file()}


def run_all(workdir: Path, overrides=()) -> dict:
    """Run every default scenario into workdir; its digest record."""
    out = {}
    for name in SCENARIOS:
        cfg = workdir / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump({"scenario": name}))
        run_dir = workdir / name
        argv = ["run", str(cfg), "--out", str(run_dir)]
        for item in overrides:
            argv += ["--override", item]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        out[name] = {"exit_code": code, "stdout": stdout.getvalue(),
                     "artifacts": artifact_digests(run_dir)
                     if run_dir.is_dir() else {}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    record = run_all(args.workdir, args.override)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
