"""Configuration-driven experiment runner.

Subcommands:
  run <config.yaml>      simulate a scenario, write trajectory.csv,
                         events.csv, metrics.txt, validation.txt, and
                         panel CSVs
  validate <config.yaml> build and parameter checks only; prints what
                         validation.txt would hold
  compare <dirA> <dirB>  paired deltas between two finished runs

Exit codes: 0 pass, 1 certified-run invariant failure (or, for validate,
a failed check), 2 configuration error (including a number that is not
finite or not a number, a filter tuning for which the constraint does not
exist, a negative d_max, an observer gain whose coercivity margin is
negative or whose stiffness times dt/substeps lies outside RK4's real
stability interval, a config path that is missing, a directory or not
UTF-8 text, an output path that is a file, a log too large to
allocate, a time grid whose step count (tf - t0)/dt is not finite, a
disturbance whose bound cannot be evaluated in floats, and a compared
metric that is not a number),
3 numerical failure: blow-up, non-finite integration, or a
ValueError or ArithmeticError raised by the validation checks (`run` and
`validate`) or while simulating, such as a singular inertia matrix or an
overflow.  Exit codes 2 and 3 print one line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import yaml

from . import scenarios, simulate
from .scenarios import ConfigError


def load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    return raw


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply repeatable dotted-path overrides like params.beta=12."""
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a scalar")
        node[parts[-1]] = yaml.safe_load(raw)
    return cfg


def _validation(scenario: scenarios.Scenario) -> tuple[bool, list[str]]:
    """(whether every check passed, the lines of validation.txt)."""
    reports = scenario.validate()
    passed = all(r.passed for r in reports.values())
    lines = []
    for name, rep in sorted(reports.items()):
        lines.append(f"[{name}] passed: {rep.passed}")
        for field_name, value in vars(rep).items():
            if field_name == "messages":
                for msg in value:
                    lines.append(f"  note: {msg}")
            else:
                lines.append(f"  {field_name}: {value}")
    lines.append(f"certified: {scenario.certified and passed}")
    for key, value in sorted(scenario.constants.items()):
        lines.append(f"constant {key}: {value:.14e}")
    return passed, lines


def emit_plotdata(log: simulate.TrajectoryLog, outdir: str) -> list[str]:
    """One CSV per result panel for a 2-DOF arm run."""
    if len(log) == 0:
        raise ConfigError("cannot emit plot data from an empty log")
    if log.meta["n"] != 4 or log.meta["m"] != 2:
        raise ConfigError("panel export expects a 2-DOF arm log")
    os.makedirs(outdir, exist_ok=True)
    t = log.column("t")
    panels = {
        "q1.csv": {"t": t, "q1": log.column("x0")},
        "q2.csv": {"t": t, "q2": log.column("x1")},
        "h.csv": {"t": t, "h": log.column("h")},
        "disturbance.csv": {"t": t,
                            "d1": log.column("d0"), "d2": log.column("d1"),
                            "dhat1": log.column("dhat0"),
                            "dhat2": log.column("dhat1")},
        "tau1.csv": {"t": t, "tau1": log.column("u0")},
        "tau2.csv": {"t": t, "tau2": log.column("u1")},
    }
    written = []
    for fname, cols in panels.items():
        path = os.path.join(outdir, fname)
        simulate.write_csv(path, list(cols),
                           zip(*(col.tolist() for col in cols.values())),
                           ["%.14e"] * len(cols))
        written.append(path)
    return written


def run_scenario(cfg: dict, outdir: str) -> int:
    """Build, validate, simulate, and judge one scenario; writes artifacts."""
    scenario = scenarios.build(cfg)
    os.makedirs(outdir, exist_ok=True)

    with open(os.path.join(outdir, "config.yaml"), "w") as fh:
        yaml.safe_dump(scenario.config, fh, sort_keys=True)

    passed, val_lines = _validation(scenario)
    certified = scenario.certified and passed
    with open(os.path.join(outdir, "validation.txt"), "w") as fh:
        fh.write("\n".join(val_lines) + "\n")

    log = scenario.run()
    log.to_csv(os.path.join(outdir, "trajectory.csv"))
    simulate.write_csv(os.path.join(outdir, "events.csv"), ["t", "kind"],
                       log.events, ["%.14e", "%s"])
    summary = scenario.metrics(log)
    summary["scenario"] = scenario.name
    summary["pairing_key"] = scenario.pairing_key
    simulate.write_metrics(os.path.join(outdir, "metrics.txt"), summary)

    if scenario.el_system is not None:
        emit_plotdata(log, os.path.join(outdir, "plots"))

    if log.aborted:
        print(f"{scenario.name}: numerical failure (aborted run)",
              file=sys.stderr)
        return 3
    if not certified:
        print(f"{scenario.name}: uncertified run, invariants not enforced")
        return 0
    failures = scenario.check_invariants(log, summary)
    for msg in failures:
        print(f"{scenario.name}: INVARIANT FAILURE: {msg}")
    if not failures:
        print(f"{scenario.name}: ok (min h = {summary['min_h']:.6g})")
    return 1 if failures else 0


def compare(dir_a: str, dir_b: str, out_path: str | None = None) -> int:
    """Paired comparison of two finished runs sharing a pairing key."""
    keys = ("min_h", "tracking_rmse")
    metas = []
    for d in (dir_a, dir_b):
        path = os.path.join(d, "metrics.txt")
        if not os.path.exists(path):
            raise ConfigError(f"{d}: no metrics.txt (run the scenario first)")
        meta = simulate.read_metrics(path)
        for key in keys:
            if isinstance(meta.get(key), str):  # not read as a number
                raise ConfigError(f"{path}: {key} is not a number: {meta[key]!r}")
        metas.append(meta)
    if metas[0].get("pairing_key") != metas[1].get("pairing_key"):
        raise ConfigError(
            "runs are not comparable: different plant/disturbance/nominal "
            f"({metas[0].get('pairing_key')} vs {metas[1].get('pairing_key')})")

    lines = [f"run_a: {dir_a} ({metas[0].get('scenario')})",
             f"run_b: {dir_b} ({metas[1].get('scenario')})"]
    for key in keys:
        if key in metas[0] and key in metas[1]:
            delta = metas[0][key] - metas[1][key]
            lines.append(f"delta_{key}: {delta:.14e}")
            lines.append(f"a_smaller_{key}: {metas[0][key] < metas[1][key]}")
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dobcbf", description="observer-aware CBF-QP experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")

    p_val = sub.add_parser("validate", help="run the build and parameter checks only")
    p_val.add_argument("config")
    p_val.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")

    p_cmp = sub.add_parser("compare", help="paired deltas between two run dirs")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    # Every value that decides an outcome is checked for finiteness
    # explicitly, and a failed check reports on one stderr line; NumPy's
    # floating-point warnings would only print lines ahead of it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            if args.command == "run":
                cfg = apply_overrides(load_config(args.config), args.override)
                return run_scenario(cfg, args.out)
            if args.command == "validate":
                cfg = apply_overrides(load_config(args.config), args.override)
                passed, lines = _validation(scenarios.build(cfg))
                print("\n".join(lines))
                return 0 if passed else 1
            if args.command == "compare":
                return compare(args.dir_a, args.dir_b, args.out)
        except (ConfigError, OSError, UnicodeDecodeError, MemoryError,
                yaml.YAMLError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except (simulate.IntegrationError, ValueError, ArithmeticError) as exc:
            # after ConfigError, itself a ValueError; np.linalg.LinAlgError is
            # a ValueError too
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
