import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import dobcbf
from dobcbf import cli, scenarios
from oracles import csv_per_cell


def write_config(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


@pytest.fixture
def scalar_cfg(tmp_path):
    return write_config(tmp_path / "scalar.yaml",
                        {"scenario": "scalar-rel1", "sim": {"tf": 1.0}})


@pytest.fixture
def arm_cfg(tmp_path):
    return write_config(tmp_path / "arm.yaml",
                        {"scenario": "el2dof-dob", "sim": {"tf": 1.0}})


def test_run_writes_artifacts(tmp_path, scalar_cfg):
    out = tmp_path / "out"
    rc = cli.main(["run", scalar_cfg, "--out", str(out)])
    assert rc == 0
    for name in ("config.yaml", "trajectory.csv", "events.csv", "metrics.txt",
                 "validation.txt"):
        assert (out / name).exists()
    # the persisted config is the fully resolved one and round-trips
    with open(out / "config.yaml") as fh:
        cfg = yaml.safe_load(fh)
    assert cfg["scenario"] == "scalar-rel1"
    assert cfg["params"]["alpha"] == 2.0


def test_run_arm_emits_plot_panels(tmp_path, arm_cfg):
    out = tmp_path / "out"
    rc = cli.main(["run", arm_cfg, "--out", str(out)])
    assert rc == 0
    plots = out / "plots"
    for name in ("q1.csv", "q2.csv", "h.csv", "disturbance.csv",
                 "tau1.csv", "tau2.csv"):
        assert (plots / name).exists()
    with open(plots / "disturbance.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "d1", "d2", "dhat1", "dhat2"]


def test_run_byte_identical_outputs(tmp_path, scalar_cfg):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", scalar_cfg, "--out", str(out_a)]) == 0
    assert cli.main(["run", scalar_cfg, "--out", str(out_b)]) == 0
    csv_a = (out_a / "trajectory.csv").read_bytes()
    csv_b = (out_b / "trajectory.csv").read_bytes()
    assert csv_a == csv_b


def test_events_csv_has_one_row_per_event(tmp_path):
    # a constraint-side omega far above the default makes psi0 < 0 while
    # the arm is still slow, so the run starts with bypassed, flagged steps
    cfg = {"scenario": "el2dof-dob", "sim": {"tf": 0.01},
           "params": {"constraint_omega": 84.0}}
    log = scenarios.build(cfg).run()
    assert log.events
    out = tmp_path / "out"
    cli.run_scenario(cfg, str(out))
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0] == "t,kind" and len(lines) == len(log.events) + 1
    assert lines[1:] == [f"{t:.14e},{kind}" for t, kind in log.events]
    # the other artifacts are the ones the former per-cell writer gives
    csv_per_cell(log.columns, log.data, tmp_path / "want.csv")
    assert (out / "trajectory.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()
    panels = {"q1.csv": ["x0"], "q2.csv": ["x1"], "h.csv": ["h"],
              "disturbance.csv": ["d0", "d1", "dhat0", "dhat1"],
              "tau1.csv": ["u0"], "tau2.csv": ["u1"]}
    for fname, names in panels.items():
        header = (out / "plots" / fname).read_text().splitlines()[0]
        data = np.stack([log.column(c) for c in ["t"] + names], axis=1)
        csv_per_cell(header.split(","), data, tmp_path / "want.csv")
        assert (out / "plots" / fname).read_bytes() == \
            (tmp_path / "want.csv").read_bytes(), fname


def test_event_free_run_writes_the_events_header_only(tmp_path, scalar_cfg):
    out = tmp_path / "out"
    assert cli.main(["run", scalar_cfg, "--out", str(out)]) == 0
    assert (out / "events.csv").read_text() == "t,kind\n"


def test_override_flag(tmp_path, scalar_cfg):
    out = tmp_path / "out"
    rc = cli.main(["run", scalar_cfg, "--out", str(out),
                   "--override", "params.beta=2.5",
                   "--override", "sim.log_stride=100"])
    assert rc == 0
    with open(out / "config.yaml") as fh:
        cfg = yaml.safe_load(fh)
    assert cfg["params"]["beta"] == 2.5
    assert cfg["sim"]["log_stride"] == 100


def test_config_error_exit_code(tmp_path, scalar_cfg):
    assert cli.main(["run", str(tmp_path / "missing.yaml"),
                     "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["run", scalar_cfg, "--out", str(tmp_path / "o2"),
                     "--override", "params.alpha=-3"]) == 2
    assert cli.main(["run", scalar_cfg, "--out", str(tmp_path / "o3"),
                     "--override", "params.nonsense=1"]) == 2
    assert cli.main(["run", scalar_cfg, "--out", str(tmp_path / "o4"),
                     "--override", "badformat"]) == 2


def test_validate_subcommand(tmp_path, scalar_cfg):
    assert cli.main(["validate", scalar_cfg]) == 0


def test_compare_subcommand(tmp_path):
    cfg_dob = write_config(tmp_path / "dob.yaml",
                           {"scenario": "el2dof-dob", "sim": {"tf": 1.0}})
    cfg_rob = write_config(tmp_path / "rob.yaml",
                           {"scenario": "el2dof-robust", "sim": {"tf": 1.0}})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg_dob, "--out", str(out_a)]) == 0
    assert cli.main(["run", cfg_rob, "--out", str(out_b)]) == 0
    report = tmp_path / "cmp.txt"
    assert cli.main(["compare", str(out_a), str(out_b),
                     "--out", str(report)]) == 0
    text = report.read_text()
    assert "delta_min_h" in text
    assert "delta_tracking_rmse" in text


def test_compare_rejects_unpaired_runs(tmp_path, scalar_cfg, arm_cfg):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", scalar_cfg, "--out", str(out_a)]) == 0
    assert cli.main(["run", arm_cfg, "--out", str(out_b)]) == 0
    assert cli.main(["compare", str(out_a), str(out_b)]) == 2
    assert cli.main(["compare", str(out_a), str(tmp_path / "nope")]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # unfiltered arm with enormous PD gains at a coarse step diverges
    cfg = write_config(tmp_path / "bad.yaml",
                       {"scenario": "el2dof-nofilter",
                        "sim": {"tf": 1.0, "dt": 1e-2, "substeps": 1},
                        "params": {"kp": 1e9, "kd": 1.0}})
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_diverging_observer_exits_3(tmp_path, capsys):
    # at two substeps the arm observer's stiffest mode, alpha1 * mu2 * dt_sub
    # = 3.77, lies outside RK4's real stability interval (about 2.785): the
    # estimate diverges while the plant state stays bounded
    cfg = write_config(tmp_path / "rob.yaml",
                       {"scenario": "el2dof-robust",
                        "sim": {"tf": 2.0, "substeps": 2}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert "numerical failure (aborted run)" in captured.err
    assert captured.out == ""


IMPOSSIBLE_TUNINGS = [
    ("scalar-rel1", "params.alpha=0.9"),      # 4a - 2 gamma - 2 nu < 0
    ("doubleint-relr", "params.alpha=0.9"),   # 4a - 2 lambda_r - 2 nu < 0
    ("el2dof-dob", "params.alpha1=2"),        # 4 alpha1 mu1 - 2 gamma - 2 nu < 0
    ("el2dof-dob", "params.constraint_omega=-1"),
    ("el2dof-robust", "params.d_max=-1"),
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("scenario,override", IMPOSSIBLE_TUNINGS)
def test_impossible_filter_tuning_exits_2(tmp_path, capsys, command,
                                          scenario, override):
    # rejected when the filter is built, before any validation or step
    cfg = write_config(tmp_path / "c.yaml", {"scenario": scenario})
    argv = [command, cfg, "--override", override]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")


def test_robust_baseline_ignores_observer_filter_condition(tmp_path):
    # alpha1 = 2 admits no observer-aware constraint, but the robust filter
    # does not use one
    cfg = write_config(tmp_path / "rob.yaml",
                       {"scenario": "el2dof-robust", "sim": {"tf": 0.05},
                        "params": {"alpha1": 2.0}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0


def test_withheld_omega_is_omega_zero(tmp_path):
    noomega = write_config(tmp_path / "noomega.yaml",
                           {"scenario": "el2dof-noomega", "sim": {"tf": 0.3}})
    dob = write_config(tmp_path / "dob.yaml",
                       {"scenario": "el2dof-dob", "sim": {"tf": 0.3},
                        "params": {"constraint_omega": 0.0}})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", noomega, "--out", str(out_a)]) == 0
    assert cli.main(["run", dob, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == \
        (out_b / "trajectory.csv").read_bytes()


def test_noomega_constraint_omega_is_its_config_value(tmp_path):
    # the default withholds the bound (0.0) and is recorded as such; an
    # override is what the filter uses
    cfg = write_config(tmp_path / "noomega.yaml", {"scenario": "el2dof-noomega"})
    resolved = scenarios.resolve_config(cli.load_config(cfg))
    assert resolved["params"]["constraint_omega"] == 0.0
    raw = cli.apply_overrides(cli.load_config(cfg), ["params.constraint_omega=5"])
    assert scenarios.build(raw).safety.params.omega == 5.0


@pytest.mark.parametrize("override", ["params.kp=.nan", "sim.tf=abc",
                                      "params.beta=.inf", "sim.substeps=2.5",
                                      "params.gravity_comp=1",
                                      "disturbance=[[{amplitude: 1.0}], "
                                      "[{amplitude: 1.0}]]"])
def test_bad_number_in_config_exits_2(tmp_path, arm_cfg, override):
    rc = cli.main(["run", arm_cfg, "--out", str(tmp_path / "o"),
                   "--override", override])
    assert rc == 2


def test_yaml_exponent_string_is_read_as_number(tmp_path, scalar_cfg):
    # YAML 1.1 reads 1e-3 as a string; numeric fields accept it as a number
    out = tmp_path / "out"
    assert cli.main(["run", scalar_cfg, "--out", str(out),
                     "--override", "sim.dt=2e-3"]) == 0
    with open(out / "config.yaml") as fh:
        assert yaml.safe_load(fh)["sim"]["dt"] == 0.002


def test_singular_inertia_exits_3(tmp_path, monkeypatch, capsys):
    # The arm's masses are not configuration fields, so the scenario's plant
    # is swapped for an arm whose inertia determinant is sin(q2)^2/4 - 1e-12
    # (unit m2 and l): negative only within ~2e-6 rad of q2 = 0 or pi, so
    # every sampled validation state passes.  The inertia bounds are taken
    # on the simulated arm and reject it when the scenario is built (exit
    # 2); with them fixed at the default arm's, the run fails at its first
    # step (exit 3).
    from dobcbf import el
    m1 = 9.0 * (0.25 - 1.0 / 3.0 - 1e-12)
    monkeypatch.setattr(el, "TwoLinkArm", functools.partial(el.TwoLinkArm, m1=m1))
    cfg = write_config(tmp_path / "sing.yaml",
                       {"scenario": "el2dof-dob", "sim": {"tf": 0.01},
                        "initial_state": [2.0, 0.0, 0.0, 0.0]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "inertia matrix not SPD at q2 = 0.0" in capsys.readouterr().err
    default_bounds = scenarios.arm_mu_bounds(el.TwoLinkArm(m1=1.0).system().mass)
    monkeypatch.setattr(scenarios, "arm_mu_bounds", lambda mass: default_bounds)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: inertia matrix" in capsys.readouterr().err


OVERFLOWS = [
    ("el2dof-dob", "initial_state=[1e200, 0.0, 0.0, 0.0]"),  # h_q overflows
    ("scalar-rel1", "params.alpha=1e308"),   # p(x) of a sample state is inf
    ("el2dof-dob", "params.alpha1=1e308"),
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("scenario,override", OVERFLOWS)
def test_numerical_failure_in_validation_exits_3(tmp_path, capsys, command,
                                                  scenario, override):
    cfg = write_config(tmp_path / "c.yaml", {"scenario": scenario})
    argv = [command, cfg, "--override", override]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")


@pytest.mark.parametrize("scenario,override", OVERFLOWS)
def test_numerical_failure_report_is_the_only_stderr_line(tmp_path, scenario,
                                                          override):
    # capsys never sees NumPy's RuntimeWarnings; a separate process does
    cfg = write_config(tmp_path / "c.yaml", {"scenario": scenario})
    src = str(Path(dobcbf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "dobcbf.cli", "validate", cfg,
         "--override", override],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), \
        proc.stderr
