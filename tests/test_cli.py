import functools
import os

import numpy as np
import pytest
import yaml

from dobcbf import cli


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
    for name in ("config.yaml", "trajectory.csv", "metrics.txt",
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


def test_dt_and_horizon_flags(tmp_path, scalar_cfg):
    out = tmp_path / "out"
    rc = cli.main(["run", scalar_cfg, "--out", str(out),
                   "--dt", "0.002", "--horizon", "2.0"])
    assert rc == 0
    with open(out / "config.yaml") as fh:
        cfg = yaml.safe_load(fh)
    assert cfg["sim"]["dt"] == 0.002
    assert cfg["sim"]["tf"] == 2.0


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
    # every sampled validation state passes and the run fails at its first
    # step.  arm_mu_bounds passes m1 explicitly and still sees the default.
    from dobcbf import el
    m1 = 9.0 * (0.25 - 1.0 / 3.0 - 1e-12)
    monkeypatch.setattr(el, "TwoLinkArm", functools.partial(el.TwoLinkArm, m1=m1))
    cfg = write_config(tmp_path / "sing.yaml",
                       {"scenario": "el2dof-dob", "sim": {"tf": 0.01},
                        "initial_state": [2.0, 0.0, 0.0, 0.0]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: inertia matrix" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("scenario,override", [
    ("el2dof-dob", "initial_state=[1e200, 0.0, 0.0, 0.0]"),  # h_q overflows
    ("scalar-rel1", "params.alpha=1e308"),   # p(x) of a sample state is inf
    ("el2dof-dob", "params.alpha1=1e308"),
])
def test_numerical_failure_in_validation_exits_3(tmp_path, capsys, command,
                                                  scenario, override):
    cfg = write_config(tmp_path / "c.yaml", {"scenario": scenario})
    argv = [command, cfg, "--override", override]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
