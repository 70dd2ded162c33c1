import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import dobcbf
from dobcbf import cli, observer, scenarios
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


def bad_paths(tmp_path, scalar_cfg):
    """argv of each bad-path case: a directory as the config, a config that
    is not UTF-8 text, and an existing file as the output directory."""
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes("scenario: scalar-rel1\n# d\u00e9j\u00e0\n".encode("latin-1"))
    taken = tmp_path / "taken"
    taken.write_text("")
    return {"run-directory": ["run", str(tmp_path), "--out", str(tmp_path / "o")],
            "validate-directory": ["validate", str(tmp_path)],
            "run-latin1": ["run", str(latin1), "--out", str(tmp_path / "o")],
            "validate-latin1": ["validate", str(latin1)],
            "run-out-is-a-file": ["run", scalar_cfg, "--out", str(taken)]}


@pytest.mark.parametrize("case", ["run-directory", "validate-directory",
                                  "run-latin1", "validate-latin1",
                                  "run-out-is-a-file"])
def test_bad_path_exits_2(tmp_path, scalar_cfg, capsys, case):
    assert cli.main(bad_paths(tmp_path, scalar_cfg)[case]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("poles", [[1.0], [1.0, 1.0, 1.0]])
def test_pole_count_other_than_relative_degree_exits_2(tmp_path, capsys,
                                                       command, poles):
    # the double integrator's barrier has relative degree 2, so it takes
    # exactly two poles
    cfg = write_config(tmp_path / "c.yaml",
                       {"scenario": "doubleint-relr", "sim": {"tf": 0.1},
                        "params": {"poles": poles}})
    argv = [command, cfg] + (["--out", str(tmp_path / "o")]
                             if command == "run" else [])
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert f"needs 2 poles, got {len(poles)}" in lines[0]
    assert not (tmp_path / "o").exists()


def test_log_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 2e16 steps: the log's 2e15 rows of 12 floats exceed any address space,
    # so the allocation fails at once, before the first step
    cfg = write_config(tmp_path / "c.yaml", {"scenario": "scalar-rel1",
                                             "sim": {"dt": 1.0e-15}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert "2000000000000001 rows" in lines[0]


UNEVALUABLE_BOUNDS = {
    # the derivative weight 2e300 squared overflows; omega was inf (exit 3)
    "derivative-weight": {"scenario": "scalar-rel1",
                          "disturbance": [[{"amplitude": 2.0,
                                            "frequency": 1.0e+300}]]},
    # frequency times time overflows; run gave exit 3, validate exit 0
    "frequency-times-time": {"scenario": "doubleint-relr",
                             "sim": {"dt": 1.0e+300, "tf": 1.0e+301},
                             "disturbance": [[{"amplitude": 1.0,
                                               "frequency": 1.0e+10,
                                               "waveform": "cos"}]]},
    # a sum of terms that is NaN at every grid time but t0; the bound was 0
    "nan-term": {"scenario": "scalar-rel1", "sim": {"tf": 1.0e+10},
                 "disturbance": [[{"amplitude": 1.0, "frequency": 1.0},
                                  {"amplitude": 1.0, "frequency": 1.0e+300}]]},
}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("case", sorted(UNEVALUABLE_BOUNDS))
def test_unevaluable_disturbance_bound_exits_2(tmp_path, capsys, command, case):
    cfg = write_config(tmp_path / "c.yaml", UNEVALUABLE_BOUNDS[case])
    argv = [command, cfg]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert "disturbance bound" in lines[0]


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


@pytest.mark.parametrize("broken", ["a", "b"])
def test_compare_rejects_a_metric_that_is_not_a_number(tmp_path, capsys,
                                                         broken):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        min_h = "abc" if name == broken else "0.5"
        (tmp_path / name / "metrics.txt").write_text(
            f"min_h: {min_h}\npairing_key: el2dof\nscenario: el2dof-dob\n")
    assert cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert str(tmp_path / broken / "metrics.txt") in lines[0]
    assert "min_h" in lines[0]


def test_numerical_failure_exit_code(tmp_path):
    # unfiltered arm with enormous PD gains at a coarse step diverges; the
    # observer gain is lowered so that its own step is admissible
    # (alpha1 * mu2 * dt = 1.51)
    cfg = write_config(tmp_path / "bad.yaml",
                       {"scenario": "el2dof-nofilter",
                        "sim": {"tf": 1.0, "dt": 1e-2, "substeps": 1},
                        "params": {"kp": 1e9, "kd": 1.0, "alpha1": 10.0}})
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_diverging_observer_step_exits_2(tmp_path, capsys):
    # at two substeps the arm observer's stiffest mode, alpha1 * mu2 * dt_sub
    # = 3.77, lies outside RK4's real stability interval (about 2.785): the
    # estimate would diverge while the plant state stays bounded, so the
    # step is rejected when the scenario is built
    cfg = write_config(tmp_path / "rob.yaml",
                       {"scenario": "el2dof-robust",
                        "sim": {"tf": 2.0, "substeps": 2}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert "observer step" in lines[0] and "3.77" in lines[0]
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


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


OVERFLOWING_GRIDS = [
    ["sim.dt=1.0e-320"],                        # 20/dt is inf
    ["sim.t0=-1.0e+308", "sim.tf=1.0e+308"],    # tf - t0 is inf
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("overrides", OVERFLOWING_GRIDS)
def test_overflowing_time_grid_exits_2(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path / "c.yaml", {"scenario": "scalar-rel1"})
    argv = [command, cfg]
    for item in overrides:
        argv += ["--override", item]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:"), lines
    assert "is not finite" in lines[0]
    assert not (tmp_path / "o").exists()


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
    assert scenarios.build(raw).safety.omega == 5.0


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
    # (unit m2 and l): negative only within ~2e-6 rad of q2 = 0 or pi.  The
    # inertia bounds and the observer's gain spectrum are taken there on the
    # simulated arm and reject it when the scenario is built (exit 2); with
    # both fixed at the default arm's, the run fails at its first step
    # (exit 3).
    from dobcbf import el
    m1 = 9.0 * (0.25 - 1.0 / 3.0 - 1e-12)
    monkeypatch.setattr(el, "TwoLinkArm", functools.partial(el.TwoLinkArm, m1=m1))
    cfg = write_config(tmp_path / "sing.yaml",
                       {"scenario": "el2dof-dob", "sim": {"tf": 0.01},
                        "initial_state": [2.0, 0.0, 0.0, 0.0]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "inertia matrix not SPD at q2 = 0.0" in capsys.readouterr().err
    default_bounds = scenarios.arm_mu_bounds(el.TwoLinkArm(m1=1.0).mass)
    monkeypatch.setattr(scenarios, "arm_mu_bounds", lambda mass: default_bounds)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "inertia matrix not positive definite at q = (0.0, 0.0)" in \
        capsys.readouterr().err
    default_arm = el.TwoLinkArm(m1=1.0).plant()
    default_spectrum = observer.gain_spectrum(
        el.el_observer_config(500.0, default_bounds[0], 1.0, 0.0), default_arm,
        [(0.0, 0.0, 0.0, 0.0), (0.0, np.pi, 0.0, 0.0)])
    monkeypatch.setattr(observer, "gain_spectrum",
                        lambda cfg, system, states: default_spectrum)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: inertia matrix" in capsys.readouterr().err


def test_non_finite_stage_state_exits_3(tmp_path, capsys):
    # a d_max of 1e308 makes the robust filter's QP projection overflow; the
    # run fails at its first decision with one stderr line that names the
    # non-finite QP solution, not a singular inertia or the next stage's f(x)
    cfg = write_config(tmp_path / "huge.yaml",
                       {"scenario": "el2dof-robust",
                        "params": {"d_max": 1.0e+308}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
    assert "QP solution u: non-finite" in lines[0]
    assert "positive definite" not in lines[0]


def validate_in_subprocess(tmp_path, scenario, override):
    """`dobcbf validate` of one override in a separate process: capsys never
    sees NumPy's RuntimeWarnings, a separate process does."""
    cfg = write_config(tmp_path / "c.yaml", {"scenario": scenario})
    src = str(Path(dobcbf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "dobcbf.cli", "validate", cfg,
         "--override", override],
        capture_output=True, text=True, env=env, timeout=120)


OVERFLOWS = [
    ("el2dof-dob", "initial_state=[1e200, 0.0, 0.0, 0.0]"),  # h_q is -inf
]

#: gains whose observer no RK4 step at the default grid can integrate,
#: rejected when the scenario is built
OVERFLOWING_GAINS = [
    ("scalar-rel1", "params.alpha=1e308"),   # alpha * dt = 1e305
    ("el2dof-dob", "params.alpha1=1e308"),   # alpha1 M^-1 is not finite
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("scenario,override", OVERFLOWING_GAINS)
def test_overflowing_observer_gain_exits_2(tmp_path, capsys, command,
                                           scenario, override):
    cfg = write_config(tmp_path / "c.yaml", {"scenario": scenario})
    argv = [command, cfg, "--override", override]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")


@pytest.mark.parametrize("scenario,override", OVERFLOWING_GAINS)
def test_overflowing_observer_gain_report_is_the_only_stderr_line(
        tmp_path, scenario, override):
    proc = validate_in_subprocess(tmp_path, scenario, override)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:"), \
        proc.stderr


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
    proc = validate_in_subprocess(tmp_path, scenario, override)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), \
        proc.stderr


#: overflows that once left only `(34, 'Numerical result out of range')`;
#: (scenario, override, exit code, the quantity the one stderr line names)
NAMED_OVERFLOWS = [
    ("el2dof-dob", "params.constraint_omega=1.0e+308", 2, "omega = 1e+308"),
    ("el2dof-noomega", "params.constraint_omega=1.0e+308", 2,
     "omega = 1e+308"),
    ("el2dof-dob", "initial_state=[1.0e+308, 2.5, 0.0, 0.0]", 3,
     "grad_hq(q): non-finite"),
    ("el2dof-noomega", "initial_state=[-1.0e+308, 2.5, 0.0, 0.0]", 3,
     "grad_hq(q): non-finite"),
    ("el2dof-dob", "initial_state=[1e200, 0.0, 0.0, 0.0]", 3,
     "energy barrier: non-finite (h, L_f h) = (-inf"),
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("scenario,override,code,named", NAMED_OVERFLOWS)
def test_overflow_names_its_quantity(tmp_path, capsys, command, scenario,
                                     override, code, named):
    cfg = write_config(tmp_path / "c.yaml", {"scenario": scenario})
    argv = [command, cfg, "--override", override]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    start = "configuration error:" if code == 2 else "numerical failure:"
    assert len(lines) == 1 and lines[0].startswith(start), lines
    assert named in lines[0] and "out of range" not in lines[0], lines


@pytest.mark.parametrize("scenario", ["el2dof-robust", "el2dof-noomega"])
def test_subnormal_nu_keeps_the_envelope_a_bound(tmp_path, capsys, scenario):
    # at nu = 1e-320, 2 kappa nu is subnormal: the envelope starts at e0 and
    # is infinite after, so a certified run no longer fails its envelope
    # check (residual 7.07 = e0 once, from E(0) = 0)
    cfg = write_config(tmp_path / "c.yaml",
                       {"scenario": scenario, "params": {"nu": 1.0e-320},
                        "sim": {"tf": 0.05}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert f"{scenario}: ok" in out
    assert "certified: True" in (tmp_path / "o" / "validation.txt").read_text()
