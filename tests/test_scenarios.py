import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import dobcbf
import dobcbf.scenarios as scenarios
from dobcbf import cli, el, simulate
from dobcbf.el import TwoLinkArm
from dobcbf.scenarios import ConfigError, build, resolve_config
from oracles import kinetic_energy


def test_all_scenarios_build():
    for name in scenarios.SCENARIOS:
        sc = build({"scenario": name})
        assert sc.name == name
        assert sc.simcfg.tf == 20.0


def assert_config_error(cfg, tmp_path, capsys):
    """build raises ConfigError, and `dobcbf validate` exits 2 with one
    `configuration error:` line on stderr."""
    with pytest.raises(ConfigError):
        build(cfg)
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")


def test_unknown_scenario_and_keys_rejected(tmp_path, capsys):
    term = {"amplitude": 1.0, "frequency": 1.0}
    for bad in ({"scenario": "nope"},
                {"scenario": "scalar-rel1", "params": {"bogus_key": 1.0}},
                {"scenario": "scalar-rel1", "toplevel_bogus": 1.0},
                # unknown term keys of mixed types, which do not sort
                {"scenario": "scalar-rel1",
                 "disturbance": [[{**term, 1: 2, "b": 3}]]},
                {"scenario": "scalar-rel1", "disturbance": [[{**term, "b": 3}]]},
                # a SimConfig field that the configuration does not expose
                {"scenario": "scalar-rel1", "sim": {"blowup_norm": 1.0}}):
        assert_config_error(bad, tmp_path, capsys)


def test_invalid_parameters_raise_config_error():
    with pytest.raises(ConfigError):
        build({"scenario": "scalar-rel1", "params": {"alpha": -2.0}})
    with pytest.raises(ConfigError):
        build({"scenario": "scalar-rel1", "sim": {"dt": -1.0}})


def test_override_merge_deep():
    cfg = resolve_config({"scenario": "el2dof-dob",
                          "params": {"beta": 12.0}})
    assert cfg["params"]["beta"] == 12.0
    assert cfg["params"]["alpha1"] == 500.0  # untouched defaults survive


def test_scalar_derived_omega():
    sc = build({"scenario": "scalar-rel1"})
    # d = 2 sin t -> max |ddot| = 2
    assert sc.constants["omega"] == pytest.approx(2.0, abs=1e-6)
    assert sc.constants["e0_norm"] == pytest.approx(0.0)


def test_arm_derived_constants():
    sc = build({"scenario": "el2dof-dob"})
    c = sc.constants
    # mu1 from the elbow sweep; inertia extremes at q2 = 0
    M0 = sc.el_system.mass(np.zeros(2))
    eigs = np.linalg.eigvalsh(M0)
    assert c["mu1"] == pytest.approx(1.0 / eigs[-1], rel=1e-4)
    assert c["mu2"] == pytest.approx(1.0 / eigs[0], rel=1e-4)
    # derivative bound below the triangle-inequality ceiling
    assert c["omega_d"] <= np.sqrt(2.0) * 69.0 + 1e-9
    assert c["omega_d"] >= 60.0
    # tau_d(0) = (5, 5): amplitude of the two cos terms
    assert c["e0_norm"] == pytest.approx(np.sqrt(50.0))


def test_arm_robust_dmax_derived():
    sc = build({"scenario": "el2dof-robust"})
    assert "d_max" in sc.constants
    sig = sc.disturbance
    grid = np.linspace(0.0, 20.0, 100001)
    norms = np.linalg.norm(np.stack([np.asarray(sig.value(t))
                                     for t in grid[::1000]]),
                           axis=1)
    assert sc.constants["d_max"] >= norms.max() - 1e-6


def test_validators_pass_for_defaults():
    # the observer-aware filters report their initial-state inequalities;
    # the robust baseline and the pass-through report none
    reporting = {"scalar-rel1", "doubleint-relr", "el2dof-dob", "el2dof-noomega"}
    for name in scenarios.SCENARIOS:
        sc = build({"scenario": name})
        rep = sc.validate()
        assert (rep is not None) == (name in reporting), name
        if rep is not None:
            assert rep.passed, (name, vars(rep))
        if name == "scalar-rel1":
            assert (rep.alpha_margin, rep.beta_margin) == (1.0, 1.0)
        elif name == "doubleint-relr":
            assert (rep.alpha_margin, rep.beta_margin) == (1.0, 0.5)
        elif name in reporting:
            assert rep.alpha_margin == pytest.approx(168.9320284103028, rel=1e-12)
            # 1 - e0^2/(2 h~(x0)) with e0^2 = 50 and h~ = 10 h_q(q0) = 57.5
            # at rest: the former beta - e0^2/(2 h_q(q0)) = 5.652... over beta
            assert rep.beta_margin == pytest.approx(0.5652173913043478, rel=1e-12)
            assert rep.beta_margin == pytest.approx(1.0 - 50.0 / 115.0, rel=1e-12)


def test_observer_certificate_is_exact():
    # the integrators' L_d g2 is alpha itself; the arm's is alpha1 M^-1(q),
    # whose extremes alpha1 mu1 = alpha and alpha1 mu2 sit at q2 = 0 and pi
    for name in scenarios.SCENARIOS:
        sc = build({"scenario": name})
        c, alpha = sc.constants, sc.observer_cfg.alpha
        lam_max = c["observer_step"] / (sc.simcfg.dt / sc.simcfg.substeps)
        if sc.el_system is None:
            assert c["coercivity_margin"] == 0.0, name
            assert lam_max == pytest.approx(alpha, rel=1e-12), name
        else:
            assert abs(c["coercivity_margin"]) <= 1e-12 * alpha, name
            assert lam_max == pytest.approx(500.0 * c["mu2"], rel=1e-12), name
        assert c["observer_step"] < scenarios.RK4_REAL_STABILITY


def test_arm_observer_above_its_coercivity_exits_2(tmp_path, monkeypatch,
                                                   capsys):
    # an observer that claims alpha 1% above alpha1 mu1 fails when built
    real = el.el_observer_config
    monkeypatch.setattr(el, "el_observer_config",
                        lambda alpha1, mu1, nu, omega:
                        real(alpha1, 1.01 * mu1, nu, omega))
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"scenario": "el2dof-dob"}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert "coercivity margin" in lines[0]


def test_build_and_validate_do_not_import_numpy_random():
    code = ("import sys\n"
            "from dobcbf import scenarios\n"
            "for name in ('el2dof-dob', 'doubleint-relr'):\n"
            "    scenarios.build({'scenario': name}).validate()\n"
            "print('numpy.random' in sys.modules)\n")
    src = str(Path(dobcbf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_certified_flags():
    assert not build({"scenario": "el2dof-nofilter"}).certified
    assert build({"scenario": "el2dof-dob"}).certified
    assert build({"scenario": "el2dof-dob"}).pairing_key == \
        build({"scenario": "el2dof-robust"}).pairing_key


def test_noomega_floor_defined():
    sc = build({"scenario": "el2dof-noomega"})
    assert sc.floor is not None
    assert sc.floor(0.0) == pytest.approx(0.0)
    assert sc.floor(100.0) < 0


@pytest.mark.parametrize("params", [{"nu": 1e-320},
                                    {"nu": 1e-320, "beta": 1e-300}])
def test_noomega_floor_at_a_subnormal_or_zero_scale(params):
    # 2 nu gamma beta is subnormal (nu alone) or 0 (nu and beta): the floor
    # is exactly 0 at t0 and -inf after, a true but vacuous bound, not NaN
    # at t0 or a ZeroDivisionError, and the run meets it
    sc = build({"scenario": "el2dof-noomega", "params": params,
                "sim": {"tf": 0.05}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sc.floor(np.array([0.0, 1e-3, 0.05])).tolist() == \
            [0.0, -math.inf, -math.inf]
        assert sc.floor(0.0) == 0.0
    log = sc.run()
    assert sc.check_invariants(log, sc.metrics(log)) == []


def test_check_invariants_fails_a_nan_floor_gap():
    sc = build({"scenario": "el2dof-noomega", "sim": {"tf": 0.05}})
    log = sc.run()
    summary = sc.metrics(log)
    assert sc.check_invariants(log, summary) == []
    nan_floor = dataclasses.replace(sc, floor=lambda t: np.full_like(t, np.nan))
    assert nan_floor.check_invariants(log, summary) == \
        ["barrier under floor by nan"]


def traced_peak(call):
    """call's result and the peak of the memory it traced, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_disturbance_bounds_build_no_grid(monkeypatch):
    # the 200 001-point grid alone takes 1.6 MB; max_norm holds a terms x
    # 4096 block of the arm's 8 terms at a time
    arm = build({"scenario": "el2dof-dob"}).disturbance
    bound, peak = traced_peak(lambda: scenarios.derivative_bound(arm, 0.0, 20.0))
    assert bound > 0.0
    assert peak < 1_000_000, peak
    # the double integrator's constant disturbance has zero derivative
    # weights: 0.0 at once, with no NumPy call and no array
    const = build({"scenario": "doubleint-relr"}).disturbance
    monkeypatch.setattr(simulate, "np", None)
    bound, peak = traced_peak(lambda: scenarios.derivative_bound(const, 0.0, 20.0))
    assert bound == 0.0
    assert peak < 2048, peak


def test_certificates_follow_the_start_time():
    # the envelope starts from e0 = ||d(t0)|| at t0, not at t = 0
    residuals = []
    for t0 in (0.0, 1.0):
        sc = build({"scenario": "doubleint-relr",
                    "sim": {"t0": t0, "tf": t0 + 1.0}})
        log = sc.run()
        summary = sc.metrics(log)
        assert sc.check_invariants(log, summary) == []
        residuals.append(summary["max_env_residual"])
    assert residuals[1] == pytest.approx(residuals[0], abs=1e-12)
    # so does the withheld-omega floor
    sc = build({"scenario": "el2dof-noomega", "sim": {"t0": 1.0, "tf": 2.0}})
    assert sc.floor(1.0) == pytest.approx(0.0)
    # the derived bound spans [t0, tf]: ddot = -2 sin t peaks at t = pi/2,
    # inside [1.2, 2.2] but outside [0, 1]
    sc = build({"scenario": "scalar-rel1", "sim": {"t0": 1.2, "tf": 2.2},
                "disturbance": [[{"amplitude": 2.0, "frequency": 1.0,
                                  "phase": math.pi / 2}]]})
    assert sc.constants["omega"] == pytest.approx(2.0, abs=1e-9)


def test_check_invariants_flags_unsafe_log():
    sc = build({"scenario": "scalar-rel1", "sim": {"tf": 1.0}})
    log = sc.run()
    summary = sc.metrics(log)
    assert sc.check_invariants(log, summary) == []
    summary_bad = dict(summary)
    summary_bad["min_h"] = -1.0
    assert sc.check_invariants(log, summary_bad)


def test_arm_mu_bounds_exact():
    # closed form: M(c) = [[a + l2 m2 c, b + l2 m2 c/2], [., d]] with c = cos q2
    # is affine in c, so the extreme eigenvalues sit at c = 1 or c = -1
    for m1, m2, l in ((1.0, 1.0, 1.0), (2.0, 0.5, 1.5)):
        l2 = l * l
        lam = []
        for c in (1.0, -1.0):
            a = m1 * l2 / 3.0 + 4.0 * m2 * l2 / 3.0 + m2 * l2 * c
            b = m2 * l2 / 3.0 + m2 * l2 / 2.0 * c
            d = m2 * l2 / 3.0
            r = math.hypot((a - d) / 2.0, b)
            lam += [(a + d) / 2.0 - r, (a + d) / 2.0 + r]
        arm = TwoLinkArm(m1=m1, m2=m2, l=l)
        mu1, mu2 = scenarios.arm_mu_bounds(arm.mass)
        assert mu1 == pytest.approx(1.0 / max(lam), rel=1e-14)
        assert mu2 == pytest.approx(1.0 / min(lam), rel=1e-14)
        # and they bound 1/eig(M) at sampled elbow angles, +-pi among them
        q2 = np.concatenate([np.linspace(-math.pi, math.pi, 2001),
                             np.random.default_rng(3).uniform(-4.0, 4.0, 500)])
        eigs = np.array([np.linalg.eigvalsh(arm.mass(np.array([0.7, v])))
                         for v in q2])
        assert mu1 <= (1.0 / eigs[:, 1]).min() + 1e-15
        assert mu2 >= (1.0 / eigs[:, 0]).max() - 1e-15
    # the former 10 000-point sweep gave 0.3408640637, above the exact value
    assert scenarios.arm_mu_bounds(TwoLinkArm().mass)[0] < 0.34086406


def test_arm_filter_is_built_from_the_scenario_observer():
    # el2dof-dob with nu = 2: the filter reads nu from the scenario's
    # observer, so its decisions are the hand values for nu = 2
    sc = build({"scenario": "el2dof-dob", "params": {"nu": 2.0}})
    assert sc.safety.observer is sc.observer_cfg and sc.observer_cfg.nu == 2.0
    # at rest only the omega term and gamma*beta*h_q survive:
    # -3^2/(2*2) + 2*10*5.75, against 111.0 for nu = 1
    rest = sc.safety.constraint(0.0, np.array([2.0, 2.5, 0.0, 0.0]),
                                np.zeros(2), np.zeros(2))
    assert rest.psi0 == pytest.approx(-9.0 / 4.0 + 2.0 * 10.0 * 5.75,
                                      rel=1e-14)
    # moving: the denominator is 4*alpha1*mu1 - 2*gamma - 2*nu with nu = 2
    arm = TwoLinkArm()
    q, qd, tau_hat = (1.0, -1.0), (0.5, 0.2), (4.0, -2.0)
    g0, g1 = arm.gravity(q)
    denom = 4.0 * 500.0 * sc.constants["mu1"] - 2.0 * 2.0 - 2.0 * 2.0
    expect = (10.0 * (0.5 * -2.0 + 0.2 * 2.0)
              - (0.5 * (4.0 - g0) + 0.2 * (-2.0 - g1))
              - 9.0 / 4.0
              - (0.5 ** 2 + 0.2 ** 2) / denom
              + 2.0 * (10.0 * 14.0 - kinetic_energy(arm, q, qd)))
    dec = sc.safety.constraint(0.0, np.array(q + qd), np.zeros(2),
                               np.array(tau_hat))
    assert dec.psi0 == pytest.approx(expect, rel=1e-14)


def test_arm_scenarios_check_only_the_tuning_their_filter_reads():
    # constraint_omega enters only the observer-aware energy filter
    bad = {"params": {"constraint_omega": -1.0}}
    for name in ("el2dof-nofilter", "el2dof-robust"):
        assert build({"scenario": name, **bad}).name == name
    with pytest.raises(ConfigError):
        build({"scenario": "el2dof-dob", **bad})


def test_config_numbers_must_be_finite_numbers(tmp_path, capsys):
    arm, dint = "el2dof-dob", "doubleint-relr"
    for name, bad in ((arm, {"params": {"kp": float("nan")}}),
                      (arm, {"sim": {"tf": "abc"}}),
                      (arm, {"sim": {"log_stride": 1.5}}),
                      (arm, {"params": {"gravity_comp": "yes"}}),
                      (arm, {"initial_state": [1.0, None, 0.0, 0.0]}),
                      (arm, {"initial_state": [0.0, 0.0, 0.0]}),
                      (arm, {"disturbance": [[{"amplitude": "x",
                                               "frequency": 1.0}]]}),
                      (arm, {"disturbance": [[{"amplitude": 1.0}]] * 2}),
                      (dint, {"params": {"poles": [1.0, float("inf")]}})):
        assert_config_error({"scenario": name, **bad}, tmp_path, capsys)
    cfg = resolve_config({"scenario": arm, "sim": {"tf": 2, "dt": "1e-3"}})
    assert cfg["sim"]["tf"] == 2.0 and isinstance(cfg["sim"]["tf"], float)
    assert cfg["sim"]["dt"] == 1e-3


def test_terms_are_checked_not_filled_and_defaults_stay_fresh():
    # a term inside the disturbance list keeps the keys it was given
    cfg = resolve_config({"scenario": "scalar-rel1",
                          "disturbance": [[{"amplitude": 1, "frequency": 1}]]})
    term = cfg["disturbance"][0][0]
    assert term == {"amplitude": 1.0, "frequency": 1.0}
    assert type(term["amplitude"]) is float
    # writing into one resolved config leaves the next one at the defaults
    for name in scenarios.SCENARIOS:
        expected = yaml.safe_dump(resolve_config({"scenario": name}))
        used = resolve_config({"scenario": name})
        used["initial_state"].append(9.0)
        used["disturbance"].append([])
        used["disturbance"][0].append({"amplitude": 9.0, "frequency": 9.0})
        used["disturbance"][0][0]["phase"] = 9.0
        used["params"]["nu"] = 9.0
        assert yaml.safe_dump(resolve_config({"scenario": name})) == expected


def test_disturbance_channels_must_match_the_plant():
    term = {"amplitude": 1.0, "frequency": 1.0}
    for name in scenarios.SCENARIOS:
        p = 2 if name.startswith("el2dof") else 1
        for channels in {0, p - 1, p + 1}:
            with pytest.raises(ConfigError):
                build({"scenario": name, "sim": {"tf": 0.1},
                       "disturbance": [[term]] * channels})
        assert build({"scenario": name, "sim": {"tf": 0.1},
                      "disturbance": [[term]] * p}).system.p == p


def test_constant_plant_matrices_are_shared_and_read_only():
    # the scalar and double-integrator plants' callbacks and barrier chains
    # return each value that does not depend on the state as one tuple, the
    # same object for g1 and g2 and for the two mixed derivatives, which
    # evaluate and the filter's constraint pass on after their checks; a
    # tuple cannot be written into
    x = {"scalar-rel1": np.array([0.3]), "doubleint-relr": np.array([0.3, -0.2])}
    for name in ("scalar-rel1", "doubleint-relr"):
        sc = build({"scenario": name})
        sys, bar = sc.system, sc.safety.barrier
        plant = [sys.g1, sys.g2, lambda x: bar.chain(x)[1],
                 lambda x: bar.chain(x)[2]]
        if name == "scalar-rel1":
            plant.append(sys.f)
        for fn in plant:
            out = fn(x[name])
            assert type(out) is tuple and out is fn(-x[name])
        assert sys.g1(x[name]) is sys.g2(x[name])
        _, lg1, lg2 = bar.chain(x[name])
        assert lg1 is lg2
        with pytest.raises(TypeError):
            lg1[0] = 5.0
        fx, G1, G2 = sys.evaluate(x[name])
        assert G1 is G2 is sys.g1(x[name])
        assert sc.safety.constraint(0.0, x[name], [0.0], [0.0]).psi1 is lg1
