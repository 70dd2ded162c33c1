import math

import numpy as np
import pytest

import dobcbf.scenarios as scenarios
from dobcbf.el import TwoLinkArm, kinetic_energy
from dobcbf.scenarios import ConfigError, build, resolve_config


def test_all_scenarios_build():
    for name in scenarios.SCENARIOS:
        sc = build({"scenario": name})
        assert sc.name == name
        assert sc.simcfg.tf == 20.0


def test_unknown_scenario_and_keys_rejected():
    with pytest.raises(ConfigError):
        build({"scenario": "nope"})
    with pytest.raises(ConfigError):
        build({"scenario": "scalar-rel1", "params": {"bogus_key": 1.0}})
    with pytest.raises(ConfigError):
        build({"scenario": "scalar-rel1", "toplevel_bogus": 1.0})


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
    norms = np.linalg.norm(np.stack([sig.value(t) for t in grid[::1000]]),
                           axis=1)
    assert sc.constants["d_max"] >= norms.max() - 1e-6


def test_validators_pass_for_defaults():
    for name in scenarios.SCENARIOS:
        sc = build({"scenario": name})
        for key, rep in sc.validate().items():
            assert rep.passed, (name, key, vars(rep))


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
        arm = TwoLinkArm(m1=m1, m2=m2, l=l).system()
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
    assert scenarios.arm_mu_bounds(TwoLinkArm().system().mass)[0] < 0.34086406


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
    arm = TwoLinkArm().system()
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


def test_config_numbers_must_be_finite_numbers():
    arm, dint = "el2dof-dob", "doubleint-relr"
    for name, bad in ((arm, {"params": {"kp": float("nan")}}),
                      (arm, {"sim": {"tf": "abc"}}),
                      (arm, {"sim": {"log_stride": 1.5}}),
                      (arm, {"params": {"gravity_comp": "yes"}}),
                      (arm, {"initial_state": [1.0, None, 0.0, 0.0]}),
                      (arm, {"initial_state": [0.0, 0.0, 0.0]}),
                      (arm, {"disturbance": [[{"amplitude": "x",
                                               "frequency": 1.0}]]}),
                      (dint, {"params": {"poles": [1.0, float("inf")]}})):
        with pytest.raises(ConfigError):
            build({"scenario": name, **bad})
    cfg = resolve_config({"scenario": arm, "sim": {"tf": 2, "dt": "1e-3"}})
    assert cfg["sim"]["tf"] == 2.0 and isinstance(cfg["sim"]["tf"], float)
    assert cfg["sim"]["dt"] == 1e-3


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
    # the scalar and double-integrator callbacks whose value does not depend
    # on the state return one read-only array, which evaluate passes on after
    # its checks; writing into it raises
    x = {"scalar-rel1": np.array([0.3]), "doubleint-relr": np.array([0.3, -0.2])}
    for name in ("scalar-rel1", "doubleint-relr"):
        sc = build({"scenario": name})
        sys, bar = sc.system, sc.safety.barrier
        callbacks = [sys.g1, sys.g2, bar.lie_g1_fr, bar.lie_g2_fr]
        if name == "scalar-rel1":
            callbacks.append(sys.f)
        for fn in callbacks:
            out = fn(x[name])
            assert out is fn(-x[name]) and not out.flags.writeable
            with pytest.raises(ValueError):
                out[(0,) * out.ndim] = 5.0
        fx, G1, G2 = sys.evaluate(x[name])
        assert G1 is sys.g1(x[name]) and G2 is sys.g2(x[name])
        with pytest.raises(ValueError):
            G1[0, 0] = 5.0
