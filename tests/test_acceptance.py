"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line for its criterion.  Long-horizon runs
are shared across criteria through module-scoped fixtures, so the whole
battery costs a handful of 20 s simulations.
"""

import numpy as np
import pytest

import dobcbf.scenarios as scenarios
from dobcbf import qp
from dobcbf.el import TwoLinkArm, kinetic_energy
from dobcbf.simulate import rk4_step
from oracles import brute_force, el_accel

SAFETY_TOL = 1e-6


def verdict(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def run_scenario(overrides):
    sc = scenarios.build(overrides)
    log = sc.run()
    return sc, log, sc.metrics(log)


@pytest.fixture(scope="module")
def dob_run():
    return run_scenario({"scenario": "el2dof-dob"})


@pytest.fixture(scope="module")
def robust_run():
    return run_scenario({"scenario": "el2dof-robust"})


@pytest.fixture(scope="module")
def nofilter_run():
    return run_scenario({"scenario": "el2dof-nofilter"})


@pytest.fixture(scope="module")
def noomega_run():
    return run_scenario({"scenario": "el2dof-noomega"})


def test_criterion_1_rel1_invariance():
    # battery: the default sinusoidal disturbance and a constant one
    configs = [
        {"scenario": "scalar-rel1"},
        {"scenario": "scalar-rel1",
         "disturbance": [[{"amplitude": 1.2, "frequency": 0.0,
                           "phase": 0.0, "waveform": "cos"}]]},
        {"scenario": "scalar-rel1",
         "disturbance": [[{"amplitude": -2.0, "frequency": 0.0,
                           "phase": 0.0, "waveform": "cos"}]],
         "initial_state": [3.0]},
        {"scenario": "scalar-rel1",
         "disturbance": [[{"amplitude": -0.5, "frequency": 0.0,
                           "phase": 0.0, "waveform": "cos"}]],
         "initial_state": [0.25]},
    ]
    ok = True
    for cfg in configs:
        sc, log, m = run_scenario(cfg)
        # certified means the theorem preconditions actually hold
        ok &= all(rep.passed for rep in sc.validate().values())
        ok &= sc.certified and m["min_h"] >= -SAFETY_TOL and not log.aborted
        ok &= not sc.check_invariants(log, m)
    verdict(1, "relative-degree-1 invariance", ok)


def test_criterion_2_high_order_invariance():
    sc, log, m = run_scenario({"scenario": "doubleint-relr"})
    min_s1 = float(log.column("s1").min())
    ok = (m["min_h"] >= -SAFETY_TOL and min_s1 >= -SAFETY_TOL
          and not sc.check_invariants(log, m))
    verdict(2, "high-order invariance", ok)


def test_criterion_3_arm_invariance_and_unfiltered_violation(dob_run,
                                                             nofilter_run):
    sc, log, m = dob_run
    _, _, m_nf = nofilter_run
    ok = (m["min_h"] >= -SAFETY_TOL
          and not sc.check_invariants(log, m)
          and m_nf["min_h"] < -1.0)
    verdict(3, "arm invariance, filter load-bearing", ok)


def test_criterion_4_conservatism_comparison(dob_run, robust_run):
    _, _, m_dob = dob_run
    _, _, m_rob = robust_run
    ok = (m_dob["min_h"] < m_rob["min_h"]
          and m_dob["tracking_rmse"] < m_rob["tracking_rmse"]
          and m_dob["min_h"] >= -SAFETY_TOL
          and m_rob["min_h"] >= -SAFETY_TOL)
    verdict(4, "observer filter less conservative than worst-case", ok)


def test_criterion_5_observer_envelope(dob_run, robust_run, noomega_run):
    ok = True
    for _, _, m in (dob_run, robust_run, noomega_run):
        ok &= m["max_env_residual"] <= 1e-3
    for cfg in ({"scenario": "scalar-rel1"}, {"scenario": "doubleint-relr"}):
        _, _, m = run_scenario(cfg)
        ok &= m["max_env_residual"] <= 1e-3
    # constant disturbance: envelope reduces to pure exponential decay at
    # rate kappa, and the simulated error must follow it
    sc, log, m = run_scenario(
        {"scenario": "scalar-rel1",
         "disturbance": [[{"amplitude": 1.5, "frequency": 0.0,
                           "phase": 0.0, "waveform": "cos"}]]})
    t = log.column("t")
    e = log.column("e_norm")
    kappa = sc.observer_cfg.kappa
    decay = sc.constants["e0_norm"] * np.exp(-kappa * t)
    ok &= float(np.max(e - decay)) <= 1e-3
    verdict(5, "estimation-error envelope", ok)


def test_criterion_6_estimate_convergence(dob_run):
    sc, log, _ = dob_run
    t = log.column("t")
    e = log.column("e_norm")
    mask = t >= 2.0
    avg = float(np.mean(e[mask]))
    kappa, nu = sc.observer_cfg.kappa, sc.observer_cfg.nu
    ub = sc.observer_cfg.omega / np.sqrt(2.0 * kappa * nu)
    verdict(6, "estimate converges to ultimate bound", avg <= ub + 1e-3)


def test_criterion_7_qp_oracle_equivalence():
    rng = np.random.default_rng(42)
    width = 6.0
    grid_points = 121
    spacing = 2 * width / (grid_points - 1)
    ok = True
    checked = 0
    for _ in range(1000):
        m = int(rng.integers(1, 3))
        inst = qp.QpInstance(u_nom=rng.uniform(-2, 2, m),
                             psi0=rng.uniform(-3, 3),
                             psi1=rng.uniform(-2, 2, m))
        res = qp.solve(inst)
        # KKT residuals are exactly checkable
        slack = inst.psi0 + float(inst.psi1 @ res.u)
        if res.status == qp.INACTIVE:
            ok &= np.allclose(res.u, inst.u_nom) and slack >= -1e-9
        elif res.status == qp.ACTIVE:
            ok &= abs(slack) <= 1e-9
            dev = res.u - inst.u_nom
            lam = float(dev @ inst.psi1) / float(inst.psi1 @ inst.psi1)
            ok &= lam >= -1e-12
            ok &= float(np.max(np.abs(dev - lam * inst.psi1))) <= 1e-9
        if res.status == qp.INFEASIBLE or np.max(np.abs(res.u)) > width - spacing:
            continue
        ref = brute_force(inst, box_halfwidth=width, grid_points=grid_points)
        ok &= ref is not None
        d_closed = float(np.linalg.norm(res.u - inst.u_nom))
        d_grid = float(np.linalg.norm(ref - inst.u_nom))
        ok &= -1e-12 <= d_grid - d_closed <= 2 * spacing
        checked += 1
    ok &= checked >= 500  # the box must actually exercise the oracle
    verdict(7, "QP closed form vs brute force + KKT", ok)


def test_criterion_8_violation_floor(noomega_run):
    sc, log, _ = noomega_run
    t = log.column("t")
    h = log.column("h")
    gap = float(np.min(h - sc.floor(t)))
    verdict(8, "barrier stays above quantified floor", gap >= -1e-4)


def test_criterion_9_model_identities():
    arm = TwoLinkArm().system()
    rng = np.random.default_rng(9)
    eps = 1e-6
    ok = True
    for _ in range(10000):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-8.0, 8.0, 2)
        v = rng.standard_normal(2)
        Mdot = (np.asarray(arm.mass(q + eps * qd))
                - np.asarray(arm.mass(q - eps * qd))) / (2 * eps)
        S = Mdot - 2.0 * np.asarray(arm.coriolis(q, qd))
        ok &= abs(float(v @ S @ v)) <= 1e-6 * (1 + np.linalg.norm(qd)) * float(v @ v)
    # energy identity: total energy conserved along unforced motion
    g = 9.81

    def potential(q):
        return (0.5 * g * np.sin(q[0]) + 0.5 * g * np.sin(q[0] + q[1])
                + g * np.sin(q[0]))

    y = np.array([0.4, -0.9, 1.0, -1.5])
    e0 = kinetic_energy(arm, y[:2], y[2:]) + potential(y[:2])
    rhs = lambda t, s: np.concatenate(
        [s[2:], el_accel(arm, s[:2], s[2:], np.zeros(2), np.zeros(2))])
    dt = 1e-4
    for k in range(20000):  # 2 s of free swing
        y = rk4_step(rhs, k * dt, y, dt)
        e = kinetic_energy(arm, y[:2], y[2:]) + potential(y[:2])
        ok &= abs(e - e0) <= 1e-3 * max(1.0, abs(e0))
    verdict(9, "skew-symmetry and energy identity", ok)


def test_criterion_10_numerical_hygiene(dob_run, tmp_path):
    _, _, m_full = dob_run
    _, _, m_half = run_scenario({"scenario": "el2dof-dob",
                                 "sim": {"dt": 5e-4, "log_stride": 20}})
    step_ok = abs(m_full["min_h"] - m_half["min_h"]) <= 1e-4
    # identical configs -> byte-identical trajectory files
    sc_a = scenarios.build({"scenario": "el2dof-dob", "sim": {"tf": 1.0}})
    sc_b = scenarios.build({"scenario": "el2dof-dob", "sim": {"tf": 1.0}})
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    sc_a.run().to_csv(pa)
    sc_b.run().to_csv(pb)
    repro_ok = pa.read_bytes() == pb.read_bytes()
    verdict(10, "step-halving stability and bitwise reproducibility",
            step_ok and repro_ok)
