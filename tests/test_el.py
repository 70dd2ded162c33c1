import math

import numpy as np
import pytest

from dobcbf.el import (ELFilterParams, ELQpFilter, ELRobustFilter, ELSystem,
                       TwoLinkArm, arm_derivative, el_observer_config,
                       guarded_decision, kinetic_energy, pd_nominal,
                       to_control_affine, validate_el_params)
from dobcbf.model import ControlAffineSystem, ParameterError
from dobcbf.observer import ObserverState, estimate
from dobcbf.scenarios import ConfigError, build
from oracles import el_accel, z_derivative


ARM = TwoLinkArm().system()


def el_estimate(alpha1, z, qd):
    """Oracle: the mechanical observer's estimate z + alpha1 * qdot."""
    return np.asarray(z, dtype=float) + alpha1 * np.asarray(qd, dtype=float)


def el_dob_rhs(sys, alpha1, z, q, qd, tau):
    """Oracle: the mechanical observer's state derivative, written directly
    from the equations of motion."""
    inner = z + alpha1 * qd - sys.coriolis(q, qd) @ qd - sys.gravity(q) + tau
    return -alpha1 * np.linalg.solve(sys.mass(q), inner)


def test_arm_matrices_at_reference_configuration():
    M0 = ARM.mass(np.zeros(2))
    assert np.allclose(M0, [[8.0 / 3.0, 5.0 / 6.0],
                            [5.0 / 6.0, 1.0 / 3.0]])
    G0 = ARM.gravity(np.zeros(2))
    # (m1/2 + m2/2 + m2) g and m2 g / 2 with unit masses and length
    assert np.allclose(G0, [2.0 * 9.81, 9.81 / 2.0])
    C0 = ARM.coriolis(np.zeros(2), np.array([1.0, 1.0]))
    assert np.allclose(C0, 0.0)  # sin(q2) = 0


def test_mass_matrix_spd_over_configurations():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, 2)
        eigs = np.linalg.eigvalsh(ARM.mass(q))
        assert eigs[0] > 0


def test_skew_symmetry_mdot_minus_2c():
    # v' (Mdot - 2C) v = 0 for all v, with Mdot by central finite differences
    rng = np.random.default_rng(1)
    eps = 1e-6
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, 2)
        qd = rng.uniform(-5.0, 5.0, 2)
        v = rng.standard_normal(2)
        Mdot = (np.asarray(ARM.mass(q + eps * qd))
                - np.asarray(ARM.mass(q - eps * qd))) / (2 * eps)
        S = Mdot - 2.0 * np.asarray(ARM.coriolis(q, qd))
        quad = float(v @ S @ v)
        assert abs(quad) <= 1e-6 * (1 + np.linalg.norm(qd)) * float(v @ v)


def test_energy_identity_along_free_motion():
    # without gravity and external torques, kinetic energy is conserved
    arm = TwoLinkArm(g_accel=0.0).system()
    q = np.array([0.3, -0.8])
    qd = np.array([1.0, -2.0])
    dt = 1e-4
    e0 = kinetic_energy(arm, q, qd)
    for _ in range(2000):
        # RK4 on the mechanical state
        def rhs(y):
            qq, vv = y[:2], y[2:]
            return np.concatenate([vv, el_accel(arm, qq, vv,
                                                np.zeros(2), np.zeros(2))])
        y = np.concatenate([q, qd])
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        q, qd = y[:2], y[2:]
    assert kinetic_energy(arm, q, qd) == pytest.approx(e0, rel=1e-6)


def test_el_accel_matches_equations_of_motion():
    q = np.array([0.5, -1.0])
    qd = np.array([2.0, 1.0])
    tau = np.array([3.0, -1.0])
    tau_d = np.array([0.5, 0.5])
    qdd = el_accel(ARM, q, qd, tau, tau_d)
    lhs = ARM.mass(q) @ qdd + ARM.coriolis(q, qd) @ qd + ARM.gravity(q)
    assert np.allclose(lhs, tau + tau_d, atol=1e-12)


def test_el_estimate_and_dob_rhs_consistency():
    # when the estimate equals the true disturbance and the plant follows the
    # model, the estimate derivative tracks nothing (fixed point at tau_d
    # constant): zdot = -alpha1 * qddot must hold
    alpha1 = 50.0
    q = np.array([0.2, 0.1])
    qd = np.array([1.0, -0.5])
    tau = np.array([1.0, 2.0])
    tau_d = np.array([3.0, -1.0])
    z = tau_d - alpha1 * qd
    assert np.allclose(el_estimate(alpha1, z, qd), tau_d)
    zdot = el_dob_rhs(ARM, alpha1, z, q, qd, tau)
    qdd = el_accel(ARM, q, qd, tau, tau_d)
    assert np.allclose(zdot, -alpha1 * qdd, atol=1e-10)


def test_el_observer_config_equivalent_to_dedicated_rhs():
    # the generic observer on the embedded plant must reproduce el_dob_rhs
    alpha1 = 120.0
    sys_ca = to_control_affine(ARM)
    cfg = el_observer_config(alpha1, mu1=0.3, nu=1.0, omega=0.0)
    q = np.array([0.4, -0.2])
    qd = np.array([0.7, 1.1])
    x = np.concatenate([q, qd])
    z = np.array([0.3, -0.6])
    tau = np.array([2.0, -3.0])
    zdot_generic = z_derivative(cfg, ObserverState(z), sys_ca, x, tau)
    zdot_el = el_dob_rhs(ARM, alpha1, z, q, qd, tau)
    assert np.allclose(zdot_generic, zdot_el, atol=1e-10)
    # and the estimates agree
    assert np.allclose(estimate(cfg, ObserverState(z), x),
                       el_estimate(alpha1, z, qd))


def test_el_observer_integral_is_alpha1_qdot_bit_for_bit():
    # p(x) = L_d x with L_d = [0 | alpha1 I] adds exact zeros to alpha1*qdot
    alpha1 = 500.0
    cfg = el_observer_config(alpha1, mu1=0.3, nu=1.0, omega=0.0)
    rng = np.random.default_rng(11)
    states = np.hstack([rng.uniform(-math.pi, math.pi, size=(200, 2)),
                        rng.uniform(-8.0, 8.0, size=(200, 2))])
    for x in states:
        assert cfg.integral_at(x).tobytes() == (alpha1 * x[2:]).tobytes()


def el_row(filt, q, qd, tau_hat):
    dec = filt.constraint(0.0, np.concatenate([q, qd]), np.zeros(2), tau_hat)
    return dec.psi0, dec.psi1


def test_el_psi_hand_computed_at_rest():
    obs = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    fp = ELFilterParams(beta=10.0, gamma=2.0, omega=3.0)
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    q = np.array([2.0, 2.5])
    psi0, psi1 = el_row(ELQpFilter(ARM, h_q, grad, obs, fp), q, np.zeros(2),
                        np.zeros(2))
    # at rest only the omega term and gamma*beta*h_q survive
    assert psi0 == pytest.approx(-9.0 / 2.0 + 2.0 * 10.0 * 5.75)
    assert np.allclose(psi1, 0.0)


def test_el_psi_power_terms():
    obs = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    fp = ELFilterParams(beta=10.0, gamma=2.0, omega=0.0)
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    q = np.array([1.0, -1.0])
    qd = np.array([0.5, 0.2])
    tau_hat = np.array([4.0, -2.0])
    psi0, psi1 = el_row(ELQpFilter(ARM, h_q, grad, obs, fp), q, qd, tau_hat)
    denom = 4.0 * obs.alpha - 2.0 * fp.gamma - 2.0 * obs.nu
    expect = (10.0 * float(qd @ grad(q))
              - float(qd @ (tau_hat - ARM.gravity(q)))
              - float(qd @ qd) / denom
              + 2.0 * (10.0 * h_q(q) - kinetic_energy(ARM, q, qd)))
    assert psi0 == pytest.approx(expect)
    assert np.allclose(psi1, -qd)


def test_el_robust_psi_is_worst_case():
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    q = np.array([1.0, 0.5])
    qd = np.array([1.0, -2.0])
    d_max = 5.0
    psi0_rob, _ = el_row(ELRobustFilter(ARM, h_q, grad, 10.0, 2.0, d_max),
                         q, qd, np.zeros(2))
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = rng.standard_normal(2)
        d *= d_max * rng.uniform() / np.linalg.norm(d)
        # oracle: exact power balance with perfect knowledge of tau_d = d
        exact = (10.0 * float(qd @ grad(q)) - float(qd @ (d - ARM.gravity(q)))
                 + 2.0 * (10.0 * h_q(q) - kinetic_energy(ARM, q, qd)))
        assert psi0_rob <= exact + 1e-9


def test_pd_nominal():
    Kp = np.diag([200.0, 200.0])
    Kd = np.diag([35.0, 35.0])
    tau = pd_nominal(Kp, Kd, np.zeros(2), np.zeros(2),
                     np.ones(2), np.ones(2))
    assert np.allclose(tau, [235.0, 235.0])
    g = np.array([1.0, 2.0])
    tau_g = pd_nominal(Kp, Kd, np.zeros(2), np.zeros(2), np.ones(2),
                       np.ones(2), gravity=g)
    assert np.allclose(tau_g, [236.0, 237.0])
    # the gains are checked once, where a scenario configures them
    for bad in ({"kp": -1.0}, {"kd": 0.0}):
        with pytest.raises(ConfigError):
            build({"scenario": "el2dof-dob", "params": bad})


def test_singularity_guard_cases():
    fp = ELFilterParams(beta=10.0, gamma=2.0, eps_singular=1e-3)
    qd = np.array([0.5, 0.0])
    dec = guarded_decision(fp.eps_singular, qd, -1.0, -qd)
    assert not dec.bypass and dec.event is None
    assert dec.psi0 == -1.0 and np.array_equal(dec.psi1, -qd)
    dec = guarded_decision(fp.eps_singular, np.zeros(2), 1.0, np.zeros(2))
    assert dec.bypass and dec.event is None
    dec = guarded_decision(fp.eps_singular, np.zeros(2), -1.0, np.zeros(2))
    assert dec.bypass and dec.event == "singular_infeasible"
    # just below and at the threshold
    assert guarded_decision(1e-3, np.array([0.0, 0.999e-3]), 1.0, -qd).bypass
    assert not guarded_decision(1e-3, np.array([0.0, 1e-3]), 1.0, -qd).bypass


def test_validate_el_params():
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2  # h_q((2, 2.5)) = 5.75
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    x0 = np.array([2.0, 2.5, 0.0, 0.0])
    obs = el_observer_config(500.0, mu1=0.34, nu=1.0, omega=0.0)
    fp = ELFilterParams(beta=10.0, gamma=2.0)
    filt = ELQpFilter(ARM, h_q, grad, obs, fp)
    rep = validate_el_params(filt, x0, e0_norm=math.sqrt(50.0))
    assert rep.passed and rep.cascade_ok
    # alpha and nu are the observer's: 500*0.34 - (2 + 1)/2
    assert rep.alpha_margin == pytest.approx(168.5)
    # beta exactly at the bound fails the strict inequality
    need = 50.0 / (2 * 5.75)
    fp_eq = ELFilterParams(beta=need, gamma=2.0)
    rep_eq = validate_el_params(ELQpFilter(ARM, h_q, grad, obs, fp_eq), x0,
                                e0_norm=math.sqrt(50.0))
    assert not rep_eq.beta_ok
    # an initial position outside the safe set, h_q((3, 3)) = -2
    out = validate_el_params(filt, np.array([3.0, 3.0, 0.0, 0.0]), 0.0)
    assert not out.cascade_ok and not out.beta_ok and not out.passed


def test_to_control_affine_embedding():
    sys_ca = to_control_affine(ARM)
    qd = np.array([-1.0, 0.5])
    tau = np.array([1.0, -2.0])
    tau_d = np.array([0.2, 0.4])
    # a generic elbow angle and the two where the inertia is extreme
    for q2 in (0.9, 0.0, math.pi):
        q = np.array([0.3, q2])
        x = np.concatenate([q, qd])
        fx, G1, G2 = sys_ca.evaluate(x)
        xdot = fx + G1 @ tau + G2 @ tau_d
        assert np.allclose(xdot[:2], qd)
        assert np.allclose(xdot[2:], el_accel(ARM, q, qd, tau, tau_d),
                           atol=1e-12)


def test_el_filter_object_guard_path():
    obs = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    fp = ELFilterParams(beta=10.0, gamma=2.0, eps_singular=1e-3)
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    filt = ELQpFilter(ARM, h_q, grad, obs, fp)
    x_rest = np.array([2.0, 2.5, 0.0, 0.0])
    dec = filt.constraint(0.0, x_rest, np.zeros(2), np.zeros(2))
    assert dec.bypass
    x_moving = np.array([2.0, 2.5, 1.0, 0.0])
    dec = filt.constraint(0.0, x_moving, np.zeros(2), np.zeros(2))
    assert not dec.bypass
    probe = filt.probe(x_rest, np.array([1.0, 0.0]))
    assert probe["h"] == pytest.approx(5.75)
    assert probe["hbar"] == pytest.approx(10.0 * 5.75 - 0.5)


def test_el_filters_check_tuning_when_built():
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    # 4*alpha1*mu1 - 2*gamma - 2*nu = 4*5*0.3 - 4 - 2 = 0: no constraint
    obs = el_observer_config(5.0, mu1=0.3, nu=1.0, omega=0.0)
    fp = ELFilterParams(beta=10.0, gamma=2.0)
    with pytest.raises(ParameterError):
        ELQpFilter(ARM, h_q, grad, obs, fp)
    # the robust baseline does not use the observer gain, and checks its
    # own beta, gamma, eps_singular and d_max
    ELRobustFilter(ARM, h_q, grad, 10.0, 2.0, 0.0)
    for beta, gamma, d_max, eps in ((10.0, 2.0, -1.0, 1e-4),
                                    (0.0, 2.0, 1.0, 1e-4),
                                    (-1.0, 2.0, 1.0, 1e-4),
                                    (10.0, 0.0, 1.0, 1e-4),
                                    (10.0, -2.0, 1.0, 1e-4),
                                    (10.0, 2.0, 1.0, 0.0),
                                    (10.0, 2.0, 1.0, -1e-4)):
        with pytest.raises(ParameterError):
            ELRobustFilter(ARM, h_q, grad, beta, gamma, d_max,
                           eps_singular=eps)


def test_terms_read_a_list_and_an_array_alike():
    terms = to_control_affine(ARM).terms
    rng = np.random.default_rng(3)
    for x in rng.uniform(-4.0, 4.0, size=(50, 4)):
        f_arr, B_arr, _ = terms(x)
        f_list, B_list, G2 = terms(x.tolist())
        assert G2 is B_list
        assert f_list.tobytes() == f_arr.tobytes()
        assert B_list.tobytes() == B_arr.tobytes()


def test_to_control_affine_rejects_singular_inertia():
    # det M = sin(q2)^2/4 - 1e-12 for this arm: negative at q2 = 0
    arm = TwoLinkArm(m1=9.0 * (0.25 - 1.0 / 3.0 - 1e-12)).system()
    sys_ca = to_control_affine(arm)
    # the message shows q as plain floats, from an array as from a list
    for x in (np.array([0.3, 0.0, 1.0, -1.0]), [0.3, 0.0, 1.0, -1.0]):
        with pytest.raises(ParameterError, match=r"not positive definite "
                           r"at q = \(0\.3, 0\.0\)$"):
            sys_ca.evaluate(x)
    singular = ELSystem(mass=lambda q: np.ones((2, 2)),
                        coriolis=ARM.coriolis, gravity=ARM.gravity)
    with pytest.raises(ParameterError):
        to_control_affine(singular).evaluate(np.zeros(4))


def test_arm_derivative_matches_equations_of_motion_and_observer():
    # the float kernel against np.linalg.solve on the equations of motion
    # and the observer's -L_d (f + g1 u + g2 d_hat), including the elbow
    # angles where the inertia is extreme
    sys_ca = to_control_affine(ARM)
    cfg = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    rng = np.random.default_rng(7)
    n = 200
    q = rng.uniform(-math.pi, math.pi, size=(n, 2))
    q[0::4, 1], q[1::4, 1] = 0.0, math.pi
    qd = rng.uniform(-8.0, 8.0, size=(n, 2))
    z = rng.uniform(-5000.0, 5000.0, size=(n, 2))
    u = rng.uniform(-300.0, 300.0, size=(n, 2))
    d = rng.uniform(-30.0, 30.0, size=(n, 2))
    for i in range(n):
        rhs, hold = arm_derivative(sys_ca, cfg, lambda t, di=d[i]: di)
        hold(u[i])
        out = rhs(0.0, np.concatenate([q[i], qd[i], z[i]]).tolist())
        assert type(out) is tuple and len(out) == 6
        dy = np.array(out)
        assert np.array_equal(dy[:2], qd[i])
        accel = el_accel(ARM, q[i], qd[i], u[i], d[i])
        assert np.linalg.norm(dy[2:4] - accel) <= 1e-13 * np.linalg.norm(accel)
        zdot = z_derivative(cfg, ObserverState(z[i]), sys_ca,
                            np.concatenate([q[i], qd[i]]), u[i])
        assert np.linalg.norm(dy[4:] - zdot) <= 1e-13 * np.linalg.norm(zdot)


def test_arm_derivative_needs_the_arm_shapes():
    cfg = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    scalar = ControlAffineSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1),
                                 g1=lambda x: np.eye(1), g2=lambda x: np.eye(1))
    with pytest.raises(ParameterError):
        arm_derivative(scalar, cfg, lambda t: np.zeros(1))
    # a 4/2/2 plant built without `terms`, whose disturbance matrix is not
    # its input matrix, has the right shapes but a g2 the kernel cannot use
    arm = to_control_affine(ARM)
    other = ControlAffineSystem(n=4, m=2, p=2, f=arm.f, g1=arm.g1,
                                g2=lambda x: 2.0 * arm.g1(x))
    rhs, _ = arm_derivative(other, cfg, lambda t: np.ones(2))
    with pytest.raises(ParameterError):
        rhs(0.0, [0.3, 0.9, 1.0, -1.0, 0.0, 0.0])
