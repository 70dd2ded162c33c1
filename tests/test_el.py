import math

import numpy as np
import pytest

from dobcbf.el import (TwoLinkArm, arm_derivative, el_observer_config,
                       pd_nominal)
from dobcbf.filters import QpFilter
from dobcbf.model import ControlAffineSystem, ParameterError
from dobcbf.observer import ObserverConfig, ObserverState, estimate
from dobcbf.scenarios import ConfigError, build
from dobcbf.simulate import joint_derivative
from oracles import (PerTermArm, arm_terms_arrays, el_accel, kinetic_energy,
                     per_term, to_control_affine, z_derivative)


ARM = TwoLinkArm()
#: the same arm as one callback per term, Coriolis included, for the oracles
EOM = per_term(TwoLinkArm())
PLANT = TwoLinkArm().plant()


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
    C0 = EOM.coriolis(np.zeros(2), np.array([1.0, 1.0]))
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
        S = Mdot - 2.0 * np.asarray(EOM.coriolis(q, qd))
        quad = float(v @ S @ v)
        assert abs(quad) <= 1e-6 * (1 + np.linalg.norm(qd)) * float(v @ v)


def test_energy_identity_along_free_motion():
    # without gravity and external torques, kinetic energy is conserved
    arm = per_term(TwoLinkArm(g_accel=0.0))
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
    qdd = el_accel(EOM, q, qd, tau, tau_d)
    lhs = EOM.mass(q) @ qdd + EOM.coriolis(q, qd) @ qd + EOM.gravity(q)
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
    zdot = el_dob_rhs(EOM, alpha1, z, q, qd, tau)
    qdd = el_accel(EOM, q, qd, tau, tau_d)
    assert np.allclose(zdot, -alpha1 * qdd, atol=1e-10)


def test_el_observer_config_equivalent_to_dedicated_rhs():
    # the generic observer on the embedded plant must reproduce el_dob_rhs
    alpha1 = 120.0
    sys_ca = PLANT
    cfg = el_observer_config(alpha1, mu1=0.3, nu=1.0, omega=0.0)
    q = np.array([0.4, -0.2])
    qd = np.array([0.7, 1.1])
    x = np.concatenate([q, qd])
    z = np.array([0.3, -0.6])
    tau = np.array([2.0, -3.0])
    zdot_generic = z_derivative(cfg, ObserverState(z), sys_ca, x, tau)
    zdot_el = el_dob_rhs(EOM, alpha1, z, q, qd, tau)
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
        assert np.asarray(cfg.integral_at(x)).tobytes() == (alpha1 * x[2:]).tobytes()


def energy_filter(h_q, grad, obs, beta, gamma, **tuning):
    """QpFilter on the arm's energy barrier beta*h_q - KE with the pole
    gamma; tuning holds omega, d_max (with obs None) and eps_singular."""
    return QpFilter(PLANT, TwoLinkArm().energy_barrier(h_q, grad, beta, gamma),
                    obs, **tuning)


def el_row(filt, q, qd, tau_hat):
    dec = filt.constraint(0.0, np.concatenate([q, qd]), np.zeros(2), tau_hat)
    return dec.psi0, dec.psi1


def el_row_decision(filt, qd):
    """The decision at q = (0.3, 0.2) and qd with a zero estimate."""
    return filt.constraint(0.0, np.concatenate([[0.3, 0.2], qd]), np.zeros(2),
                           np.zeros(2))


def test_el_psi_hand_computed_at_rest():
    obs = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    q = np.array([2.0, 2.5])
    psi0, psi1 = el_row(energy_filter(h_q, grad, obs, 10.0, 2.0, omega=3.0),
                        q, np.zeros(2), np.zeros(2))
    # at rest only the omega term and gamma*beta*h_q survive
    assert psi0 == pytest.approx(-9.0 / 2.0 + 2.0 * 10.0 * 5.75)
    assert np.allclose(psi1, 0.0)


def test_el_psi_power_terms():
    obs = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    q = np.array([1.0, -1.0])
    qd = np.array([0.5, 0.2])
    tau_hat = np.array([4.0, -2.0])
    filt = energy_filter(h_q, grad, obs, 10.0, 2.0, omega=0.0)
    psi0, psi1 = el_row(filt, q, qd, tau_hat)
    denom = 4.0 * obs.alpha - 2.0 * 2.0 - 2.0 * obs.nu
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
    psi0_rob, _ = el_row(energy_filter(h_q, grad, None, 10.0, 2.0, d_max=d_max),
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
    tau = pd_nominal(200.0, 35.0, np.zeros(2), np.zeros(2),
                     np.ones(2), np.ones(2))
    assert np.allclose(tau, [235.0, 235.0])
    g = np.array([1.0, 2.0])
    tau_g = pd_nominal(200.0, 35.0, np.zeros(2), np.zeros(2), np.ones(2),
                       np.ones(2), gravity=g)
    assert np.allclose(tau_g, [236.0, 237.0])
    # per joint, kp (q_des - q) + kd (qd_des - qd)
    tau = pd_nominal(200.0, 35.0, (0.5, -1.0), (2.0, 0.25), (1.0, 1.5),
                     (-1.0, 0.5))
    assert tau == (200.0 * 0.5 + 35.0 * -3.0, 200.0 * 2.5 + 35.0 * 0.25)
    # the gains are checked once, where a scenario configures them
    for bad in ({"kp": -1.0}, {"kd": 0.0}):
        with pytest.raises(ConfigError):
            build({"scenario": "el2dof-dob", "params": bad})


def test_singularity_guard_cases():
    # h_q = 1 inside (psi0 > 0 at rest) and -1 outside (psi0 < 0 at rest),
    # with a zero gradient and no omega term; both energy filters guard
    obs = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    zero = lambda q: (0.0, 0.0)
    for sign in (1.0, -1.0):
        for filt in (energy_filter(lambda q: sign, zero, obs, 10.0, 2.0,
                                   eps_singular=1e-3),
                     energy_filter(lambda q: sign, zero, None, 10.0, 2.0,
                                   d_max=0.0, eps_singular=1e-3)):
            qd = np.array([0.5, 0.0])
            dec = el_row_decision(filt, qd)
            assert not dec.bypass and dec.event is None
            assert np.array_equal(dec.psi1, -qd)
            dec = el_row_decision(filt, np.zeros(2))
            assert dec.bypass and (dec.psi0 < 0) == (sign < 0)
            assert dec.event == (None if sign > 0 else "singular_infeasible")
            # just below and at the threshold
            assert el_row_decision(filt, np.array([0.0, 0.999e-3])).bypass
            assert not el_row_decision(filt, np.array([0.0, 1e-3])).bypass



def test_validate_el_params():
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2  # h_q((2, 2.5)) = 5.75
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    x0 = np.array([2.0, 2.5, 0.0, 0.0])
    obs = el_observer_config(500.0, mu1=0.34, nu=1.0, omega=0.0)
    filt = energy_filter(h_q, grad, obs, beta=10.0, gamma=2.0)
    rep = filt.report(x0, e0_norm=math.sqrt(50.0))
    assert rep.passed and rep.cascade_ok
    # alpha and nu are the observer's: 500*0.34 - (2 + 1)/2
    assert rep.alpha_margin == pytest.approx(168.5)
    # the margin is 1 - e0^2/(2 h~(x0)), h~ = beta h_q - KE = 57.5 at rest
    assert rep.beta_margin == pytest.approx(1.0 - 50.0 / 115.0, rel=1e-15)
    # beta exactly at the bound (beta h_q(q0) = e0^2/2) fails the strict
    # inequality
    need = 50.0 / (2 * 5.75)
    rep_eq = energy_filter(h_q, grad, obs, beta=need, gamma=2.0).report(
        x0, e0_norm=math.sqrt(50.0))
    assert not rep_eq.beta_ok
    # moving at x0, the kinetic energy counts against the margin:
    # 1 - (2 KE + e0^2)/(2 beta h_q) < 0 here, as before the energy
    # barrier became a Lie chain (beta < (2 KE + e0^2)/(2 h_q))
    moving = np.array([2.0, 2.5, 10.0, -6.0])
    ke = kinetic_energy(ARM, moving[:2], moving[2:])
    assert 10.0 < (2.0 * ke + 50.0) / (2.0 * 5.75)
    assert not filt.report(moving, e0_norm=math.sqrt(50.0)).beta_ok
    # an initial position outside the safe set, h_q((3, 3)) = -2
    out = filt.report(np.array([3.0, 3.0, 0.0, 0.0]), 0.0)
    assert not out.cascade_ok and not out.beta_ok and not out.passed
    # the worst-case row states no initial-state inequality
    assert energy_filter(h_q, grad, None, 10.0, 2.0, d_max=1.0).report(
        x0, 0.0) is None


def test_to_control_affine_embedding():
    # the fused plant and the per-term oracle embedding it replaced
    qd = np.array([-1.0, 0.5])
    tau = np.array([1.0, -2.0])
    tau_d = np.array([0.2, 0.4])
    # a generic elbow angle and the two where the inertia is extreme
    for sys_ca in (PLANT, to_control_affine(EOM)):
        for q2 in (0.9, 0.0, math.pi):
            q = np.array([0.3, q2])
            x = np.concatenate([q, qd])
            fx, G1, G2 = map(np.asarray, sys_ca.evaluate(x))
            xdot = fx + G1 @ tau + G2 @ tau_d
            assert np.allclose(xdot[:2], qd)
            assert np.allclose(xdot[2:], el_accel(EOM, q, qd, tau, tau_d),
                               atol=1e-12)


def test_el_filter_object_guard_path():
    obs = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    h_q = lambda q: 16.0 - q[0] ** 2 - q[1] ** 2
    grad = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    filt = energy_filter(h_q, grad, obs, 10.0, 2.0, eps_singular=1e-3)
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
    with pytest.raises(ParameterError):
        energy_filter(h_q, grad, obs, beta=10.0, gamma=2.0)
    # and it checks its own beta, gamma, omega and eps_singular
    obs = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    energy_filter(h_q, grad, obs, 10.0, 2.0, omega=0.0)
    for beta, gamma, omega, eps in ((0.0, 2.0, 0.0, 1e-4),
                                    (10.0, -2.0, 0.0, 1e-4),
                                    (10.0, 2.0, -1.0, 1e-4),
                                    (10.0, 2.0, 0.0, 0.0)):
        with pytest.raises(ParameterError):
            energy_filter(h_q, grad, obs, beta, gamma, omega=omega,
                          eps_singular=eps)
    # an omega whose square leaves the float range is named
    with pytest.raises(ParameterError, match="omega = 1e"):
        energy_filter(h_q, grad, obs, 10.0, 2.0, omega=1e308)
    # the robust baseline does not use the observer, and checks its own
    # beta, gamma, eps_singular and d_max
    energy_filter(h_q, grad, None, 10.0, 2.0, d_max=0.0)
    for beta, gamma, d_max, eps in ((10.0, 2.0, -1.0, 1e-4),
                                    (0.0, 2.0, 1.0, 1e-4),
                                    (-1.0, 2.0, 1.0, 1e-4),
                                    (10.0, 0.0, 1.0, 1e-4),
                                    (10.0, -2.0, 1.0, 1e-4),
                                    (10.0, 2.0, 1.0, 0.0),
                                    (10.0, 2.0, 1.0, -1e-4)):
        with pytest.raises(ParameterError):
            energy_filter(h_q, grad, None, beta, gamma, d_max=d_max,
                          eps_singular=eps)


def grad_energy(q, qd, beta, grad_hq):
    """The gradient of h~ = beta h_q(q) - qdot' M(q) qdot / 2 over
    x = [q; qdot], from the inertia callback and dM/dq2 of the two-link
    arm (M depends on q2 only, through cos q2)."""
    M = np.asarray(ARM.mass(q))
    ml2 = TwoLinkArm().m2 * TwoLinkArm().l ** 2
    s2 = math.sin(q[1])
    dM2 = np.array([[-ml2 * s2, -0.5 * ml2 * s2], [-0.5 * ml2 * s2, 0.0]])
    dq = beta * np.asarray(grad_hq(q), dtype=float)
    dq[1] -= 0.5 * qd @ dM2 @ qd
    return np.concatenate([dq, -M @ qd])


def test_energy_chain_is_the_gradient_along_the_plant():
    # (L_f h~, L_g h~) of the closed-form chain against grad h~ . f and
    # grad h~ . g of the plant's own evaluate
    h_q = lambda q: 16.0 - q[0] * q[0] - q[1] * q[1]
    grad = lambda q: (-2.0 * q[0], -2.0 * q[1])
    beta = 10.0
    chain = TwoLinkArm().energy_barrier(h_q, grad, beta, 2.0).chain
    rng = np.random.default_rng(29)
    states = np.hstack([rng.uniform(-math.pi, math.pi, size=(200, 2)),
                        rng.uniform(-8.0, 8.0, size=(200, 2))])
    states[0::4, 1], states[1::4, 1] = 0.0, math.pi
    for x in states:
        q, qd = x[:2], x[2:]
        (h, lf), lg1, lg2 = chain(x.tolist())
        assert lg1 is lg2
        fx, G1, G2 = map(np.asarray, PLANT.evaluate(x))
        dh = grad_energy(q, qd, beta, grad)
        M = np.asarray(ARM.mass(q))
        assert h == pytest.approx(beta * h_q(q) - 0.5 * qd @ M @ qd,
                                  rel=1e-12, abs=1e-12)
        scale = np.abs(dh) @ np.abs(fx)
        assert abs(lf - dh @ fx) <= 1e-12 * scale
        for G in (G1, G2):
            assert np.allclose(lg1, dh @ G, rtol=1e-12, atol=1e-12 * np.abs(qd).max())
    # a non-finite h or L_f h is named, and so is a non-finite gradient
    with pytest.raises(ValueError, match="energy barrier: non-finite"):
        chain([1e200, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="grad_hq"):
        chain([1e308, 0.0, 0.0, 0.0])


def test_terms_read_a_list_and_an_array_alike():
    terms = PLANT.terms
    rng = np.random.default_rng(3)
    for x in rng.uniform(-4.0, 4.0, size=(50, 4)):
        f_arr, B_arr, _ = terms(x)
        f_list, B_list, G2 = terms(x.tolist())
        assert G2 is B_list
        assert np.asarray(f_list).tobytes() == np.asarray(f_arr).tobytes()
        assert np.asarray(B_list).tobytes() == np.asarray(B_arr).tobytes()


def test_evaluate_floats_are_the_array_terms_bit_for_bit():
    # evaluate passes the fused plant's tuples on as they are, and their
    # entries are the bits of the per-term oracle embedding and of the
    # former array terms, including the elbow angles where the inertia is
    # extreme, joint speeds of +0.0 and -0.0, a state given as a list or an
    # array, and arms with other masses, length and no gravity
    rng = np.random.default_rng(23)
    x = np.hstack([rng.uniform(-math.pi, math.pi, size=(200, 2)),
                   rng.uniform(-8.0, 8.0, size=(200, 2))])
    x[0::4, 1], x[1::4, 1] = 0.0, math.pi
    x = np.vstack([x, x[:8] * [1.0, 1.0, 0.0, 0.0], x[:8] * [1.0, 1.0, -0.0, -0.0]])
    for arm in (TwoLinkArm(), TwoLinkArm(g_accel=0.0),
                TwoLinkArm(m1=2.5, m2=0.7, l=1.3)):
        sys_ca, eom = arm.plant(), per_term(arm)
        oracle = to_control_affine(eom).terms
        for xi in x:
            f_ref, B_ref = arm_terms_arrays(eom, xi)
            for state in (xi.tolist(), xi):
                fx, G1, G2 = sys_ca.evaluate(state)
                assert type(fx) is tuple and type(G1) is tuple and G2 is G1
                f_o, B_o, _ = oracle(state)
                assert np.array(fx).tobytes() == np.array(f_o).tobytes() \
                    == f_ref.tobytes()
                assert np.array(G1).tobytes() == np.array(B_o).tobytes() \
                    == B_ref.tobytes()


def test_to_control_affine_rejects_singular_inertia():
    # det M = sin(q2)^2/4 - 1e-12 for this arm: negative at q2 = 0; the
    # fused plant and the per-term oracle give the same message
    arm = TwoLinkArm(m1=9.0 * (0.25 - 1.0 / 3.0 - 1e-12))
    # the message shows q as plain floats, from an array as from a list
    for sys_ca in (arm.plant(), to_control_affine(per_term(arm))):
        for x in (np.array([0.3, 0.0, 1.0, -1.0]), [0.3, 0.0, 1.0, -1.0]):
            with pytest.raises(ParameterError, match=r"not positive definite "
                               r"at q = \(0\.3, 0\.0\)$"):
                sys_ca.evaluate(x)
    singular = PerTermArm(mass=lambda q: np.ones((2, 2)),
                          coriolis=EOM.coriolis, gravity=EOM.gravity)
    with pytest.raises(ParameterError):
        to_control_affine(singular).evaluate(np.zeros(4))


def test_arm_derivative_matches_equations_of_motion_and_observer():
    # the float kernel against np.linalg.solve on the equations of motion
    # and the observer's -L_d (f + g1 u + g2 d_hat), including the elbow
    # angles where the inertia is extreme
    sys_ca = PLANT
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
        accel = el_accel(EOM, q[i], qd[i], u[i], d[i])
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
    arm = PLANT
    other = ControlAffineSystem(n=4, m=2, p=2, f=arm.f, g1=arm.g1,
                                g2=lambda x: 2.0 * np.asarray(arm.g1(x)))
    rhs, _ = arm_derivative(other, cfg, lambda t: np.ones(2))
    with pytest.raises(ParameterError):
        rhs(0.0, [0.3, 0.9, 1.0, -1.0, 0.0, 0.0])


def test_fused_terms_name_a_non_finite_position_as_a_non_finite_state():
    # a NaN elbow angle fails the inertia test; it is reported as a
    # non-finite state, not as a singular plant, and still exits 3 (ValueError)
    for x in ([float("nan"), float("nan"), 0.0, 0.0], [0.3, float("nan"), 1.0, 0.0]):
        with pytest.raises(ValueError, match=r"^non-finite state at q = \(") as exc:
            PLANT.evaluate(x)
        assert not isinstance(exc.value, ParameterError)


def test_arm_derivative_rejects_a_gain_other_than_the_momentum_observer():
    alpha1, zeros = 500.0, np.zeros((2, 2))
    momentum = np.hstack([zeros, alpha1 * np.eye(2)])
    rhs, _ = arm_derivative(PLANT, ObserverConfig(gain=momentum, alpha=150.0),
                            lambda t: (0.0, 0.0))
    assert len(rhs(0.0, [0.3, 0.9, 1.0, -1.0, 0.0, 0.0])) == 6
    others = [momentum + np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
              momentum + np.array([[0.0, 0.0, 0.0, 0.0], [0.0, -2.0, 0.0, 0.0]]),
              np.hstack([zeros, np.diag([alpha1, 2.0 * alpha1])]),
              np.hstack([zeros, [[alpha1, 1.0], [0.0, alpha1]]]),
              np.hstack([zeros, [[alpha1, 0.0], [1e-9, alpha1]]]),
              np.hstack([alpha1 * np.eye(2), zeros])]
    for gain in others:
        with pytest.raises(ParameterError, match=r"\[0 \| alpha1 I\]"):
            arm_derivative(PLANT, ObserverConfig(gain=gain, alpha=150.0),
                           lambda t: (0.0, 0.0))


def test_arm_derivative_equals_the_generic_joint_derivative():
    # the closed form leaves out products with the structural zeros of B
    # and L_d, which change no value (up to the sign of a zero)
    cfg = el_observer_config(500.0, mu1=0.3, nu=1.0, omega=0.0)
    rng = np.random.default_rng(31)
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, 2)
        y = np.concatenate([q, rng.uniform(-8.0, 8.0, 2),
                            rng.uniform(-5000.0, 5000.0, 2)]).tolist()
        u, d = rng.uniform(-300.0, 300.0, (2, 2)).tolist()
        out = []
        for build_rhs in (arm_derivative, joint_derivative):
            rhs, hold = build_rhs(PLANT, cfg, lambda t: d)
            hold(u)
            out.append(list(rhs(0.0, y)))
        assert out[0] == out[1]
