"""The filters' invariance inequalities, checked pointwise.

For the el2dof-dob filter (`QpFilter` on the arm's energy barrier, whose
own beta is 1) the theorem is pointwise: for any
control u, disturbance d and disturbance derivative ddot with
||ddot|| <= omega, the bound the constraint uses,

    R = dhbar/dt + gamma hbar - (psi0 + psi1 . u) >= 0,

where hbar = beta h_q(q) - qdot' M(q) qdot / 2 - ||e||^2 / 2 and
e = dhat - d.  dhbar/dt is formed from the run's own derivative builder:
qddot and zdot from el.arm_derivative, the estimate's derivative
zdot + alpha1 qddot, and the closed-form Mdot of the two-link arm.  R does
not depend on u, and it is zero exactly where Young's inequality, the
qdot'e split and the coercivity bound e' M^-1 e >= mu1 ||e||^2 are all
tight: at q2 = 0, with e along M^-1's smallest eigenvector, ||e|| = omega/nu,
qdot = -(denom/2) e and ddot = -omega e/||e||.  There every constant of
psi0 is pinned, so making the denominator term or the omega term 1%
smaller gives R < 0.

For the generic filter (`QpFilter`) of scalar-rel1 (r = 1) and
doubleint-relr (r = 2) the same holds for

    R = dhbar/dt + lambda_r hbar - beta (psi0 + psi1 . u) >= 0,

where hbar = beta s_{r-1}(x) - ||e||^2 / 2, e = d - dhat, and dhbar/dt is
formed from xdot and zdot of the run's own derivative builder
(simulate.joint_derivative), with edot = ddot - zdot - L_d xdot.  With
b = L_g2 L_f^{r-1} h and c = denom/4, R is at least
||sqrt(c) e + beta b / (2 sqrt(c))||^2, so it vanishes where
e = -beta b / (2c), ddot = nu e and omega = nu ||e|| (Young's inequality
tight), since L_d g2 = alpha exactly on both plants (coercivity tight
everywhere).
"""

import copy
import math

import numpy as np
import pytest

from dobcbf.el import TwoLinkArm, arm_derivative, violation_floor
from dobcbf.filters import QpFilter
from dobcbf.model import s_sequence
from dobcbf.observer import ObserverState, estimate
from dobcbf.scenarios import build
from dobcbf.simulate import joint_derivative

SC = build({"scenario": "el2dof-dob", "sim": {"tf": 0.1}})
FILT, OBS = SC.safety, SC.observer_cfg
ALPHA1 = float(SC.config["params"]["alpha1"])
#: the energy scale and pole of the arm scenarios' barrier
BETA, GAMMA = SC.config["params"]["beta"], SC.config["params"]["gamma"]
ARM = TwoLinkArm()
ML2 = ARM.m2 * ARM.l * ARM.l


def h_q(q):
    """The arm scenarios' position barrier."""
    return 16.0 - q[0] ** 2 - q[1] ** 2


def grad_hq(q):
    return np.array([-2.0 * q[0], -2.0 * q[1]])


def mass_derivative(q, qd):
    """dM/dt of the two-link arm, whose inertia depends on cos(q2) only."""
    s = -math.sin(q[1]) * qd[1]
    return np.array([[ML2 * s, 0.5 * ML2 * s], [0.5 * ML2 * s, 0.0]])


def residual(filt, q, qd, z, d, ddot, u):
    """R at one state, and the largest magnitude of its four terms."""
    rhs, hold = SC.derivative(SC.system, OBS, lambda t: tuple(d))
    hold(u)
    dy = np.array(rhs(0.0, [*q, *qd, *z]))
    qdd, zd = dy[2:4], dy[4:6]
    M = np.asarray(SC.el_system.mass(q))
    dhat = z + ALPHA1 * qd
    e = dhat - d
    edot = zd + ALPHA1 * qdd - ddot
    hbar = BETA * h_q(q) - 0.5 * qd @ M @ qd - 0.5 * e @ e
    dhbar = (BETA * grad_hq(q) @ qd - qd @ M @ qdd
             - 0.5 * qd @ mass_derivative(q, qd) @ qd - e @ edot)
    dec = filt.constraint(0.0, np.concatenate([q, qd]), u, dhat)
    terms = (dhbar, GAMMA * hbar, dec.psi0, dec.psi1 @ u)
    return terms[0] + terms[1] - terms[2] - terms[3], max(map(abs, terms))


def tight_point(filt=FILT, omega=None):
    """(q, qdot, z, d, ddot, u) at which every inequality of filt's proof
    is tight for ||ddot|| = omega (by default the filter's own omega); d and
    u are arbitrary."""
    q = np.array([0.4, 0.0])
    _, vecs = np.linalg.eigh(np.linalg.inv(np.asarray(SC.el_system.mass(q))))
    omega = filt.omega if omega is None else omega
    nu = OBS.nu
    e = (omega / nu) * vecs[:, 0]
    qd = -(filt.denom / 2.0) * e
    d = np.array([3.0, -7.0])
    return (q, qd, d + e - ALPHA1 * qd, d, -omega * e / np.linalg.norm(e),
            np.array([12.0, -5.0]))


def test_setup_matches_the_scenario():
    assert SC.derivative is arm_derivative
    assert FILT.omega > 0.0
    # the energy scale lives in the barrier, and h is logged as h_q
    assert FILT.beta == 1.0 and FILT.barrier.poles == (GAMMA,)
    x = [0.3, 1.1, -0.7, 2.0]
    assert FILT.probe(x, np.zeros(2))["h"] == h_q(x)
    assert FILT.probe(x, np.zeros(2))["hbar"] == pytest.approx(
        BETA * h_q(x) - 0.5 * np.array(x[2:]) @ SC.el_system.mass(x[:2])
        @ np.array(x[2:]), rel=1e-14)
    assert np.array_equal(OBS.gain, np.hstack([np.zeros((2, 2)),
                                               ALPHA1 * np.eye(2)]))
    # the closed-form Mdot against a central difference of M along qdot
    q, qd, h = np.array([0.3, 1.1]), np.array([-0.7, 2.0]), 1e-6
    fd = (np.asarray(SC.el_system.mass(q + h * qd))
          - np.asarray(SC.el_system.mass(q - h * qd))) / (2.0 * h)
    assert np.allclose(mass_derivative(q, qd), fd, atol=1e-8)


def test_residual_is_nonnegative_on_seeded_states():
    rng = np.random.default_rng(31)
    n = 4000
    q = rng.uniform(-math.pi, math.pi, size=(n, 2))
    q[0::4, 1], q[1::4, 1] = 0.0, math.pi
    qd = rng.uniform(-8.0, 8.0, size=(n, 2))
    d = rng.uniform(-30.0, 30.0, size=(n, 2))
    e = rng.uniform(-5.0, 5.0, size=(n, 2))
    u = rng.uniform(-300.0, 300.0, size=(n, 2))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
    radius = FILT.omega * rng.uniform(0.0, 1.0, size=n)
    ddot = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    for i in range(n):
        z = d[i] + e[i] - ALPHA1 * qd[i]
        r, scale = residual(FILT, q[i], qd[i], z, d[i], ddot[i], u[i])
        assert r >= -1e-12 * scale, i


def test_residual_vanishes_at_the_tight_point():
    r, scale = residual(FILT, *tight_point())
    assert abs(r) <= 1e-12 * scale


def test_a_one_percent_smaller_constant_breaks_the_tight_point():
    point = tight_point()
    _, scale = residual(FILT, *point)
    for name, value in (("denom", FILT.denom / 0.99),
                        ("omega_term", 0.99 * FILT.omega_term)):
        weaker = copy.copy(FILT)
        setattr(weaker, name, value)
        r, _ = residual(weaker, *point)
        assert r < -1e-10 * scale, name


# the double integrator's default disturbance is constant (omega = 0); a
# varying one gives the omega term something to bound
GENERIC = {"scalar-rel1": build({"scenario": "scalar-rel1", "sim": {"tf": 0.1}}),
           "doubleint-relr": build({
               "scenario": "doubleint-relr", "sim": {"tf": 0.1},
               "disturbance": [[{"amplitude": 1.0, "frequency": 2.0,
                                 "waveform": "cos"}]]})}


def cascade_gradient(sc):
    """The gradient of s_{r-1}, constant on both plants: h = x0 on the
    scalar plant, s_1 = L_f h + lambda_1 h = -x1 + lambda_1 (1 - x0) on the
    double integrator."""
    if sc.name == "scalar-rel1":
        return np.array([1.0])
    return np.array([-sc.safety.barrier.poles[0], -1.0])


def generic_residual(filt, sc, x, e, d, ddot, u):
    """R of QpFilter at one state, and the largest magnitude of its four
    terms; z is set so that d - dhat = e."""
    obs = sc.observer_cfg
    z = d - e - obs.gain @ x
    dhat = np.asarray(estimate(obs, ObserverState(z), x))
    rhs, hold = sc.derivative(sc.system, obs, lambda t: tuple(d))
    hold(tuple(u))
    dy = np.array(rhs(0.0, [*x, *z]))
    xdot, zdot = dy[:x.size], dy[x.size:]
    e = d - dhat  # as the rounded estimate gives it
    edot = ddot - zdot - obs.gain @ xdot
    beta, lam = filt.beta, filt.barrier.poles[-1]
    hbar = beta * s_sequence(sc.system, filt.barrier, x)[-1] - 0.5 * e @ e
    dhbar = beta * cascade_gradient(sc) @ xdot - e @ edot
    dec = filt.constraint(0.0, x, u, dhat)
    terms = (dhbar, lam * hbar, beta * dec.psi0, beta * float(np.dot(dec.psi1, u)))
    return terms[0] + terms[1] - terms[2] - terms[3], max(map(abs, terms))


def generic_tight_point(sc):
    """The filter with omega = nu ||e|| and (x, e, d, ddot, u) at which R
    vanishes; x, d and u are arbitrary."""
    filt, obs = sc.safety, sc.observer_cfg
    x = np.linspace(0.3, -0.4, sc.system.n)
    b = np.asarray(filt.barrier.chain(x)[2])
    e = -filt.beta * b / (2.0 * (filt.denom / 4.0))
    tight = QpFilter(sc.system, filt.barrier, obs,
                     filt.beta, omega=obs.nu * float(np.linalg.norm(e)))
    return tight, (x, e, np.array([1.7]), obs.nu * e, np.array([-2.5]))


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_generic_setup_matches_the_scenario(name):
    sc = GENERIC[name]
    obs, bar = sc.observer_cfg, sc.safety.barrier
    assert sc.derivative is joint_derivative
    assert len(bar.poles) == sc.system.n
    # L_d g2 = alpha, and b = L_g2 L_f^{r-1} h is the constant the tight
    # point reads
    g2 = np.asarray(sc.system.evaluate([0.5] * sc.system.n)[2])
    assert (obs.gain @ g2).tolist() == [[obs.alpha]]
    assert list(bar.chain([0.5] * sc.system.n)[2]) == \
        [-1.0 if name == "doubleint-relr" else 1.0]
    # s_{r-1} is affine in x, with the gradient the residual uses
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, step = rng.uniform(-2.0, 2.0, size=(2, sc.system.n))
        ds = (s_sequence(sc.system, bar, x + step)[-1]
              - s_sequence(sc.system, bar, x)[-1])
        assert ds == pytest.approx(cascade_gradient(sc) @ step, abs=1e-12)


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_generic_residual_is_nonnegative_on_seeded_states(name):
    sc = GENERIC[name]
    filt, n = sc.safety, sc.system.n
    assert filt.omega > 0.0
    rng = np.random.default_rng(37)
    count = 3000
    x = rng.uniform(-3.0, 3.0, size=(count, n))
    e = rng.uniform(-3.0, 3.0, size=(count, 1))
    d = rng.uniform(-5.0, 5.0, size=(count, 1))
    u = rng.uniform(-20.0, 20.0, size=(count, 1))
    ddot = filt.omega * rng.uniform(-1.0, 1.0, size=(count, 1))
    for i in range(count):
        r, scale = generic_residual(filt, sc, x[i], e[i], d[i], ddot[i], u[i])
        assert r >= -1e-12 * scale, i


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_generic_residual_vanishes_at_the_tight_point(name):
    sc = GENERIC[name]
    tight, point = generic_tight_point(sc)
    r, scale = generic_residual(tight, sc, *point)
    assert abs(r) <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_a_one_percent_smaller_generic_constant_breaks_the_tight_point(name):
    sc = GENERIC[name]
    tight, point = generic_tight_point(sc)
    _, scale = generic_residual(tight, sc, *point)
    for attr, value in (("denom", tight.denom / 0.99),
                        ("omega_term", 0.99 * tight.omega_term)):
        weaker = copy.copy(tight)
        setattr(weaker, attr, value)
        r, _ = generic_residual(weaker, sc, *point)
        assert r < -1e-10 * scale, attr


ROBUST = build({"scenario": "el2dof-robust"})


def robust_residual(filt, q, qd, d, u):
    """R of the robust filter (QpFilter with d_max on the arm's energy
    barrier) at one state, and the largest magnitude of its four terms; the
    observer state does not enter hbar_r."""
    rhs, hold = ROBUST.derivative(ROBUST.system, ROBUST.observer_cfg,
                                  lambda t: tuple(d))
    hold(u)
    qdd = np.array(rhs(0.0, [*q, *qd, 0.0, 0.0]))[2:4]
    M = np.asarray(ROBUST.el_system.mass(q))
    hbar = BETA * h_q(q) - 0.5 * qd @ M @ qd
    dhbar = (BETA * grad_hq(q) @ qd - qd @ M @ qdd
             - 0.5 * qd @ mass_derivative(q, qd) @ qd)
    dec = filt.constraint(0.0, np.concatenate([q, qd]), u, np.zeros(2))
    terms = (dhbar, GAMMA * hbar, dec.psi0, dec.psi1 @ u)
    return terms[0] + terms[1] - terms[2] - terms[3], max(map(abs, terms))


def robust_tight_point():
    """(q, qdot, d, u) with d = d_max qdot/||qdot||; q, qdot and u are
    arbitrary."""
    qd = np.array([1.3, -2.1])
    d = ROBUST.safety.d_max * qd / np.linalg.norm(qd)
    return np.array([0.4, -1.2]), qd, d, np.array([12.0, -5.0])


def test_robust_setup_matches_the_scenario():
    filt = ROBUST.safety
    assert isinstance(filt, QpFilter) and filt.observer is None
    assert filt.report(ROBUST.x0, 1.0) is None
    assert ROBUST.derivative is arm_derivative
    assert filt.d_max == ROBUST.constants["d_max"] > 0.0


def test_robust_residual_is_nonnegative_on_seeded_states():
    filt = ROBUST.safety
    rng = np.random.default_rng(41)
    n = 3000
    q = rng.uniform(-math.pi, math.pi, size=(n, 2))
    q[0::4, 1], q[1::4, 1] = 0.0, math.pi
    qd = rng.uniform(-8.0, 8.0, size=(n, 2))
    u = rng.uniform(-300.0, 300.0, size=(n, 2))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
    radius = filt.d_max * rng.uniform(0.0, 1.0, size=n)
    d = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    for i in range(n):
        r, scale = robust_residual(filt, q[i], qd[i], d[i], u[i])
        assert r >= -1e-12 * scale, i


def test_robust_residual_vanishes_at_the_tight_point():
    r, scale = robust_residual(ROBUST.safety, *robust_tight_point())
    assert abs(r) <= 1e-12 * scale


def test_a_one_percent_smaller_d_max_term_breaks_the_robust_tight_point():
    point = robust_tight_point()
    _, scale = robust_residual(ROBUST.safety, *point)
    weaker = copy.copy(ROBUST.safety)
    weaker.d_max = 0.99 * ROBUST.safety.d_max
    r, _ = robust_residual(weaker, *point)
    assert r < -1e-10 * scale


NOOMEGA = build({"scenario": "el2dof-noomega"})


def test_noomega_setup_matches_the_scenario():
    filt = NOOMEGA.safety
    assert filt.omega == 0.0 and filt.omega_term == 0.0
    assert NOOMEGA.constants["omega_d"] > 0.0
    assert NOOMEGA.observer_cfg.nu == OBS.nu
    assert filt.denom == FILT.denom


def test_noomega_residual_is_above_the_withheld_term_on_seeded_states():
    filt, omega = NOOMEGA.safety, NOOMEGA.constants["omega_d"]
    floor = -omega ** 2 / (2.0 * OBS.nu)
    rng = np.random.default_rng(43)
    n = 2000
    q = rng.uniform(-math.pi, math.pi, size=(n, 2))
    q[0::4, 1], q[1::4, 1] = 0.0, math.pi
    qd = rng.uniform(-8.0, 8.0, size=(n, 2))
    d = rng.uniform(-30.0, 30.0, size=(n, 2))
    e = rng.uniform(-100.0, 100.0, size=(n, 2))
    u = rng.uniform(-300.0, 300.0, size=(n, 2))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
    radius = omega * rng.uniform(0.0, 1.0, size=n)
    ddot = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    for i in range(n):
        z = d[i] + e[i] - ALPHA1 * qd[i]
        r, scale = residual(filt, q[i], qd[i], z, d[i], ddot[i], u[i])
        assert r - floor >= -1e-12 * scale, i


def test_noomega_residual_equals_the_withheld_term_at_the_tight_point():
    filt, omega = NOOMEGA.safety, NOOMEGA.constants["omega_d"]
    point = tight_point(filt, omega)
    r, scale = residual(filt, *point)
    assert abs(r + omega ** 2 / (2.0 * OBS.nu)) <= 1e-12 * scale
    # a 1% smaller denominator term falls below the floor there
    weaker = copy.copy(filt)
    weaker.denom = filt.denom / 0.99
    r, _ = residual(weaker, *point)
    assert r + omega ** 2 / (2.0 * OBS.nu) < -1e-10 * scale


def test_noomega_floor_integrates_the_withheld_term():
    # beta h >= hbar, and hbar(t0) >= 0 with dhbar/dt >= -gamma hbar - c,
    # c = omega^2/(2 nu), stays above the solution b of b' = -gamma b - c,
    # b(0) = 0; RK4 on b matches violation_floor * beta
    filt, omega = NOOMEGA.safety, NOOMEGA.constants["omega_d"]
    c = omega ** 2 / (2.0 * OBS.nu)
    f = lambda b: -GAMMA * b - c
    b, dt = 0.0, 1e-3
    for k in range(1, 5001):
        k1 = f(b)
        k2 = f(b + 0.5 * dt * k1)
        k3 = f(b + 0.5 * dt * k2)
        k4 = f(b + dt * k3)
        b += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % 1000 == 0:
            t = k * dt
            want = violation_floor(filt, BETA, omega, t)
            assert b / BETA == pytest.approx(want, rel=1e-9)
            assert NOOMEGA.floor(NOOMEGA.simcfg.t0 + t) == want
