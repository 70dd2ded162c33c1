"""The energy filter's invariance inequality, checked pointwise.

For the el2dof-dob filter (`ELQpFilter`) the theorem is pointwise: for any
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
"""

import copy
import math

import numpy as np

from dobcbf.el import TwoLinkArm, arm_derivative
from dobcbf.scenarios import build

SC = build({"scenario": "el2dof-dob", "sim": {"tf": 0.1}})
FILT, OBS = SC.safety, SC.observer_cfg
ALPHA1 = float(SC.config["params"]["alpha1"])
ARM = TwoLinkArm()
ML2 = ARM.m2 * ARM.l * ARM.l


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
    beta, gamma = filt.params.beta, filt.params.gamma
    hbar = beta * filt.h_q(q) - 0.5 * qd @ M @ qd - 0.5 * e @ e
    dhbar = (beta * np.asarray(filt.grad_hq(q)) @ qd - qd @ M @ qdd
             - 0.5 * qd @ mass_derivative(q, qd) @ qd - e @ edot)
    dec = filt.constraint(0.0, np.concatenate([q, qd]), u, dhat)
    terms = (dhbar, gamma * hbar, dec.psi0, dec.psi1 @ u)
    return terms[0] + terms[1] - terms[2] - terms[3], max(map(abs, terms))


def tight_point():
    """(q, qdot, z, d, ddot, u) at which every inequality of the proof is
    tight; d and u are arbitrary."""
    q = np.array([0.4, 0.0])
    _, vecs = np.linalg.eigh(np.linalg.inv(np.asarray(SC.el_system.mass(q))))
    omega, nu = FILT.params.omega, OBS.nu
    e = (omega / nu) * vecs[:, 0]
    qd = -(FILT.denom / 2.0) * e
    d = np.array([3.0, -7.0])
    return (q, qd, d + e - ALPHA1 * qd, d, -omega * e / np.linalg.norm(e),
            np.array([12.0, -5.0]))


def test_setup_matches_the_scenario():
    assert SC.derivative is arm_derivative
    assert FILT.params.omega > 0.0
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
    radius = FILT.params.omega * rng.uniform(0.0, 1.0, size=n)
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
