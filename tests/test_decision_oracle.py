"""The float-valued decision path against NumPy oracles.

The filters and the QP compute in Python floats.  The oracles below write
the same formulas with NumPy arrays and products, as the library did before
it moved to floats; at 200 seeded random states per plant, psi0, psi1 and
the projected u must agree within 1e-12, relative to max(1, |oracle|).
"""

import math

import numpy as np

from dobcbf import qp
from dobcbf.el import ELFilterParams, ELQpFilter, ELRobustFilter, TwoLinkArm
from dobcbf.filters import FilterParams, QpFilter
from dobcbf.model import BarrierSpec, ControlAffineSystem

ARM = TwoLinkArm().system()
EL_FP = ELFilterParams(alpha1=500.0, beta=10.0, gamma=2.0, nu=1.0, mu1=0.34,
                       omega=3.0)
D_MAX = 25.0
DI_FP = FilterParams(alpha=2.0, beta=1.0, nu=1.0, omega=0.5)


def h_q(q):
    return 16.0 - q[0] ** 2 - q[1] ** 2


def grad_hq(q):
    return np.array([-2.0 * q[0], -2.0 * q[1]])


def close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def assert_close(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    assert all(close(g, w) for g, w in zip(got.tolist(), want.tolist())), \
        (got, want)


def energy_oracle(q, qd, tau_hat):
    """Energy-filter row from the inertia matrix and array products."""
    M = np.asarray(ARM.mass(q))
    G = np.asarray(ARM.gravity(q))
    denom = 4.0 * EL_FP.alpha - 2.0 * EL_FP.gamma - 2.0 * EL_FP.nu
    psi0 = (EL_FP.beta * float(qd @ grad_hq(q))
            - float(qd @ (tau_hat - G))
            - EL_FP.omega ** 2 / (2.0 * EL_FP.nu)
            - float(qd @ qd) / denom
            + EL_FP.gamma * (EL_FP.beta * h_q(q) - 0.5 * float(qd @ M @ qd)))
    return psi0, -qd


def robust_oracle(q, qd):
    M = np.asarray(ARM.mass(q))
    G = np.asarray(ARM.gravity(q))
    psi0 = (EL_FP.beta * float(qd @ grad_hq(q)) + float(qd @ G)
            - float(np.linalg.norm(qd)) * D_MAX
            + EL_FP.gamma * (EL_FP.beta * h_q(q) - 0.5 * float(qd @ M @ qd)))
    return psi0, -qd


def di_plant():
    sys = ControlAffineSystem(
        n=2, m=1, p=1, f=lambda x: np.array([x[1], 0.0]),
        g1=lambda x: np.array([[0.0], [1.0]]),
        g2=lambda x: np.array([[0.0], [1.0]]))
    bar = BarrierSpec(h=lambda x: 1.0 - float(x[0]),
                      grad_h=lambda x: np.array([-1.0, 0.0]),
                      relative_degree=2,
                      lie_f=(lambda x: -float(x[1]), lambda x: 0.0),
                      lie_g1_fr=lambda x: np.array([-1.0]),
                      lie_g2_fr=lambda x: np.array([-1.0]),
                      poles=(1.5, 0.7))
    return sys, bar


def generic_oracle(bar, x, d_hat):
    """Generic row: Lie terms, eta and the cascade as array products."""
    r = bar.relative_degree
    lg1, lg2 = bar.lie_g1_fr(x), bar.lie_g2_fr(x)
    eta = np.array([bar.lie_f_value(k, x) for k in range(r - 1, -1, -1)])
    denom = 4.0 * DI_FP.alpha - 2.0 * bar.poles[-1] - 2.0 * DI_FP.nu
    psi0 = (bar.lie_f_value(r, x) + float(lg2 @ d_hat)
            - DI_FP.omega ** 2 / (2.0 * DI_FP.nu * DI_FP.beta)
            - DI_FP.beta * float(lg2 @ lg2) / denom
            + float(bar.cascade[-1] @ eta))
    return psi0, lg1


def projection_oracle(u_nom, psi0, psi1):
    slack = psi0 + float(psi1 @ u_nom)
    if slack >= 0.0:
        return u_nom
    return u_nom - (slack / float(psi1 @ psi1)) * psi1


def check_decisions(filt, oracle, states, m, p):
    """Decisions and projections at each state, with random estimates and
    nominal controls; returns how many projections were active."""
    rng = np.random.default_rng(17)
    active = 0
    for x in states:
        d_hat = rng.normal(0.0, 10.0, size=p)
        u_nom = rng.normal(0.0, 100.0, size=m)
        dec = filt.constraint(0.0, x, u_nom, d_hat)
        want0, want1 = oracle(x, d_hat)
        assert close(dec.psi0, want0), (dec.psi0, want0)
        assert_close(dec.psi1, want1)
        assert not dec.bypass
        res = qp.solve(qp.QpInstance(u_nom=u_nom, psi0=dec.psi0,
                                     psi1=dec.psi1))
        assert_close(res.u, projection_oracle(u_nom, want0, want1))
        active += res.status == qp.ACTIVE
    return active


def arm_states(seed):
    rng = np.random.default_rng(seed)
    return np.hstack([rng.uniform(-math.pi, math.pi, size=(200, 2)),
                      rng.uniform(-8.0, 8.0, size=(200, 2))])


def test_energy_filter_matches_array_oracle():
    filt = ELQpFilter(ARM, h_q, grad_hq, EL_FP)
    active = check_decisions(
        filt, lambda x, d: energy_oracle(x[:2], x[2:], d), arm_states(3), 2, 2)
    assert 0 < active < 200  # both branches of the projection ran


def test_robust_filter_matches_array_oracle():
    filt = ELRobustFilter(ARM, h_q, grad_hq, EL_FP.beta, EL_FP.gamma, D_MAX)
    active = check_decisions(
        filt, lambda x, d: robust_oracle(x[:2], x[2:]), arm_states(4), 2, 2)
    assert 0 < active < 200


def test_generic_filter_matches_array_oracle():
    sys, bar = di_plant()
    states = np.random.default_rng(5).uniform(-2.0, 2.0, size=(200, 2))
    active = check_decisions(QpFilter(sys, bar, DI_FP),
                             lambda x, d: generic_oracle(bar, x, d), states,
                             1, 1)
    assert 0 < active < 200
