"""The float-valued decision path against NumPy oracles.

The filters and the QP compute in Python floats.  The oracles below write
the same formulas with NumPy arrays and products, as the library did before
it moved to floats; at 200 seeded random states per plant, psi0, psi1 and
the projected u must agree within 1e-12, relative to max(1, |oracle|).
The arm's filters are QpFilter on the arm's energy barrier; their decisions
also match the energy rows as they were written by hand (oracles.py),
bypass and event included, at slow and resting states and at the elbow
angles 0 and pi.
"""

import math

import numpy as np

from dobcbf import qp
from dobcbf.el import TwoLinkArm, el_observer_config
from dobcbf.filters import EPS_SINGULAR, QpFilter
from dobcbf.model import BarrierSpec, ControlAffineSystem
from dobcbf.observer import ObserverConfig
from oracles import energy_row, robust_energy_row

ARM = TwoLinkArm()
PLANT = TwoLinkArm().plant()
EL_OBS = el_observer_config(500.0, mu1=0.34, nu=1.0, omega=0.0)
EL_BETA, EL_GAMMA, EL_OMEGA = 10.0, 2.0, 3.0
D_MAX = 25.0
DI_OBS = ObserverConfig(gain=np.array([[0.0, 2.0]]), alpha=2.0, nu=1.0)
DI_BETA, DI_OMEGA = 1.0, 0.5


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
    denom = 4.0 * EL_OBS.alpha - 2.0 * EL_GAMMA - 2.0 * EL_OBS.nu
    psi0 = (EL_BETA * float(qd @ grad_hq(q))
            - float(qd @ (tau_hat - G))
            - EL_OMEGA ** 2 / (2.0 * EL_OBS.nu)
            - float(qd @ qd) / denom
            + EL_GAMMA * (EL_BETA * h_q(q) - 0.5 * float(qd @ M @ qd)))
    return psi0, -qd


def robust_oracle(q, qd):
    M = np.asarray(ARM.mass(q))
    G = np.asarray(ARM.gravity(q))
    psi0 = (EL_BETA * float(qd @ grad_hq(q)) + float(qd @ G)
            - float(np.linalg.norm(qd)) * D_MAX
            + EL_GAMMA * (EL_BETA * h_q(q) - 0.5 * float(qd @ M @ qd)))
    return psi0, -qd


def di_plant():
    sys = ControlAffineSystem(
        n=2, m=1, p=1, f=lambda x: np.array([x[1], 0.0]),
        g1=lambda x: np.array([[0.0], [1.0]]),
        g2=lambda x: np.array([[0.0], [1.0]]))
    bar = BarrierSpec(
        chain=lambda x: ((1.0 - float(x[0]), -float(x[1]), 0.0),
                         np.array([-1.0]), np.array([-1.0])),
        poles=(1.5, 0.7))
    return sys, bar


def generic_oracle(bar, x, d_hat):
    """Generic row: Lie terms, eta and the cascade as array products."""
    lf, lg1, lg2 = bar.chain(x)
    eta = np.array(lf[-2::-1])  # L_f^{r-1} h, ..., L_f^0 h
    denom = 4.0 * DI_OBS.alpha - 2.0 * bar.poles[-1] - 2.0 * DI_OBS.nu
    psi0 = (lf[-1] + float(lg2 @ d_hat)
            - DI_OMEGA ** 2 / (2.0 * DI_OBS.nu * DI_BETA)
            - DI_BETA * float(lg2 @ lg2) / denom
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


def energy_barrier():
    return TwoLinkArm().energy_barrier(h_q, grad_hq, EL_BETA, EL_GAMMA)


def energy_filter():
    return QpFilter(PLANT, energy_barrier(), EL_OBS, omega=EL_OMEGA)


def robust_filter():
    return QpFilter(PLANT, energy_barrier(), None, d_max=D_MAX)


def test_energy_filter_matches_array_oracle():
    filt = energy_filter()
    active = check_decisions(
        filt, lambda x, d: energy_oracle(x[:2], x[2:], d), arm_states(3), 2, 2)
    assert 0 < active < 200  # both branches of the projection ran


def test_robust_filter_matches_array_oracle():
    filt = robust_filter()
    active = check_decisions(
        filt, lambda x, d: robust_oracle(x[:2], x[2:]), arm_states(4), 2, 2)
    assert 0 < active < 200


def test_generic_filter_matches_array_oracle():
    sys, bar = di_plant()
    states = np.random.default_rng(5).uniform(-2.0, 2.0, size=(200, 2))
    active = check_decisions(QpFilter(sys, bar, DI_OBS, DI_BETA, DI_OMEGA),
                             lambda x, d: generic_oracle(bar, x, d), states,
                             1, 1)
    assert 0 < active < 200


def slow_arm_states(seed):
    """Seeded arm states with every fourth elbow angle at 0 and every fourth
    at pi, a quarter of them below, at and just above the speed
    EPS_SINGULAR, and a few at rest."""
    states = arm_states(seed)
    states[0::4, 1], states[1::4, 1] = 0.0, math.pi
    rng = np.random.default_rng(seed + 100)
    slow = states[2::4]
    angle = rng.uniform(0.0, 2.0 * math.pi, size=len(slow))
    speed = EPS_SINGULAR * rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 2.0],
                                      size=len(slow))
    slow[:, 2], slow[:, 3] = speed * np.cos(angle), speed * np.sin(angle)
    return states


def assert_same_decision(got, want):
    assert close(got.psi0, want.psi0), (got.psi0, want.psi0)
    assert_close(got.psi1, want.psi1)
    assert (got.bypass, got.event) == (want.bypass, want.event)


def test_routed_energy_filters_match_the_hand_written_rows():
    dob, robust = energy_filter(), robust_filter()
    rng = np.random.default_rng(23)
    events = set()
    for x in slow_arm_states(6):
        d_hat = rng.normal(0.0, 10.0, size=2)
        got = dob.constraint(0.0, x, np.zeros(2), d_hat)
        assert_same_decision(got, energy_row(
            ARM, h_q, grad_hq, EL_OBS, EL_BETA, EL_GAMMA, EL_OMEGA,
            EPS_SINGULAR, x, d_hat))
        rob = robust.constraint(0.0, x, np.zeros(2), d_hat)
        assert_same_decision(rob, robust_energy_row(
            ARM, h_q, grad_hq, EL_BETA, EL_GAMMA, D_MAX, EPS_SINGULAR, x))
        events |= {(got.bypass, got.event), (rob.bypass, rob.event)}
    # rows kept, bypassed with a satisfiable row and bypassed with an
    # unsatisfiable one all occurred
    assert events == {(False, None), (True, None),
                      (True, "singular_infeasible")}
