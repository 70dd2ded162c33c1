"""Every input of an online decision is still checked: a non-finite entry
raises ValueError and a wrong length raises DimensionError, for the filters'
state, estimate and gradient outputs, the QP data and the simulator's
nominal control."""

import numpy as np
import pytest

from dobcbf import qp, simulate
from dobcbf.el import ELFilterParams, ELQpFilter, ELRobustFilter, TwoLinkArm
from dobcbf.filters import FilterParams, NoFilter, QpFilter
from dobcbf.model import BarrierSpec, ControlAffineSystem, DimensionError
from dobcbf.observer import ObserverConfig

BAD = (np.nan, np.inf, -np.inf)
ARM = TwoLinkArm().system()
ARM_X = np.array([1.0, 0.5, 0.8, -0.3])
ARM_FP = ELFilterParams(alpha1=500.0, beta=10.0, gamma=2.0, nu=1.0, mu1=0.3,
                        omega=3.0)


def with_last(v, value):
    out = np.array(v, dtype=float)
    out[-1] = value
    return out


def lengths(v):
    """The vector one entry short and one entry long."""
    v = np.asarray(v, dtype=float)
    return v[:-1], np.append(v, 1.0)


def scalar_filter(grad=lambda x: np.ones(1)):
    sys = ControlAffineSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1),
                              g1=lambda x: np.eye(1), g2=lambda x: np.eye(1))
    bar = BarrierSpec(h=lambda x: float(x[0]), grad_h=grad, poles=(1.0,))
    return QpFilter(sys, bar, FilterParams(alpha=2.0, beta=1.0, nu=1.0))


def di_filter(lg1=lambda x: np.array([-1.0]), lg2=lambda x: np.array([-1.0])):
    sys = ControlAffineSystem(
        n=2, m=1, p=1, f=lambda x: np.array([x[1], 0.0]),
        g1=lambda x: np.array([[0.0], [1.0]]),
        g2=lambda x: np.array([[0.0], [1.0]]))
    bar = BarrierSpec(h=lambda x: 1.0 - float(x[0]),
                      grad_h=lambda x: np.array([-1.0, 0.0]),
                      relative_degree=2,
                      lie_f=(lambda x: -float(x[1]), lambda x: 0.0),
                      lie_g1_fr=lg1, lie_g2_fr=lg2, poles=(1.0, 1.0))
    return QpFilter(sys, bar, FilterParams(alpha=2.0, beta=1.0, nu=1.0))


def arm_grad(q):
    return np.array([-2.0 * q[0], -2.0 * q[1]])


def el_filter(grad=arm_grad):
    return ELQpFilter(ARM, lambda q: 16.0 - q[0] ** 2 - q[1] ** 2, grad, ARM_FP)


def robust_filter(grad=arm_grad):
    return ELRobustFilter(ARM, lambda q: 16.0 - q[0] ** 2 - q[1] ** 2, grad,
                          beta=10.0, gamma=2.0, d_max=5.0)


#: (name, filter factory, state, estimate (None: the filter ignores it),
#:  the factory's gradient keywords with a well-formed output of each)
FILTERS = [
    ("scalar", scalar_filter, np.array([0.5]), np.array([0.2]),
     [("grad", np.ones(1))]),
    ("doubleint", di_filter, np.array([0.25, -0.5]), np.array([0.3]),
     [("lg1", np.array([-1.0])), ("lg2", np.array([-1.0]))]),
    ("energy", el_filter, ARM_X, np.array([1.0, -2.0]),
     [("grad", np.array([-2.0, -1.0]))]),
    ("robust", robust_filter, ARM_X, None, [("grad", np.array([-2.0, -1.0]))]),
]


@pytest.mark.parametrize("name,make,x,d_hat,_", FILTERS,
                         ids=[f[0] for f in FILTERS])
def test_filter_rejects_bad_state_and_estimate(name, make, x, d_hat, _):
    filt = make()
    u_nom = np.zeros(2 if x.size == 4 else 1)
    d_ok = d_hat if d_hat is not None else np.zeros(2)
    assert filt.constraint(0.0, x, u_nom, d_ok).psi0 is not None
    for value in BAD:
        with pytest.raises(ValueError):
            filt.constraint(0.0, with_last(x, value), u_nom, d_ok)
        if d_hat is not None:
            with pytest.raises(ValueError):
                filt.constraint(0.0, x, u_nom, with_last(d_hat, value))
    for wrong in lengths(x):
        with pytest.raises(DimensionError):
            filt.constraint(0.0, wrong, u_nom, d_ok)
    if d_hat is not None:
        for wrong in lengths(d_hat):
            with pytest.raises(DimensionError):
                filt.constraint(0.0, x, u_nom, wrong)


@pytest.mark.parametrize("name,make,x,d_hat,callbacks", FILTERS,
                         ids=[f[0] for f in FILTERS])
def test_filter_rejects_bad_gradient_outputs(name, make, x, d_hat, callbacks):
    u_nom = np.zeros(2 if x.size == 4 else 1)
    d_ok = d_hat if d_hat is not None else np.zeros(2)
    for keyword, good in callbacks:
        outputs = [with_last(good, value) for value in BAD]
        for out in outputs:
            filt = make(**{keyword: lambda _x, out=out: out})
            with pytest.raises(ValueError):
                filt.constraint(0.0, x, u_nom, d_ok)
        for wrong in lengths(good):
            filt = make(**{keyword: lambda _x, out=wrong: out})
            with pytest.raises(DimensionError):
                filt.constraint(0.0, x, u_nom, d_ok)


def test_qp_instance_rejects_bad_data():
    u_nom, psi1 = np.array([1.0, -2.0]), np.array([0.5, 0.25])
    inst = qp.QpInstance(u_nom=u_nom, psi0=-1.0, psi1=psi1)
    for value in BAD:
        with pytest.raises(ValueError):
            inst._replace(psi0=value)
        with pytest.raises(ValueError):
            qp.QpInstance(u_nom=with_last(u_nom, value), psi0=-1.0, psi1=psi1)
        with pytest.raises(ValueError):
            qp.QpInstance(u_nom=u_nom, psi0=value, psi1=psi1)
        with pytest.raises(ValueError):
            qp.QpInstance(u_nom=u_nom, psi0=-1.0, psi1=with_last(psi1, value))
    for wrong in lengths(psi1):
        with pytest.raises(DimensionError):
            qp.QpInstance(u_nom=u_nom, psi0=-1.0, psi1=wrong)


def simulate_with_nominal(nominal):
    """A short scalar run whose pass-through filter hands u_nom straight to
    the plant, so only the simulator's own check can reject it."""
    system = scalar_filter().system
    gain = 2.0 * np.eye(1)
    obs = ObserverConfig(dim_state=1, dim_dist=1, gain=lambda x: gain,
                         gain_integral=gain.dot, alpha=2.0)
    return simulate.run_closed_loop(
        system, NoFilter(lambda x: float(x[0])), nominal,
        simulate.DisturbanceSignal.constant([0.5]),
        simulate.SimConfig(t0=0.0, tf=0.01, dt=1e-3), np.array([0.5]), obs)


def test_simulator_rejects_bad_nominal_control():
    assert len(simulate_with_nominal(lambda t, x: np.array([-1.0]))) == 11
    for value in BAD:
        with pytest.raises(ValueError):
            simulate_with_nominal(lambda t, x, v=value: np.array([v]))
    for wrong in (np.zeros(0), np.zeros(2)):
        with pytest.raises(DimensionError):
            simulate_with_nominal(lambda t, x, w=wrong: w)
