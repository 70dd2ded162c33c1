import numpy as np
import pytest

from dobcbf.el import violation_floor
from dobcbf.filters import Decision, NoFilter, QpFilter
from dobcbf.model import BarrierSpec, ControlAffineSystem, ParameterError
from dobcbf.observer import ObserverConfig


def scalar_plant(gamma=1.0):
    sys = ControlAffineSystem(
        n=1, m=1, p=1,
        f=lambda x: np.zeros(1),
        g1=lambda x: np.eye(1),
        g2=lambda x: np.eye(1))
    bar = BarrierSpec(chain=lambda x: ((float(x[0]), 0.0), np.ones(1),
                                       np.ones(1)),
                      poles=(gamma,))
    return sys, bar


def di_plant(poles=(1.0, 1.0)):
    sys = ControlAffineSystem(
        n=2, m=1, p=1,
        f=lambda x: np.array([x[1], 0.0]),
        g1=lambda x: np.array([[0.0], [1.0]]),
        g2=lambda x: np.array([[0.0], [1.0]]))
    bar = BarrierSpec(
        chain=lambda x: ((1.0 - float(x[0]), -float(x[1]), 0.0),
                         np.array([-1.0]), np.array([-1.0])),
        poles=poles)
    return sys, bar


def qp_filter(sys, bar, alpha, beta, nu=1.0, omega=0.0):
    """QpFilter whose observer has the constants alpha and nu and the gain
    alpha * [0 | I]: both plants take the disturbance in their last state."""
    obs = ObserverConfig(gain=alpha * np.eye(sys.p, sys.n, sys.n - sys.p),
                         alpha=alpha, nu=nu)
    return QpFilter(sys, bar, obs, beta, omega)


def row(filt, x, d_hat):
    dec = filt.constraint(0.0, x, np.zeros(filt.system.m), d_hat)
    return dec.psi0, dec.psi1


def test_params_validation():
    sys, bar = scalar_plant()
    with pytest.raises(ParameterError):
        qp_filter(sys, bar, alpha=2.0, beta=-1.0)
    with pytest.raises(ParameterError):
        qp_filter(sys, bar, alpha=2.0, beta=1.0, omega=-0.5)


def test_psi_rel1_hand_computed():
    sys, bar = scalar_plant(gamma=1.0)
    filt = qp_filter(sys, bar, alpha=2.0, beta=1.0, nu=1.0, omega=2.0)
    d_hat = np.array([0.5])
    x = np.array([1.0])
    psi0, psi1 = row(filt, x, d_hat)
    # Lfh=0, Lg2h.dhat=0.5, omega term 2^2/(2*1*1)=2,
    # beta*|Lg2h|^2/(4a-2g-2n)=1/4, gamma*h=1
    assert psi0 == pytest.approx(0.5 - 2.0 - 0.25 + 1.0)
    assert np.allclose(psi1, [1.0])


def test_scalar_constraint_calls_no_plant_callback():
    # a decision reads the barrier's Lie chain alone: the same row as
    # test_psi_rel1_hand_computed with a plant whose every callback raises
    def fail(x):
        raise AssertionError("plant callback called")

    _, bar = scalar_plant(gamma=1.0)
    sys = ControlAffineSystem(n=1, m=1, p=1, f=fail, g1=fail, g2=fail,
                              terms=fail)
    filt = qp_filter(sys, bar, alpha=2.0, beta=1.0, nu=1.0, omega=2.0)
    dec = filt.constraint(0.0, np.array([1.0]), np.zeros(1), np.array([0.5]))
    assert dec.psi0 == pytest.approx(0.5 - 2.0 - 0.25 + 1.0)
    assert np.allclose(dec.psi1, [1.0])


def test_psi_rel1_denominator_guard():
    # the filter condition is checked once, when the filter is built
    sys, bar = scalar_plant(gamma=1.0)
    with pytest.raises(ParameterError):
        qp_filter(sys, bar, alpha=1.0, beta=1.0, nu=1.0)  # 4a-2g-2n = 0


def test_psi_rel1_no_omega_drops_only_that_term():
    # withholding the derivative bound is omega = 0
    sys, bar = scalar_plant()
    full = qp_filter(sys, bar, alpha=2.0, beta=1.0, nu=1.0, omega=2.0)
    wo = qp_filter(sys, bar, alpha=2.0, beta=1.0, nu=1.0, omega=0.0)
    x, d_hat = np.array([0.7]), np.array([0.3])
    p_full, _ = row(full, x, d_hat)
    p_wo, _ = row(wo, x, d_hat)
    assert p_wo - p_full == pytest.approx(2.0 ** 2 / 2.0)


def test_psi_relr_hand_computed():
    sys, bar = di_plant(poles=(1.0, 1.0))
    filt = qp_filter(sys, bar, alpha=2.0, beta=1.0, nu=1.0, omega=0.0)
    x = np.array([0.0, 0.0])
    d_hat = np.array([1.0])
    psi0, psi1 = row(filt, x, d_hat)
    # L_f^2 h = 0; L_g2 L_f h . dhat = -1; omega term 0;
    # beta*1/(4*2-2*1-2*1) = 1/4; a = (2,1), eta = (L_f h, h) = (0, 1)
    assert psi0 == pytest.approx(-1.0 - 0.25 + 1.0)
    assert np.allclose(psi1, [-1.0])


def test_augmented_barrier_values():
    # hbar = beta * s_{r-1} - ||e_d||^2 / 2, read from the filter's probe
    sys, bar = scalar_plant()
    filt = qp_filter(sys, bar, alpha=2.0, beta=3.0, nu=1.0)
    assert filt.probe(np.array([2.0]), np.array([1.0]))["hbar"] == \
        pytest.approx(3.0 * 2.0 - 0.5)
    sys2, bar2 = di_plant()
    filt2 = qp_filter(sys2, bar2, alpha=2.0, beta=2.0, nu=1.0)
    x = np.array([0.25, -0.5])
    s1 = 0.5 + 0.75  # -x2 + lambda_1 * h
    probe = filt2.probe(x, np.array([0.0]))
    assert probe["hbar"] == pytest.approx(2 * s1)
    assert probe["s0"] == pytest.approx(0.75)
    assert probe["s1"] == pytest.approx(s1)


def test_violation_floor_shape():
    # nu = 1, gamma = 1, the energy scale beta = 2 and the true omega = 3
    assert violation_floor(1.0, 1.0, 2.0, 3.0, 0.0) == pytest.approx(0.0)
    t = np.linspace(0, 50, 500)
    fl = violation_floor(1.0, 1.0, 2.0, 3.0, t)
    assert np.all(np.diff(fl) <= 1e-15)
    assert fl[-1] == pytest.approx(-9.0 / (2 * 1 * 1 * 2), abs=1e-6)


def test_validate_params_strictness():
    sys, bar = scalar_plant(gamma=1.0)
    # alpha = (gamma + nu)/2 exactly -> the strict inequality fails at build
    with pytest.raises(ParameterError):
        qp_filter(sys, bar, alpha=1.0, beta=1.0, nu=1.0)
    ok = qp_filter(sys, bar, alpha=1.1, beta=1.0, nu=1.0).report([1.0], 0.0)
    assert ok.passed and ok.alpha_margin == pytest.approx(0.1)
    filt = qp_filter(sys, bar, alpha=2.0, beta=1.0, nu=1.0)
    # beta too small for the initial error
    bad = filt.report([1.0], 2.0)
    assert not bad.beta_ok
    neg = filt.report([-0.5], 0.0)
    assert not neg.passed
    # r = 2: the threshold is the last pole, and every s_k must be positive
    sys2, bar2 = di_plant(poles=(1.0, 3.0))
    with pytest.raises(ParameterError):
        qp_filter(sys2, bar2, alpha=2.0, beta=1.0, nu=1.0)
    # x0 = (1.1, -1.1): s_0 = 1 - x_1 = -0.1, s_1 = -x_2 + s_0 = 1.0
    cascade = qp_filter(sys2, bar2, alpha=2.5, beta=1.0, nu=1.0).report(
        [1.1, -1.1], 0.0)
    assert cascade.beta_ok and not cascade.cascade_ok


def test_filter_objects_produce_decisions():
    sys, bar = scalar_plant()
    filt = qp_filter(sys, bar, alpha=2.0, beta=1.0, nu=1.0)
    dec = filt.constraint(0.0, np.array([1.0]), np.array([0.0]),
                          np.array([0.0]))
    assert not dec.bypass
    probe = filt.probe(np.array([1.0]), np.array([0.5]))
    assert probe["h"] == pytest.approx(1.0)
    assert probe["hbar"] == pytest.approx(1.0 - 0.125)
    assert set(probe) == {"h", "hbar"}  # s_0 = h is not logged twice

    nof = NoFilter(h_fn=lambda x: bar.chain(x)[0][0])
    dec = nof.constraint(0.0, np.array([1.0]), np.array([9.0]), np.array([0.0]))
    assert dec.bypass and dec.psi0 is None
    assert np.isnan(nof.probe(np.array([1.0]), np.array([0.0]))["hbar"])
    assert nof.report(np.array([1.0]), 0.0) is None


def test_decisions_equal_ones_built_by_keyword():
    # constraint builds its Decision with tuple.__new__, every field given:
    # the same type, fields and values as the NamedTuple's constructor,
    # whose defaults (no bypass, no event) a regular row takes
    assert Decision._fields == ("psi0", "psi1", "bypass", "event")
    assert Decision._field_defaults == {"bypass": False, "event": None}
    sys, bar = scalar_plant()
    filt = qp_filter(sys, bar, alpha=2.0, beta=1.0, nu=1.0)
    dec = filt.constraint(0.0, [1.0], [0.0], [0.0])
    assert type(dec) is Decision and len(dec) == 4
    assert dec == Decision(psi0=dec.psi0, psi1=dec.psi1)
    assert dec.bypass is False and dec.event is None
    # a vanishing L_g1 h bypasses, with the event when psi0 < 0
    flat = BarrierSpec(chain=lambda x: ((float(x[0]), 0.0), (0.0,), (0.0,)),
                       poles=(1.0,))
    singular = qp_filter(sys, flat, alpha=2.0, beta=1.0, nu=1.0, omega=10.0)
    for x, event in (([1.0], "singular_infeasible"), ([100.0], None)):
        dec = singular.constraint(0.0, x, [0.0], [0.0])
        assert type(dec) is Decision
        assert dec == Decision(psi0=dec.psi0, psi1=dec.psi1, bypass=True,
                               event=event)
        assert dec.bypass is True and dec.event == event
