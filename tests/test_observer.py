import numpy as np
import pytest

from dobcbf.model import ControlAffineSystem, DimensionError, ParameterError
from dobcbf.observer import (ObserverConfig, ObserverState, error_envelope,
                             estimate, initial_state, validate_gain)
from dobcbf.simulate import rk4_step
from oracles import z_derivative


def scalar_config(alpha=2.0, nu=1.0, omega=2.0):
    return ObserverConfig(gain=alpha * np.eye(1), alpha=alpha, nu=nu,
                          omega=omega)


def ultimate_bound(cfg):
    """Oracle: the envelope's limit omega / sqrt(2 kappa nu)."""
    return cfg.omega / np.sqrt(2.0 * cfg.kappa * cfg.nu)


def scalar_system():
    return ControlAffineSystem(
        n=1, m=1, p=1,
        f=lambda x: np.zeros(1),
        g1=lambda x: np.eye(1),
        g2=lambda x: np.eye(1))


def test_config_rejects_nonpositive_kappa():
    with pytest.raises(ParameterError):
        scalar_config(alpha=0.4, nu=1.0)  # kappa = -0.1
    assert scalar_config(alpha=2.0).kappa == pytest.approx(1.5)


def test_config_rejects_gain_that_is_not_a_finite_matrix():
    for shape in ((), (2,), (1, 2, 2)):
        with pytest.raises(DimensionError):
            ObserverConfig(gain=np.ones(shape), alpha=2.0)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            ObserverConfig(gain=[[0.0, 0.0], [0.0, value]], alpha=2.0)
    cfg = ObserverConfig(gain=[[0.0, 1.0, 2.0]], alpha=2.0)
    assert cfg.dim_dist == 1 and cfg.gain.shape == (1, 3)


def test_config_keeps_its_own_copy_of_the_gain():
    gain = 2.0 * np.eye(2)
    cfg = ObserverConfig(gain=gain, alpha=2.0)
    gain[0, 0] = -7.0
    assert np.array_equal(cfg.gain_at(np.zeros(2)), 2.0 * np.eye(2))
    assert np.array_equal(cfg.integral_at(np.ones(2)), [2.0, 2.0])
    with pytest.raises(ValueError):
        cfg.gain_at(np.zeros(2))[0, 0] = -7.0


def test_initial_state_gives_zero_estimate():
    cfg = scalar_config()
    x0 = np.array([3.0])
    st = initial_state(cfg, x0)
    assert np.allclose(estimate(cfg, st, x0), 0.0)


def test_envelope_endpoints_and_monotonicity():
    cfg = scalar_config(alpha=2.0, nu=1.0, omega=2.0)
    e0 = 5.0
    assert error_envelope(cfg, e0, 0.0) == pytest.approx(e0)
    t = np.linspace(0.0, 10.0, 1001)
    env = error_envelope(cfg, e0, t)
    assert np.all(np.diff(env) <= 1e-12)  # decreasing since e0 > ultimate bound
    assert env[-1] == pytest.approx(ultimate_bound(cfg), abs=1e-6)
    # starting below the bound, the envelope grows toward it
    env_lo = error_envelope(cfg, 0.0, t)
    assert np.all(np.diff(env_lo) >= -1e-12)
    assert env_lo[-1] == pytest.approx(ultimate_bound(cfg), abs=1e-6)


def test_ultimate_bound_formula():
    cfg = scalar_config(alpha=2.0, nu=1.0, omega=2.0)
    # omega / sqrt(2 kappa nu) with kappa = 1.5, from any initial error
    for e0 in (0.0, 5.0):
        assert error_envelope(cfg, e0, 50.0) == pytest.approx(2.0 / np.sqrt(3.0))


def test_constant_disturbance_error_decays_at_kappa_rate():
    # d constant: the error ODE is linear, e(t) = e0 * exp(-alpha t) for the
    # scalar gain; the envelope with omega = 0 decays at kappa <= alpha, so
    # the simulated error must stay under it.
    alpha = 2.0
    cfg = scalar_config(alpha=alpha, nu=1.0, omega=0.0)
    sys = scalar_system()
    d = 1.5
    u = np.zeros(1)
    x = np.array([0.7])
    st = initial_state(cfg, x)
    dt = 1e-3
    e0 = abs(d - estimate(cfg, st, x)[0])

    def rhs(t, y):
        xs, zs = y[:1], y[1:]
        stt = ObserverState(zs)
        dx = sys.drift(xs) + sys.input_matrix(xs) @ u \
            + sys.disturbance_matrix(xs) @ np.array([d])
        dz = z_derivative(cfg, stt, sys, xs, u)
        return np.concatenate([dx, dz])

    y = np.concatenate([x, st.z])
    errs = []
    for k in range(2000):
        t = k * dt
        err = abs(d - estimate(cfg, ObserverState(y[1:]), y[:1])[0])
        errs.append((t, err))
        y = rk4_step(rhs, t, y, dt)
    for t, err in errs:
        assert err <= error_envelope(cfg, e0, t) + 1e-3
    # exact exponential for this linear scalar case
    t_end, err_end = errs[-1]
    assert err_end == pytest.approx(e0 * np.exp(-alpha * t_end), rel=1e-6)


def test_validate_gain_passes_correct_pair():
    cfg = scalar_config()
    rep = validate_gain(cfg, scalar_system(), np.linspace(-2, 2, 20).reshape(-1, 1))
    assert rep.passed
    assert rep.worst_coercivity_margin >= -1e-8


def test_validate_gain_catches_insufficient_coercivity():
    cfg = ObserverConfig(gain=1.0 * np.eye(1),
                         alpha=0.6)  # claims 0.6 but asks validation against itself
    # claim a larger alpha than the gain delivers
    strict = ObserverConfig(gain=1.0 * np.eye(1), alpha=1.5, nu=1.0)
    rep = validate_gain(strict, scalar_system(), [[0.0]])
    assert not rep.coercivity_ok
    rep_ok = validate_gain(cfg, scalar_system(), [[0.0]])
    assert rep_ok.coercivity_ok
