import math
import operator

import numpy as np
import pytest

from dobcbf import el, observer, scenarios
from dobcbf.model import (ControlAffineSystem, DimensionError, ParameterError,
                          as_floats)
from dobcbf.observer import (ObserverConfig, ObserverState, error_envelope,
                             estimate, gain_spectrum, initial_state)
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


def test_config_rejects_a_ragged_gain():
    # rows of unequal lengths form no matrix
    for gain in ([[1.0], [1.0, 2.0]], [[1.0, 2.0], 3.0]):
        with pytest.raises(DimensionError, match="gain"):
            ObserverConfig(gain=gain, alpha=1.0)


def test_config_keeps_its_own_copy_of_the_gain():
    gain = 2.0 * np.eye(2)
    cfg = ObserverConfig(gain=gain, alpha=2.0)
    gain[0, 0] = -7.0
    assert np.array_equal(cfg.gain_at(np.zeros(2)), 2.0 * np.eye(2))
    assert np.array_equal(cfg.integral_at(np.ones(2)), [2.0, 2.0])
    with pytest.raises(ValueError):
        cfg.gain_at(np.zeros(2))[0, 0] = -7.0


def dense_sums(gain, x):
    """Oracle: p(x) as float sums over every entry of each row of L_d."""
    return [sum(map(operator.mul, row, x)) for row in np.asarray(gain).tolist()]


def float_bits(values):
    # tobytes tells -0.0 from 0.0, where == does not
    return np.array(values, dtype=float).tobytes()


def test_sparse_rows_give_the_dense_float_sums_bit_for_bit():
    # integral_at sums only the nonzero entries of each row of L_d; on
    # finite x every bit, -0.0 included, is the full row's float sum
    rng = np.random.default_rng(2027)
    for _ in range(300):
        p, n = rng.integers(1, 5), rng.integers(1, 7)
        gain = rng.normal(size=(p, n))
        gain[rng.random((p, n)) < 0.4] = 0.0
        gain[rng.random((p, n)) < 0.2] = -0.0
        gain[rng.integers(p)] *= rng.random() < 0.3  # now and then a zero row
        x = rng.normal(size=n)
        x[rng.random(n) < 0.3] = 0.0
        x[rng.random(n) < 0.2] = -0.0
        cfg = ObserverConfig(gain=gain, alpha=1.0)
        want = dense_sums(gain, x.tolist())
        for arg in (x, x.tolist()):
            got = cfg.integral_at(arg)
            assert all(type(v) is float for v in got)
            assert float_bits(got) == float_bits(want)
        z = rng.normal(size=p).tolist()
        assert float_bits(estimate(cfg, ObserverState(z), x)) == \
            float_bits(list(map(operator.add, z, want)))


def test_sparse_rows_at_signed_zeros():
    # one product that is -0.0 still gives +0.0, as the dense sum adds it
    # to 0; a row of zeros (+0.0 or -0.0 coefficients) gives the float 0.0
    gain = [[0.0, -2.0, 0.0], [0.0, -0.0, 0.0], [1.5, 0.0, -2.0]]
    cfg = ObserverConfig(gain=gain, alpha=1.0)
    for x in ([1.0, 0.0, -3.0], [-0.0, -0.0, -0.0], [-1.0, 4.0, 0.75],
              [0.0, 0.0, 0.0], [2.0, -0.0, 1.5]):
        got = cfg.integral_at(x)
        assert float_bits(got) == float_bits(dense_sums(gain, x))
        assert type(got[1]) is float and float_bits([got[1]]) == float_bits([0.0])
    assert cfg.dim_dist == 3 and type(cfg.dim_dist) is int


def test_sparse_rows_still_check_every_entry_of_x():
    # a non-finite x raises as_floats' error, also where its column has
    # only zero coefficients and the sum never reads it
    cfg = ObserverConfig(gain=[[0.0, 2.0, 0.0]], alpha=2.0)
    st = ObserverState([0.0])
    for x in ([math.inf, 1.0, 0.0], [0.0, 1.0, math.nan],
              np.array([1.0, -math.inf, 0.0]), [1.0, 2.0]):
        with pytest.raises(ValueError) as want:
            as_floats(x, 3, "x")
        for call in (lambda: cfg.integral_at(x), lambda: estimate(cfg, st, x)):
            with pytest.raises(ValueError) as got:
                call()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
    with pytest.raises(DimensionError, match=r"z has shape \(2,\), expected \(1,\)"):
        estimate(cfg, ObserverState([0.0, 0.0]), [0.0, 1.0, 0.0])


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


def test_envelope_starts_at_e0_for_a_subnormal_nu():
    # 2 kappa nu is subnormal at nu = 1e-320: E(0) is still e0 exactly, and
    # E is infinite after, a true but vacuous bound
    cfg = scalar_config(alpha=2.0, nu=1e-320, omega=2.0)
    e0 = math.sqrt(50.0)
    assert error_envelope(cfg, e0, 0.0) == e0
    assert error_envelope(cfg, e0, np.array([0.0]))[0] == e0
    assert error_envelope(cfg, e0, 1e-3) == math.inf
    # at a normal nu, E^2 = e0^2 decay + omega^2 (1 - decay)/(2 kappa nu)
    # is the bound (2 kappa nu e0^2 decay - omega^2 decay + omega^2)/(2
    # kappa nu), and E(0) = e0 exactly
    cfg = scalar_config(alpha=2.0, nu=1.0, omega=2.0)
    t = np.linspace(0.0, 5.0, 501)
    decay = np.exp(-2.0 * cfg.kappa * t)
    two_kn = 2.0 * cfg.kappa * cfg.nu
    want = np.sqrt((two_kn * e0 ** 2 * decay - 4.0 * decay + 4.0) / two_kn)
    assert np.allclose(error_envelope(cfg, e0, t), want, rtol=1e-15, atol=0.0)
    for e in (0.0, 1e-3, e0, 1e150):
        assert error_envelope(cfg, e, 0.0) == e


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
        fx, G1, G2 = map(np.asarray, sys.evaluate(xs))
        dx = fx + G1 @ u + G2 @ np.array([d])
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
    # L_d g2 = alpha on the scalar plant, so the margin is 0 at every state
    cfg = scalar_config()
    states = np.linspace(-2, 2, 20).reshape(-1, 1)
    lam_min, lam_max = gain_spectrum(cfg, scalar_system(), states)
    assert lam_min - cfg.alpha == 0.0 and lam_max == cfg.alpha


def test_validate_gain_catches_insufficient_coercivity(monkeypatch):
    # claim a larger alpha than the gain delivers
    strict = ObserverConfig(gain=1.0 * np.eye(1), alpha=1.5, nu=1.0)
    lam_min, _ = gain_spectrum(strict, scalar_system(), [[0.0]])
    assert lam_min - strict.alpha == pytest.approx(-0.5)
    ok = ObserverConfig(gain=1.0 * np.eye(1), alpha=0.6)
    assert gain_spectrum(ok, scalar_system(), [[0.0]])[0] - ok.alpha > 0.0
    # and build rejects a scenario whose observer claims it: every gain
    # delivers 1/1.5 of the alpha it is built with
    real = observer.ObserverConfig
    monkeypatch.setattr(observer, "ObserverConfig",
                        lambda gain, alpha, **kw: real(
                            gain=np.asarray(gain) / 1.5, alpha=alpha, **kw))
    with pytest.raises(scenarios.ConfigError, match="coercivity margin"):
        scenarios.build({"scenario": "scalar-rel1"})
    # an overflowing product is no spectrum at all
    huge = ObserverConfig(gain=1e308 * np.eye(1), alpha=2.0)
    big_g2 = ControlAffineSystem(n=1, m=1, p=1, f=lambda x: (0.0,),
                                 g1=lambda x: ((1.0,),), g2=lambda x: ((10.0,),))
    with np.errstate(over="ignore"), \
            pytest.raises(ParameterError, match="not finite"):
        gain_spectrum(huge, big_g2, [[0.0]])


def test_gain_spectrum_bounds_a_dense_sweep_of_the_arm():
    # Oracle: alpha1 * inv(M(q)) by np.linalg.inv at 20 001 elbow angles in
    # [-pi, pi] (M depends on q2 only; q1 and the velocities are arbitrary)
    alpha1 = 500.0
    arm = el.TwoLinkArm()
    system = arm.plant()
    mu1, mu2 = scenarios.arm_mu_bounds(arm.mass)
    cfg = el.el_observer_config(alpha1, mu1, 1.0, 0.0)
    lam_min, lam_max = gain_spectrum(
        cfg, system, [(0.0, 0.0, 0.0, 0.0), (0.0, math.pi, 0.0, 0.0)])
    q2 = np.linspace(-math.pi, math.pi, 20001)
    A = alpha1 * np.linalg.inv(np.array([arm.mass((0.7, v)) for v in q2]))
    lam = np.linalg.eigvalsh(0.5 * (A + A.transpose(0, 2, 1)))
    assert lam[:, 0].min() >= lam_min and lam[:, 1].max() <= lam_max
    assert lam_max == pytest.approx(alpha1 * mu2, rel=1e-12)
    assert abs(lam_min - cfg.alpha) <= 1e-12 * cfg.alpha
