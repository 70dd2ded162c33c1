import math
import warnings

import numpy as np
import pytest

from dobcbf import simulate
from dobcbf.el import arm_derivative
from dobcbf.filters import NoFilter
from dobcbf.model import ControlAffineSystem, ParameterError
from dobcbf.observer import ObserverConfig
from dobcbf.simulate import (DisturbanceSignal, SimConfig, Term,
                             TrajectoryLog, joint_derivative, metrics,
                             read_metrics, rk4_step, run_closed_loop,
                             write_metrics)
import dobcbf.scenarios as scenarios
from oracles import (blocked_max_norm, csv_per_cell, grid_max_norm,
                     joint_derivative_arrays, per_term_sum, rk4_step_arrays,
                     term_derivative, term_value)


def test_rk4_exponential_accuracy():
    # xdot = -x, one step of dt = 0.1 from x = 1
    x = rk4_step(lambda t, y: [-v for v in y], 0.0, [1.0], 0.1)
    assert x[0] == pytest.approx(np.exp(-0.1), abs=1e-7)


def test_rk4_harmonic_energy_drift():
    dt = 1e-3
    y = [1.0, 0.0]
    rhs = lambda t, s: (s[1], -s[0])
    for k in range(1000):
        y = rk4_step(rhs, k * dt, y, dt)
    energy = y[0] ** 2 + y[1] ** 2
    assert abs(energy - 1.0) <= 1e-9


def test_rk4_rejects_nonfinite():
    from dobcbf.simulate import IntegrationError
    with pytest.raises(IntegrationError):
        rk4_step(lambda t, y: [v * np.inf for v in y], 0.0, [1.0], 0.1)
    # the verdict is np.isfinite's at the edges of float64, in the last entry
    still = lambda t, y: [0.0] * len(y)  # the step returns the state
    for value in (np.nan, np.inf, -np.inf, -0.0, 5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308):
        state = [1.0, -2.0, 3.0, value]
        if np.isfinite(value):
            assert np.array_equal(rk4_step(still, 0.0, state, 0.1), state)
        else:
            with pytest.raises(IntegrationError):
                rk4_step(still, 0.0, state, 0.1)


def test_rk4_step_is_the_array_step_bit_for_bit():
    # y' = A y + t b on seeded data: the float step and the array step see
    # the same stage values, so every entry of every step must be the same
    # bits
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for _ in range(5):
            A = rng.normal(scale=3.0, size=(n, n))
            b = rng.normal(size=n)
            y0 = rng.normal(scale=10.0, size=n)
            dt = float(rng.uniform(1e-4, 0.1))
            ref = lambda t, y: A.dot(y) + t * b
            rhs = lambda t, y: ref(t, np.array(y)).tolist()
            got, want = y0.tolist(), y0
            for k in range(10):
                got = rk4_step(rhs, k * dt, got, dt)
                want = rk4_step_arrays(ref, k * dt, want, dt)
                assert type(got) is list and len(got) == n
                assert np.array(got).tobytes() == want.tobytes()


def test_logged_disturbance_is_exact_at_every_row():
    # the loop evaluates d(t) once per distinct time and reuses it; every
    # logged value must still be the signal's value at that row's time
    sc = scenarios.build({"scenario": "el2dof-dob",
                          "sim": {"tf": 0.05, "log_stride": 1}})
    log = sc.run()
    assert len(log) == 51
    logged = np.stack([log.column("d0"), log.column("d1")], axis=1)
    fresh = np.stack([np.asarray(sc.disturbance.value(t))
                      for t in log.column("t")])
    assert logged.tobytes() == fresh.tobytes()


def test_arm_and_generic_derivatives_give_the_same_run():
    # the arm family runs the float kernel; the generic builder, passed
    # explicitly, must give the same log within rounding
    sc = scenarios.build({"scenario": "el2dof-dob",
                          "sim": {"tf": 0.05, "log_stride": 1}})
    assert sc.derivative is arm_derivative
    arm = sc.run()
    generic = run_closed_loop(sc.system, sc.safety, sc.nominal, sc.disturbance,
                              sc.simcfg, sc.x0, sc.observer_cfg,
                              derivative=joint_derivative)
    assert arm.columns == generic.columns and len(arm) == len(generic) == 51
    assert arm.status_counts == generic.status_counts
    assert not arm.aborted and not generic.aborted
    for name in arm.columns:
        a, g = arm.column(name), generic.column(name)
        assert np.array_equal(np.isnan(a), np.isnan(g)), name
        a, g = a[~np.isnan(a)], g[~np.isnan(g)]
        assert np.all(np.abs(a - g) <= 1e-12 * np.max(np.abs(g), initial=0.0)), name


def test_joint_derivative_is_the_numpy_one_bit_for_bit():
    # on the scalar and double-integrator plants the float sums and the
    # NumPy products see the same operands in the same order
    rng = np.random.default_rng(12)
    for name in ("scalar-rel1", "doubleint-relr"):
        sc = scenarios.build({"scenario": name})
        n = sc.system.n
        value = sc.disturbance.value
        rhs, hold = joint_derivative(sc.system, sc.observer_cfg, value)
        ref, ref_hold = joint_derivative_arrays(sc.system, sc.observer_cfg,
                                                value)
        for _ in range(200):
            t = float(rng.uniform(0.0, 20.0))
            y = rng.normal(scale=3.0, size=n + 1).tolist()
            u = rng.normal(scale=5.0, size=1)
            hold(u)
            ref_hold(u)
            got = rhs(t, y)
            assert type(got) is list and len(got) == n + 1
            assert np.array(got).tobytes() == np.array(ref(t, y)).tobytes()


def test_joint_derivative_agrees_on_a_linear_plant():
    # a seeded plant with n = 4, m = p = 2 and a full gain: the sums run in
    # another order than BLAS's, so the two agree to rounding
    rng = np.random.default_rng(13)
    A, B, E = (rng.normal(size=shape) for shape in ((4, 4), (4, 2), (4, 2)))
    system = ControlAffineSystem(n=4, m=2, p=2, f=lambda x: A.dot(x),
                                 g1=lambda x: B, g2=lambda x: E)
    cfg = ObserverConfig(gain=rng.normal(size=(2, 4)), alpha=1.0)
    d = {}
    rhs, hold = joint_derivative(system, cfg, lambda t: d[t].tolist())
    ref, ref_hold = joint_derivative_arrays(system, cfg, lambda t: d[t])
    for _ in range(200):
        t = float(rng.uniform(0.0, 20.0))
        d[t] = rng.normal(scale=2.0, size=2)
        y = rng.normal(scale=3.0, size=6).tolist()
        u = rng.normal(scale=5.0, size=2)
        hold(u)
        ref_hold(u)
        got, want = np.array(rhs(t, y)), np.array(ref(t, y))
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max())


def test_joint_derivative_rejects_a_nonfinite_integral():
    # p(x) = 2 x overflows at x = 1e308 on the scalar plant, whose f, g1
    # and g2 are finite there
    sc = scenarios.build({"scenario": "scalar-rel1"})
    rhs, hold = joint_derivative(sc.system, sc.observer_cfg, lambda t: [0.0])
    hold(np.zeros(1))
    assert rhs(0.0, [1e307, 0.0])[1] == -4e307
    with pytest.raises(ValueError, match=r"p\(x\): non-finite entries"):
        rhs(0.0, [1e308, 0.0])


def test_to_csv_matches_the_per_cell_writer(tmp_path):
    # float64 edge values in every value column and every status code
    edges = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
             1.7976931348623157e308, -1.7976931348623157e308, 1.0, -2.5e-7]
    columns = ["t", "x0", "qp_status", "e_norm"]
    rows = [[a, b, float(code), c]
            for a, b, c, code in zip(edges, edges[::-1], edges[3:] + edges[:3],
                                     [0, 1, 2, 3] * 3)]
    log = TrajectoryLog(columns=columns, data=np.array(rows))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    log.to_csv(got)
    csv_per_cell(columns, log.data, want)
    assert got.read_bytes() == want.read_bytes()
    assert "nan" in got.read_text() and "-0.00000000000000e+00" in got.read_text()
    # and a run's log, through the scenario's own columns
    log = scenarios.build({"scenario": "doubleint-relr",
                           "sim": {"tf": 0.2, "log_stride": 1}}).run()
    log.to_csv(got)
    csv_per_cell(log.columns, log.data, want)
    assert got.read_bytes() == want.read_bytes()


def test_log_rows_when_the_stride_does_not_divide_the_steps():
    # 100 steps at stride 7 log k = 0, 7, ..., 98 and the last step, 100;
    # every row holds the same bits as the stride-1 log's row of that step
    full = scenarios.build({"scenario": "doubleint-relr",
                            "sim": {"tf": 0.1, "log_stride": 1}}).run()
    assert len(full) == 101
    for stride, steps in ((7, list(range(0, 100, 7)) + [100]),
                          (10, list(range(0, 101, 10))),
                          (100, [0, 100]), (150, [0, 100])):
        log = scenarios.build({"scenario": "doubleint-relr",
                               "sim": {"tf": 0.1, "log_stride": stride}}).run()
        assert len(log) == len(steps)
        assert log.data.tobytes() == full.data[steps].tobytes()


def test_term_and_signal_derivatives():
    # the oracle's analytic derivative is the slope of the packed signal's
    # value, and the derivative bound at one time is its magnitude
    t = 0.7
    eps = 1e-6
    for term, tol in ((Term(amplitude=2.0, frequency=3.0, phase=0.5,
                            waveform="sin"), 1e-6),
                      (Term(amplitude=-5.0, frequency=5.0, waveform="cos"), 1e-5)):
        sig = DisturbanceSignal(((term,),))
        fd = float((np.asarray(sig.value(t + eps))
                    - np.asarray(sig.value(t - eps)))[0]) / (2 * eps)
        assert term_derivative(term, t) == pytest.approx(fd, abs=tol)
        assert sig.max_norm(t, t, 1, derivative=True) == pytest.approx(abs(fd), abs=tol)
        assert sig.value(t)[0] == pytest.approx(term_value(term, t), abs=1e-13)
    with pytest.raises(ParameterError):
        Term(amplitude=1.0, frequency=1.0, waveform="tan")


def test_signal_norm_bounds():
    sig = DisturbanceSignal((
        (Term(10.0, 1.0, waveform="sin"), Term(2.0, 2.0, waveform="sin"),
         Term(-5.0, 5.0, waveform="cos"), Term(10.0, 3.0, waveform="cos")),
        (Term(10.0, 1.0, waveform="sin"), Term(2.0, 2.0, waveform="sin"),
         Term(-5.0, 5.0, waveform="cos"), Term(10.0, 3.0, waveform="cos")),
    ))
    wmax = sig.max_norm(0.0, 2.0 * np.pi, 200001, derivative=True)
    # per-channel derivative amplitude sum: 10 + 4 + 25 + 30 = 69
    assert wmax <= np.sqrt(2.0) * 69.0
    assert wmax >= 0.5 * np.sqrt(2.0) * 69.0  # not wildly conservative
    vals = np.asarray(sig.value(1.234))
    assert vals[0] == pytest.approx(vals[1])


def constant_signal(values):
    """A constant d(t) = values: one frequency-0 cos term per channel."""
    return DisturbanceSignal(tuple((Term(float(v), 0.0, waveform="cos"),)
                                   for v in values))


def test_constant_signal():
    sig = constant_signal([1.5, -2.0])
    assert np.allclose(np.asarray(sig.value(0.0)), [1.5, -2.0])
    assert np.allclose(np.asarray(sig.value(17.3)), [1.5, -2.0])
    assert np.allclose(per_term_sum(sig, 5.0, derivative=True), 0.0)
    assert sig.max_norm(0.0, 20.0, 101, derivative=True) == 0.0
    assert sig.max_norm(3.0, 3.0, 1) == pytest.approx(2.5)


def test_simconfig_validation():
    with pytest.raises(ParameterError):
        SimConfig(t0=0.0, tf=1.0, dt=-0.1)
    with pytest.raises(ParameterError):
        SimConfig(t0=1.0, tf=0.0, dt=0.1)
    with pytest.raises(ParameterError):
        SimConfig(t0=0.0, tf=1.0, dt=0.3)  # not an integer number of steps
    cfg = SimConfig(t0=0.0, tf=2.0, dt=1e-3)
    assert cfg.n_steps == 2000


def test_closed_loop_log_structure():
    sc = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 1.0}})
    log = sc.run()
    assert log.columns[0] == "t"
    assert "qp_status" in log.columns
    assert len(log) == 1001 / 10 + 1 or len(log) == 101  # stride 10 + final
    t = log.column("t")
    assert t[0] == 0.0 and t[-1] == pytest.approx(1.0)
    assert not log.aborted


def test_closed_loop_deterministic_and_csv_identical(tmp_path):
    sc1 = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 1.0}})
    sc2 = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 1.0}})
    log1, log2 = sc1.run(), sc2.run()
    assert np.array_equal(log1.data, log2.data)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    log1.to_csv(p1)
    log2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_precision(tmp_path):
    sc = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 0.1}})
    log = sc.run()
    path = tmp_path / "t.csv"
    log.to_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cell = lines[1].split(",")[header.index("x0")]
    mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) >= 12  # at least 12 significant digits


def test_blowup_aborts_with_partial_log(monkeypatch):
    sc = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 1.0}})
    # destabilize: positive feedback nominal, no filtering
    sc.safety = NoFilter(h_fn=lambda x: float(x[0]))
    sc.nominal = lambda t, x: np.array([50.0 * x[0]])
    monkeypatch.setattr(simulate, "BLOWUP_NORM", 1e6)
    log = sc.run()
    assert log.aborted
    assert len(log) >= 1
    assert any(name in ("blowup", "integration_error")
               for _, name in log.events)


def test_blowup_stops_at_the_first_integration_step_past_the_norm(monkeypatch):
    # a diverging scalar run at 4 substeps per logged step; rk4_step is
    # counted through a wrapper on the module attribute, as the benchmark
    # counts it, and the guard must stop the run after the first step whose
    # state norm passes BLOWUP_NORM, also inside a logged step; the run
    # reads the constant when it is called, so each run below sees its own
    sc = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 1.0}})
    sc.safety = NoFilter(h_fn=lambda x: float(x[0]))
    sc.nominal = lambda t, x: np.array([50.0 * x[0]])
    substeps = 4
    norms, times = [], []
    step = simulate.rk4_step

    def counted(rhs, t, state, dt):
        out = step(rhs, t, state, dt)
        norms.append(math.hypot(*out))
        times.append(t)
        return out

    monkeypatch.setattr(simulate, "rk4_step", counted)

    cfg = sc.simcfg
    sc.simcfg = SimConfig(t0=cfg.t0, tf=cfg.tf, dt=cfg.dt,
                          log_stride=cfg.log_stride, substeps=substeps)

    def run(blowup_norm):
        monkeypatch.setattr(simulate, "BLOWUP_NORM", blowup_norm)
        norms.clear()
        times.clear()
        return sc.run()

    run(1e300)
    assert all(a < b for a, b in zip(norms, norms[1:]))  # a steady growth
    # the second integration step of the time step k = 123, not a log row
    first = 123 * substeps + 1
    limit = 0.5 * (norms[first - 1] + norms[first])
    log = run(limit)
    assert log.aborted
    assert len(norms) == first + 1
    assert max(norms[:-1]) <= limit < norms[-1]
    assert log.events[-1] == (times[-1], "blowup")
    assert len(log) == first // (substeps * sc.simcfg.log_stride) + 1


def test_metrics_roundtrip(tmp_path):
    sc = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 1.0}})
    log = sc.run()
    summary = sc.metrics(log)
    summary["scenario"] = sc.name
    path = tmp_path / "metrics.txt"
    write_metrics(path, summary)
    back = read_metrics(path)
    assert back["scenario"] == "scalar-rel1"
    assert back["min_h"] == pytest.approx(summary["min_h"], rel=1e-12)
    assert back["n_active"] == summary["n_active"]


def test_metrics_contents():
    sc = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 2.0}})
    log = sc.run()
    m = sc.metrics(log)
    for key in ("min_h", "min_hbar", "n_active", "n_infeasible",
                "n_bypassed", "aborted", "max_u_norm", "max_env_residual"):
        assert key in m
    assert m["aborted"] == 0
    assert m["min_h"] >= -1e-6


def test_envelope_residual_nonpositive_for_valid_observer():
    sc = scenarios.build({"scenario": "scalar-rel1", "sim": {"tf": 5.0}})
    log = sc.run()
    m = sc.metrics(log)
    assert m["max_env_residual"] <= 1e-3


def test_packed_signal_matches_per_term_sum():
    arm = scenarios.build({"scenario": "el2dof-dob"}).disturbance
    cases = [arm,
             DisturbanceSignal(((Term(1.5, 2.0, phase=0.3),), (),
                                (Term(-2.0, 0.5, waveform="cos"),
                                 Term(0.25, 7.0, phase=-1.0)))),
             constant_signal([1.5, -2.0, 0.0]),
             DisturbanceSignal(((), ()))]
    for sig in cases:
        terms = [term for ch in sig.channels for term in ch]
        # tolerance 1e-13 * sum |a| on values, 1e-13 * sum |a w| on slopes
        tol = {False: 1e-13 * sum(abs(term.amplitude) for term in terms),
               True: 1e-13 * sum(abs(term.amplitude * term.frequency)
                                 for term in terms)}
        grid = np.linspace(0.0, 20.0, 401)
        for t in grid:
            got = sig.value(t)
            assert type(got) is tuple and len(got) == sig.dim
            assert all(type(v) is float for v in got)
            got = np.asarray(got)
            assert np.all(np.abs(got - per_term_sum(sig, t)) <= tol[False])
        for deriv in (False, True):
            assert abs(sig.max_norm(0.0, 20.0, 401, derivative=deriv)
                       - grid_max_norm(sig, grid, derivative=deriv)) <= tol[deriv]
    assert np.array_equal(np.asarray(DisturbanceSignal(((), ())).value(3.0)),
                          np.zeros(2))
    # max_norm evaluates in blocks: over three of them, the maximum of a
    # rising sin(t/4) on [0, 2 pi] is at the last point, and of its slope
    # at the first
    rising = DisturbanceSignal(((Term(1.0, 0.25),),))
    grid = np.linspace(0.0, 2.0 * np.pi, 10_001)
    assert rising.max_norm(0.0, 2.0 * np.pi, 10_001) == pytest.approx(1.0, abs=1e-15)
    assert rising.max_norm(0.0, float(grid[-2]), 10_000) < 1.0
    assert rising.max_norm(0.0, 2.0 * np.pi, 10_001, derivative=True) == 0.25


def same_bits_on_both_bounds(sig, t0, tf, points):
    grid = np.linspace(t0, tf, points)
    for deriv in (False, True):
        got = sig.max_norm(t0, tf, points, deriv)
        want = blocked_max_norm(sig, grid, deriv)
        assert got == want, (deriv, got, want)


@pytest.mark.parametrize("name", scenarios.SCENARIOS)
def test_max_norm_is_the_blocked_loop_on_every_scenario(name):
    sig = scenarios.build({"scenario": name, "sim": {"tf": 0.125}}).disturbance
    for tf in (0.125, 1.0, 20.0, 200.0):
        same_bits_on_both_bounds(sig, 0.0, tf, scenarios.BOUND_GRID_POINTS)


def test_max_norm_is_the_blocked_loop_on_random_signals():
    # 1-3 channels of 0-5 sin and cos terms; grids one block short, one
    # block, one point over and the bound grid
    rng = np.random.default_rng(1515)
    sizes = (1, 2, 4095, 4096, 4097, scenarios.BOUND_GRID_POINTS)
    for i in range(300):
        sig = DisturbanceSignal(tuple(
            tuple(Term(float(rng.normal(scale=10.0)),
                       float(rng.uniform(-20.0, 20.0)),
                       float(rng.uniform(-4.0, 4.0)),
                       "sin" if rng.random() < 0.5 else "cos")
                  for _ in range(rng.integers(0, 6)))
            for _ in range(rng.integers(1, 4))))
        t0 = float(rng.uniform(-5.0, 5.0))
        same_bits_on_both_bounds(sig, t0, t0 + float(rng.uniform(0.1, 30.0)),
                                 sizes[i % len(sizes)])


def test_max_norm_is_the_blocked_loop_on_ties():
    # a * f overflows, so L is inf and L times the grid's span (0) is NaN:
    # every block is evaluated, with no warning
    steep = DisturbanceSignal(((Term(1e100, 1e300, phase=1.0),),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = steep.max_norm(0.0, 0.0, 5000)
    assert got == blocked_max_norm(steep, np.zeros(5000))
    assert got == pytest.approx(1e100 * math.sin(1.0))
    # (a sin wt, a cos wt) has norm |a| everywhere, so its maximum is a
    # rounding tie between every grid point; over a span of 1e-9 s the
    # Lipschitz term of each group (below 1e-11) lies far below the
    # rounding margin, and only that margin keeps the blocks whose
    # evaluation rounds higher
    ring = DisturbanceSignal(((Term(3.7, 2.3),), (Term(3.7, 2.3, waveform="cos"),)))
    for tf in (1.0, 20.0, 200.0):
        same_bits_on_both_bounds(ring, 0.0, tf, 200_001)
    same_bits_on_both_bounds(ring, 5.0, 5.0 + 1e-9, 200_001)


def test_max_norm_of_zero_weights_and_empty_grids_is_zero():
    # the double integrator's constant disturbance has zero derivative
    # weights; a signal without terms and an empty grid have nothing
    assert constant_signal([1.5]).max_norm(0.0, 20.0, 101, derivative=True) == 0.0
    assert DisturbanceSignal(((), ())).max_norm(0.0, 20.0, 101) == 0.0
    assert constant_signal([1.5]).max_norm(0.0, 20.0, 0) == 0.0


def test_max_norm_rejects_a_signal_it_cannot_evaluate():
    cases = [
        # every point but t = 0 is NaN; the loop returned 0.0
        (DisturbanceSignal(((Term(1.0, 1.0), Term(1.0, 1e300)),)),
         (0.0, 1e10, 5), False),
        # the derivative weight 2e300 squared overflows
        (DisturbanceSignal(((Term(2.0, 1e300),),)), (0.0, 20.0, 5), True),
        # frequency times time overflows
        (DisturbanceSignal(((Term(1.0, 1e10, waveform="cos"),),)),
         (0.0, 1e301, 11), True),
        # the derivative weight a * f itself overflows
        (DisturbanceSignal(((Term(1e10, 1e300),),)), (0.0, 1.0, 5), True),
        # an end that is not finite, or a span that overflows: NumPy's grid
        # holds NaN, at its first point when tf - t0 is inf
        (DisturbanceSignal(((Term(1.0, 1.0),),)), (0.0, np.nan, 3), False),
        (DisturbanceSignal(((Term(1.0, 1.0),),)), (np.nan, 1.0, 3), False),
        (DisturbanceSignal(((Term(1.0, 1.0),),)), (0.0, np.inf, 2), True),
        (DisturbanceSignal(((Term(1e-10, 1e-300),),)), (-1e308, 1e308, 5),
         False),
        (DisturbanceSignal(((Term(1e-10, 1e-300),),)), (-1e308, 1e308, 1),
         True),
    ]
    # rejected before NumPy can warn of an overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sig, (t0, tf, points), deriv in cases:
            with pytest.raises(ParameterError):
                sig.max_norm(t0, tf, points, derivative=deriv)


@pytest.mark.parametrize("t0, tf, points", [
    (1.0, 0.0, 5), (0.0, 1.0, -1), (0.0, 1.0, 2.0), (0.0, 1.0, True),
    (0.0, 1.0, "5"), (0.0, 1.0, None)])
def test_max_norm_rejects_a_grid_it_cannot_form(t0, tf, points):
    # a descending span or a point count that is not a non-negative int,
    # also for a signal whose weights are all zero
    for sig in (DisturbanceSignal(((Term(1.0, 1.0),),)), constant_signal([0.0])):
        with pytest.raises(ParameterError):
            sig.max_norm(t0, tf, points)


GRID_CASES = [(0.0, 20.0, n) for n in (1, 2, 4095, 4096, 4097, 200_001)] + [
    (-7.3, 11.9, 200_001),      # a negative start
    (2.5, 2.5, 4097),           # t0 == tf
    (0.0, 5e-324, 3),           # subnormal spans: the step rounds to 0
    (-1e-320, 1e-320, 10_001),
]


@pytest.mark.parametrize("t0, tf, points", GRID_CASES)
def test_grid_times_are_linspace_bit_for_bit(monkeypatch, t0, tf, points):
    # every time max_norm generates, and every block of the grid, equals
    # np.linspace at the same indices, bits (and the sign of 0) included
    grid = np.linspace(t0, tf, points)
    if 0.0 < tf - t0 < 1e-300:
        assert (tf - t0) / (points - 1) == 0.0  # NumPy's step == 0 branch
    generated = []
    real = simulate._grid_times

    def record(*args):
        generated.append((args[3], real(*args)))
        return generated[-1][1]

    monkeypatch.setattr(simulate, "_grid_times", record)
    ring = DisturbanceSignal(((Term(3.7, 2.3),), (Term(3.7, 2.3, waveform="cos"),)))
    ring.max_norm(t0, tf, points)
    if points > 1:
        # the samples and the last point of each group
        assert len(generated) >= 3
    blocks = [np.arange(start, min(start + simulate._NORM_BLOCK, points))
              for start in range(0, points, simulate._NORM_BLOCK)]
    generated += [(index, real(t0, tf, points, index)) for index in blocks]
    for index, times in generated:
        assert times.dtype == grid.dtype
        assert times.tobytes() == grid[index].tobytes(), index


def test_term_rejects_nonfinite():
    for bad in ({"amplitude": np.nan, "frequency": 1.0},
                {"amplitude": 1.0, "frequency": np.inf},
                {"amplitude": 1.0, "frequency": 1.0, "phase": np.nan}):
        with pytest.raises(ParameterError):
            Term(**bad)
