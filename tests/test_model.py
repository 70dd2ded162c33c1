import numpy as np
import pytest

from dobcbf.model import (BarrierSpec, ControlAffineSystem, DimensionError,
                          ParameterError, as_matrix, as_vector,
                          coeffs_from_poles, lie_derivatives, s_sequence)


def scalar_system():
    return ControlAffineSystem(
        n=1, m=1, p=1,
        f=lambda x: np.zeros(1),
        g1=lambda x: np.eye(1),
        g2=lambda x: np.eye(1))


def double_integrator():
    return ControlAffineSystem(
        n=2, m=1, p=1,
        f=lambda x: np.array([x[1], 0.0]),
        g1=lambda x: np.array([[0.0], [1.0]]),
        g2=lambda x: np.array([[0.0], [1.0]]))


def di_barrier(poles=(1.0, 1.0)):
    return BarrierSpec(
        h=lambda x: 1.0 - float(x[0]),
        lie_f=(lambda x: -float(x[1]), lambda x: 0.0),
        lie_g1_fr=lambda x: np.array([-1.0]),
        lie_g2_fr=lambda x: np.array([-1.0]),
        poles=poles)


#: float64 values at the edges of the finiteness test
EDGE_VALUES = (np.nan, np.inf, -np.inf, -0.0, 5e-324,
               1.7976931348623157e308, -1.7976931348623157e308)


def test_as_vector_rejects_bad_shape_and_nonfinite():
    assert np.allclose(as_vector([1.0, 2.0], 2), [1.0, 2.0])
    with pytest.raises(DimensionError):
        as_vector([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        as_vector([np.nan, 0.0], 2)
    # the verdict is np.isfinite's at the edges of float64, for an entry in
    # the last place of a vector and of a 4x2 matrix, given as an array or
    # as a list
    for value in EDGE_VALUES:
        vec = np.array([1.0, -2.0, 3.0, value])
        mat = np.arange(8.0).reshape(4, 2)
        mat[-1, -1] = value
        for check, arr in ((lambda a: as_vector(a, 4), vec),
                           (lambda a: as_matrix(a, 4, 2), mat)):
            if np.isfinite(value):
                assert check(arr) is arr  # passed through uncopied
                assert check(arr.tolist()).tobytes() == arr.tobytes()
            else:
                for given in (arr, arr.tolist()):
                    with pytest.raises(ValueError, match="non-finite entries"):
                        check(given)


def test_system_dimension_validation():
    with pytest.raises(ParameterError):
        ControlAffineSystem(n=0, m=1, p=1, f=lambda x: x,
                            g1=lambda x: x, g2=lambda x: x)
    sys = ControlAffineSystem(
        n=2, m=1, p=1,
        f=lambda x: np.zeros(3),  # wrong on purpose
        g1=lambda x: np.zeros((2, 1)),
        g2=lambda x: np.zeros((2, 1)))
    with pytest.raises(DimensionError):
        sys.drift(np.zeros(2))


def test_fused_terms_match_individual_callbacks():
    sys = double_integrator()
    fused = ControlAffineSystem(n=2, m=1, p=1, f=sys.f, g1=sys.g1, g2=sys.g2,
                                terms=lambda x: (sys.f(x), sys.g1(x), sys.g2(x)))
    x = np.array([0.3, -1.2])
    for a, b in zip(sys.evaluate(x), fused.evaluate(x)):
        assert np.allclose(a, b)


def scalar_barrier(gamma=1.0):
    return BarrierSpec(h=lambda x: float(x[0]), lie_f=(lambda x: 0.0,),
                       lie_g1_fr=lambda x: np.ones(1),
                       lie_g2_fr=lambda x: np.ones(1), poles=(gamma,))


def test_lie_derivatives_rel1_scalar():
    # r = 1: the closed-form callbacks at the first order
    lfh, lg1h, lg2h = lie_derivatives(scalar_system(), scalar_barrier(), [2.0])
    assert lfh == 0.0
    assert np.allclose(lg1h, [1.0])
    assert np.allclose(lg2h, [1.0])
    # r = 2: the closed-form callbacks at the top order
    lf2, lg1, lg2 = lie_derivatives(double_integrator(), di_barrier(),
                                    np.array([0.3, -0.4]))
    assert lf2 == 0.0
    assert np.allclose(lg1, [-1.0]) and np.allclose(lg2, [-1.0])


def test_coeffs_from_poles_simple_cases():
    # (s+1)(s+1) = s^2 + 2s + 1 -> a = (2, 1)
    assert np.allclose(coeffs_from_poles([1.0, 1.0]), [2.0, 1.0])
    # (s+2)(s+3) = s^2 + 5s + 6
    assert np.allclose(coeffs_from_poles([2.0, 3.0]), [5.0, 6.0])
    with pytest.raises(ParameterError):
        coeffs_from_poles([1.0, -1.0])
    with pytest.raises(ParameterError):
        coeffs_from_poles([])


def test_s_sequence_double_integrator():
    sys = double_integrator()
    bar = di_barrier(poles=(2.0, 3.0))
    x = np.array([0.25, -0.5])
    s = s_sequence(sys, bar, x)
    # s_0 = h, s_1 = L_f h + lambda_1 h
    assert s[0] == pytest.approx(0.75)
    assert s[1] == pytest.approx(-x[1] + 2.0 * 0.75)


def test_s_sequence_matches_finite_difference_chain():
    # propagate the drift-only flow and differentiate s_0 numerically
    sys = double_integrator()
    lam = 1.7
    bar = di_barrier(poles=(lam, 1.0))
    x = np.array([0.1, 0.4])
    dt = 1e-6

    def flow(x, dt):
        # exact drift flow of the double integrator
        return np.array([x[0] + dt * x[1], x[1]])

    h_plus = bar.h(flow(x, dt))
    h_minus = bar.h(flow(x, -dt))
    s1_fd = (h_plus - h_minus) / (2 * dt) + lam * bar.h(x)
    assert s_sequence(sys, bar, x)[1] == pytest.approx(s1_fd, abs=1e-8)


def test_barrier_spec_validation():
    with pytest.raises(ParameterError):
        BarrierSpec(h=lambda x: 0.0, lie_f=(), lie_g1_fr=lambda x: np.ones(1),
                    lie_g2_fr=lambda x: np.ones(1), poles=())
    with pytest.raises(ParameterError):
        BarrierSpec(h=lambda x: 0.0, lie_f=(lambda x: 0.0,),
                    lie_g1_fr=lambda x: np.ones(1),
                    lie_g2_fr=lambda x: np.ones(1), poles=(1.0, 1.0))
    with pytest.raises(ParameterError):
        di_barrier(poles=(1.0, -2.0))


def test_barrier_spec_needs_one_pole_per_order():
    with pytest.raises(ParameterError):
        BarrierSpec(h=lambda x: float(x[0]), lie_f=(lambda x: 0.0,),
                    lie_g1_fr=lambda x: np.ones(1),
                    lie_g2_fr=lambda x: np.ones(1), poles=())
    with pytest.raises(ParameterError):
        BarrierSpec(h=lambda x: 0.0, lie_f=(lambda x: 0.0,),
                    lie_g1_fr=lambda x: np.ones(1),
                    lie_g2_fr=lambda x: np.ones(1), poles=(1.0, 2.0))
    with pytest.raises(ParameterError):
        di_barrier(poles=(1.0,))
    with pytest.raises(ParameterError):
        scalar_barrier(gamma=0.0)


def test_barrier_cascade_matches_coeffs_from_poles():
    assert len(scalar_barrier(gamma=2.5).cascade) == 1
    assert np.array_equal(scalar_barrier(gamma=2.5).cascade[0], [2.5])
    bar = di_barrier(poles=(2.0, 3.0))
    assert len(bar.cascade) == 2
    assert np.array_equal(bar.cascade[0], coeffs_from_poles([2.0]))
    assert np.array_equal(bar.cascade[1], coeffs_from_poles([2.0, 3.0]))
    assert np.allclose(bar.cascade[1], [5.0, 6.0])
    # s_1 = L_f h + lambda_1 h = -x2 + 2 h, from the stored cascade
    x = np.array([0.25, -0.5])
    assert s_sequence(double_integrator(), bar, x)[1] == pytest.approx(0.5 + 1.5)
