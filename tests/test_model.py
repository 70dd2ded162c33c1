import re

import numpy as np
import pytest

from dobcbf.filters import QpFilter
from dobcbf.model import (BarrierSpec, ControlAffineSystem, DimensionError,
                          ParameterError, _float_rows, as_vector,
                          coeffs_from_poles, s_sequence)
from dobcbf.observer import ObserverConfig, gain_spectrum


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


def di_chain(x):
    """h = 1 - x0, L_f h = -x1, L_f^2 h = 0, L_g1 L_f h = L_g2 L_f h = -1."""
    return ((1.0 - float(x[0]), -float(x[1]), 0.0),
            np.array([-1.0]), np.array([-1.0]))


def di_barrier(poles=(1.0, 1.0)):
    return BarrierSpec(chain=di_chain, poles=poles)


#: float64 values at the edges of the finiteness test
EDGE_VALUES = (np.nan, np.inf, -np.inf, -0.0, 5e-324,
               1.7976931348623157e308, -1.7976931348623157e308)


#: a gain that reads the last two rows of a 4x2 g2, where the edge values go
LOWER_ROWS = ObserverConfig(gain=np.array([[0.0, 0.0, 1.0, 0.0],
                                           [0.0, 0.0, 0.0, 1.0]]),
                            alpha=1.0, nu=1.0)


def matrix_checks(mat):
    """The two checks of a 4x2 matrix: _float_rows, and gain_spectrum's read
    of a plant's g2, which both go through as_vector."""
    sys = ControlAffineSystem(n=4, m=2, p=2, f=lambda x: np.zeros(4),
                              g1=lambda x: mat, g2=lambda x: mat)
    return (lambda: _float_rows(mat, 4, 2, "g2(x)"),
            lambda: gain_spectrum(LOWER_ROWS, sys, [np.zeros(4)]))


def lower_rows_spectrum(mat: np.ndarray) -> tuple:
    """The extreme eigenvalues of sym(L_d g2) for LOWER_ROWS and g2 = mat."""
    A = LOWER_ROWS.gain @ mat
    lam = np.linalg.eigvalsh(0.5 * A + 0.5 * A.T)
    return float(lam[0]), float(lam[-1])


def test_as_vector_rejects_bad_shape_and_nonfinite():
    assert np.allclose(as_vector([1.0, 2.0], 2), [1.0, 2.0])
    with pytest.raises(DimensionError):
        as_vector([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        as_vector([np.nan, 0.0], 2)
    for check in matrix_checks([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]):
        with pytest.raises(DimensionError, match=r"g2\(x\)"):
            check()
    # the verdict is np.isfinite's at the edges of float64, for an entry in
    # the last place of a vector and of a 4x2 matrix, given as an array, as
    # a list or (the matrix) as row tuples
    for value in EDGE_VALUES:
        vec = np.array([1.0, -2.0, 3.0, value])
        mat = np.arange(8.0).reshape(4, 2)
        mat[-1, -1] = value
        rows = tuple(map(tuple, mat.tolist()))
        if np.isfinite(value):
            assert as_vector(vec, 4) is vec  # passed through uncopied
            assert as_vector(vec.tolist(), 4).tobytes() == vec.tobytes()
            assert _float_rows(rows, 4, 2, "g2(x)") is rows
            for given in (mat, mat.tolist(), rows):
                rows_check, spectrum_check = matrix_checks(given)
                assert np.array(rows_check()).tobytes() == mat.tobytes()
                assert spectrum_check() == lower_rows_spectrum(mat)
        else:
            for given in (vec, vec.tolist()):
                with pytest.raises(ValueError, match="non-finite entries"):
                    as_vector(given, 4)
            for given in (mat, mat.tolist(), rows):
                for check in matrix_checks(given):
                    with pytest.raises(ValueError,
                                       match=r"g2\(x\): non-finite entries"):
                        check()


def test_system_dimension_validation():
    with pytest.raises(ParameterError):
        ControlAffineSystem(n=0, m=1, p=1, f=lambda x: x,
                            g1=lambda x: x, g2=lambda x: x)
    sys = ControlAffineSystem(
        n=2, m=1, p=1,
        f=lambda x: np.zeros(3),  # wrong on purpose
        g1=lambda x: np.zeros((2, 1)),
        g2=lambda x: np.zeros((2, 1)))
    with pytest.raises(DimensionError, match=r"f\(x\)"):
        sys.evaluate(np.zeros(2))


def test_fused_terms_match_individual_callbacks():
    sys = double_integrator()
    fused = ControlAffineSystem(n=2, m=1, p=1, f=sys.f, g1=sys.g1, g2=sys.g2,
                                terms=lambda x: (sys.f(x), sys.g1(x), sys.g2(x)))
    x = np.array([0.3, -1.2])
    for a, b in zip(sys.evaluate(x), fused.evaluate(x)):
        assert np.allclose(a, b)


#: a plant with n = 3, m = 2 and p = 2 whose two matrices are distinct, so
#: that evaluate checks each of them
F = (0.5, -1.5, 2.0)
G1 = ((1.0, 0.0), (0.0, 1.0), (0.5, -0.5))
G2 = ((2.0, 1.0), (-1.0, 3.0), (0.25, 4.0))


def plants(f, g1, g2):
    """The outputs as one fused callback, and as three separate ones."""
    fused = ControlAffineSystem(n=3, m=2, p=2, f=lambda x: f, g1=lambda x: g1,
                                g2=lambda x: g2, terms=lambda x: (f, g1, g2))
    separate = ControlAffineSystem(n=3, m=2, p=2, f=lambda x: f,
                                   g1=lambda x: g1, g2=lambda x: g2)
    return fused, separate


def as_kind(entries, kind):
    """entries (a vector, or rows that may be ragged) as a tuple, a list or
    an array; None when an array cannot hold them."""
    if kind == "array":
        try:
            return np.array(entries, dtype=float)
        except ValueError:
            return None
    wrap = tuple if kind == "tuple" else list
    return wrap(wrap(row) if isinstance(row, tuple) else row for row in entries)


def faulty_outputs():
    """(name, error, faulty f, g1 and g2): a non-finite last entry of f, of
    g1's last row and of g2's last row; and for each matrix a short row (all
    rows one entry short), a ragged row (one short, one long, the total
    right), one row too few and one row too many."""
    out = []
    for bad in (np.nan, np.inf, -np.inf):
        out.append(("f(x)", ValueError, F[:-1] + (bad,), G1, G2))
        for name, mat in (("g1(x)", G1), ("g2(x)", G2)):
            last = mat[:-1] + (mat[-1][:-1] + (bad,),)
            g1, g2 = (last, G2) if name == "g1(x)" else (G1, last)
            out.append((name, ValueError, F, g1, g2))
    for name, mat in (("g1(x)", G1), ("g2(x)", G2)):
        shapes = (tuple(row[:-1] for row in mat),
                  (mat[0] + (1.0,),) + mat[1:-1] + (mat[-1][:-1],),
                  mat[:-1],
                  mat + (mat[-1],))
        for bad in shapes:
            g1, g2 = (bad, G2) if name == "g1(x)" else (G1, bad)
            out.append((name, DimensionError, F, g1, g2))
    out.append(("f(x)", DimensionError, F[:-1], G1, G2))
    out.append(("f(x)", DimensionError, F + (1.0,), G1, G2))
    return out


def test_evaluate_returns_checked_floats():
    x = np.zeros(3)
    for kind in ("tuple", "list", "array"):
        f, g1, g2 = (as_kind(v, kind) for v in (F, G1, G2))
        for sys in plants(f, g1, g2):
            fx, H1, H2 = sys.evaluate(x)
            assert np.array(fx).tobytes() == np.array(F).tobytes()
            assert np.array(H1).tobytes() == np.array(G1).tobytes()
            assert np.array(H2).tobytes() == np.array(G2).tobytes()
            entries = [*fx] + [v for row in (*H1, *H2) for v in row]
            assert all(type(v) is float for v in entries)
            if kind == "tuple":  # passed on as they are
                assert fx is f and H1 is g1 and H2 is g2
        # one output for both channels is checked once and returned as both
        for sys in plants(f, g1, g1):
            _, H1, H2 = sys.evaluate(x)
            assert H1 is H2


def test_evaluate_rejects_nonfinite_and_misshapen_outputs():
    x = np.zeros(3)
    for name, error, *outputs in faulty_outputs():
        for kind in ("tuple", "list", "array"):
            given = [as_kind(v, kind) for v in outputs]
            if any(v is None for v in given):
                continue  # a ragged matrix is no array
            match = re.escape(name) + (": non-finite" if error is ValueError
                                       else ":")
            for sys in plants(*given):
                with pytest.raises(error, match=match) as info:
                    sys.evaluate(x)
                if error is ValueError:
                    assert type(info.value) is ValueError


def scalar_barrier(gamma=1.0):
    return BarrierSpec(chain=lambda x: ((float(x[0]), 0.0), np.ones(1),
                                        np.ones(1)),
                       poles=(gamma,))


def test_barrier_read_returns_the_chain():
    # r = 1: h and L_f h at the first order, as Python floats
    lf, lg1h, lg2h = scalar_barrier().read([2.0])
    assert lf == [2.0, 0.0] and all(type(v) is float for v in lf)
    assert np.allclose(lg1h, [1.0])
    assert np.allclose(lg2h, [1.0])
    # r = 2: h, L_f h and L_f^2 h, and the mixed terms at the top order
    lf, lg1, lg2 = di_barrier().read([0.3, -0.4])
    assert lf == [0.7, 0.4, 0.0] and all(type(v) is float for v in lf)
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

    def h(x):
        return bar.chain(x)[0][0]

    h_plus = h(flow(x, dt))
    h_minus = h(flow(x, -dt))
    s1_fd = (h_plus - h_minus) / (2 * dt) + lam * h(x)
    assert s_sequence(sys, bar, x)[1] == pytest.approx(s1_fd, abs=1e-8)


def test_barrier_spec_validation():
    with pytest.raises(ParameterError, match="at least one pole"):
        BarrierSpec(chain=lambda x: ((0.0,), np.ones(1), np.ones(1)), poles=())
    with pytest.raises(ParameterError):
        di_barrier(poles=(1.0, -2.0))
    with pytest.raises(ParameterError):
        scalar_barrier(gamma=0.0)


def test_barrier_spec_needs_one_pole_per_order():
    # a chain whose first tuple is not r + 1 long is rejected where it is
    # read: by read, s_sequence and QpFilter's constraint, probe and report,
    # with ParameterError and never an IndexError
    obs = ObserverConfig(gain=np.array([[0.0, 10.0]]), alpha=10.0, nu=1.0)
    x = [0.3, -0.4]
    for poles in ((1.0,), (1.0, 1.0, 1.0)):
        bar = di_barrier(poles=poles)
        filt = QpFilter(double_integrator(), bar, obs, beta=1.0)
        for read in (lambda: bar.read(x),
                     lambda: s_sequence(double_integrator(), bar, x),
                     lambda: filt.constraint(0.0, x, [0.0], [0.0]),
                     lambda: filt.probe(x, [0.0]),
                     lambda: filt.report(x, 0.0)):
            with pytest.raises(ParameterError, match=r"r \+ 1 = "):
                read()


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
