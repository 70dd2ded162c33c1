import numpy as np
import pytest

from dobcbf.model import ParameterError
from dobcbf.qp import ACTIVE, INACTIVE, INFEASIBLE, QpInstance, QpResult, solve
from oracles import brute_force


def test_inactive_when_nominal_feasible():
    inst = QpInstance(u_nom=[1.0], psi0=0.5, psi1=[1.0])
    res = solve(inst)
    assert res.status == INACTIVE
    assert np.allclose(res.u, [1.0])


def test_active_projection_1d():
    # constraint u >= 2, nominal 0 -> u = 2 exactly on the boundary
    inst = QpInstance(u_nom=[0.0], psi0=-2.0, psi1=[1.0])
    res = solve(inst)
    assert res.status == ACTIVE
    assert np.allclose(res.u, [2.0])
    # the projection lies on the boundary psi0 + psi1 . u = 0
    assert inst.psi0 + float(np.dot(inst.psi1, res.u)) == pytest.approx(0.0, abs=1e-12)


def test_active_projection_2d_known_answer():
    # half-space x + y >= 2, nominal at origin -> projection (1, 1)
    inst = QpInstance(u_nom=[0.0, 0.0], psi0=-2.0, psi1=[1.0, 1.0])
    res = solve(inst)
    assert res.status == ACTIVE
    assert np.allclose(res.u, [1.0, 1.0])


def test_infeasible_zero_row():
    inst = QpInstance(u_nom=[3.0, -1.0], psi0=-1.0, psi1=[0.0, 0.0])
    res = solve(inst)
    assert res.status == INFEASIBLE
    assert np.allclose(res.u, inst.u_nom)


def test_zero_row_with_nonnegative_offset_is_inactive():
    res = solve(QpInstance(u_nom=[3.0], psi0=0.0, psi1=[0.0]))
    assert res.status == INACTIVE


def test_instance_rejects_nonfinite_and_mismatched():
    with pytest.raises(ValueError):
        QpInstance(u_nom=[np.inf], psi0=0.0, psi1=[1.0])
    with pytest.raises(ValueError):
        QpInstance(u_nom=[0.0, 1.0], psi0=0.0, psi1=[1.0])


def test_overflowing_projection_raises():
    # finite data whose step slack / ||psi1||^2 overflows: ||psi1||^2 is a
    # subnormal 1e-320, so the projection is inf (and nan where psi1 has a 0)
    for u_nom, psi1 in (([0.0], [1e-160]), ([0.0, 2.0], [1e-160, 0.0])):
        inst = QpInstance(u_nom=u_nom, psi0=-1e308, psi1=psi1)
        with pytest.raises(ValueError,
                           match="QP solution u: non-finite entries") as info:
            solve(inst)
        assert type(info.value) is ValueError
    # the same data with a step that fits is projected as before
    res = solve(QpInstance(u_nom=[0.0], psi0=-1e-300, psi1=[1e-160]))
    assert res.status == ACTIVE and res.u == (1e-300 / 1e-320 * 1e-160,)


def test_kkt_conditions_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(500):
        m = rng.integers(1, 4)
        inst = QpInstance(u_nom=rng.standard_normal(m),
                          psi0=rng.standard_normal() * 2.0,
                          psi1=rng.standard_normal(m))
        res = solve(inst)
        # the instance and the result hold Python floats; read them as arrays
        psi1, u_nom, u = map(np.asarray, (inst.psi1, inst.u_nom, res.u))
        slack = inst.psi0 + float(psi1 @ u)
        assert slack >= -1e-9  # primal feasibility
        # stationarity: u - u_nom = lambda * psi1 with lambda >= 0
        dev = u - u_nom
        if res.status == INACTIVE:
            assert np.allclose(dev, 0.0)
        else:
            sq = float(psi1 @ psi1)
            lam = float(dev @ psi1) / sq
            assert lam >= -1e-12
            assert np.allclose(dev, lam * psi1, atol=1e-9)
            assert abs(slack) <= 1e-9  # complementary slackness


def test_brute_force_agrees_with_closed_form():
    rng = np.random.default_rng(1)
    width = 5.0
    grid_points = 201
    spacing = 2 * width / (grid_points - 1)
    for _ in range(50):
        m = rng.integers(1, 3)
        inst = QpInstance(u_nom=rng.uniform(-2, 2, m),
                          psi0=rng.uniform(-4, 4),
                          psi1=rng.uniform(-2, 2, m))
        res = solve(inst)
        u, u_nom = np.asarray(res.u), np.asarray(inst.u_nom)  # Python floats
        if res.status == INFEASIBLE or np.max(np.abs(u)) > width - spacing:
            continue  # oracle box cannot contain the true minimizer
        ref = brute_force(inst, box_halfwidth=width, grid_points=grid_points)
        assert ref is not None
        # the grid point can slide along the boundary at near-equal cost, so
        # compare distances to the nominal: the grid minimizer can be at most
        # one cell diagonal worse than the true projection, never better
        dist_closed = np.linalg.norm(u - u_nom)
        dist_grid = np.linalg.norm(ref - u_nom)
        assert -1e-12 <= dist_grid - dist_closed <= 2 * spacing


def test_brute_force_guards():
    inst3 = QpInstance(u_nom=np.zeros(3), psi0=0.0, psi1=np.ones(3))
    with pytest.raises(ParameterError):
        brute_force(inst3, 1.0)
    inst = QpInstance(u_nom=[0.0], psi0=1.0, psi1=[1.0])
    with pytest.raises(ParameterError):
        brute_force(inst, 1.0, grid_points=11)
    # infeasible over the whole box
    none = brute_force(QpInstance(u_nom=[0.0], psi0=-100.0, psi1=[1.0]), 1.0)
    assert none is None


def test_results_equal_ones_built_by_keyword():
    # solve builds its QpResult with tuple.__new__: the same type, fields
    # and values as the NamedTuple's own constructor gives
    for inst, status in ((QpInstance([1.0], 0.5, [1.0]), INACTIVE),
                         (QpInstance([0.0, 0.0], -2.0, [1.0, 1.0]), ACTIVE),
                         (QpInstance([3.0, -1.0], -1.0, [0.0, 0.0]), INFEASIBLE)):
        res = solve(inst)
        assert type(res) is QpResult and res._fields == ("u", "status")
        assert res == QpResult(u=res.u, status=status) and len(res) == 2
        assert res.status is status
    assert QpResult._field_defaults == {}
