"""Each entry point of a decision reads a list of Python floats and a float64
array of the same values alike, and returns the same Python floats.

The closed loop hands the decisions lists (the RK4 state's halves and the
values the previous stage returned); the benchmark's replay and most tests
hand them float64 arrays, which as_floats reads with one tolist call.  Both
must give the same bits, compared here through tobytes, -0.0 included.
"""

import numpy as np
import pytest

from dobcbf import qp
from dobcbf.observer import ObserverState, estimate
from dobcbf.scenarios import SCENARIOS, build

BUILT = {name: build({"scenario": name, "sim": {"tf": 0.1}}) for name in SCENARIOS}


def assert_same_floats(a, b):
    """a and b are sequences of Python floats with the same bits."""
    a, b = list(a), list(b)
    assert all(type(v) is float for v in a + b), (a, b)
    assert np.array(a).tobytes() == np.array(b).tobytes(), (a, b)


def states(sc, seed, count=50):
    """Seeded (t, x, z, d_hat) of one scenario's dimensions; the first state
    has a -0.0 in every vector."""
    rng = np.random.default_rng(seed)
    n, p = sc.system.n, sc.system.p
    out = []
    for i in range(count):
        x = rng.uniform(-3.0, 3.0, n)
        z, d_hat = rng.uniform(-50.0, 50.0, (2, p))
        if i == 0:
            x[-1] = z[-1] = d_hat[-1] = -0.0
        out.append((float(rng.uniform(0.0, 20.0)), x, z, d_hat))
    return out


@pytest.mark.parametrize("name", SCENARIOS)
def test_estimate_reads_a_list_and_an_array_alike(name):
    sc = BUILT[name]
    obs = sc.observer_cfg
    for _, x, z, _ in states(sc, 1):
        assert_same_floats(estimate(obs, ObserverState(z.tolist()), x.tolist()),
                           estimate(obs, ObserverState(z), x))


@pytest.mark.parametrize("name", SCENARIOS)
def test_constraint_reads_a_list_and_an_array_alike(name):
    sc = BUILT[name]
    u_nom = np.zeros(sc.system.m)
    for t, x, _, d_hat in states(sc, 2):
        from_list = sc.safety.constraint(t, x.tolist(), u_nom.tolist(),
                                         d_hat.tolist())
        from_array = sc.safety.constraint(t, x, u_nom, d_hat)
        assert from_list.bypass == from_array.bypass
        assert from_list.event == from_array.event
        if from_array.psi0 is None:  # the pass-through filter
            assert from_list.psi0 is None and from_list.psi1 is None
            continue
        assert_same_floats([from_list.psi0, *from_list.psi1],
                           [from_array.psi0, *from_array.psi1])


@pytest.mark.parametrize("name", SCENARIOS)
def test_nominal_reads_a_list_and_an_array_alike(name):
    sc = BUILT[name]
    for t, x, _, _ in states(sc, 3):
        assert_same_floats(sc.nominal(t, x.tolist()), sc.nominal(t, x))


def test_qp_reads_lists_and_arrays_alike():
    rng = np.random.default_rng(5)
    statuses = set()
    for i in range(300):
        m = 1 + i % 2
        u_nom, psi1 = rng.uniform(-2.0, 2.0, (2, m))
        if i % 50 == 0:
            psi1[:] = 0.0  # infeasible for psi0 < 0
        psi0 = float(rng.uniform(-3.0, 3.0))
        from_list = qp.QpInstance(u_nom=u_nom.tolist(), psi0=psi0,
                                  psi1=psi1.tolist())
        from_array = qp.QpInstance(u_nom=u_nom, psi0=psi0, psi1=psi1)
        assert_same_floats(from_list.u_nom, from_array.u_nom)
        assert_same_floats(from_list.psi1, from_array.psi1)
        res_list, res_array = qp.solve(from_list), qp.solve(from_array)
        assert res_list.status == res_array.status
        assert_same_floats(res_list.u, res_array.u)
        statuses.add(res_array.status)
    assert statuses == {qp.INACTIVE, qp.ACTIVE, qp.INFEASIBLE}


@pytest.mark.parametrize("name", ["el2dof-dob", "el2dof-robust"])
def test_energy_probe_reads_a_list_and_an_array_alike(name):
    # both energy filters (ELQpFilter, ELRobustFilter): h and hbar
    sc = BUILT[name]
    for _, x, z, d_hat in states(sc, 4):
        e_d = z - d_hat
        from_list = sc.safety.probe(x.tolist(), e_d.tolist())
        from_array = sc.safety.probe(x, e_d)
        assert sorted(from_list) == sorted(from_array) == ["h", "hbar"]
        assert_same_floats([from_list["h"], from_list["hbar"]],
                           [from_array["h"], from_array["hbar"]])
