"""Independent reference implementations that the tests check the library
against: a grid-search QP, the arm's equations of motion solved with
np.linalg.solve, the observer's right-hand side on its own, the joint
plant-and-observer derivative with NumPy products, a disturbance evaluated
term by term, classical RK4 on float64 arrays, and a CSV written cell by
cell."""

import numpy as np

from dobcbf.el import ELSystem
from dobcbf.model import ControlAffineSystem, ParameterError, as_vector
from dobcbf.observer import ObserverConfig, ObserverState, estimate
from dobcbf.qp import QpInstance
from dobcbf.simulate import DisturbanceSignal, Term


def brute_force(inst: QpInstance, box_halfwidth: float,
                grid_points: int = 101) -> np.ndarray | None:
    """Grid minimizer of the objective over feasible points in a centered box.

    Limited to m <= 2 and at least 101 points per axis.  Returns None when
    no grid point is feasible.
    """
    m = inst.u_nom.size
    if m > 2:
        raise ParameterError("brute force oracle supports m <= 2 only")
    if grid_points < 101:
        raise ParameterError("need at least 101 grid points per axis")
    axis = np.linspace(-box_halfwidth, box_halfwidth, grid_points)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    feasible = inst.psi0 + pts @ inst.psi1 >= 0.0
    if not np.any(feasible):
        return None
    pts = pts[feasible]
    cost = np.sum((pts - inst.u_nom) ** 2, axis=1)
    return pts[int(np.argmin(cost))]


def el_accel(sys: ELSystem, q, qd, tau, tau_d) -> np.ndarray:
    """Joint accelerations of the two-joint plant from the equations of
    motion."""
    q = as_vector(q, 2, "q")
    qd = as_vector(qd, 2, "qd")
    tau = as_vector(tau, 2, "tau")
    tau_d = as_vector(tau_d, 2, "tau_d")
    M = np.asarray(sys.mass(q))
    rhs = (tau + tau_d - np.asarray(sys.coriolis(q, qd)) @ qd
           - np.asarray(sys.gravity(q)))
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"inertia matrix solve failed at q = {q}") from exc


def z_derivative(cfg: ObserverConfig, st: ObserverState,
                 sys: ControlAffineSystem, x, u) -> np.ndarray:
    """Right-hand side of the observer state, -L_d (f + g1 u + g2 d_hat)."""
    x = as_vector(x, sys.n, "x")
    u = as_vector(u, sys.m, "u")
    fx, G1, G2 = sys.evaluate(x)
    d_hat = estimate(cfg, st, x)
    return -cfg.gain_at(x) @ (fx + G1 @ u + G2 @ d_hat)


def rk4_step_arrays(rhs, t: float, state: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step written with NumPy array arithmetic; rhs(t, y)
    takes and returns float64 arrays."""
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = rhs(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def term_value(term: Term, t):
    """a*sin(w t + phi) or a*cos(w t + phi), at a time or an array of times."""
    arg = term.frequency * t + term.phase
    return term.amplitude * (np.sin(arg) if term.waveform == "sin" else np.cos(arg))


def term_derivative(term: Term, t):
    """The analytic time derivative of term_value."""
    arg = term.frequency * t + term.phase
    if term.waveform == "sin":
        return term.amplitude * term.frequency * np.cos(arg)
    return -term.amplitude * term.frequency * np.sin(arg)


def per_term_sum(sig: DisturbanceSignal, t, derivative: bool = False):
    """d(t) or its derivative, summed term by term per channel; an empty
    channel is zero.  t may be a time or a 1-D array of times."""
    one = term_derivative if derivative else term_value
    return np.array([sum((one(term, t) for term in ch), np.zeros_like(t))
                     for ch in sig.channels])


def grid_max_norm(sig: DisturbanceSignal, t_grid, derivative: bool = False) -> float:
    """max over t_grid of the Euclidean norm of per_term_sum."""
    vals = per_term_sum(sig, np.asarray(t_grid, dtype=float), derivative)
    return float(np.sqrt((vals ** 2).sum(axis=0)).max())


def joint_derivative_arrays(system: ControlAffineSystem, cfg: ObserverConfig,
                            disturbance_at):
    """(rhs, hold) of the joint derivative
    [f + g1 u + g2 d(t); -L_d (f + g1 u + g2 (z + p(x)))] with NumPy
    products: the stage list is read as an array once, p(x) is checked by
    integral_at, and the derivative is returned as a list.  disturbance_at
    returns d(t) as an array."""
    n = system.n
    u = None

    def hold(control):
        nonlocal u
        u = control

    def rhs(t, y):
        y = np.array(y)
        xs = y[:n]
        fx, G1, G2 = system.evaluate(xs)
        drift = fx + G1.dot(u)
        dy = np.empty(y.size)
        dy[:n] = drift + G2.dot(disturbance_at(t))
        dy[n:] = -cfg.gain_at(xs).dot(
            drift + G2.dot(y[n:] + cfg.integral_at(xs)))
        return dy.tolist()

    return rhs, hold


def csv_per_cell(columns, data, path) -> None:
    """A CSV written value by value: the qp_status column as str(int(v)),
    every other value as f"{v:.14e}"."""
    status_idx = columns.index("qp_status") if "qp_status" in columns else -1
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in data:
            cells = []
            for j, v in enumerate(row):
                if j == status_idx:
                    cells.append(str(int(v)))
                else:
                    cells.append(f"{v:.14e}")
            fh.write(",".join(cells) + "\n")
