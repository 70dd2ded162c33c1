"""Independent reference implementations that the tests check the library
against: a grid-search QP, the arm's Coriolis matrix and its plant built
term by term from one callback per term, the arm's equations of motion
solved with np.linalg.solve, the arm's plant terms as float64 arrays, its
kinetic energy, the energy filters' rows as they were written by hand, the
observer's right-hand side on its own, the joint plant-and-observer
derivative with NumPy products, a disturbance evaluated term by term, its
largest norm on a dense grid, classical RK4 on float64 arrays, and a CSV
written cell by cell."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dobcbf.el import TwoLinkArm
from dobcbf.filters import Decision
from dobcbf.model import ControlAffineSystem, ParameterError, as_floats, as_vector
from dobcbf.observer import ObserverConfig, ObserverState, estimate
from dobcbf.qp import QpInstance
from dobcbf.simulate import DisturbanceSignal, Term


def brute_force(inst: QpInstance, box_halfwidth: float,
                grid_points: int = 101) -> np.ndarray | None:
    """Grid minimizer of the objective over feasible points in a centered box.

    Limited to m <= 2 and at least 101 points per axis.  Returns None when
    no grid point is feasible.
    """
    m = len(inst.u_nom)
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


@dataclass(frozen=True)
class PerTermArm:
    """The inertia, Coriolis and gravity callbacks of a two-joint plant,
    one per term: mass and gravity as TwoLinkArm has them, and coriolis
    mapping (q, qdot) -> ((c11, c12), (c21, c22)) such that Mdot - 2C is
    skew-symmetric."""

    mass: Callable
    coriolis: Callable
    gravity: Callable


def per_term(arm: TwoLinkArm) -> PerTermArm:
    """The arm's callbacks, with its Coriolis matrix in the textbook
    expressions' evaluation order."""
    ml2_2 = arm.m2 * arm.l * arm.l / 2.0

    def coriolis(q, qd):
        s2 = math.sin(q[1])
        v0, v1 = float(qd[0]), float(qd[1])
        return ((-ml2_2 * s2 * v1, -ml2_2 * (v0 + v1) * s2),
                (ml2_2 * v0 * s2, 0.0))

    return PerTermArm(mass=arm.mass, coriolis=coriolis, gravity=arm.gravity)


def to_control_affine(sys: PerTermArm) -> ControlAffineSystem:
    """The embedding x = [q; qdot], u = tau, d = tau_d, built from the
    per-term callbacks: M, C qdot + G, the closed-form inverse and the drift
    in Python floats, f as a tuple and B = [0; M^-1] as one tuple of row
    tuples for both channels.  A matrix that is not positive definite at q
    raises ParameterError."""
    mass, coriolis, gravity = sys.mass, sys.coriolis, sys.gravity

    def terms(x):
        q0, q1, v0, v1 = map(float, x)
        q, qd = (q0, q1), (v0, v1)
        (m11, m12), (m21, m22) = mass(q)
        det = m11 * m22 - m12 * m21
        if not (m11 > 0.0 and det > 0.0):
            raise ParameterError(f"inertia matrix not positive definite at q = {q}")
        (c11, c12), (c21, c22) = coriolis(q, qd)
        g0, g1 = gravity(q)
        h0 = c11 * v0 + c12 * v1 + g0
        h1 = c21 * v0 + c22 * v1 + g1
        B = ((0.0, 0.0), (0.0, 0.0), (m22 / det, -m12 / det),
             (-m21 / det, m11 / det))
        f = (v0, v1, (m12 * h1 - m22 * h0) / det, (m21 * h0 - m11 * h1) / det)
        return f, B, B

    return ControlAffineSystem(
        n=4, m=2, p=2,
        f=lambda x: terms(x)[0],
        g1=lambda x: terms(x)[1],
        g2=lambda x: terms(x)[2],
        terms=terms)


def el_accel(sys: PerTermArm, q, qd, tau, tau_d) -> np.ndarray:
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


def arm_terms_arrays(sys: PerTermArm, x):
    """(f, B) of the embedding x = [q; qdot] as float64 arrays: the inertia,
    C qdot + G and the closed-form inverse in Python floats, as
    to_control_affine computes them, with B = [0; M^-1] assigned entry by
    entry into a zero array and f built with np.array."""
    q0, q1, v0, v1 = map(float, x)
    q, qd = (q0, q1), (v0, v1)
    (m11, m12), (m21, m22) = sys.mass(q)
    det = m11 * m22 - m12 * m21
    (c11, c12), (c21, c22) = sys.coriolis(q, qd)
    g0, g1 = sys.gravity(q)
    h0 = c11 * v0 + c12 * v1 + g0
    h1 = c21 * v0 + c22 * v1 + g1
    B = np.zeros((4, 2))
    B[2, 0], B[2, 1] = m22 / det, -m12 / det
    B[3, 0], B[3, 1] = -m21 / det, m11 / det
    f = np.array([v0, v1, (m12 * h1 - m22 * h0) / det,
                  (m21 * h0 - m11 * h1) / det])
    return f, B


def kinetic_energy(sys: TwoLinkArm, q, qd) -> float:
    """qdot' M(q) qdot / 2."""
    (m11, m12), (m21, m22) = sys.mass(q)
    v0, v1 = float(qd[0]), float(qd[1])
    return 0.5 * ((v0 * m11 + v1 * m21) * v0 + (v0 * m12 + v1 * m22) * v1)


def _energy_decision(qd, psi0: float, eps_singular: float) -> Decision:
    """The row psi1 = -qdot, bypassing the QP below the joint speed
    eps_singular, with an event where the bypassed row is unsatisfiable."""
    psi1 = (-qd[0], -qd[1])
    if math.hypot(qd[0], qd[1]) >= eps_singular:
        return Decision(psi0, psi1)
    return Decision(psi0, psi1, True,
                    "singular_infeasible" if psi0 < 0 else None)


def energy_row(sys: TwoLinkArm, h_q, grad_hq, observer: ObserverConfig,
               beta: float, gamma: float, omega: float, eps_singular: float,
               x, d_hat) -> Decision:
    """The observer-aware energy filter's decision at x, written out by
    hand from the inertia and gravity callbacks:
    psi0 = beta grad_hq . qdot - qdot . (d_hat - G) - omega^2/(2 nu)
    - ||qdot||^2/(4 alpha - 2 gamma - 2 nu) + gamma (beta h_q - KE)."""
    q = as_floats(x[:2], 2, "q")
    qd = v0, v1 = as_floats(x[2:], 2, "qd")
    th0, th1 = as_floats(d_hat, 2, "tau_hat")
    j0, j1 = as_floats(grad_hq(q), 2, "grad_hq(q)")
    g0, g1 = sys.gravity(q)
    denom = 4.0 * observer.alpha - 2.0 * gamma - 2.0 * observer.nu
    psi0 = (beta * (v0 * j0 + v1 * j1)
            - (v0 * (th0 - g0) + v1 * (th1 - g1))
            - omega ** 2 / (2.0 * observer.nu)
            - (v0 * v0 + v1 * v1) / denom
            + gamma * (beta * float(h_q(q)) - kinetic_energy(sys, q, qd)))
    return _energy_decision(qd, psi0, eps_singular)


def robust_energy_row(sys: TwoLinkArm, h_q, grad_hq, beta: float, gamma: float,
                      d_max: float, eps_singular: float, x) -> Decision:
    """The worst-case energy filter's decision at x over ||tau_d|| <= d_max,
    written out by hand: psi0 = beta grad_hq . qdot + qdot . G
    - ||qdot|| d_max + gamma (beta h_q - KE)."""
    q = as_floats(x[:2], 2, "q")
    qd = v0, v1 = as_floats(x[2:], 2, "qd")
    j0, j1 = as_floats(grad_hq(q), 2, "grad_hq(q)")
    g0, g1 = sys.gravity(q)
    psi0 = (beta * (v0 * j0 + v1 * j1)
            + (v0 * g0 + v1 * g1)
            - math.sqrt(v0 * v0 + v1 * v1) * d_max
            + gamma * (beta * float(h_q(q)) - kinetic_energy(sys, q, qd)))
    return _energy_decision(qd, psi0, eps_singular)


def z_derivative(cfg: ObserverConfig, st: ObserverState,
                 sys: ControlAffineSystem, x, u) -> np.ndarray:
    """Right-hand side of the observer state, -L_d (f + g1 u + g2 d_hat)."""
    x = as_vector(x, sys.n, "x")
    u = as_vector(u, sys.m, "u")
    fx, G1, G2 = map(np.asarray, sys.evaluate(x))
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


def grid_times(t0: float, tf: float, points: int,
               index: np.ndarray) -> np.ndarray:
    """np.linspace(t0, tf, points)[index] for ascending int indices, bit for
    bit, without the grid: NumPy's i * step + t0 with
    step = (tf - t0)/(points - 1), i/(points - 1) * (tf - t0) + t0 when that
    step is 0, and tf at the last point."""
    div, delta = points - 1, tf - t0
    ts = index.astype(float)
    if div > 0:
        step = delta / div
        if step == 0:
            ts /= div
            ts *= delta
        else:
            ts *= step
    else:
        ts *= delta
    ts += t0
    if div > 0 and index[-1] == div:
        ts[-1] = tf
    return ts


def blocked_max_norm(sig: DisturbanceSignal, t0: float, tf: float,
                     points: int, derivative: bool = False,
                     block: int = 65_536) -> float:
    """max over np.linspace(t0, tf, points) of the Euclidean norm of
    per_term_sum, taken in blocks of grid points that grid_times forms, so a
    grid of millions of points is never held whole."""
    largest = 0.0
    for start in range(0, points, block):
        t = grid_times(t0, tf, points, np.arange(start, min(start + block, points)))
        vals = per_term_sum(sig, t, derivative)
        largest = max(largest, float((vals * vals).sum(axis=0).max()))
    return math.sqrt(largest)


def joint_derivative_arrays(system: ControlAffineSystem, cfg: ObserverConfig,
                            disturbance_at):
    """(rhs, hold) of the joint derivative
    [f + g1 u + g2 d(t); -L_d (f + g1 u + g2 (z + p(x)))] with NumPy
    products: the stage list is read as an array once, p(x) is checked by
    integral_at, and the derivative is returned as a list.  evaluate's
    floats and d(t), any sequence of floats, are read as arrays."""
    n = system.n
    u = None

    def hold(control):
        nonlocal u
        u = control

    def rhs(t, y):
        y = np.array(y)
        xs = y[:n]
        fx, G1, G2 = map(np.asarray, system.evaluate(xs))
        drift = fx + G1.dot(u)
        dy = np.empty(y.size)
        dy[:n] = drift + G2.dot(np.asarray(disturbance_at(t)))
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
