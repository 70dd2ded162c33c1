"""Euler-Lagrange plants, their disturbance observer, and the energy filter.

Mechanical systems M(q) qddot + C(q, qdot) qdot + G(q) = tau + tau_d admit a
dedicated observer (estimate = z + alpha1*qdot) and an energy-based safety
constraint that only needs a C^1 position barrier h_q.  `ELSystem` holds the
inertia, Coriolis and gravity callbacks of a plant with two joints.
`ELQpFilter` is built from the observer of `el_observer_config`, whose
coercivity constant is alpha1*mu1, and reads alpha and nu from it once.
The constraint row is psi1 = -qdot, which vanishes at qdot = 0; both energy
filters return through `guarded_decision`, which bypasses the QP there.
`violation_floor` bounds the barrier when the disturbance-derivative term
is withheld (omega = 0 in the constraint).  `arm_derivative` is the
simulator's right-hand side for the embedded plant and its observer:
the generic joint derivative written out in Python floats for n = 4 and
m = p = 2, still checking the plant through `evaluate` at every stage.  It
reads the RK4 stage state, a list of six floats, as it is and returns a
tuple; the embedding's `terms` reads its state as four Python floats,
from a list or an array alike.

The 2-DOF planar arm used by the benchmark scenarios lives here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .filters import Decision, ParamReport
from .model import ControlAffineSystem, ParameterError, as_floats, as_vector
from .observer import ObserverConfig


@dataclass(frozen=True)
class ELSystem:
    """Inertia/Coriolis/gravity callbacks of a mechanical plant.

    mass maps q -> ((m11, m12), (m21, m22)), symmetric positive definite;
    coriolis maps (q, qdot) -> ((c11, c12), (c21, c22)) such that
    Mdot - 2C is skew-symmetric; gravity maps q -> (g1, g2).  Every entry is
    a Python float, so the plant's hot path runs without NumPy calls on
    2x2 data; q and qdot may be any length-2 sequence of numbers.  Code
    that needs arrays wraps the results with np.asarray.  The plant has two
    joints: the embedding inverts the inertia in closed form and the energy
    terms are written out for q = (q1, q2), so the state is x = [q; qdot]
    of length 4.
    """

    mass: Callable[[np.ndarray], np.ndarray]
    coriolis: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gravity: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TwoLinkArm:
    """Planar 2-DOF arm with unit default masses and link length."""

    m1: float = 1.0
    m2: float = 1.0
    l: float = 1.0
    g_accel: float = 9.81

    def system(self) -> ELSystem:
        m1, m2, l, g = self.m1, self.m2, self.l, self.g_accel

        # configuration-independent parts, in the evaluation order of the
        # textbook expressions
        a11_0 = m1 * l * l / 3.0 + 4.0 * m2 * l * l / 3.0
        a12_0 = m2 * l * l / 3.0
        ml2, ml2_2 = m2 * l * l, m2 * l * l / 2.0
        w1, w2, w12 = m1 * g * l / 2.0, m2 * g * l, m2 * g * l / 2.0

        def mass(q):
            c2 = math.cos(q[1])
            a12 = a12_0 + ml2_2 * c2
            return (a11_0 + ml2 * c2, a12), (a12, a12_0)

        def coriolis(q, qd):
            s2 = math.sin(q[1])
            v0, v1 = float(qd[0]), float(qd[1])
            return ((-ml2_2 * s2 * v1, -ml2_2 * (v0 + v1) * s2),
                    (ml2_2 * v0 * s2, 0.0))

        def gravity(q):
            q0, q1 = float(q[0]), float(q[1])
            c1 = math.cos(q0)
            c12 = math.cos(q0 + q1)
            return w1 * c1 + w12 * c12 + w2 * c1, w12 * c12

        return ELSystem(mass=mass, coriolis=coriolis, gravity=gravity)


def kinetic_energy(sys: ELSystem, q, qd) -> float:
    """qdot' M(q) qdot / 2."""
    (m11, m12), (m21, m22) = sys.mass(q)
    v0, v1 = float(qd[0]), float(qd[1])
    return 0.5 * ((v0 * m11 + v1 * m21) * v0 + (v0 * m12 + v1 * m22) * v1)


@dataclass(frozen=True)
class ELFilterParams:
    """Tuning of the energy-based filter; the observer supplies alpha and nu.

    omega enters the constraint as omega^2/(2 nu), 0 when no bound is
    known; eps_singular is the joint-speed threshold below which the
    constraint row vanishes and the QP is bypassed.
    """

    beta: float
    gamma: float
    omega: float = 0.0
    eps_singular: float = 1e-4

    def __post_init__(self):
        if min(self.beta, self.gamma) <= 0:
            raise ParameterError("beta and gamma must be positive")
        if self.omega < 0 or self.eps_singular <= 0:
            raise ParameterError("need omega >= 0 and eps_singular > 0")


def violation_floor(fp: ELFilterParams, nu: float, omega: float, t):
    """Worst-case barrier floor at time t when the omega term is withheld.

    nu is the observer's Young's-inequality split.  omega is the true
    disturbance-derivative bound, not the constraint-side fp.omega: the
    floor is a statement about the disturbance itself.  It is derived for
    fp.omega = 0 and holds for any fp.omega >= 0, which only tightens the
    constraint.
    """
    decay = 1.0 - np.exp(-fp.gamma * np.asarray(t, dtype=float))
    out = -omega ** 2 / (2.0 * nu * fp.gamma * fp.beta) * decay
    return float(out) if np.ndim(t) == 0 else out


def guarded_decision(eps_singular: float, qd, psi0: float,
                     psi1: np.ndarray) -> Decision:
    """Decision of an energy filter, bypassing the QP near qdot = 0.

    Below the speed threshold the row psi1 = -qdot vanishes and the nominal
    control passes through; when the constraint is additionally
    unsatisfiable there (psi0 < 0) the step is flagged as a transient
    infeasibility event.
    """
    if math.hypot(qd[0], qd[1]) >= eps_singular:
        return Decision(psi0, psi1)
    return Decision(psi0, psi1, True,
                    "singular_infeasible" if psi0 < 0 else None)


def pd_nominal(Kp, Kd, q, qd, q_des, qd_des, gravity=None) -> np.ndarray:
    """PD tracking law of a 2-DOF arm, optionally with gravity compensation.

    The 2x2 gains and every vector may be nested sequences of numbers or
    arrays; the law is computed in Python floats.  The gains are not
    checked here: callers validate them once, where they are configured
    (the arm scenarios reject kp, kd <= 0 at build time).
    """
    (p11, p12), (p21, p22) = Kp
    (d11, d12), (d21, d22) = Kd
    e0, e1 = q_des[0] - q[0], q_des[1] - q[1]
    w0, w1 = qd_des[0] - qd[0], qd_des[1] - qd[1]
    tau0 = (p11 * e0 + p12 * e1) + (d11 * w0 + d12 * w1)
    tau1 = (p21 * e0 + p22 * e1) + (d21 * w0 + d22 * w1)
    if gravity is not None:
        tau0, tau1 = tau0 + gravity[0], tau1 + gravity[1]
    return np.array((tau0, tau1))


def validate_el_params(filt: ELQpFilter, x0, e0_norm: float) -> ParamReport:
    """Strict initial-state inequalities of the energy-filter guarantee:
    h_q(q0) > 0 (the report's cascade_ok) and beta above its bound.  The
    condition on alpha1*mu1 was checked when filt was built; alpha and nu
    are read from its observer."""
    fp, obs, q0, qd0 = filt.params, filt.observer, x0[:2], x0[2:]
    h_q0 = float(filt.h_q(q0))
    alpha_margin = obs.alpha - 0.5 * (fp.gamma + obs.nu)
    messages = []
    if h_q0 <= 0:
        beta_ok, beta_margin = False, -np.inf
        messages.append("initial barrier value must be positive")
    else:
        need = (2.0 * kinetic_energy(filt.sys, q0, qd0) + e0_norm ** 2) / (2.0 * h_q0)
        beta_margin = fp.beta - need
        beta_ok = beta_margin > 0
        if not beta_ok:
            messages.append(f"beta margin {beta_margin:.3e} not positive")
    return ParamReport(beta_ok=beta_ok, cascade_ok=h_q0 > 0,
                       alpha_margin=float(alpha_margin),
                       beta_margin=float(beta_margin), messages=messages)


def to_control_affine(sys: ELSystem) -> ControlAffineSystem:
    """Embed the mechanical plant as x = [q; qdot] with u = tau, d = tau_d.

    The 2x2 inertia is inverted in closed form; a matrix that is not positive
    definite at some q (a singular one included) raises ParameterError.
    The state, a list of four numbers or an array of four entries, is read
    into Python floats once, and M, C qdot + G, the inverse and the drift
    are computed in floats; only f and B are arrays.
    """
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
        # a new B per call: callers may keep the matrices they are given
        B = np.zeros((4, 2))
        B[2, 0], B[2, 1] = m22 / det, -m12 / det
        B[3, 0], B[3, 1] = -m21 / det, m11 / det
        f = np.array([v0, v1, (m12 * h1 - m22 * h0) / det,
                      (m21 * h0 - m11 * h1) / det])
        return f, B, B

    return ControlAffineSystem(
        n=4, m=2, p=2,
        f=lambda x: terms(x)[0],
        g1=lambda x: terms(x)[1],
        g2=lambda x: terms(x)[2],
        terms=terms)


def arm_derivative(system: ControlAffineSystem, observer: ObserverConfig,
                   disturbance_at: Callable[[float], Sequence[float]]):
    """The simulator's joint derivative for a two-joint plant embedded by
    to_control_affine, in Python floats.

    Returns (rhs, hold) like simulate.joint_derivative and computes the
    same quantity, [f + B u + B d(t); -L_d (f + B u + B (z + L_d x))], with
    the disturbance entering through the input matrix B as in the
    embedding.  rhs(t, y) reads the stage state y, the list of six floats
    that rk4_step passes, as it is and returns a tuple of six floats.  Each
    stage calls system.evaluate(y[:4]) once, so the plant's shape,
    finiteness and positive-definiteness checks stay; f and B are then read
    as floats, d(t) is unpacked from the simulator's float list, and the
    constant L_d is read when the run starts.  hold
    converts each decision's control to floats once.  The sums are written
    out for the fixed shapes, so a stage makes no NumPy product; a
    non-finite derivative is caught by rk4_step's check of the new state.
    A plant or gain of other dimensions raises ParameterError when the run
    starts, and a stage whose evaluated g2 is not its g1 (the same object,
    as the embedding returns it) raises ParameterError there.
    """
    if (system.n, system.m, system.p) != (4, 2, 2) \
            or observer.gain.shape != (2, 4):
        raise ParameterError(
            "arm_derivative needs a plant with n = 4, m = p = 2 and a 2x4 gain")
    (l00, l01, l02, l03), (l10, l11, l12, l13) = observer.gain.tolist()
    evaluate = system.evaluate
    u0 = u1 = 0.0

    def hold(u):
        nonlocal u0, u1
        u0, u1 = u.tolist()

    def rhs(t, y):
        fx, B, G2 = evaluate(y[:4])
        if G2 is not B:
            raise ParameterError(
                "arm_derivative needs a plant whose evaluated g2 is its g1")
        f0, f1, f2, f3 = fx.tolist()
        (b00, b01), (b10, b11), (b20, b21), (b30, b31) = B.tolist()
        x0, x1, x2, x3, z0, z1 = y
        d0, d1 = disturbance_at(t)
        # f + B u, shared by the plant and the observer
        a0 = f0 + (b00 * u0 + b01 * u1)
        a1 = f1 + (b10 * u0 + b11 * u1)
        a2 = f2 + (b20 * u0 + b21 * u1)
        a3 = f3 + (b30 * u0 + b31 * u1)
        # z + L_d x, the estimate
        w0 = z0 + (l00 * x0 + l01 * x1 + l02 * x2 + l03 * x3)
        w1 = z1 + (l10 * x0 + l11 * x1 + l12 * x2 + l13 * x3)
        v0 = a0 + (b00 * w0 + b01 * w1)
        v1 = a1 + (b10 * w0 + b11 * w1)
        v2 = a2 + (b20 * w0 + b21 * w1)
        v3 = a3 + (b30 * w0 + b31 * w1)
        return (a0 + (b00 * d0 + b01 * d1),
                a1 + (b10 * d0 + b11 * d1),
                a2 + (b20 * d0 + b21 * d1),
                a3 + (b30 * d0 + b31 * d1),
                -(l00 * v0 + l01 * v1 + l02 * v2 + l03 * v3),
                -(l10 * v0 + l11 * v1 + l12 * v2 + l13 * v3))

    return rhs, hold


def el_observer_config(alpha1: float, mu1: float, nu: float,
                       omega: float) -> ObserverConfig:
    """Mechanical observer as a constant gain on the embedded plant.

    L_d = [0 | alpha1*I] gives p(x) = L_d x = alpha1*qdot, so the estimate
    is z + alpha1*qdot; the effective coercivity constant is alpha1*mu1.
    """
    Ld = np.hstack([np.zeros((2, 2)), alpha1 * np.eye(2)])
    return ObserverConfig(gain=Ld, alpha=alpha1 * mu1, nu=nu, omega=omega)


class ELQpFilter:
    """Energy-based observer-aware filter with the singularity guard.

    alpha (alpha1*mu1 for el_observer_config's observer) and nu come from
    the observer and are read once, here: a tuning with
    4*alpha1*mu1 - 2*gamma - 2*nu <= 0 raises ParameterError.  The checked
    denominator and the omega term omega^2/(2 nu) are kept for the
    decisions.
    """

    def __init__(self, sys: ELSystem, h_q: Callable, grad_hq: Callable,
                 observer: ObserverConfig, params: ELFilterParams):
        denom = 4.0 * observer.alpha - 2.0 * params.gamma - 2.0 * observer.nu
        if denom <= 0:
            raise ParameterError(
                f"need 4*alpha1*mu1 - 2*gamma - 2*nu > 0, got {denom}")
        self.sys = sys
        self.h_q = h_q
        self.grad_hq = grad_hq
        self.observer = observer
        self.params = params
        self.denom = denom
        self.omega_term = params.omega ** 2 / (2.0 * observer.nu)

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        """The constraint row at x for the estimate d_hat; psi1 is -qdot.

        The two halves of x, d_hat and grad_hq(q) are each checked once and
        read as Python floats, so x is checked once; h_q and grad_hq
        receive q as a list of two floats.
        """
        fp, sys = self.params, self.sys
        q = as_floats(x[:2], 2, "q")
        qd = v0, v1 = as_floats(x[2:], 2, "qd")
        th0, th1 = as_floats(d_hat, 2, "tau_hat")
        j0, j1 = as_floats(self.grad_hq(q), 2, "grad_hq(q)")
        g0, g1 = sys.gravity(q)
        psi0 = (fp.beta * (v0 * j0 + v1 * j1)
                - (v0 * (th0 - g0) + v1 * (th1 - g1))
                - self.omega_term
                - (v0 * v0 + v1 * v1) / self.denom
                + fp.gamma * (fp.beta * float(self.h_q(q))
                              - kinetic_energy(sys, q, qd)))
        return guarded_decision(fp.eps_singular, qd, psi0, np.array((-v0, -v1)))

    def probe(self, x, e_d) -> dict:
        x = as_vector(x, 4, "x")
        q = x[:2]
        h = float(self.h_q(q))
        return {"h": h,
                "hbar": (self.params.beta * h
                         - kinetic_energy(self.sys, q, x[2:])
                         - 0.5 * float(np.dot(e_d, e_d)))}


class ELRobustFilter:
    """Worst-case energy filter over ||tau_d|| <= d_max, used as the
    comparison baseline; beta, gamma or eps_singular <= 0, or a negative
    d_max, raises ParameterError here."""

    def __init__(self, sys: ELSystem, h_q: Callable, grad_hq: Callable,
                 beta: float, gamma: float, d_max: float,
                 eps_singular: float = 1e-4):
        if min(beta, gamma, eps_singular) <= 0:
            raise ParameterError("beta, gamma and eps_singular must be positive")
        if d_max < 0:
            raise ParameterError("d_max must be nonnegative")
        self.sys = sys
        self.h_q = h_q
        self.grad_hq = grad_hq
        self.beta = beta
        self.gamma = gamma
        self.d_max = d_max
        self.eps_singular = eps_singular

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        """The worst-case row at x, with the checks and float arithmetic of
        ELQpFilter.constraint; d_hat is not read."""
        sys = self.sys
        q = as_floats(x[:2], 2, "q")
        qd = v0, v1 = as_floats(x[2:], 2, "qd")
        j0, j1 = as_floats(self.grad_hq(q), 2, "grad_hq(q)")
        g0, g1 = sys.gravity(q)
        psi0 = (self.beta * (v0 * j0 + v1 * j1)
                + (v0 * g0 + v1 * g1)
                - math.sqrt(v0 * v0 + v1 * v1) * self.d_max
                + self.gamma * (self.beta * float(self.h_q(q))
                                - kinetic_energy(sys, q, qd)))
        return guarded_decision(self.eps_singular, qd, psi0, np.array((-v0, -v1)))

    def probe(self, x, e_d) -> dict:
        x = as_vector(x, 4, "x")
        q = x[:2]
        h = float(self.h_q(q))
        return {"h": h,
                "hbar": self.beta * h - kinetic_energy(self.sys, q, x[2:])}
