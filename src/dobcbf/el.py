"""Euler-Lagrange plants, their disturbance observer, and the energy filter.

Mechanical systems M(q) qddot + C(q, qdot) qdot + G(q) = tau + tau_d admit a
dedicated observer (estimate = z + alpha1*qdot) and an energy-based safety
constraint that only needs a C^1 position barrier h_q.  The constraint row is
psi1 = -qdot, which vanishes at qdot = 0; both energy filters return through
`guarded_decision`, which bypasses the QP there.  `violation_floor` bounds
the barrier when the disturbance-derivative term is withheld.

The 2-DOF planar arm used by the benchmark scenarios lives here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .filters import MODE_FULL, MODE_NO_OMEGA, Decision
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
    that needs arrays wraps the results with np.asarray.  Only n = 2 is
    supported: the plant embedding inverts the inertia in closed form and
    the energy terms are written out for two joints.
    """

    dof: int
    mass: Callable[[np.ndarray], np.ndarray]
    coriolis: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gravity: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dof != 2:
            raise ParameterError(f"only 2-DOF plants are supported, got dof = {self.dof}")

    def split(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = as_vector(x, 4, "x")
        return x[:2], x[2:]


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

        return ELSystem(dof=2, mass=mass, coriolis=coriolis, gravity=gravity)


def el_accel(sys: ELSystem, q, qd, tau, tau_d) -> np.ndarray:
    """Joint accelerations from the equations of motion."""
    q = as_vector(q, sys.dof, "q")
    qd = as_vector(qd, sys.dof, "qd")
    tau = as_vector(tau, sys.dof, "tau")
    tau_d = as_vector(tau_d, sys.dof, "tau_d")
    M = np.asarray(sys.mass(q))
    rhs = (tau + tau_d - np.asarray(sys.coriolis(q, qd)) @ qd
           - np.asarray(sys.gravity(q)))
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"inertia matrix solve failed at q = {q}") from exc


def mu_bounds(sys: ELSystem, q_grid) -> tuple[float, float]:
    """(min, max) eigenvalue of the inverse inertia matrix over a grid of q."""
    lo, hi = np.inf, -np.inf
    count = 0
    for q in q_grid:
        q = as_vector(q, sys.dof, "q")
        eigs = np.linalg.eigvalsh(np.asarray(sys.mass(q)))
        if eigs[0] <= 0:
            raise ParameterError(f"inertia matrix not SPD at q = {q}")
        lo = min(lo, 1.0 / eigs[-1])
        hi = max(hi, 1.0 / eigs[0])
        count += 1
    if count == 0:
        raise ParameterError("need a nonempty grid")
    return float(lo), float(hi)


def kinetic_energy(sys: ELSystem, q, qd) -> float:
    """qdot' M(q) qdot / 2."""
    (m11, m12), (m21, m22) = sys.mass(q)
    v0, v1 = float(qd[0]), float(qd[1])
    return 0.5 * ((v0 * m11 + v1 * m21) * v0 + (v0 * m12 + v1 * m22) * v1)


@dataclass(frozen=True)
class ELFilterParams:
    """Tuning of the energy-based filter; alpha1 is the observer gain.

    The effective coercivity constant is alpha1 * mu1, where mu1 lower-bounds
    the eigenvalues of the inverse inertia matrix over the operating range.
    omega enters the constraint as omega^2/(2 nu); eps_singular is the
    joint-speed threshold below which the constraint row vanishes and the QP
    is bypassed.
    """

    alpha1: float
    beta: float
    gamma: float
    nu: float
    mu1: float
    omega: float = 0.0
    eps_singular: float = 1e-4
    mode: str = MODE_FULL

    def __post_init__(self):
        if min(self.alpha1, self.beta, self.gamma, self.nu, self.mu1) <= 0:
            raise ParameterError("alpha1, beta, gamma, nu, mu1 must be positive")
        if self.omega < 0 or self.eps_singular <= 0:
            raise ParameterError("need omega >= 0 and eps_singular > 0")
        if self.mode not in (MODE_FULL, MODE_NO_OMEGA):
            raise ParameterError(f"unknown mode {self.mode!r}")

    @property
    def alpha(self) -> float:
        return self.alpha1 * self.mu1


def el_psi(sys: ELSystem, h_q: Callable, grad_hq: Callable,
           fp: ELFilterParams, q, qd, tau_hat) -> tuple[float, np.ndarray]:
    """Energy-filter constraint coefficients; psi1 is always -qdot.

    q, qd, tau_hat and grad_hq(q) are each checked once and read as Python
    floats; h_q and grad_hq receive q as a list of two floats.
    """
    denom = 4.0 * fp.alpha - 2.0 * fp.gamma - 2.0 * fp.nu
    if denom <= 0:
        raise ParameterError(
            f"need 4*alpha1*mu1 - 2*gamma - 2*nu > 0, got {denom}")
    q = as_floats(q, sys.dof, "q")
    qd = v0, v1 = as_floats(qd, sys.dof, "qd")
    th0, th1 = as_floats(tau_hat, sys.dof, "tau_hat")
    j0, j1 = as_floats(grad_hq(q), sys.dof, "grad_hq(q)")
    g0, g1 = sys.gravity(q)
    omega_term = 0.0 if fp.mode == MODE_NO_OMEGA else fp.omega ** 2 / (2.0 * fp.nu)
    psi0 = (fp.beta * (v0 * j0 + v1 * j1)
            - (v0 * (th0 - g0) + v1 * (th1 - g1))
            - omega_term
            - (v0 * v0 + v1 * v1) / denom
            + fp.gamma * (fp.beta * float(h_q(q)) - kinetic_energy(sys, q, qd)))
    return psi0, np.array((-v0, -v1))


def el_robust_psi(sys: ELSystem, h_q: Callable, grad_hq: Callable,
                  beta: float, gamma: float, d_max: float,
                  q, qd) -> tuple[float, np.ndarray]:
    """Worst-case counterpart of the energy filter over ||tau_d|| <= d_max,
    with the checks and float arithmetic of el_psi."""
    if d_max < 0:
        raise ParameterError("d_max must be nonnegative")
    q = as_floats(q, sys.dof, "q")
    qd = v0, v1 = as_floats(qd, sys.dof, "qd")
    j0, j1 = as_floats(grad_hq(q), sys.dof, "grad_hq(q)")
    g0, g1 = sys.gravity(q)
    psi0 = (beta * (v0 * j0 + v1 * j1)
            + (v0 * g0 + v1 * g1)
            - math.sqrt(v0 * v0 + v1 * v1) * d_max
            + gamma * (beta * float(h_q(q)) - kinetic_energy(sys, q, qd)))
    return psi0, np.array((-v0, -v1))


def violation_floor(fp: ELFilterParams, omega: float, t):
    """Worst-case barrier floor at time t when the omega term is withheld.

    omega is the true disturbance-derivative bound, not the constraint-side
    fp.omega: the floor is a statement about the disturbance itself.
    """
    if fp.mode != MODE_NO_OMEGA:
        raise ParameterError("violation_floor applies to mode='no_omega' only")
    decay = 1.0 - np.exp(-fp.gamma * np.asarray(t, dtype=float))
    out = -omega ** 2 / (2.0 * fp.nu * fp.gamma * fp.beta) * decay
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


@dataclass
class ELParamReport:
    alpha_ok: bool
    beta_ok: bool
    alpha_margin: float
    beta_margin: float
    messages: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.alpha_ok and self.beta_ok


def validate_el_params(sys: ELSystem, fp: ELFilterParams, q0, qd0,
                       h_q0: float, e0_norm: float) -> ELParamReport:
    """Strict parameter inequalities of the energy-filter guarantee."""
    alpha_margin = fp.alpha - 0.5 * (fp.gamma + fp.nu)
    messages = []
    if h_q0 <= 0:
        beta_ok, beta_margin = False, -np.inf
        messages.append("initial barrier value must be positive")
    else:
        need = (2.0 * kinetic_energy(sys, q0, qd0) + e0_norm ** 2) / (2.0 * h_q0)
        beta_margin = fp.beta - need
        beta_ok = beta_margin > 0
        if not beta_ok:
            messages.append(f"beta margin {beta_margin:.3e} not positive")
    if alpha_margin <= 0:
        messages.append(f"alpha margin {alpha_margin:.3e} not positive")
    return ELParamReport(alpha_ok=alpha_margin > 0, beta_ok=beta_ok,
                         alpha_margin=float(alpha_margin),
                         beta_margin=float(beta_margin), messages=messages)


def to_control_affine(sys: ELSystem) -> ControlAffineSystem:
    """Embed the mechanical plant as x = [q; qdot] with u = tau, d = tau_d.

    The 2x2 inertia is inverted in closed form; a matrix that is not positive
    definite at some q (a singular one included) raises ParameterError.
    The state is read into Python floats once, and M, C qdot + G, the
    inverse and the drift are computed in floats; only f and B are arrays.
    """
    mass, coriolis, gravity = sys.mass, sys.coriolis, sys.gravity

    def terms(x):
        q0, q1, v0, v1 = x.tolist()
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


def el_observer_config(sys: ELSystem, alpha1: float, mu1: float,
                       nu: float, omega: float) -> ObserverConfig:
    """Mechanical observer as a gain pair on the embedded plant.

    L_d = [0 | alpha1*I] with antiderivative p(x) = alpha1*qdot reproduces
    the estimate z + alpha1*qdot exactly; the effective coercivity constant
    is alpha1*mu1.
    """
    n = sys.dof
    Ld = np.hstack([np.zeros((n, n)), alpha1 * np.eye(n)])
    return ObserverConfig(
        dim_state=2 * n, dim_dist=n,
        gain=lambda x: Ld,
        gain_integral=lambda x: alpha1 * x[n:],
        alpha=alpha1 * mu1, nu=nu, omega=omega)


class ELQpFilter:
    """Energy-based observer-aware filter with the singularity guard."""

    def __init__(self, sys: ELSystem, h_q: Callable, grad_hq: Callable,
                 params: ELFilterParams):
        self.sys = sys
        self.h_q = h_q
        self.grad_hq = grad_hq
        self.params = params

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        # el_psi checks both halves of the state, so x is checked once
        qd = x[2:]
        psi0, psi1 = el_psi(self.sys, self.h_q, self.grad_hq, self.params,
                            x[:2], qd, d_hat)
        return guarded_decision(self.params.eps_singular, qd, psi0, psi1)

    def probe(self, x, e_d) -> dict:
        q, qd = self.sys.split(x)
        return {"h": float(self.h_q(q)),
                "hbar": (self.params.beta * float(self.h_q(q))
                         - kinetic_energy(self.sys, q, qd)
                         - 0.5 * float(np.dot(e_d, e_d)))}


class ELRobustFilter:
    """Worst-case energy filter used as the comparison baseline."""

    def __init__(self, sys: ELSystem, h_q: Callable, grad_hq: Callable,
                 beta: float, gamma: float, d_max: float,
                 eps_singular: float = 1e-4):
        self.sys = sys
        self.h_q = h_q
        self.grad_hq = grad_hq
        self.beta = beta
        self.gamma = gamma
        self.d_max = d_max
        self.eps_singular = eps_singular

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        qd = x[2:]  # checked with x[:2] in el_robust_psi
        psi0, psi1 = el_robust_psi(self.sys, self.h_q, self.grad_hq,
                                   self.beta, self.gamma, self.d_max, x[:2], qd)
        return guarded_decision(self.eps_singular, qd, psi0, psi1)

    def probe(self, x, e_d) -> dict:
        q, qd = self.sys.split(x)
        return {"h": float(self.h_q(q)),
                "hbar": (self.beta * float(self.h_q(q))
                         - kinetic_energy(self.sys, q, qd))}
