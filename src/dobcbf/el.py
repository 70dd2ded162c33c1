"""Euler-Lagrange plants, their disturbance observer, and the energy barrier.

Mechanical systems M(q) qddot + C(q, qdot) qdot + G(q) = tau + tau_d admit a
dedicated observer (estimate = z + alpha1*qdot) and an energy-based safety
constraint that only needs a C^1 position barrier h_q.  `TwoLinkArm`, the
planar arm of the benchmark scenarios, gives its inertia and gravity
(`TwoLinkArm.mass`, `TwoLinkArm.gravity`), its plant (`TwoLinkArm.plant`),
whose one `terms` callback forms M, C qdot + G, the closed-form inverse of
M and the drift from one cos q2 and sin q2, and its energy barrier
(`TwoLinkArm.energy_barrier`), the relative-degree-1 barrier
beta*h_q - KE as a closed-form Lie chain.  The arm's filters are
`filters.QpFilter` on that barrier: with the observer of
`el_observer_config`, whose coercivity constant is alpha1*mu1, or with the
worst-case bound d_max of the robust baseline; both bypass the QP near
qdot = 0, where the row psi1 = -qdot vanishes.  `violation_floor` bounds
h_q when the disturbance-derivative term is withheld (omega = 0 in the
constraint), from plain numbers: the observer's nu, the barrier's gamma
and beta, and the true omega.  The chain, the PD law and the plant's
`terms` return Python floats.  `arm_derivative` is the simulator's
right-hand side for the arm and the momentum observer z + alpha1*qdot: the
joint derivative in closed form, in Python floats, with only its nonzero
rows formed, still checking the plant through `evaluate` at every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import BarrierSpec, ControlAffineSystem, ParameterError, as_floats
from .observer import ObserverConfig


@dataclass(frozen=True)
class TwoLinkArm:
    """Planar 2-DOF arm with unit default masses and link length.

    The configuration-independent parts of its inertia and gravity are
    worked out once, when the arm is made, in the evaluation order of the
    textbook expressions; `mass`, `gravity`, `plant` and `energy_barrier`
    read them.
    """

    m1: float = 1.0
    m2: float = 1.0
    l: float = 1.0
    g_accel: float = 9.81
    _k: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m1, m2, l, g = self.m1, self.m2, self.l, self.g_accel
        object.__setattr__(self, "_k", (
            m1 * l * l / 3.0 + 4.0 * m2 * l * l / 3.0, m2 * l * l / 3.0,
            m2 * l * l, m2 * l * l / 2.0,
            m1 * g * l / 2.0, m2 * g * l, m2 * g * l / 2.0))

    def mass(self, q) -> tuple:
        """M(q) as ((m11, m12), (m21, m22)) of Python floats, symmetric
        positive definite; q is any length-2 sequence of numbers."""
        a11_0, a12_0, ml2, ml2_2, _, _, _ = self._k
        c2 = math.cos(q[1])
        a12 = a12_0 + ml2_2 * c2
        return (a11_0 + ml2 * c2, a12), (a12, a12_0)

    def gravity(self, q) -> tuple:
        """G(q) as (g1, g2) of Python floats."""
        _, _, _, _, w1, w2, w12 = self._k
        q0, q1 = float(q[0]), float(q[1])
        c1 = math.cos(q0)
        c12 = math.cos(q0 + q1)
        return w1 * c1 + w12 * c12 + w2 * c1, w12 * c12

    def plant(self) -> ControlAffineSystem:
        """The arm embedded as x = [q; qdot] with u = tau, d = tau_d.

        `terms` reads the state (four numbers, in a list or an array) into
        Python floats once, takes cos q2 and sin q2 once, and forms M,
        C qdot + G, the closed-form inverse of M and the drift in the
        operation order of per-term callbacks, so every entry keeps their
        bits.  It returns f as a tuple of four floats and B = [0; M^-1] as
        a tuple of row tuples, one object for both channels.  An inertia
        that is not positive definite at q raises ParameterError, or
        ValueError when q is not finite.
        """
        a11_0, a12_0, ml2, ml2_2, w1, w2, w12 = self._k
        zero = (0.0, 0.0)

        def terms(x):
            q0, q1, v0, v1 = map(float, x)
            c2, s2 = math.cos(q1), math.sin(q1)
            m11, m12 = a11_0 + ml2 * c2, a12_0 + ml2_2 * c2
            det = m11 * a12_0 - m12 * m12
            if not (m11 > 0.0 and det > 0.0):
                q = (q0, q1)
                if not (math.isfinite(q0) and math.isfinite(q1)):
                    raise ValueError(f"non-finite state at q = {q}")
                raise ParameterError(f"inertia matrix not positive definite at q = {q}")
            # C qdot + G with C = ((k11, k12), (k21, 0.0)); the zero entry is
            # kept as a product, so a signed zero or a non-finite qdot2
            # keeps its bits
            k11, k12, k21 = (-ml2_2 * s2 * v1, -ml2_2 * (v0 + v1) * s2,
                             ml2_2 * v0 * s2)
            c1, c12 = math.cos(q0), math.cos(q0 + q1)
            h0 = k11 * v0 + k12 * v1 + (w1 * c1 + w12 * c12 + w2 * c1)
            h1 = k21 * v0 + 0.0 * v1 + w12 * c12
            B = (zero, zero, (a12_0 / det, -m12 / det), (-m12 / det, m11 / det))
            f = (v0, v1, (m12 * h1 - a12_0 * h0) / det, (m12 * h0 - m11 * h1) / det)
            return f, B, B

        return ControlAffineSystem(
            n=4, m=2, p=2,
            f=lambda x: terms(x)[0],
            g1=lambda x: terms(x)[1],
            g2=lambda x: terms(x)[2],
            terms=terms)

    def energy_barrier(self, h_q: Callable, grad_hq: Callable, beta: float,
                       gamma: float) -> BarrierSpec:
        """The energy barrier h~ = beta h_q(q) - qdot' M(q) qdot / 2 of the
        position barrier h_q, on x = [q; qdot] with the pole gamma.

        Its Lie chain is closed form: h~ has relative degree 1, with
        L_g1 h~ = L_g2 h~ = -qdot, returned as one tuple for both channels,
        and L_f h~ = beta grad_hq(q) . qdot + qdot' G(q) by the
        skew-symmetry of Mdot - 2C, so no inverse of M is formed.  The
        chain takes cos q1, cos q2 and cos(q1 + q2) once and forms M and G
        in the operation order of `mass` and `gravity`.  grad_hq(q) is
        checked by as_floats, and a non-finite h~ or L_f h~ raises
        ValueError naming both.  The barrier's safe set is h_q.  beta <= 0
        raises ParameterError, and so does a gamma that is not positive.
        """
        if beta <= 0:
            raise ParameterError("beta must be positive")
        a11_0, a12_0, ml2, ml2_2, w1, w2, w12 = self._k
        cos, isfinite = math.cos, math.isfinite

        def chain(x):
            q0, q1, v0, v1 = x
            q = (q0, q1)
            j0, j1 = as_floats(grad_hq(q), 2, "grad_hq(q)")
            c1, c2, c12 = cos(q0), cos(q1), cos(q0 + q1)
            m11, m12 = a11_0 + ml2 * c2, a12_0 + ml2_2 * c2
            h = beta * float(h_q(q)) - 0.5 * ((v0 * m11 + v1 * m12) * v0
                                              + (v0 * m12 + v1 * a12_0) * v1)
            lf = (beta * (v0 * j0 + v1 * j1)
                  + (v0 * (w1 * c1 + w12 * c12 + w2 * c1) + v1 * (w12 * c12)))
            if not (isfinite(h) and isfinite(lf)):
                raise ValueError(f"energy barrier: non-finite (h, L_f h) = "
                                 f"({h}, {lf}) at x = {[q0, q1, v0, v1]}")
            row = (-v0, -v1)
            return (h, lf), row, row

        return BarrierSpec(chain=chain, poles=(gamma,),
                           safe_set=lambda x: h_q((x[0], x[1])))


def violation_floor(nu: float, gamma: float, beta: float, omega: float, t):
    """Worst-case floor of h_q at time t when the omega term is withheld.

    nu is the observer's Young's-inequality split, gamma the pole of the
    energy barrier and beta its energy scale (the augmented barrier's own
    beta is 1 on the arm).  omega is the true disturbance-derivative bound,
    not the constraint-side one: the floor is a statement about the
    disturbance itself.  It is derived for a constraint-side omega of 0 and
    holds for any constraint-side omega >= 0, which only tightens the
    constraint.

    The floor is exactly 0 at t = 0.  Where 2 nu gamma beta underflows to 0
    (or omega^2 over it overflows), the floor is -inf for t > 0, a true but
    vacuous bound, as `observer.error_envelope` is infinite there.
    """
    decay = 1.0 - np.exp(-gamma * np.asarray(t, dtype=float))
    denom = 2.0 * nu * gamma * beta
    scale = omega ** 2 / denom if denom != 0.0 else (math.inf if omega else 0.0)
    # decay = 0 at t = 0 would make an infinite scale times decay NaN
    out = np.multiply(-scale, decay, out=np.zeros_like(decay),
                      where=decay > 0.0)
    return float(out) if np.ndim(t) == 0 else out


def pd_nominal(kp: float, kd: float, q, qd, q_des, qd_des,
               gravity=None) -> tuple:
    """PD tracking law kp (q_des - q) + kd (qd_des - qd) of a 2-DOF arm,
    optionally with gravity compensation.

    The gains are scalars, the same on both joints, and every vector may be
    a sequence of numbers or an array; the law is formed entry by entry and
    returned as a tuple (tau1, tau2), of Python floats when the entries
    are.  The gains are not checked here: callers validate them once, where
    they are configured (the arm scenarios reject kp, kd <= 0 at build
    time).
    """
    tau0 = kp * (q_des[0] - q[0]) + kd * (qd_des[0] - qd[0])
    tau1 = kp * (q_des[1] - q[1]) + kd * (qd_des[1] - qd[1])
    if gravity is not None:
        tau0, tau1 = tau0 + gravity[0], tau1 + gravity[1]
    return tau0, tau1


def arm_derivative(system: ControlAffineSystem, observer: ObserverConfig,
                   disturbance_at: Callable[[float], Sequence[float]]):
    """The simulator's joint derivative for the arm plant of
    TwoLinkArm.plant under the momentum observer, in closed form and Python
    floats.

    Returns (rhs, hold) like simulate.joint_derivative and computes the
    same quantity, [f + B u + B d(t); -L_d (f + B u + B (z + L_d x))], for
    B = [0; M^-1] and the gain L_d = [0 | alpha1 I] of el_observer_config
    (Chen, Ballance, Gawthrop & O'Reilly, IEEE TIE 2000), forming only the
    rows that are not structurally zero: with a = f_qdot + M^-1 u, the
    accelerations a + M^-1 d(t) and the observer's
    -alpha1 (a + M^-1 (z + alpha1 qdot)).  rhs(t, y) reads the list of six
    floats that rk4_step passes and returns a tuple of six floats.  Each
    stage calls system.evaluate(y[:4]) once, with its checks; hold unpacks
    each decision's control.  A non-finite derivative is caught by
    rk4_step's check of the new state.  Other plant dimensions, or any
    other gain, raise ParameterError when the run starts, and a stage
    whose evaluated g2 is not its g1 (the same object) raises it there.
    """
    if (system.n, system.m, system.p) != (4, 2, 2) \
            or observer.gain.shape != (2, 4):
        raise ParameterError(
            "arm_derivative needs a plant with n = 4, m = p = 2 and a 2x4 gain")
    (l00, l01, alpha1, l03), (l10, l11, l12, l13) = observer.gain.tolist()
    if (l00, l01, l03, l10, l11, l12) != (0.0,) * 6 or l13 != alpha1:
        raise ParameterError(
            "arm_derivative needs the momentum observer's gain [0 | alpha1 I]")
    evaluate = system.evaluate
    u0 = u1 = 0.0

    def hold(u):
        nonlocal u0, u1
        u0, u1 = u

    def rhs(t, y):
        fx, B, G2 = evaluate(y[:4])
        if G2 is not B:
            raise ParameterError(
                "arm_derivative needs a plant whose evaluated g2 is its g1")
        f0, f1, f2, f3 = fx
        _, _, (b20, b21), (b30, b31) = B
        _, _, x2, x3, z0, z1 = y
        d0, d1 = disturbance_at(t)
        a2 = f2 + (b20 * u0 + b21 * u1)
        a3 = f3 + (b30 * u0 + b31 * u1)
        # z + alpha1 qdot, the estimate
        w0, w1 = z0 + alpha1 * x2, z1 + alpha1 * x3
        return (f0, f1,
                a2 + (b20 * d0 + b21 * d1),
                a3 + (b30 * d0 + b31 * d1),
                -(alpha1 * (a2 + (b20 * w0 + b21 * w1))),
                -(alpha1 * (a3 + (b30 * w0 + b31 * w1))))

    return rhs, hold


def el_observer_config(alpha1: float, mu1: float, nu: float,
                       omega: float) -> ObserverConfig:
    """Mechanical observer as a constant gain on the embedded plant.

    L_d = [0 | alpha1*I] gives p(x) = L_d x = alpha1*qdot, so the estimate
    is z + alpha1*qdot; the effective coercivity constant is alpha1*mu1.
    """
    Ld = np.hstack([np.zeros((2, 2)), alpha1 * np.eye(2)])
    return ObserverConfig(gain=Ld, alpha=alpha1 * mu1, nu=nu, omega=omega)
