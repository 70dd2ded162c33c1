"""Nonlinear disturbance observer and its error-bound envelope.

The observer keeps an internal state z and outputs the estimate
d_hat = z + p(x), with

    zdot = -L_d(x) (f + g1 u + g2 z + g2 p(x)),

where the gain L_d must satisfy the coercivity condition
v' L_d(x) g2(x) v >= alpha ||v||^2 and p is an antiderivative of L_d
(dp/dx = L_d).  Under a bounded disturbance derivative ||ddot|| <= omega the
estimation error is uniformly ultimately bounded; `error_envelope` evaluates
the closed-form bound, which tends to omega/sqrt(2 kappa nu).

Note on the sign of a full-column-rank gain: the coercivity inequality
requires L_d = +alpha (g2' g2)^{-1} g2', not its negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import (ControlAffineSystem, DimensionError, ParameterError,
                    as_matrix, as_vector)


@dataclass(frozen=True)
class ObserverConfig:
    """Gain pair (L_d, p) plus the analysis constants (alpha, nu, omega).

    gain maps state -> (p, n) matrix, gain_integral maps state -> (p,) vector
    whose Jacobian equals the gain.  alpha is the coercivity constant of
    L_d g2, nu the Young's-inequality split, omega the bound on ||ddot||.
    """

    dim_state: int
    dim_dist: int
    gain: Callable[[np.ndarray], np.ndarray]
    gain_integral: Callable[[np.ndarray], np.ndarray]
    alpha: float
    nu: float = 1.0
    omega: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0 or self.nu <= 0:
            raise ParameterError("alpha and nu must be positive")
        if self.omega < 0:
            raise ParameterError("omega must be nonnegative")
        if self.kappa <= 0:
            raise ParameterError(
                f"kappa = alpha - nu/2 = {self.kappa} must be positive")

    @property
    def kappa(self) -> float:
        return self.alpha - 0.5 * self.nu

    def gain_at(self, x) -> np.ndarray:
        return as_matrix(self.gain(x), self.dim_dist, self.dim_state, "L_d(x)")

    def integral_at(self, x) -> np.ndarray:
        return as_vector(self.gain_integral(x), self.dim_dist, "p(x)")


@dataclass
class ObserverState:
    """Internal observer variable; owned by a single simulation run."""

    z: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.z)):
            raise ValueError("observer state must be finite")


def initial_state(cfg: ObserverConfig, x0) -> ObserverState:
    """z(0) = -p(x0), i.e. a zero initial estimate (ignorance prior)."""
    return ObserverState(z=-cfg.integral_at(x0))


def estimate(cfg: ObserverConfig, st: ObserverState, x) -> np.ndarray:
    """Disturbance estimate d_hat = z + p(x)."""
    if st.z.shape != (cfg.dim_dist,):
        raise DimensionError(f"z has shape {st.z.shape}, expected ({cfg.dim_dist},)")
    return st.z + cfg.integral_at(x)


def z_derivative(cfg: ObserverConfig, st: ObserverState,
                 sys: ControlAffineSystem, x, u) -> np.ndarray:
    """Right-hand side of the observer state; integrated externally."""
    x = as_vector(x, sys.n, "x")
    u = as_vector(u, sys.m, "u")
    fx, G1, G2 = sys.evaluate(x)
    d_hat = estimate(cfg, st, x)
    return -cfg.gain_at(x) @ (fx + G1 @ u + G2 @ d_hat)


def error_envelope(cfg: ObserverConfig, e0_norm: float, t):
    """Closed-form bound E(t) on the estimation-error norm.

    Monotone from ||e_d(0)|| toward the ultimate bound omega/sqrt(2 kappa nu).
    Accepts scalar or array t.
    """
    if e0_norm < 0:
        raise ParameterError("e0_norm must be nonnegative")
    kappa, nu, omega = cfg.kappa, cfg.nu, cfg.omega
    decay = np.exp(-2.0 * kappa * np.asarray(t, dtype=float))
    val = (2.0 * kappa * nu * e0_norm ** 2 * decay
           - omega ** 2 * decay + omega ** 2) / (2.0 * kappa * nu)
    out = np.sqrt(np.maximum(val, 0.0))
    return float(out) if np.ndim(t) == 0 else out


@dataclass
class GainReport:
    """Sampling-based verdict on the observer gain pair."""

    coercivity_ok: bool
    jacobian_ok: bool
    worst_coercivity_margin: float  # min over samples of v'L_d g2 v/||v||^2 - alpha
    worst_jacobian_error: float     # max relative deviation dp/dx vs L_d
    n_states: int = 0
    messages: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.coercivity_ok and self.jacobian_ok


def validate_gain(cfg: ObserverConfig, sys: ControlAffineSystem, sample_states,
                  rng: np.random.Generator | None = None,
                  vectors_per_state: int = 5, tol: float = 1e-8,
                  fd_step: float = 1e-5, fd_tol: float = 1e-4) -> GainReport:
    """Check the gain condition and dp/dx = L_d over sampled states.

    Coercivity is tested with random directions v at each sample state; the
    Jacobian of p is approximated by central differences.  Diagnostic only:
    the condition is pointwise in x, so this is a sampling certificate.
    """
    states = [as_vector(x, sys.n, "sample state") for x in sample_states]
    if not states:
        raise ParameterError("need a nonempty sample set")
    rng = rng if rng is not None else np.random.default_rng(0)

    worst_margin = np.inf
    worst_jac = 0.0
    for x in states:
        Ld = cfg.gain_at(x)
        G2 = sys.disturbance_matrix(x)
        A = Ld @ G2
        for _ in range(vectors_per_state):
            v = rng.standard_normal(cfg.dim_dist)
            v /= np.linalg.norm(v)
            worst_margin = min(worst_margin, float(v @ A @ v) - cfg.alpha)
        # finite-difference Jacobian of p vs the declared gain
        jac = np.empty_like(Ld)
        for i in range(sys.n):
            e = np.zeros(sys.n)
            e[i] = fd_step
            jac[:, i] = (cfg.integral_at(x + e) - cfg.integral_at(x - e)) / (2 * fd_step)
        scale = max(1.0, float(np.abs(Ld).max()))
        worst_jac = max(worst_jac, float(np.abs(jac - Ld).max()) / scale)

    report = GainReport(
        coercivity_ok=worst_margin >= -tol,
        jacobian_ok=worst_jac <= fd_tol,
        worst_coercivity_margin=float(worst_margin),
        worst_jacobian_error=float(worst_jac),
        n_states=len(states),
    )
    if not report.coercivity_ok:
        report.messages.append(
            f"coercivity margin {worst_margin:.3e} below -{tol:.1e}")
    if not report.jacobian_ok:
        report.messages.append(
            f"dp/dx deviates from L_d by {worst_jac:.3e} (tol {fd_tol:.1e})")
    return report
