"""Nonlinear disturbance observer and its error-bound envelope.

The observer keeps an internal state z and outputs the estimate
d_hat = z + p(x), with

    zdot = -L_d (f + g1 u + g2 z + g2 p(x)),

where the gain L_d is a constant (p, n) matrix and p(x) = L_d x, so that
dp/dx = L_d holds by construction.  The gain must satisfy the coercivity
condition v' L_d g2(x) v >= alpha ||v||^2.  Every observer in the library
has this form: on an Euler-Lagrange plant, L_d = [0 | alpha1 I] gives the
momentum observer of Chen, Ballance, Gawthrop & O'Reilly (IEEE TIE 2000).
Under a bounded disturbance derivative ||ddot|| <= omega the estimation
error is uniformly ultimately bounded; `error_envelope` evaluates the
closed-form bound, which tends to omega/sqrt(2 kappa nu).  The
observer-aware safety filters are built from an `ObserverConfig` and read
its alpha and nu, so the constants of a run are stated once, here.

Note on the sign of a full-column-rank gain: the coercivity inequality
requires L_d = +alpha (g2' g2)^{-1} g2', not its negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (ControlAffineSystem, DimensionError, ParameterError,
                    as_matrix, as_vector)


@dataclass(frozen=True, eq=False)
class ObserverConfig:
    """Constant gain L_d plus the analysis constants (alpha, nu, omega).

    gain is the (p, n) matrix L_d, checked for shape and finiteness once,
    here, and stored as a read-only copy.  alpha is the coercivity constant
    of L_d g2, nu the Young's-inequality split, omega the bound on ||ddot||;
    QpFilter and ELQpFilter read alpha and nu from here when built.
    Configs compare and hash by identity, as arrays do not compare to one
    truth value.
    """

    gain: np.ndarray
    alpha: float
    nu: float = 1.0
    omega: float = 0.0

    def __post_init__(self):
        gain = np.array(self.gain, dtype=float)
        if gain.ndim != 2:
            raise DimensionError(
                f"gain: expected a (p, n) matrix, got shape {gain.shape}")
        gain = as_matrix(gain, *gain.shape, "gain")
        gain.flags.writeable = False
        object.__setattr__(self, "gain", gain)
        if self.alpha <= 0 or self.nu <= 0:
            raise ParameterError("alpha and nu must be positive")
        if self.omega < 0:
            raise ParameterError("omega must be nonnegative")
        if self.kappa <= 0:
            raise ParameterError(
                f"kappa = alpha - nu/2 = {self.kappa} must be positive")

    @property
    def dim_dist(self) -> int:
        return self.gain.shape[0]

    @property
    def kappa(self) -> float:
        return self.alpha - 0.5 * self.nu

    def gain_at(self, x) -> np.ndarray:
        """L_d, the same matrix at every state."""
        return self.gain

    def integral_at(self, x) -> np.ndarray:
        """p(x) = L_d x; a non-finite result raises ValueError."""
        return as_vector(self.gain.dot(x), self.dim_dist, "p(x)")


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
    """Verdict on the observer gain at sampled states."""

    coercivity_ok: bool
    # min over sample states of lambda_min(sym(L_d g2(x))) - alpha
    worst_coercivity_margin: float
    n_states: int = 0
    messages: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.coercivity_ok


def validate_gain(cfg: ObserverConfig, sys: ControlAffineSystem, sample_states,
                  tol: float = 1e-8) -> GainReport:
    """Check the coercivity of L_d g2 at sampled states.

    At each sample state x the margin is exact: min over unit v of
    v' A v = lambda_min((A + A')/2), with A = L_d g2(x).  p(x) must be
    finite there too (integral_at raises ValueError otherwise).  The
    condition is pointwise in x, so the states are still a sample.
    """
    states = [as_vector(x, sys.n, "sample state") for x in sample_states]
    if not states:
        raise ParameterError("need a nonempty sample set")

    mats = []
    for x in states:
        cfg.integral_at(x)
        mats.append(cfg.gain_at(x) @ sys.disturbance_matrix(x))
    A = np.array(mats)
    lam_min = np.linalg.eigvalsh(0.5 * (A + A.transpose(0, 2, 1)))[:, 0]
    worst_margin = float(lam_min.min()) - cfg.alpha

    report = GainReport(
        coercivity_ok=worst_margin >= -tol,
        worst_coercivity_margin=worst_margin,
        n_states=len(states),
    )
    if not report.coercivity_ok:
        report.messages.append(
            f"coercivity margin {worst_margin:.3e} below -{tol:.1e}")
    return report
