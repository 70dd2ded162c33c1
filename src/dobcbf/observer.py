"""Nonlinear disturbance observer and its error-bound envelope.

The observer keeps an internal state z and outputs the estimate
d_hat = z + p(x), with

    zdot = -L_d (f + g1 u + g2 z + g2 p(x)),

where the gain L_d is a constant (p, n) matrix and p(x) = L_d x, so that
dp/dx = L_d holds by construction.  The gain must satisfy the coercivity
condition v' L_d g2(x) v >= alpha ||v||^2 (see `gain_spectrum`).  Every
observer in the library has this form: on an Euler-Lagrange plant,
L_d = [0 | alpha1 I] gives the momentum observer of Chen, Ballance,
Gawthrop & O'Reilly (IEEE TIE 2000).
Under a bounded disturbance derivative ||ddot|| <= omega the estimation
error is uniformly ultimately bounded; `error_envelope` evaluates the
closed-form bound, which tends to omega/sqrt(2 kappa nu).  The
observer-aware safety filters are built from an `ObserverConfig` and read
its alpha and nu, so the constants of a run are stated once, here.

Note on the sign of a full-column-rank gain: the coercivity inequality
requires L_d = +alpha (g2' g2)^{-1} g2', not its negative.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .model import (ControlAffineSystem, DimensionError, ParameterError,
                    _float_rows, as_floats)


@dataclass(frozen=True, eq=False)
class ObserverConfig:
    """Constant gain L_d plus the analysis constants (alpha, nu, omega).

    gain is the (p, n) matrix L_d, checked for shape and finiteness once,
    here, and stored as a read-only copy; its rows are also kept as tuples
    of Python floats for integral_at.  alpha is the coercivity constant
    of L_d g2, nu the Young's-inequality split, omega the bound on ||ddot||;
    QpFilter reads alpha and nu from here when built.
    Configs compare and hash by identity, as arrays do not compare to one
    truth value.
    """

    gain: np.ndarray
    alpha: float
    nu: float = 1.0
    omega: float = 0.0
    _rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        try:
            gain = np.array(self.gain, dtype=float)
        except ValueError as exc:
            raise DimensionError(
                f"gain: not a (p, n) float matrix: {exc}") from None
        if gain.ndim != 2:
            raise DimensionError(
                f"gain: expected a (p, n) matrix, got shape {gain.shape}")
        rows = _float_rows(gain, *gain.shape, "gain")
        gain.flags.writeable = False
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "_rows", tuple(map(tuple, rows)))
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

    def integral_at(self, x) -> list:
        """p(x) = L_d x as a list of float sums over the rows of L_d; x is
        checked by as_floats, and a non-finite p(x) raises ValueError."""
        x = as_floats(x, self.gain.shape[1], "x")
        p = []
        for row in self._rows:
            p.append(sum(map(operator.mul, row, x)))
            if not math.isfinite(p[-1]):
                raise ValueError(f"p(x): non-finite entries {p}")
        return p


@dataclass
class ObserverState:
    """Internal observer variable z, Python floats checked by as_floats when
    built; owned by a single simulation run, which assigns each step's z."""

    z: list

    def __post_init__(self):
        self.z = as_floats(self.z, np.size(self.z), "observer state")


def initial_state(cfg: ObserverConfig, x0) -> ObserverState:
    """z(0) = -p(x0), i.e. a zero initial estimate (ignorance prior)."""
    return ObserverState(z=[-v for v in cfg.integral_at(x0)])


def estimate(cfg: ObserverConfig, st: ObserverState, x) -> list:
    """Disturbance estimate d_hat = z + p(x), as a list of Python floats."""
    if len(st.z) != cfg.dim_dist:
        raise DimensionError(f"z has shape ({len(st.z)},), expected ({cfg.dim_dist},)")
    return list(map(operator.add, st.z, cfg.integral_at(x)))


def error_envelope(cfg: ObserverConfig, e0_norm: float, t):
    """Closed-form bound E(t) on the estimation-error norm.

    Monotone from ||e_d(0)|| toward the ultimate bound omega/sqrt(2 kappa nu),
    as E^2 = e0^2 decay + omega^2 (1 - decay)/(2 kappa nu) with
    decay = exp(-2 kappa t): the e0 term is never divided by 2 kappa nu, so
    E(0) = e0 exactly, also where 2 kappa nu is subnormal (E is then
    infinite for t > 0, a true but vacuous bound).  Accepts scalar or array
    t.
    """
    if e0_norm < 0:
        raise ParameterError("e0_norm must be nonnegative")
    kappa, nu, omega = cfg.kappa, cfg.nu, cfg.omega
    decay = np.exp(-2.0 * kappa * np.asarray(t, dtype=float))
    with np.errstate(over="ignore"):  # an infinite bound is still a bound
        val = (e0_norm * e0_norm * decay
               + omega * omega * (1.0 - decay) / (2.0 * kappa * nu))
    out = np.sqrt(np.maximum(val, 0.0))
    return float(out) if np.ndim(t) == 0 else out


def gain_spectrum(cfg: ObserverConfig, system: ControlAffineSystem,
                  states) -> tuple[float, float]:
    """(lam_min, lam_max): the extreme eigenvalues of sym(A) = (A + A')/2,
    A = L_d g2(x), over the given states.

    Over unit v, v' A v spans [lam_min, lam_max], so lam_min - alpha is the
    coercivity margin and lam_max the stiffness of the estimation error;
    over every state when the states are where the extremes are attained.
    A non-finite L_d g2(x) raises ParameterError.
    """
    mats = []
    for x in states:
        A = cfg.gain_at(x) @ system.disturbance_matrix(x)
        if not np.isfinite(A).all():
            raise ParameterError(f"L_d g2(x) is not finite at x = {list(x)}")
        mats.append(0.5 * A + 0.5 * A.T)
    lam = np.linalg.eigvalsh(np.array(mats))
    return float(lam[:, 0].min()), float(lam[:, -1].max())
