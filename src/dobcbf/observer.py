"""Nonlinear disturbance observer and its error-bound envelope.

The observer keeps an internal state z and outputs the estimate
d_hat = z + p(x), with

    zdot = -L_d (f + g1 u + g2 z + g2 p(x)),

where the gain L_d is a constant (p, n) matrix and p(x) = L_d x, so that
dp/dx = L_d holds by construction.  p(x) is summed over the nonzero
entries of each row of L_d only, with every bit of the full row's float
sum (see `ObserverConfig.integral_at`).  The gain must satisfy the
coercivity condition v' L_d g2(x) v >= alpha ||v||^2 (see
`gain_spectrum`).  Every observer in the library has this form: on an
Euler-Lagrange plant, L_d = [0 | alpha1 I] gives the momentum observer of
Chen, Ballance, Gawthrop & O'Reilly (IEEE TIE 2000).
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
    here, and stored as a read-only copy.  For integral_at each row is also
    kept as its nonzero (column, coefficient) pairs, in column order, with
    Python floats, and p and n as ints (dim_dist is p).  alpha is the
    coercivity constant of L_d g2, nu the Young's-inequality split, omega
    the bound on ||ddot||; QpFilter reads alpha and nu from here when built.
    Configs compare and hash by identity, as arrays do not compare to one
    truth value.
    """

    gain: np.ndarray
    alpha: float
    nu: float = 1.0
    omega: float = 0.0
    dim_dist: int = field(init=False, repr=False)
    _n: int = field(init=False, repr=False)
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
        object.__setattr__(self, "dim_dist", gain.shape[0])
        object.__setattr__(self, "_n", gain.shape[1])
        object.__setattr__(self, "_rows", tuple(
            tuple((j, c) for j, c in enumerate(row) if c != 0.0)
            for row in rows))
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
        """L_d, the same matrix at every state."""
        return self.gain

    def integral_at(self, x) -> list:
        """p(x) = L_d x as a list of float sums over the nonzero entries of
        each row of L_d; x is checked by as_floats, and a non-finite p(x)
        raises ValueError.

        Each sum has every bit of sum(map(operator.mul, row, x)) over the
        full row: for a finite x each dropped product is +-0.0, and adding
        +-0.0 leaves a float sum started at 0.0 as it is, since that sum is
        never -0.0.  A row of one pair, as every row of the momentum
        observer is, is that product added to 0.0, since a one-term sum()
        costs several products.  A longer row goes through sum(), as the
        full row does, since from Python 3.12 on sum() compensates its
        rounding and a plain running sum would not; a row with no pair
        gives 0.0.
        """
        x = as_floats(x, self._n, "x")
        p = []
        for row in self._rows:
            if len(row) == 1:
                (j, c), = row
                p.append(0.0 + c * x[j])
            else:
                p.append(sum([c * x[j] for j, c in row], 0.0))
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
    g2(x) is read by model._float_rows as an (n, p) matrix, with its checks
    and errors, and not through ControlAffineSystem.evaluate, which the
    simulator calls once per right-hand side.  A non-finite L_d g2(x)
    raises ParameterError.
    """
    n, p = system.n, system.p
    mats = []
    for x in states:
        g2 = np.array(_float_rows(system.g2(x), n, p, "g2(x)"), dtype=float)
        A = cfg.gain_at(x) @ g2
        if not np.isfinite(A).all():
            raise ParameterError(f"L_d g2(x) is not finite at x = {list(x)}")
        mats.append(0.5 * A + 0.5 * A.T)
    lam = np.linalg.eigvalsh(np.array(mats))
    return float(lam[:, 0].min()), float(lam[:, -1].max())
