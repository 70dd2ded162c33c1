"""Constraint construction for the observer-aware CBF safety filter.

`psi` produces the coefficients (psi0, psi1) of the half-space constraint
psi0 + psi1 . u >= 0 that, combined with the disturbance estimate, renders
the safe set forward invariant for a barrier of any relative degree r >= 1.
The barrier's r poles place the cascade s_k = (d/dt + lambda_k) s_{k-1};
r = 1 with the single pole gamma is the first-order condition
hdot + gamma h >= 0.

The augmented barrier beta*s_{r-1} - ||e_d||^2/2 couples the safety margin
to the estimation error.  `QpFilter` wraps the constraint for the
simulator; `NoFilter` is the pass-through baseline that only logs h.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .model import (BarrierSpec, ControlAffineSystem, ParameterError,
                    as_floats, lie_derivatives, s_sequence)

MODE_FULL = "full"
MODE_NO_OMEGA = "no_omega"


@dataclass(frozen=True)
class FilterParams:
    """Tuning tuple of the observer-aware filter.

    alpha must match the observer's coercivity constant; omega is the
    disturbance-derivative bound used inside the constraint (set it to the
    known bound for the full guarantee, or run mode="no_omega" when no bound
    is available).  The decay rates are the barrier's poles.
    """

    alpha: float
    beta: float
    nu: float
    omega: float = 0.0
    mode: str = MODE_FULL

    def __post_init__(self):
        if min(self.alpha, self.beta, self.nu) <= 0:
            raise ParameterError("alpha, beta, nu must be positive")
        if self.omega < 0:
            raise ParameterError("omega must be nonnegative")
        if self.mode not in (MODE_FULL, MODE_NO_OMEGA):
            raise ParameterError(f"unknown mode {self.mode!r}")


def psi(sys: ControlAffineSystem, bar: BarrierSpec, fp: FilterParams,
        x, d_hat) -> tuple[float, np.ndarray]:
    """Constraint coefficients for a barrier of relative degree r >= 1.

    x is checked once, by lie_derivatives, and the cascade's lower-order
    terms L_f^k h (k < r) are read at the same x; d_hat is checked here.
    The products of the Lie terms with d_hat and the cascade weights are
    sums over Python floats.
    """
    denom = 4.0 * fp.alpha - 2.0 * bar.poles[-1] - 2.0 * fp.nu
    if denom <= 0:
        raise ParameterError(
            f"need 4*alpha - 2*lambda_r - 2*nu > 0, got {denom}")
    lfr, lg1, lg2 = lie_derivatives(sys, bar, x)
    d_hat = as_floats(d_hat, sys.p, "d_hat")
    b = lg2.tolist()
    eta = [bar.lie_f_value(k, x) for k in range(bar.relative_degree - 1, -1, -1)]
    omega_term = 0.0 if fp.mode == MODE_NO_OMEGA \
        else fp.omega ** 2 / (2.0 * fp.nu * fp.beta)
    psi0 = (lfr + sum(map(operator.mul, b, d_hat)) - omega_term
            - fp.beta * sum(map(operator.mul, b, b)) / denom
            + sum(map(operator.mul, bar.cascade[-1].tolist(), eta)))
    return psi0, lg1


@dataclass
class ParamReport:
    """Margins for the strict parameter inequalities of the filter theorems."""

    alpha_ok: bool
    beta_ok: bool
    cascade_ok: bool
    alpha_margin: float
    beta_margin: float
    messages: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.alpha_ok and self.beta_ok and self.cascade_ok


def validate_params(bar: BarrierSpec, fp: FilterParams, s_values,
                    e0_norm: float) -> ParamReport:
    """Check the strict inequalities required for the invariance guarantee.

    s_values is the cascade (s_0, ..., s_{r-1}) at the initial state; every
    s_k must be positive, and beta must cover the initial estimation error
    against s_{r-1}.  Inequalities are strict: equality fails.
    """
    s_values = np.asarray(s_values, dtype=float).reshape(-1)
    alpha_margin = fp.alpha - 0.5 * (bar.poles[-1] + fp.nu)
    alpha_ok = alpha_margin > 0

    messages = []
    lead = float(s_values[-1])
    if lead <= 0:
        beta_ok = False
        beta_margin = -np.inf
        messages.append("initial barrier value must be positive")
    else:
        beta_margin = fp.beta - e0_norm ** 2 / (2.0 * lead)
        beta_ok = beta_margin > 0

    cascade_ok = True
    for k, s in enumerate(s_values):
        if s <= 0:
            cascade_ok = False
            messages.append(f"s_{k}(x0) = {s} must be positive")

    if not alpha_ok:
        messages.append(f"alpha margin {alpha_margin:.3e} not positive")
    if not beta_ok and lead > 0:
        messages.append(f"beta margin {beta_margin:.3e} not positive")
    return ParamReport(alpha_ok=alpha_ok, beta_ok=beta_ok, cascade_ok=cascade_ok,
                       alpha_margin=float(alpha_margin),
                       beta_margin=float(beta_margin), messages=messages)


class Decision(NamedTuple):
    """Outcome of a filter's constraint construction at one control step."""

    psi0: float | None
    psi1: np.ndarray | None
    bypass: bool = False
    event: str | None = None


class QpFilter:
    """Observer-aware CBF-QP filter for a barrier of relative degree r >= 1."""

    def __init__(self, system: ControlAffineSystem, barrier: BarrierSpec,
                 params: FilterParams):
        self.system = system
        self.barrier = barrier
        self.params = params

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        return Decision(*psi(self.system, self.barrier, self.params, x, d_hat))

    def probe(self, x, e_d) -> dict:
        s = s_sequence(self.system, self.barrier, x)
        out = {"h": float(s[0]),
               "hbar": self.params.beta * s[-1] - 0.5 * float(np.dot(e_d, e_d))}
        if s.size > 1:  # s_0 = h needs no column of its own when r = 1
            for k, val in enumerate(s):
                out[f"s{k}"] = float(val)
        return out


class NoFilter:
    """Pass-through policy: logs the barrier but never modifies the control."""

    def __init__(self, h_fn: Callable[[np.ndarray], float]):
        self.h_fn = h_fn

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        return Decision(psi0=None, psi1=None, bypass=True)

    def probe(self, x, e_d) -> dict:
        return {"h": float(self.h_fn(x)), "hbar": np.nan}
