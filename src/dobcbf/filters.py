"""Constraint construction for the observer-aware CBF safety filter.

`QpFilter.constraint` produces the coefficients (psi0, psi1) of the
half-space constraint psi0 + psi1 . u >= 0 that, combined with the
disturbance estimate, renders the safe set forward invariant for a barrier
of any relative degree r >= 1.  The barrier's r poles place the cascade
s_k = (d/dt + lambda_k) s_{k-1}; r = 1 with the single pole gamma is the
first-order condition hdot + gamma h >= 0.

The augmented barrier beta*s_{r-1} - ||e_d||^2/2 couples the safety margin
to the estimation error.  The constraint uses the observer's coercivity
constant alpha and Young's-inequality split nu: `QpFilter` is built from
the run's `ObserverConfig`, reads both once, and rejects a tuning that
admits no constraint.  `NoFilter` is the pass-through baseline that only
logs h.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (BarrierSpec, ControlAffineSystem, ParameterError,
                    as_floats, lie_derivatives, s_sequence)
from .observer import ObserverConfig


@dataclass(frozen=True)
class FilterParams:
    """Tuning of the observer-aware filter; the observer supplies alpha and nu.

    omega is the disturbance-derivative bound used inside the constraint:
    the known bound for the full guarantee, omega = 0 when no bound is
    available.  The decay rates are the barrier's poles.
    """

    beta: float
    omega: float = 0.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ParameterError("beta must be positive")
        if self.omega < 0:
            raise ParameterError("omega must be nonnegative")


@dataclass
class ParamReport:
    """Margins for the strict parameter inequalities of the filter theorems."""

    beta_ok: bool
    cascade_ok: bool
    alpha_margin: float
    beta_margin: float
    messages: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.beta_ok and self.cascade_ok


def validate_params(filt: QpFilter, s_values, e0_norm: float) -> ParamReport:
    """Check the initial-state inequalities of the invariance guarantee.

    s_values is the cascade (s_0, ..., s_{r-1}) at the initial state; every
    s_k must be positive, and beta must cover the initial estimation error
    against s_{r-1}.  Inequalities are strict: equality fails.  The filter
    condition on alpha was checked when filt was built; alpha and nu are
    read from its observer.
    """
    bar, fp, obs = filt.barrier, filt.params, filt.observer
    s_values = np.asarray(s_values, dtype=float).reshape(-1)
    alpha_margin = obs.alpha - 0.5 * (bar.poles[-1] + obs.nu)

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

    if not beta_ok and lead > 0:
        messages.append(f"beta margin {beta_margin:.3e} not positive")
    return ParamReport(beta_ok=beta_ok, cascade_ok=cascade_ok,
                       alpha_margin=float(alpha_margin),
                       beta_margin=float(beta_margin), messages=messages)


class Decision(NamedTuple):
    """Outcome of a filter's constraint construction at one control step;
    psi1 is a sequence of Python floats."""

    psi0: float | None
    psi1: Sequence[float] | None
    bypass: bool = False
    event: str | None = None


class QpFilter:
    """Observer-aware CBF-QP filter for a barrier of relative degree r >= 1.

    alpha and nu come from the observer and are read once, here: a tuning
    with 4*alpha - 2*lambda_r - 2*nu <= 0 raises ParameterError.  The
    checked denominator and the omega term omega^2/(2 nu beta) are kept for
    the decisions.
    """

    def __init__(self, system: ControlAffineSystem, barrier: BarrierSpec,
                 observer: ObserverConfig, params: FilterParams):
        denom = 4.0 * observer.alpha - 2.0 * barrier.poles[-1] - 2.0 * observer.nu
        if denom <= 0:
            raise ParameterError(
                f"need 4*alpha - 2*lambda_r - 2*nu > 0, got {denom}")
        self.system = system
        self.barrier = barrier
        self.observer = observer
        self.params = params
        self.denom = denom
        self.omega_term = params.omega ** 2 / (2.0 * observer.nu * params.beta)

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        """The constraint row at x for the estimate d_hat.

        Every term comes from the barrier's Lie chain, none from the plant.
        x is checked once, by lie_derivatives, and the cascade's lower-order
        terms L_f^k h (k < r) are read at the same x; d_hat is checked here.
        Every term is a Python float, and psi1 is the checked
        L_g1 L_f^{r-1} h as lie_derivatives returns it.
        """
        bar = self.barrier
        lfr, lg1, b = lie_derivatives(self.system, bar, x)
        d_hat = as_floats(d_hat, self.system.p, "d_hat")
        eta = [bar.lie_f_value(k, x) for k in range(bar.relative_degree - 1, -1, -1)]
        psi0 = (lfr + sum(map(operator.mul, b, d_hat))
                - self.omega_term
                - self.params.beta * sum(map(operator.mul, b, b)) / self.denom
                + sum(map(operator.mul, bar.cascade[-1], eta)))
        return Decision(psi0, lg1)

    def probe(self, x, e_d) -> dict:
        """h, the augmented barrier and (for r > 1) the cascade at x, for
        the estimation error e_d (an array); e_d . e_d is a float sum."""
        s = s_sequence(self.system, self.barrier, x)
        e = e_d.tolist()
        out = {"h": s[0],
               "hbar": self.params.beta * s[-1]
               - 0.5 * sum(map(operator.mul, e, e))}
        if len(s) > 1:  # s_0 = h needs no column of its own when r = 1
            for k, val in enumerate(s):
                out[f"s{k}"] = val
        return out


class NoFilter:
    """Pass-through policy: logs the barrier but never modifies the control."""

    def __init__(self, h_fn: Callable[[np.ndarray], float]):
        self.h_fn = h_fn

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        return Decision(psi0=None, psi1=None, bypass=True)

    def probe(self, x, e_d) -> dict:
        return {"h": float(self.h_fn(x)), "hbar": np.nan}
