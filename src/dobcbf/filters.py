"""Constraint construction for the observer-aware CBF safety filter.

`QpFilter.constraint` produces the coefficients (psi0, psi1) of the
half-space constraint psi0 + psi1 . u >= 0 that, combined with the
disturbance estimate, renders the safe set forward invariant for a barrier
of any relative degree r >= 1, from one call of the barrier's Lie chain
(`BarrierSpec.chain`) and none of the plant's callbacks.  The barrier's r
poles place the cascade s_k = (d/dt + lambda_k) s_{k-1}; r = 1 with the
single pole gamma is the first-order condition hdot + gamma h >= 0.

The augmented barrier beta*s_{r-1} - ||e_d||^2/2 couples the safety margin
to the estimation error.  The constraint uses the observer's coercivity
constant alpha and Young's-inequality split nu: `QpFilter` is built from
the run's `ObserverConfig` and its own tuning (beta, omega), reads alpha
and nu once, and rejects a tuning that admits no constraint.  `NoFilter`
is the pass-through baseline that only logs h.

Every filter, the energy filters of `dobcbf.el` included, takes its tuning
as checked constructor arguments and has `constraint` (the row as a
`Decision`), `probe` (the logged barrier values) and `report` (the
`ParamReport` of its guarantee's initial-state inequalities, or None).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (BarrierSpec, ControlAffineSystem, ParameterError,
                    as_floats, s_sequence)
from .observer import ObserverConfig


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

    @classmethod
    def check(cls, alpha_margin: float, beta: float, lead: float,
              need: float, cascade: Sequence[float] = ()) -> ParamReport:
        """The report of beta against its bound need/(2 lead).  lead and
        every entry of cascade must be positive and beta must exceed the
        bound; the inequalities are strict, so equality fails."""
        messages = []
        if lead <= 0:
            beta_margin = -math.inf
            messages.append("initial barrier value must be positive")
        else:
            beta_margin = beta - need / (2.0 * lead)
        messages += [f"s_{k}(x0) = {v} must be positive"
                     for k, v in enumerate(cascade) if v <= 0]
        beta_ok = beta_margin > 0
        if not beta_ok and lead > 0:
            messages.append(f"beta margin {beta_margin:.3e} not positive")
        return cls(beta_ok=beta_ok,
                   cascade_ok=lead > 0 and all(v > 0 for v in cascade),
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

    omega is the disturbance-derivative bound used inside the constraint:
    the known bound for the full guarantee, omega = 0 when no bound is
    available.  beta <= 0 or omega < 0 raises ParameterError.  alpha and nu
    come from the observer and are read once, here: a tuning with
    4*alpha - 2*lambda_r - 2*nu <= 0 raises ParameterError.  The checked
    denominator and the omega term omega^2/(2 nu beta) are kept for the
    decisions.
    """

    def __init__(self, system: ControlAffineSystem, barrier: BarrierSpec,
                 observer: ObserverConfig, beta: float, omega: float = 0.0):
        if beta <= 0:
            raise ParameterError("beta must be positive")
        if omega < 0:
            raise ParameterError("omega must be nonnegative")
        denom = 4.0 * observer.alpha - 2.0 * barrier.poles[-1] - 2.0 * observer.nu
        if denom <= 0:
            raise ParameterError(
                f"need 4*alpha - 2*lambda_r - 2*nu > 0, got {denom}")
        self.system = system
        self.barrier = barrier
        self.observer = observer
        self.beta = beta
        self.omega = omega
        self.denom = denom
        self.omega_term = omega ** 2 / (2.0 * observer.nu * beta)

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        """The constraint row at x for the estimate d_hat.

        Every term comes from one call of the barrier's Lie chain, none
        from the plant.  x, d_hat and the mixed derivatives
        L_g1 L_f^{r-1} h, L_g2 L_f^{r-1} h are checked by as_floats against
        the plant's dimensions.  Every term is a Python float, and psi1 is
        the checked L_g1 L_f^{r-1} h as as_floats returns it.
        """
        bar, sys = self.barrier, self.system
        lf, lg1, b = bar.read(as_floats(x, sys.n, "x"))
        lg1 = as_floats(lg1, sys.m, "L_g1 L_f^{r-1} h")
        b = as_floats(b, sys.p, "L_g2 L_f^{r-1} h")
        d_hat = as_floats(d_hat, sys.p, "d_hat")
        # the cascade (a_1..a_r) weighs L_f^{r-1} h, ..., L_f^0 h
        psi0 = (lf[-1] + sum(map(operator.mul, b, d_hat))
                - self.omega_term
                - self.beta * sum(map(operator.mul, b, b)) / self.denom
                + sum(map(operator.mul, bar.cascade[-1], lf[-2::-1])))
        return Decision(psi0, lg1)

    def probe(self, x, e_d) -> dict:
        """h, the augmented barrier and (for r > 1) the cascade at x, for
        the estimation error e_d, read by as_floats; e_d . e_d is a float
        sum."""
        s = s_sequence(self.system, self.barrier, x)
        e = as_floats(e_d, self.system.p, "e_d")
        out = {"h": s[0],
               "hbar": self.beta * s[-1]
               - 0.5 * sum(map(operator.mul, e, e))}
        if len(s) > 1:  # s_0 = h needs no column of its own when r = 1
            for k, val in enumerate(s):
                out[f"s{k}"] = val
        return out

    def report(self, x0, e0_norm: float) -> ParamReport:
        """Check the initial-state inequalities of the invariance guarantee:
        every s_k of the cascade (s_0, ..., s_{r-1}) at x0 positive, and
        beta above e0_norm^2/(2 s_{r-1}).  The filter condition on alpha was
        checked when the filter was built."""
        s = s_sequence(self.system, self.barrier, x0)
        obs = self.observer
        return ParamReport.check(
            obs.alpha - 0.5 * (self.barrier.poles[-1] + obs.nu), self.beta,
            s[-1], e0_norm ** 2, cascade=s)


class NoFilter:
    """Pass-through policy: logs the barrier but never modifies the control."""

    def __init__(self, h_fn: Callable[[np.ndarray], float]):
        self.h_fn = h_fn

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        return Decision(psi0=None, psi1=None, bypass=True)

    def probe(self, x, e_d) -> dict:
        return {"h": float(self.h_fn(x)), "hbar": np.nan}

    def report(self, x0, e0_norm: float) -> None:
        return None
