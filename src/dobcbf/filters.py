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
and nu once, and rejects a tuning that admits no constraint.  Given a
worst-case bound d_max in place of the observer, the same row is the
robust baseline's.  Where L_g1 L_f^{r-1} h nearly vanishes (below the
module constant EPS_SINGULAR in norm) the row is degenerate and the
decision bypasses the QP; the threshold is no tuning of the design, so no
configuration sets it.  The Euler-Lagrange arm's filters are `QpFilter`
on its energy barrier (`dobcbf.el`).  `NoFilter` is the pass-through
baseline that only logs h.

Both filters take their tuning as checked constructor arguments and have
`constraint` (the row as a `Decision`), `probe` (the logged barrier values)
and `report` (None, or for the observer row the `ParamReport` that
`QpFilter.report` forms from the guarantee's initial-state inequalities;
`Scenario.validate` returns it as it is).
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

#: norm of L_g1 L_f^{r-1} h below which the row is degenerate and the QP is
#: bypassed; read when each row is formed
EPS_SINGULAR = 1e-4

#: builds a Decision, every field given, without the Python-level
#: NamedTuple __new__
_new = tuple.__new__


@dataclass
class ParamReport:
    """Margins for the strict parameter inequalities of the filter theorems,
    as `QpFilter.report` finds them at the initial state."""

    beta_ok: bool
    cascade_ok: bool
    alpha_margin: float
    beta_margin: float
    messages: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.beta_ok and self.cascade_ok


class Decision(NamedTuple):
    """Outcome of a filter's constraint construction at one control step;
    psi1 is a sequence of Python floats."""

    psi0: float | None
    psi1: Sequence[float] | None
    bypass: bool = False
    event: str | None = None


class QpFilter:
    """Observer-aware CBF-QP filter for a barrier of relative degree r >= 1.

    The row's disturbance term is the observer's estimate by default, and
    the worst case over ||d|| <= d_max when d_max is given (Jankovic,
    "Robust control barrier functions for constrained stabilization of
    nonlinear systems", Automatica 2018).  The observer row reads beta,
    omega and the observer: omega is the disturbance-derivative bound used
    inside the constraint, the known bound for the full guarantee, 0 when
    no bound is available.  beta <= 0, omega < 0 or an omega term
    omega^2/(2 nu beta) beyond the float range raises ParameterError, and
    alpha and nu are read once, here: a tuning with
    4*alpha - 2*lambda_r - 2*nu <= 0 raises ParameterError.  The worst-case
    row reads only d_max, and a negative d_max raises ParameterError.
    Where ||L_g1 L_f^{r-1} h|| < EPS_SINGULAR the row degenerates and the
    QP is bypassed.
    """

    def __init__(self, system: ControlAffineSystem, barrier: BarrierSpec,
                 observer: ObserverConfig | None, beta: float = 1.0,
                 omega: float = 0.0, d_max: float | None = None):
        if d_max is not None:
            if d_max < 0:
                raise ParameterError("d_max must be nonnegative")
        else:
            if beta <= 0:
                raise ParameterError("beta must be positive")
            if omega < 0:
                raise ParameterError("omega must be nonnegative")
            denom = 4.0 * observer.alpha - 2.0 * barrier.poles[-1] - 2.0 * observer.nu
            if denom <= 0:
                raise ParameterError(
                    f"need 4*alpha - 2*lambda_r - 2*nu > 0, got {denom}")
            self.denom = denom
            self.omega_term = omega * omega / (2.0 * observer.nu * beta)
            if not math.isfinite(self.omega_term):
                raise ParameterError(
                    f"omega = {omega}: the omega term omega^2/(2 nu beta) "
                    "is not a finite float")
        self.system = system
        self.barrier = barrier
        self.observer = observer
        self.beta = beta
        self.omega = omega
        self.d_max = d_max
        # the cascade (a_1..a_r) weighs L_f^{r-1} h, ..., L_f^0 h; reversed,
        # it pairs with the chain's first r terms (for r <= 2 the float sum
        # is the same either way)
        self._weights = barrier.cascade[-1][::-1]
        self._shared = system.m == system.p

    def constraint(self, t, x, u_nom, d_hat) -> Decision:
        """The constraint row at x for the estimate d_hat, which the
        worst-case row does not read.

        Every term comes from one call of the barrier's Lie chain, none
        from the plant.  x, d_hat and the mixed derivatives
        L_g1 L_f^{r-1} h, L_g2 L_f^{r-1} h are checked by as_floats against
        the plant's dimensions, L_g2 L_f^{r-1} h once with L_g1 L_f^{r-1} h
        when the chain returns one object for both.  Every term is a Python
        float, and psi1 is the checked L_g1 L_f^{r-1} h as as_floats
        returns it.  Below the norm EPS_SINGULAR of psi1 the decision
        bypasses the QP, with the event "singular_infeasible" when
        psi0 < 0.
        """
        sys = self.system
        lf, lg1, lg2 = self.barrier.read(as_floats(x, sys.n, "x"))
        psi1 = as_floats(lg1, sys.m, "L_g1 L_f^{r-1} h")
        norm = b_norm = math.hypot(*psi1)
        if lg2 is lg1 and self._shared:
            b = psi1
        else:
            b = as_floats(lg2, sys.p, "L_g2 L_f^{r-1} h")
            b_norm = math.hypot(*b)
        # r = 1 is one product; a one-term sum(map(...)) costs several
        w = self._weights
        cascade = w[0] * lf[0] if len(w) == 1 \
            else sum(map(operator.mul, w, lf))
        if self.d_max is None:
            d_hat = as_floats(d_hat, sys.p, "d_hat")
            psi0 = (lf[-1] + sum(map(operator.mul, b, d_hat)) - self.omega_term
                    - self.beta * (b_norm * b_norm) / self.denom + cascade)
        else:
            psi0 = lf[-1] - b_norm * self.d_max + cascade
        if norm < EPS_SINGULAR:
            return _new(Decision, (psi0, psi1, True,
                                   "singular_infeasible" if psi0 < 0 else None))
        return _new(Decision, (psi0, psi1, False, None))

    def probe(self, x, e_d) -> dict:
        """h (the barrier's safe_set when it has one), the augmented
        barrier and (for r > 1) the cascade at x, for the estimation error
        e_d, read by as_floats; e_d . e_d is a float sum.  The worst-case
        row's augmented barrier is s_{r-1}, with no error term."""
        sys, bar = self.system, self.barrier
        x = as_floats(x, sys.n, "x")
        s = s_sequence(sys, bar, x)
        if self.d_max is None:
            e = as_floats(e_d, sys.p, "e_d")
            hbar = self.beta * s[-1] - 0.5 * sum(map(operator.mul, e, e))
        else:
            hbar = s[-1]
        out = {"h": s[0] if bar.safe_set is None else float(bar.safe_set(x)),
               "hbar": hbar}
        if len(s) > 1:  # s_0 = h needs no column of its own when r = 1
            for k, val in enumerate(s):
                out[f"s{k}"] = val
        return out

    def report(self, x0, e0_norm: float) -> ParamReport | None:
        """Check the initial-state inequalities of the invariance guarantee:
        every s_k of the cascade (s_0, ..., s_{r-1}) at x0 positive, and
        beta above its bound e0_norm^2/(2 s_{r-1}).  The inequalities are
        strict, so equality fails.  The filter condition on alpha was
        checked when the filter was built.  The worst-case row has no such
        inequalities and reports None."""
        if self.d_max is not None:
            return None
        s = s_sequence(self.system, self.barrier, x0)
        obs, lead = self.observer, s[-1]
        messages = []
        if lead <= 0:
            beta_margin = -math.inf
            messages.append("initial barrier value must be positive")
        else:
            beta_margin = self.beta - e0_norm ** 2 / (2.0 * lead)
        messages += [f"s_{k}(x0) = {v} must be positive"
                     for k, v in enumerate(s) if v <= 0]
        beta_ok = beta_margin > 0
        if not beta_ok and lead > 0:
            messages.append(f"beta margin {beta_margin:.3e} not positive")
        alpha_margin = obs.alpha - 0.5 * (self.barrier.poles[-1] + obs.nu)
        return ParamReport(beta_ok=beta_ok,
                           cascade_ok=lead > 0 and all(v > 0 for v in s),
                           alpha_margin=float(alpha_margin),
                           beta_margin=float(beta_margin), messages=messages)


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
