"""Exact solver for the single-constraint safety QP.

Every filter in this library produces one affine constraint
psi0 + psi1 . u >= 0, so the minimizer of ||u - u_nom||^2 is the Euclidean
projection of u_nom onto a half-space and has a closed form; no iterative
solver is needed.  The tests check it against a dense grid search, which
they keep as their own oracle.
"""

from __future__ import annotations

import collections
import math
import operator
from typing import NamedTuple, Sequence

import numpy as np

from .model import as_floats

INACTIVE = "inactive"
ACTIVE = "active"
INFEASIBLE = "infeasible"


class QpInstance(collections.namedtuple("QpInstance", "u_nom psi0 psi1")):
    """Data of min ||u - u_nom||^2 s.t. psi0 + psi1 . u >= 0.

    Built once per decision and checked then: psi1 and u_nom become
    sequences of finite Python floats through as_floats, u_nom of psi1's
    length (the filter's row has the plant's input dimension), and psi0
    must be finite.  This is the only check of u_nom on the simulator's QP
    path.  The simulator builds its instance here too, so it checks again
    the psi1 that QpFilter.constraint returned checked, at about 0.3 us of
    a decision of about 10 us: skipping it would take a second
    constructor, or the u_nom and psi0 checks and their messages copied
    into the loop, for every check to be kept on two paths.
    """

    __slots__ = ()

    def __new__(cls, u_nom, psi0, psi1):
        m = len(psi1) if isinstance(psi1, (tuple, list)) else np.size(psi1)
        psi1 = as_floats(psi1, m, "psi1")
        u_nom = as_floats(u_nom, m, "u_nom")
        if not math.isfinite(psi0):
            raise ValueError(f"psi0 must be finite, got {psi0}")
        return tuple.__new__(cls, (u_nom, psi0, psi1))

    @classmethod
    def _make(cls, iterable):
        # the namedtuple default skips __new__; _replace builds through here
        return cls(*iterable)


class QpResult(NamedTuple):
    u: Sequence[float]
    status: str


#: builds a QpResult without the Python-level NamedTuple __new__
_new = tuple.__new__


def solve(inst: QpInstance) -> QpResult:
    """Closed-form projection onto the half-space {u : psi0 + psi1.u >= 0}.

    The inner products and the projection are sums over the instance's
    Python floats.  When the nominal control is feasible, or the problem
    is infeasible, u is the instance's u_nom itself.  Infeasibility
    (psi1 = 0 with psi0 < 0) is a status, not an error; the nominal control
    is returned so callers can log and continue.  A projection that
    overflows from finite data (slack / ||psi1||^2 beyond the float range)
    raises ValueError naming the QP solution.
    """
    u_nom, psi0, psi1 = inst
    slack = psi0 + sum(map(operator.mul, psi1, u_nom))
    if slack >= 0.0:
        return _new(QpResult, (u_nom, INACTIVE))
    sq = sum(map(operator.mul, psi1, psi1))
    if sq == 0.0:
        return _new(QpResult, (u_nom, INFEASIBLE))
    step = slack / sq
    u = tuple([ui - step * pi for ui, pi in zip(u_nom, psi1)])
    if not all(map(math.isfinite, u)):
        raise ValueError(f"QP solution u: non-finite entries {list(u)}")
    return _new(QpResult, (u, ACTIVE))
