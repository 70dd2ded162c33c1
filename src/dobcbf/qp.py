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
from typing import NamedTuple

import numpy as np

from .model import as_vector

INACTIVE = "inactive"
ACTIVE = "active"
INFEASIBLE = "infeasible"


class QpInstance(collections.namedtuple("QpInstance", "u_nom psi0 psi1")):
    """Data of min ||u - u_nom||^2 s.t. psi0 + psi1 . u >= 0.

    Built once per decision and checked then: psi1 and u_nom become finite
    float arrays, u_nom of psi1's length (the filter's row has the plant's
    input dimension), and psi0 must be finite.  This is the only check of
    u_nom on the simulator's QP path.
    """

    __slots__ = ()

    def __new__(cls, u_nom, psi0, psi1):
        m = psi1.size if type(psi1) is np.ndarray else np.size(psi1)
        psi1 = as_vector(psi1, m, "psi1")
        u_nom = as_vector(u_nom, m, "u_nom")
        if not math.isfinite(psi0):
            raise ValueError(f"psi0 must be finite, got {psi0}")
        return tuple.__new__(cls, (u_nom, psi0, psi1))

    @classmethod
    def _make(cls, iterable):
        # the namedtuple default skips __new__; _replace builds through here
        return cls(*iterable)


class QpResult(NamedTuple):
    u: np.ndarray
    status: str


def solve(inst: QpInstance) -> QpResult:
    """Closed-form projection onto the half-space {u : psi0 + psi1.u >= 0}.

    The inner products and the projection are computed on the entries as
    Python floats.  Infeasibility (psi1 = 0 with psi0 < 0) is a status, not
    an error; the nominal control is returned so callers can log and
    continue.
    """
    u_nom, psi0, psi1 = inst
    un, row = u_nom.tolist(), psi1.tolist()
    slack = psi0 + sum(map(operator.mul, row, un))
    if slack >= 0.0:
        return QpResult(u_nom.copy(), INACTIVE)
    sq = sum(map(operator.mul, row, row))
    if sq == 0.0:
        return QpResult(u_nom.copy(), INFEASIBLE)
    step = slack / sq
    return QpResult(np.array([ui - step * pi for ui, pi in zip(un, row)]), ACTIVE)
