"""Exact solver for the single-constraint safety QP.

Every filter in this library produces one affine constraint
psi0 + psi1 . u >= 0, so the minimizer of ||u - u_nom||^2 is the Euclidean
projection of u_nom onto a half-space and has a closed form; no iterative
solver is needed.  A dense grid search is provided as an independent test
oracle.
"""

from __future__ import annotations

import collections
import math
import operator
from typing import NamedTuple

import numpy as np

from .model import ParameterError, as_vector

INACTIVE = "inactive"
ACTIVE = "active"
INFEASIBLE = "infeasible"


class QpInstance(collections.namedtuple("QpInstance", "u_nom psi0 psi1")):
    """Data of min ||u - u_nom||^2 s.t. psi0 + psi1 . u >= 0.

    Built once per decision and checked then: u_nom and psi1 become finite
    float arrays of one length, and psi0 must be finite.
    """

    __slots__ = ()

    def __new__(cls, u_nom, psi0, psi1):
        m = u_nom.size if type(u_nom) is np.ndarray else np.size(u_nom)
        u_nom = as_vector(u_nom, m, "u_nom")
        psi1 = as_vector(psi1, u_nom.size, "psi1")
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
    constraint_value: float


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
        return QpResult(u_nom.copy(), INACTIVE, slack)
    sq = sum(map(operator.mul, row, row))
    if sq == 0.0:
        return QpResult(u_nom.copy(), INFEASIBLE, slack)
    step = slack / sq
    u = [ui - step * pi for ui, pi in zip(un, row)]
    return QpResult(np.array(u), ACTIVE, psi0 + sum(map(operator.mul, row, u)))


def brute_force(inst: QpInstance, box_halfwidth: float,
                grid_points: int = 101) -> np.ndarray | None:
    """Grid minimizer of the objective over feasible points in a centered box.

    Test oracle only: limited to m <= 2 and at least 101 points per axis.
    Returns None when no grid point is feasible.
    """
    m = inst.u_nom.size
    if m > 2:
        raise ParameterError("brute force oracle supports m <= 2 only")
    if grid_points < 101:
        raise ParameterError("need at least 101 grid points per axis")
    axis = np.linspace(-box_halfwidth, box_halfwidth, grid_points)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    feasible = inst.psi0 + pts @ inst.psi1 >= 0.0
    if not np.any(feasible):
        return None
    pts = pts[feasible]
    cost = np.sum((pts - inst.u_nom) ** 2, axis=1)
    return pts[int(np.argmin(cost))]
