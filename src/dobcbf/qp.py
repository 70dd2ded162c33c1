"""Exact solver for the single-constraint safety QP.

Every filter in this library produces one affine constraint
psi0 + psi1 . u >= 0, so the minimizer of ||u - u_nom||^2 is the Euclidean
projection of u_nom onto a half-space and has a closed form; no iterative
solver is needed.  A dense grid search is provided as an independent test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ParameterError, as_vector

INACTIVE = "inactive"
ACTIVE = "active"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class QpInstance:
    """Data of min ||u - u_nom||^2 s.t. psi0 + psi1 . u >= 0."""

    u_nom: np.ndarray
    psi0: float
    psi1: np.ndarray

    def __post_init__(self):
        u_nom = as_vector(self.u_nom, np.size(self.u_nom), "u_nom")
        object.__setattr__(self, "u_nom", u_nom)
        object.__setattr__(self, "psi1", as_vector(self.psi1, u_nom.size, "psi1"))
        if not math.isfinite(self.psi0):
            raise ValueError(f"psi0 must be finite, got {self.psi0}")


@dataclass(frozen=True)
class QpResult:
    u: np.ndarray
    status: str
    constraint_value: float


def solve(inst: QpInstance) -> QpResult:
    """Closed-form projection onto the half-space {u : psi0 + psi1.u >= 0}.

    Infeasibility (psi1 = 0 with psi0 < 0) is a status, not an error; the
    nominal control is returned so callers can log and continue.
    """
    slack = inst.psi0 + float(inst.psi1.dot(inst.u_nom))
    if slack >= 0.0:
        return QpResult(u=inst.u_nom.copy(), status=INACTIVE, constraint_value=slack)
    sq = float(inst.psi1.dot(inst.psi1))
    if sq == 0.0:
        return QpResult(u=inst.u_nom.copy(), status=INFEASIBLE, constraint_value=slack)
    u = inst.u_nom - (slack / sq) * inst.psi1
    return QpResult(u=u, status=ACTIVE,
                    constraint_value=inst.psi0 + float(inst.psi1.dot(u)))


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
