"""Plant and barrier abstractions shared by all safety filters.

The plant is control-affine with a separate disturbance channel,

    xdot = f(x) + g1(x) u + g2(x) d,

and the safe set is the zero-superlevel set of a barrier function h of
relative degree r >= 1, placed by r poles.  For r = 1 the Lie derivatives
come from grad_h and the plant; for r >= 2 the user supplies them as
closed-form callbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


#: NumPy's float64 dtype object, which native float64 arrays share; the
#: checks below test it by identity, cheaper than ==, and an array with any
#: other dtype object takes their converting path to the same verdict
_F64 = np.dtype(np.float64)


class DimensionError(ValueError):
    """A callback or input does not match the declared dimensions."""


class ParameterError(ValueError):
    """A tuning parameter violates its validity condition."""


class ConfigurationError(ValueError):
    """A required callback or field is missing for the requested operation."""


def as_vector(v, dim: int, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array of the declared dimension.

    A float64 array of shape (dim,) is checked and returned as it is; only
    other inputs are converted.  Finiteness is tested on the entries as
    Python floats with math.isfinite, which gives np.isfinite's verdict on
    every float64 without NumPy's per-call overhead on short vectors.
    """
    if not (type(v) is np.ndarray and v.dtype is _F64 and v.shape == (dim,)):
        arr = np.asarray(v, dtype=float).reshape(-1)
        if arr.shape != (dim,):
            raise DimensionError(f"{name}: expected dimension {dim}, got shape {np.shape(v)}")
        v = arr
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{name}: non-finite entries {v}")
    return v


def as_floats(v, dim: int, name: str = "vector") -> list:
    """The entries of as_vector(v, dim, name) as a list of Python floats,
    with its checks and errors; a float64 array of shape (dim,) is read
    with one tolist call and never copied into a new array."""
    if type(v) is np.ndarray and v.dtype is _F64 and v.shape == (dim,):
        vals = v.tolist()
        if all(map(math.isfinite, vals)):
            return vals
    return as_vector(v, dim, name).tolist()


def as_matrix(mat, rows: int, cols: int, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float array of shape (rows, cols); a flat input of
    rows*cols entries is reshaped.  Finiteness is tested as in as_vector."""
    if not (type(mat) is np.ndarray and mat.dtype is _F64
            and mat.shape == (rows, cols)):
        mat = np.asarray(mat, dtype=float)
        if mat.size == rows * cols:
            mat = mat.reshape(rows, cols)
        if mat.shape != (rows, cols):
            raise DimensionError(f"{name}: expected shape ({rows}, {cols}), got {mat.shape}")
    if not all(map(math.isfinite, mat.ravel().tolist())):
        raise ValueError(f"{name}: non-finite entries {mat}")
    return mat


@dataclass(frozen=True)
class ControlAffineSystem:
    """Control-affine plant with a disturbance input channel.

    f maps state -> (n,), g1 maps state -> (n, m), g2 maps state -> (n, p).
    `terms`, when given, returns all three in one call; simulators use it to
    avoid recomputing shared quantities (e.g. the inertia matrix of an arm).
    Callbacks must be pure and deterministic.
    """

    n: int
    m: int
    p: int
    f: Callable[[np.ndarray], np.ndarray]
    g1: Callable[[np.ndarray], np.ndarray]
    g2: Callable[[np.ndarray], np.ndarray]
    terms: Callable[[np.ndarray], tuple] | None = None

    def __post_init__(self):
        if min(self.n, self.m, self.p) < 1:
            raise ParameterError("system dimensions must be positive")

    def drift(self, x) -> np.ndarray:
        return as_vector(self.f(x), self.n, "f(x)")

    def input_matrix(self, x) -> np.ndarray:
        return as_matrix(self.g1(x), self.n, self.m, "g1(x)")

    def disturbance_matrix(self, x) -> np.ndarray:
        return as_matrix(self.g2(x), self.n, self.p, "g2(x)")

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f, g1, g2) at x, using the fused callback when available.

        Every output is checked for shape and finiteness; a fused callback
        that returns one matrix for both channels (disturbance entering
        through the input, as on the arm) has it checked once.
        """
        if self.terms is None:
            return self.drift(x), self.input_matrix(x), self.disturbance_matrix(x)
        fx, G1, G2 = self.terms(x)
        g1 = as_matrix(G1, self.n, self.m, "g1(x)")
        g2 = g1 if G2 is G1 and self.p == self.m \
            else as_matrix(G2, self.n, self.p, "g2(x)")
        return as_vector(fx, self.n, "f(x)"), g1, g2


def coeffs_from_poles(poles: Sequence[float]) -> np.ndarray:
    """Coefficients (a_1..a_r) of the monic polynomial with roots at -poles."""
    poles = np.asarray(poles, dtype=float).reshape(-1)
    if poles.size == 0:
        raise ParameterError("need at least one pole")
    if np.any(poles <= 0):
        raise ParameterError(f"all poles must be positive, got {poles}")
    return np.poly(-poles)[1:]


@dataclass(frozen=True)
class BarrierSpec:
    """Barrier function h of relative degree r >= 1 with one pole per order.

    The r positive poles place the cascade s_0 = h,
    s_k = (d/dt + lambda_k) s_{k-1}; r = 1 with poles = (gamma,) is the
    first-order condition hdot + gamma h >= 0.  For r = 1 only `h` and
    `grad_h` are needed.  For r >= 2 the chained drift derivatives
    `lie_f[k-1] = L_f^k h` (k = 1..r) and the mixed derivatives
    L_{g1} L_f^{r-1} h, L_{g2} L_f^{r-1} h must be supplied.

    `cascade[k-1]` holds the coefficients (a_1..a_k) of
    prod_{j<=k} (s + lambda_j), computed once here; the last one weighs the
    constraint.
    """

    h: Callable[[np.ndarray], float]
    grad_h: Callable[[np.ndarray], np.ndarray]
    relative_degree: int = 1
    lie_f: tuple | None = None
    lie_g1_fr: Callable[[np.ndarray], np.ndarray] | None = None
    lie_g2_fr: Callable[[np.ndarray], np.ndarray] | None = None
    poles: tuple = ()
    cascade: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.relative_degree
        if r < 1:
            raise ParameterError(f"relative degree must be >= 1, got {r}")
        if len(self.poles) != r:
            raise ConfigurationError(f"need {r} poles for relative degree {r}")
        if r >= 2:
            if self.lie_f is None or len(self.lie_f) < r:
                raise ConfigurationError(f"need L_f^k h callbacks up to k={r}")
            if self.lie_g1_fr is None or self.lie_g2_fr is None:
                raise ConfigurationError("need mixed Lie-derivative callbacks for r >= 2")
        object.__setattr__(self, "cascade", tuple(
            coeffs_from_poles(self.poles[:k]) for k in range(1, r + 1)))

    def lie_f_value(self, k: int, x) -> float:
        """L_f^k h(x); k = 0 returns h itself."""
        if k == 0:
            return float(self.h(x))
        if self.lie_f is None or k > len(self.lie_f):
            raise ConfigurationError(f"L_f^{k} h callback not supplied")
        return float(self.lie_f[k - 1](x))


def lie_derivatives(sys: ControlAffineSystem, bar: BarrierSpec, x):
    """Top-order Lie derivatives (L_f^r h, L_{g1} L_f^{r-1} h, L_{g2} L_f^{r-1} h).

    For r = 1 they are grad_h times the plant terms; for r >= 2 they come
    from the barrier's closed-form callbacks.
    """
    x = as_vector(x, sys.n, "x")
    r = bar.relative_degree
    if r == 1:
        grad = as_vector(bar.grad_h(x), sys.n, "grad_h(x)")
        fx, G1, G2 = sys.evaluate(x)
        return float(grad @ fx), grad @ G1, grad @ G2
    return (bar.lie_f_value(r, x),
            as_vector(bar.lie_g1_fr(x), sys.m, "L_g1 L_f^{r-1} h"),
            as_vector(bar.lie_g2_fr(x), sys.p, "L_g2 L_f^{r-1} h"))


def s_sequence(sys: ControlAffineSystem, bar: BarrierSpec, x) -> np.ndarray:
    """Cascade values (s_0, ..., s_{r-1}) of the pole-shifted barrier chain.

    s_0 = h and s_k = (d/dt + lambda_k) s_{k-1}; along the drift the time
    derivatives expand into combinations of L_f^j h because the control and
    disturbance channels only appear at order r.
    """
    r = bar.relative_degree
    lf = eta(sys, bar, x)[::-1].tolist()  # eta checks x
    out = np.empty(r)
    out[0] = lf[0]
    for k in range(1, r):
        out[k] = sum((a * lf[k - i] for i, a in enumerate(bar.cascade[k - 1], 1)),
                     lf[k])
    return out


def eta(sys: ControlAffineSystem, bar: BarrierSpec, x) -> np.ndarray:
    """Stack [L_f^{r-1} h, ..., L_f h, h] weighed by the constraint's cascade."""
    x = as_vector(x, sys.n, "x")
    return np.array([bar.lie_f_value(k, x)
                     for k in range(bar.relative_degree - 1, -1, -1)])
