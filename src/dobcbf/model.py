"""Plant and barrier abstractions shared by all safety filters.

The plant is control-affine with a separate disturbance channel,

    xdot = f(x) + g1(x) u + g2(x) d,

and the safe set is the zero-superlevel set of a barrier function h of
relative degree r >= 1, placed by r poles.  Every barrier is given by its
Lie chain, one closed-form callback that returns the drift derivatives
L_f^k h (k = 0..r) and the top-order L_g1 L_f^{r-1} h, L_g2 L_f^{r-1} h
at one state, so a filter decision reads the barrier alone and never the
plant.  Values are checked by `as_vector`, which does the one conversion,
and read as Python floats through `as_floats` (a vector) and `_float_rows`
(a matrix), which pass a checked tuple on as it is.
"""

from __future__ import annotations

import math
import operator
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


def as_vector(v, dim: int, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array of the declared dimension.

    A float64 array of shape (dim,) is checked and returned as it is; any
    other input is converted by np.asarray(v, dtype=float) and flattened,
    so a nested input of dim entries in all is accepted.  Nesting that forms
    no array, such as rows of unequal lengths, or another number of entries
    raises DimensionError, and a non-finite entry ValueError, each naming
    the value.  Finiteness is tested on the entries as Python floats with
    math.isfinite, which gives np.isfinite's verdict on every float64
    without NumPy's per-call overhead on short vectors.
    """
    if not (type(v) is np.ndarray and v.dtype is _F64 and v.shape == (dim,)):
        try:
            arr = np.asarray(v, dtype=float).reshape(-1)
        except ValueError as exc:
            raise DimensionError(
                f"{name}: not a float array of dimension {dim}: {exc}") from None
        if arr.shape != (dim,):
            raise DimensionError(f"{name}: expected dimension {dim}, got shape {np.shape(v)}")
        v = arr
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{name}: non-finite entries {v}")
    return v


def as_floats(v, dim: int, name: str = "vector"):
    """The entries of as_vector(v, dim, name) as Python floats, with its
    checks and errors.  A list or tuple of dim finite numbers is returned
    as it is; a float64 array of shape (dim,) is read with one tolist call
    and never copied into a new array; any other input is converted by
    as_vector and returned as a list."""
    if (type(v) is list or type(v) is tuple) and len(v) == dim:
        try:
            if all(map(math.isfinite, v)):
                return v
        except TypeError:  # an entry that is not a number: as_vector says why
            pass
    elif type(v) is np.ndarray and v.dtype is _F64 and v.shape == (dim,):
        vals = v.tolist()
        if all(map(math.isfinite, vals)):
            return vals
    return as_vector(v, dim, name).tolist()


def _float_rows(mat, rows: int, cols: int, name: str):
    """The entries of mat as rows rows of cols Python floats each.  A tuple
    of rows tuples of cols finite numbers each is returned as it is: the
    rows are joined into one list as their lengths are checked, and the list
    is tested with math.isfinite.  Any other input, or a tuple that fails a
    check, is checked by as_vector(mat, rows*cols, name), with its errors,
    and returned as a list of lists.  No comprehension here: one that read
    flat or cols would make them closure cells and slow the tuple path."""
    if type(mat) is tuple and len(mat) == rows:
        flat = []
        for row in mat:
            if type(row) is not tuple or len(row) != cols:
                break
            flat += row
        else:
            try:
                if all(map(math.isfinite, flat)):
                    return mat
            except TypeError:
                pass
    return as_vector(mat, rows * cols, name).reshape(rows, cols).tolist()


@dataclass(frozen=True)
class ControlAffineSystem:
    """Control-affine plant with a disturbance input channel.

    f maps state -> (n,), g1 maps state -> (n, m), g2 maps state -> (n, p).
    `terms`, when given, returns all three in one call; simulators use it to
    avoid recomputing shared quantities (e.g. the inertia matrix of an arm).
    Callbacks must be pure and deterministic.  Each may return a tuple of
    numbers (f) or a tuple of row tuples (g1, g2), which `evaluate` checks
    and passes on as it is, or anything of n (n*m, n*p) entries that
    as_vector accepts, such as an array, nested lists or a flat sequence.
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

    def evaluate(self, x) -> tuple:
        """(f, g1, g2) at x as Python floats, from the fused callback when
        available.

        f is a sequence of n floats and g1, g2 are sequences of n rows of m
        and p floats: a tuple output is checked in place (the length of f,
        the number and length of the rows, math.isfinite on every entry)
        and returned as it is, any other output is checked by as_vector and
        returned as lists.  A wrong shape raises DimensionError and a
        non-finite entry ValueError, each naming f(x), g1(x) or g2(x).  An
        output returned for both channels (the disturbance entering through
        the input, as on the arm) is checked once, and evaluate then returns
        one object as g1 and g2.
        """
        n = self.n
        fx, G1, G2 = self.terms(x) if self.terms is not None \
            else (self.f(x), self.g1(x), self.g2(x))
        g1 = _float_rows(G1, n, self.m, "g1(x)")
        g2 = g1 if G2 is G1 and self.p == self.m \
            else _float_rows(G2, n, self.p, "g2(x)")
        return as_floats(fx, n, "f(x)"), g1, g2


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
    """Barrier function h of relative degree r = len(poles) >= 1.

    The r positive poles place the cascade s_0 = h,
    s_k = (d/dt + lambda_k) s_{k-1}; r = 1 with poles = (gamma,) is the
    first-order condition hdot + gamma h >= 0.  `chain(x)` returns the Lie
    chain at x, ((h, L_f h, ..., L_f^r h), L_g1 L_f^{r-1} h,
    L_g2 L_f^{r-1} h), the drift derivatives as Python floats, and receives
    x as Python floats.  No pole, or one that is not positive, raises
    ParameterError.  `safe_set(x)`, when given, is the function whose
    zero-superlevel set the barrier keeps (h_q(q) under the energy barrier
    of a mechanical plant), which the filters log as h in place of the
    chain's h.

    `cascade[k-1]` holds the coefficients (a_1..a_k) of
    prod_{j<=k} (s + lambda_j) as a tuple of floats, computed once here;
    the last one weighs the constraint.
    """

    chain: Callable[[Sequence[float]], tuple]
    poles: tuple
    safe_set: Callable[[Sequence[float]], float] | None = None
    cascade: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.poles) == 0:
            raise ParameterError("need at least one pole")
        object.__setattr__(self, "cascade", tuple(
            tuple(coeffs_from_poles(self.poles[:k]).tolist())
            for k in range(1, len(self.poles) + 1)))

    def read(self, x) -> tuple:
        """The chain at x, its drift derivatives as a list of the r + 1
        Python floats the chain returns, which need no second conversion,
        and the mixed ones as the callback returns them.  A first tuple of
        any other length raises ParameterError."""
        lf, lg1, lg2 = self.chain(x)
        if len(lf) != len(self.poles) + 1:
            raise ParameterError(
                f"chain: need r + 1 = {len(self.poles) + 1} drift derivatives "
                f"L_f^k h for {len(self.poles)} poles, got {len(lf)}")
        return list(lf), lg1, lg2


def s_sequence(sys: ControlAffineSystem, bar: BarrierSpec, x) -> list:
    """Cascade values [s_0, ..., s_{r-1}] of the pole-shifted barrier chain,
    as Python floats, from one call of the barrier's chain; x is checked by
    as_floats against the plant's dimension.

    s_0 = h and s_k = (d/dt + lambda_k) s_{k-1}; along the drift the time
    derivatives expand into combinations of L_f^j h because the control and
    disturbance channels only appear at order r.
    """
    lf = bar.read(as_floats(x, sys.n, "x"))[0]
    out = lf[:1]
    for k in range(1, len(bar.poles)):
        out.append(sum(map(operator.mul, bar.cascade[k - 1], lf[k - 1::-1]),
                       lf[k]))
    return out
