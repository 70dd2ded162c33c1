"""Fixed-step closed-loop simulation with per-step safety filtering.

The plant state and the observer state are integrated jointly with classical
RK4.  The control (and the disturbance estimate it was built from) is
recomputed at every integration step and held constant across the four stage
evaluations (zero-order hold); the true disturbance enters the right-hand
side analytically so derivative bounds are exact.  `SimConfig.substeps`
subdivides the logging step dt into finer integration-and-control steps:
observer gains of a few hundred produce modes far faster than 1/dt, and the
energy-filter correction grows like 1/||qdot|| near turning points, so both
the integrator and the hold need the finer step while logs and metrics stay
on the dt grid.

Each run builds one RK4 right-hand side with a derivative builder:
`joint_derivative` serves any plant, and the arm scenarios pass
`el.arm_derivative`, the same quantity in closed form for the arm under
the momentum observer L_d = [0 | alpha1 I], with only its nonzero rows
formed.  Both evaluate the plant once per stage through
`ControlAffineSystem.evaluate`, with its checks.

The closed loop has one value type: every value from the RK4 state to the
held control is a sequence of Python floats.  `rk4_step` takes and returns
the joint state as a list, the decisions read its halves x and z, and the
estimate, nominal control, constraint row and QP solution they build are
floats, checked by `model.as_floats` where they enter.  On vectors of a
few entries a float sum costs less than a NumPy call.  d(t) is evaluated
once per distinct time and kept as the tuple `DisturbanceSignal.value`
returns.
Arrays remain at the edges: the log is one array, allocated for every row
the run can log, and `write_csv` writes it and every other CSV artifact
with one %-format string per file.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import qp
from .model import ControlAffineSystem, ParameterError, as_floats
from .observer import ObserverConfig, estimate, initial_state

STATUS_CODES = {qp.INACTIVE: 0, qp.ACTIVE: 1, qp.INFEASIBLE: 2, "bypassed": 3}


class IntegrationError(RuntimeError):
    """Non-finite right-hand side or state during integration."""


#: grid points per block in DisturbanceSignal.max_norm, so a bound over a
#: long grid never builds a terms x grid array
_NORM_BLOCK = 4096
#: max_norm samples every _NORM_STRIDE-th grid point to bound each block
_NORM_STRIDE = 64
#: max_norm's rounding allowance per unit of its error scale, about 9000
#: units in the last place
_NORM_ROUNDING = 1e-12
#: a joint state whose Euclidean norm exceeds this aborts a run ("blowup")
BLOWUP_NORM = 1e9


@dataclass(frozen=True)
class Term:
    """One sinusoidal component a*sin(w t + phi) or a*cos(w t + phi); a
    record that DisturbanceSignal packs and evaluates."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    waveform: str = "sin"

    def __post_init__(self):
        if self.waveform not in ("sin", "cos"):
            raise ParameterError(f"unknown waveform {self.waveform!r}")
        if not all(math.isfinite(v) for v in (self.amplitude, self.frequency,
                                                self.phase)):
            raise ParameterError("amplitude, frequency and phase must be finite")


@dataclass(frozen=True)
class DisturbanceSignal:
    """Analytic disturbance d(t): a sum of sinusoids per channel.

    The terms are packed once into a (channels x terms) amplitude matrix and
    per-term frequency and phase arrays, a cos term as a sin with its phase
    advanced by pi/2.  `max_norm` evaluates grid times from these arrays;
    `value`, one time at a time in the simulator's hot path, sums
    a*math.sin(w*t + phi) per channel over (a, w, phi) triples read once
    from the same arrays, so the bounds are taken of the sum that the
    simulator applies and of its exact analytic derivative.  An empty
    channel is a zero row, and a zero entry of `value`.
    """

    channels: tuple
    _amp: np.ndarray = field(init=False, repr=False, compare=False)
    _freq: np.ndarray = field(init=False, repr=False, compare=False)
    _phase: np.ndarray = field(init=False, repr=False, compare=False)
    _triples: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        channels = tuple(tuple(ch) for ch in self.channels)
        terms = [term for ch in channels for term in ch]
        amp = np.zeros((len(channels), len(terms)))
        rows = [i for i, ch in enumerate(channels) for _ in ch]
        amp[rows, range(len(terms))] = [term.amplitude for term in terms]
        freq = np.array([term.frequency for term in terms])
        phase = np.array([term.phase + (0.0 if term.waveform == "sin"
                                        else 0.5 * math.pi)
                          for term in terms])
        triples = [[] for _ in channels]
        for j, (i, w, ph) in enumerate(zip(rows, freq.tolist(), phase.tolist())):
            triples[i].append((float(amp[i, j]), w, ph))
        packed = {"channels": channels, "_amp": amp, "_freq": freq,
                  "_phase": phase,
                  "_triples": tuple(tuple(ch) for ch in triples)}
        for name, value in packed.items():
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.channels)

    def value(self, t) -> tuple:
        """d(t) at one time t, as a tuple of dim Python floats.

        Plain loops: on a few terms a comprehension per channel costs more
        than the sums it forms.
        """
        sin = math.sin
        out = []
        for channel in self._triples:
            total = 0.0
            for a, w, ph in channel:
                total += a * sin(w * t + ph)
            out.append(total)
        return tuple(out)

    def max_norm(self, t0: float, tf: float, points: int,
                 derivative: bool = False) -> float:
        """max of ||d(t)||, or of ||ddot(t)|| with derivative, over the
        grid np.linspace(t0, tf, points), which is never formed.

        The value is that of evaluating the grid in blocks of _NORM_BLOCK
        points, each as v = w.dot(wave(f t + phi)) with the weights w = a
        and sin, or w = a*f and cos for the derivative, and taking the
        square root of the largest ||v||^2.  Only the blocks that can hold
        that maximum are evaluated, the same times in the same way, so the
        result is the same float, bit for bit.  `_grid_times` generates
        only the times that are read, each equal to its grid point.

        Which blocks: ||v|| is first evaluated at every _NORM_STRIDE-th
        grid point, the first of each group.  ||v'|| <= L =
        ||(sum_k |w_ck f_k|)_c||, so a grid point t_i whose group starts at
        the sample s has ||v(t_i)|| <= ||v(s)|| + L (t_i - s), at most
        ||v(s)|| + L (r - s) with r the group's last point, as the grid is
        non-decreasing; the largest of these bounds a block.  A block is
        skipped only when its bound plus a margin m lies below the largest
        sample minus m; every value computed in it then lies below the
        block evaluation of that sample, which is never skipped.  When L
        times tf - t0 overflows, no block is skipped.

        Why the grid is non-decreasing: NumPy forms the i-th point as
        (i step) + t0 with step = (tf - t0)/(points - 1) >= 0, or as
        (i/(points - 1)) (tf - t0) + t0 when that step rounds to 0, each
        rounding monotone in i, and sets the last point to tf.  The point
        before it is at most tf: with u = 2^-53 it lies below
        (points - 2)/(points - 1) (1 + u)^3 (tf - t0) + t0 before its last
        rounding, which is at most tf for any points up to 2^51, whose
        samples alone would fill 2^48 bytes.

        Why m suffices: with W = sum |w|, F = max |f|, T = max |t|,
        P = max |phi|, K terms and C channels, the argument f t + phi is
        off by at most 3u(FT + P), a sin or cos within a few ulps adds 8u,
        the weighted sum (K + 1)u W, and the squares, their sum and the
        square root (C + 2)u W; so one evaluation is off by at most
        uW(3(FT + P) + K + C + 11).  The bound's own products, sums and
        comparisons are off by at most 2uW(K + C + 8)(1 + FT).  Both
        evaluations plus the bound stay below 8uW(K + C + 16)(1 + FT + P),
        and m = _NORM_ROUNDING W (K + C + 16)(1 + FT + P) is over a
        thousand times that.

        t0 > tf, or points that is not a non-negative int, raises
        ParameterError.  An empty grid, or a signal whose weights are all
        zero, gives 0.0 without an array.  Otherwise ParameterError is
        raised, before anything is evaluated, when the evaluation cannot be
        finite: t0, tf or tf - t0 not finite (NumPy's grid then holds NaN),
        FT + P overflowing, or (sum |w|)^2 overflowing.
        """
        if isinstance(points, bool) or not isinstance(points, numbers.Integral) \
                or points < 0:
            raise ParameterError(f"grid points must be a non-negative int, "
                                 f"got {points!r}")
        t0, tf, points = float(t0), float(tf), int(points)
        if t0 > tf:
            raise ParameterError(f"grid start {t0!r} is after its end {tf!r}")
        if points == 0:
            return 0.0
        # (|w|, |f|, |phi|) per term and channel in Python floats, which
        # overflow to inf without a warning; the checks below keep NumPy's
        # products finite
        rows = [[(abs(a * w) if derivative else abs(a), abs(w), abs(ph))
                 for a, w, ph in channel] for channel in self._triples]
        terms = [term for row in rows for term in row]
        total = sum(weight for weight, _, _ in terms)
        if total == 0.0:
            return 0.0
        lipschitz = math.hypot(*(sum(weight * f for weight, f, _ in row)
                                 for row in rows))
        # the grid's extremes are its first and last points; a span that is
        # not finite makes reach NaN or inf, and the squared norm is at most
        # total^2, up to rounding
        t_hi = tf if points > 1 else t0
        reach = (max(f for _, f, _ in terms) * max(t_hi, -t0)
                 + max(ph for _, _, ph in terms))
        if not (math.isfinite(tf - t0) and math.isfinite(reach)
                and math.isfinite(2.0 * total * total)):
            raise ParameterError("disturbance bound: the signal cannot be "
                                 "evaluated in floats on this grid")
        weights = self._amp * self._freq if derivative else self._amp
        wave = np.cos if derivative else np.sin
        freq, phase = self._freq[:, None], self._phase[:, None]

        def squares(ts):
            vals = weights.dot(wave(freq * ts + phase))
            return (vals * vals).sum(axis=0)

        starts = range(0, points, _NORM_BLOCK)
        if math.isfinite(lipschitz * (t_hi - t0)):
            groups = np.arange(0, points, _NORM_STRIDE)
            samples = _grid_times(t0, tf, points, groups)
            norms = np.sqrt(squares(samples))
            lasts = _grid_times(t0, tf, points, np.minimum(
                groups + (_NORM_STRIDE - 1), points - 1))
            bounds = np.maximum.reduceat(
                norms + lipschitz * (lasts - samples),
                range(0, groups.size, _NORM_BLOCK // _NORM_STRIDE)).tolist()
            margin = (_NORM_ROUNDING * total * (len(terms) + self.dim + 16)
                      * (1.0 + reach))
            floor = float(norms.max()) - margin
            starts = [start for start, bound in zip(starts, bounds)
                      if bound + margin >= floor]
        largest = 0.0
        for start in starts:
            block = squares(_grid_times(
                t0, tf, points, np.arange(start, min(start + _NORM_BLOCK, points))))
            largest = max(largest, float(block.max()))
        return math.sqrt(largest)


def _grid_times(t0: float, tf: float, points: int,
                index: np.ndarray) -> np.ndarray:
    """np.linspace(t0, tf, points)[index] for ascending int indices, bit for
    bit, without the grid: NumPy's i * step + t0 with
    step = (tf - t0)/(points - 1), i/(points - 1) * (tf - t0) + t0 when that
    step is 0, and tf at the last point."""
    div, delta = points - 1, tf - t0
    ts = index.astype(float)
    if div > 0:
        step = delta / div
        if step == 0:
            ts /= div
            ts *= delta
        else:
            ts *= step
    else:
        ts *= delta
    ts += t0
    if div > 0 and index[-1] == div:
        ts[-1] = tf
    return ts


@dataclass(frozen=True)
class SimConfig:
    """Time grid of a run.  dt is the log resolution; dt/substeps is the
    integration and control-update period."""

    t0: float
    tf: float
    dt: float
    log_stride: int = 1
    substeps: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.tf <= self.t0:
            raise ParameterError("tf must exceed t0")
        if self.log_stride < 1 or self.substeps < 1:
            raise ParameterError("log_stride and substeps must be >= 1")
        steps = (self.tf - self.t0) / self.dt
        if not math.isfinite(steps):
            raise ParameterError(f"(tf - t0)/dt = {steps} is not finite")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ParameterError("(tf - t0)/dt must be an integer")

    @property
    def n_steps(self) -> int:
        return int(round((self.tf - self.t0) / self.dt))


def rk4_step(rhs: Callable[[float, list], Sequence[float]], t: float,
             state: list, dt: float) -> list:
    """One classical 4th-order Runge-Kutta update on a list of floats.

    rhs(t, y) receives each stage state as a list and returns a sequence of
    floats of the same length; the stage states and the new state are float
    sums in the order of the array expressions
    y + (0.5 dt) k and y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), so every
    entry is bit-identical to the same step taken on float64 arrays.  A
    non-finite new state (tested entry by entry with math.isfinite) raises
    IntegrationError.
    """
    h = 0.5 * dt
    k1 = rhs(t, state)
    k2 = rhs(t + h, [y + h * k for y, k in zip(state, k1)])
    k3 = rhs(t + h, [y + h * k for y, k in zip(state, k2)])
    k4 = rhs(t + dt, [y + dt * k for y, k in zip(state, k3)])
    w = dt / 6.0
    out = [y + w * (a + 2.0 * b + 2.0 * c + d)
           for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise IntegrationError(f"non-finite state after step at t = {t}")
    return out


@dataclass
class TrajectoryLog:
    """Column-labeled record of a run plus step-status counters."""

    columns: list
    data: np.ndarray
    events: list = field(default_factory=list)
    aborted: bool = False
    status_counts: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def __len__(self) -> int:
        return self.data.shape[0]

    def to_csv(self, path) -> None:
        """Write a fixed-header CSV with 15 significant digits per value
        (qp_status as an integer), through write_csv."""
        formats = ["%d" if name == "qp_status" else "%.14e"
                   for name in self.columns]
        write_csv(path, self.columns, (row.tolist() for row in self.data),
                  formats)


def write_csv(path, header: Sequence[str], rows, formats: Sequence[str]) -> None:
    """Write a CSV file: the header line, then one line per row.

    formats holds one %-format per column ("%.14e", "%d", "%s"); they are
    joined into one format string for the file, and each row, a sequence
    of one value per column, is formatted with it and written on its own,
    so no list of the file's lines is built.
    """
    line = ",".join(formats) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def joint_derivative(system: ControlAffineSystem, observer: ObserverConfig,
                     disturbance_at: Callable[[float], Sequence[float]]):
    """Joint plant-and-observer derivative of any plant, for rk4_step.

    Returns (rhs, hold).  rhs(t, y) at y = [x; z] is
    [f + g1 u + g2 d(t); -L_d (f + g1 u + g2 (z + p(x)))] under the control
    u last passed to hold, a sequence of floats that the simulator passes
    once per decision; f + g1 u is formed once per stage for both halves.
    Each stage calls system.evaluate(y[:n]) once, so the plant's callbacks
    receive the stage state as a list of floats and their outputs keep
    every check; L_d is read as float rows when the run starts, and every
    product is a float sum.  A non-finite p(x) = L_d x raises ValueError at
    the stage, as observer.integral_at does; a non-finite derivative is
    caught by rk4_step's check of the new state.
    """
    n, evaluate = system.n, system.evaluate
    mul, add, isfinite = operator.mul, operator.add, math.isfinite
    gain = observer.gain.tolist()
    u = None

    def hold(control):
        nonlocal u
        u = control

    def rhs(t, y):
        x = y[:n]
        fx, G1, G2 = evaluate(x)
        px = [sum(map(mul, row, x)) for row in gain]
        if not all(map(isfinite, px)):
            raise ValueError(f"p(x): non-finite entries {np.array(px)}")
        d = disturbance_at(t)
        w = list(map(add, y[n:], px))  # z + p(x), the estimate
        dy, v = [], []
        for fi, row1, row2 in zip(fx, G1, G2):
            a = fi + sum(map(mul, row1, u))  # f + g1 u, shared by both halves
            dy.append(a + sum(map(mul, row2, d)))
            v.append(a + sum(map(mul, row2, w)))
        for row in gain:
            dy.append(-sum(map(mul, row, v)))
        return dy

    return rhs, hold


def run_closed_loop(system: ControlAffineSystem,
                    safety,
                    nominal: Callable[[float, Sequence[float]], Sequence[float]],
                    disturbance: DisturbanceSignal,
                    cfg: SimConfig,
                    x0,
                    observer: ObserverConfig,
                    derivative: Callable = joint_derivative) -> TrajectoryLog:
    """Simulate the filtered closed loop and return the full log.

    Per integration step (dt/substeps): read the estimate, build the safety
    constraint, solve the QP, then advance plant and observer jointly with
    the chosen control held.  The joint state y = [x; z] is integrated as a
    list of floats, and the decisions read x = y[:n] and z = y[n:].
    Deterministic: identical inputs give bit-identical logs.  After every
    integration step, a Euclidean norm of the joint plant-and-observer state
    above BLOWUP_NORM, read when the run starts, aborts the run with the
    event (ts, "blowup"), ts the start of that step, and returns the
    partial log, so a diverging estimate aborts as well as a diverging
    plant; a non-finite state gives (ts, "integration_error").  The
    observer starts from a zero estimate.
    The log array is allocated once, with a row for every logged step
    (each multiple of cfg.log_stride and the last step), and an aborted
    run returns the rows it filled; a log too large to allocate raises
    MemoryError naming its row count before the run starts.

    derivative(system, observer, disturbance_at) builds the run's one
    right-hand side and its control hold, as joint_derivative does;
    `el.arm_derivative` is the arm's closed form.  disturbance_at(t)
    returns d(t) as a sequence of floats.
    """
    x = as_floats(x0, system.n, "x0")
    st = initial_state(observer, x)

    n, m, p = system.n, system.m, system.p
    columns = (["t"]
               + [f"x{i}" for i in range(n)]
               + [f"unom{i}" for i in range(m)]
               + [f"u{i}" for i in range(m)]
               + [f"d{i}" for i in range(p)]
               + [f"dhat{i}" for i in range(p)]
               + ["e_norm", "h", "hbar", "psi0", "psi1_u", "qp_status"])
    probe0 = safety.probe(x, np.zeros(p))
    extra_names = sorted(k for k in probe0 if k not in ("h", "hbar"))
    columns += extra_names

    n_rows = cfg.n_steps // cfg.log_stride + 1 + (cfg.n_steps % cfg.log_stride > 0)
    try:
        data = np.empty((n_rows, len(columns)))
    except MemoryError:
        raise MemoryError(f"cannot allocate the log: {n_rows} rows of "
                          f"{len(columns)} columns") from None
    rows = 0
    events = []
    counts = {name: 0 for name in STATUS_CODES}
    aborted = False
    dt_sub = cfg.dt / cfg.substeps
    blowup_norm = BLOWUP_NORM
    memo_t, memo_d = math.nan, None

    def disturbance_at(t):
        """d(t) as a tuple of floats, evaluated once per distinct time: RK4's
        two midpoint stages share a time, a step's last stage usually meets
        the next step's start, and the log reads d at the start of a step.
        The memo holds the last pair only and is keyed on exact float
        equality, so every value is the one a fresh evaluation would give."""
        nonlocal memo_t, memo_d
        if t != memo_t:
            memo_t, memo_d = t, disturbance.value(t)
        return memo_d

    rhs, hold = derivative(system, observer, disturbance_at)

    # the latest decision's parts, read only when its step is logged
    u_nom = d_hat = dec = status = None

    def control_at(ts, xs):
        """One filter-plus-QP evaluation; holds the control it returns.

        The filters do not read u_nom, so it is checked once, after the
        constraint: by QpInstance on the QP path, here on the bypass path.
        """
        nonlocal u_nom, d_hat, dec, status
        d_hat = estimate(observer, st, xs)
        u_nom = nominal(ts, xs)
        dec = safety.constraint(ts, xs, u_nom, d_hat)
        if dec.bypass:
            u = u_nom = as_floats(u_nom, m, "u_nom")
            status = "bypassed" if dec.event else qp.INACTIVE
            if dec.event:
                events.append((ts, dec.event))
        else:
            inst = qp.QpInstance(u_nom=u_nom, psi0=dec.psi0, psi1=dec.psi1)
            u_nom = inst.u_nom
            res = qp.solve(inst)
            u, status = res.u, res.status
            if status == qp.INFEASIBLE:
                events.append((ts, "qp_infeasible"))
        counts[status] += 1
        hold(u)
        return u

    y = [*x, *st.z]
    for k in range(cfg.n_steps + 1):
        t = cfg.t0 + k * cfg.dt
        d_true = disturbance_at(t)
        u = control_at(t, x)

        if k % cfg.log_stride == 0 or k == cfg.n_steps:
            # NumPy forms the row's products, which may round unlike float sums
            e_d = np.subtract(d_hat, d_true)
            probe = safety.probe(x, e_d)
            psi0 = math.nan if dec.psi0 is None else dec.psi0
            psi1_u = math.nan if dec.psi1 is None else float(np.dot(dec.psi1, u))
            # the Euclidean norm as np.linalg.norm takes it, sqrt(e_d . e_d)
            data[rows] = ([t, *x, *u_nom, *u, *d_true, *d_hat,
                           math.sqrt(e_d.dot(e_d)), probe.get("h", math.nan),
                           probe.get("hbar", math.nan), psi0, psi1_u,
                           STATUS_CODES[status]]
                          + [probe[name] for name in extra_names])
            rows += 1

        if k == cfg.n_steps:
            break

        failure = None
        try:
            for j in range(cfg.substeps):
                ts = t + j * dt_sub
                if j > 0:
                    u = control_at(ts, x)
                y = rk4_step(rhs, ts, y, dt_sub)
                if math.hypot(*y) > blowup_norm:
                    failure = "blowup"
                    break
                x, st.z = y[:n], y[n:]
        except IntegrationError:
            failure = "integration_error"
        if failure is not None:
            aborted = True
            events.append((ts, failure))
            break

    return TrajectoryLog(columns=columns,
                         data=data[:rows],
                         events=events,
                         aborted=aborted,
                         status_counts=counts,
                         meta={"n": n, "m": m, "p": p, "dt": cfg.dt,
                               "substeps": cfg.substeps})


def metrics(log: TrajectoryLog,
            envelope: Callable[[np.ndarray], np.ndarray],
            reference: Callable[[float], np.ndarray] | None = None,
            ref_indices: Sequence[int] | None = None) -> dict:
    """Scalar summary of a run.

    envelope is E(t) for the estimation-error bound, which gives
    max_env_residual; reference (with the state indices it refers to)
    enables the tracking RMSE.
    """
    if len(log) == 0:
        raise ParameterError("empty log")
    t = log.column("t")
    out = {
        "min_h": float(np.nanmin(log.column("h"))),
        "min_hbar": float(np.nanmin(log.column("hbar")))
        if not np.all(np.isnan(log.column("hbar"))) else math.nan,
        "n_active": log.status_counts.get(qp.ACTIVE, 0),
        "n_infeasible": log.status_counts.get(qp.INFEASIBLE, 0),
        "n_bypassed": log.status_counts.get("bypassed", 0),
        "aborted": int(log.aborted),
    }
    m = log.meta["m"]
    u = np.stack([log.column(f"u{i}") for i in range(m)], axis=1)
    out["max_u_norm"] = float(np.max(np.linalg.norm(u, axis=1)))
    out["max_env_residual"] = float(np.max(log.column("e_norm") - envelope(t)))
    if reference is not None and ref_indices is not None:
        tracked = np.stack([log.column(f"x{i}") for i in ref_indices], axis=1)
        ref = np.stack([np.asarray(reference(ti), dtype=float).reshape(-1)
                        for ti in t])
        out["tracking_rmse"] = float(
            np.sqrt(np.mean(np.sum((tracked - ref) ** 2, axis=1))))
    return out


def write_metrics(path, values: dict) -> None:
    """Key/value summary, one `key: value` pair per line."""
    with open(path, "w") as fh:
        for key in sorted(values):
            v = values[key]
            if isinstance(v, float):
                fh.write(f"{key}: {v:.14e}\n")
            else:
                fh.write(f"{key}: {v}\n")


def read_metrics(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, raw = line.partition(":")
            raw = raw.strip()
            try:
                val = int(raw)
            except ValueError:
                try:
                    val = float(raw)
                except ValueError:
                    val = raw
            out[key.strip()] = val
    return out
