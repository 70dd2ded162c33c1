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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import qp
from .model import ControlAffineSystem, ParameterError, as_vector
from .observer import ObserverConfig, estimate, initial_state

STATUS_CODES = {qp.INACTIVE: 0, qp.ACTIVE: 1, qp.INFEASIBLE: 2, "bypassed": 3}


class IntegrationError(RuntimeError):
    """Non-finite right-hand side or state during integration."""


@dataclass(frozen=True)
class Term:
    """One sinusoidal component a*sin(w t + phi) or a*cos(w t + phi)."""

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

    def value(self, t):
        arg = self.frequency * t + self.phase
        return self.amplitude * (np.sin(arg) if self.waveform == "sin" else np.cos(arg))

    def derivative(self, t):
        arg = self.frequency * t + self.phase
        if self.waveform == "sin":
            return self.amplitude * self.frequency * np.cos(arg)
        return -self.amplitude * self.frequency * np.sin(arg)


@dataclass(frozen=True)
class DisturbanceSignal:
    """Analytic disturbance d(t): a sum of sinusoids per channel.

    The derivative is the exact analytic derivative, so bounds computed from
    it are free of interpolation artifacts.  The terms are packed once into
    a (channels x terms) amplitude matrix and per-term frequency and phase
    arrays, a cos term as a sin with its phase advanced by pi/2; so a value
    is one sin call and one product, and a derivative one cos call and one
    product, whatever the number of terms.  An empty channel is a zero row.
    """

    channels: tuple
    _amp: np.ndarray = field(init=False, repr=False, compare=False)
    _freq: np.ndarray = field(init=False, repr=False, compare=False)
    _phase: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        channels = tuple(tuple(ch) for ch in self.channels)
        terms = [term for ch in channels for term in ch]
        amp = np.zeros((len(channels), len(terms)))
        rows = [i for i, ch in enumerate(channels) for _ in ch]
        amp[rows, range(len(terms))] = [term.amplitude for term in terms]
        packed = {"channels": channels, "_amp": amp,
                  "_freq": np.array([term.frequency for term in terms]),
                  "_phase": np.array([term.phase + (0.0 if term.waveform == "sin"
                                                    else 0.5 * math.pi)
                                      for term in terms])}
        for name, value in packed.items():
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.channels)

    def value(self, t) -> np.ndarray:
        return self._amp.dot(np.sin(self._freq * t + self._phase))

    def derivative(self, t) -> np.ndarray:
        return self._amp.dot(self._freq * np.cos(self._freq * t + self._phase))

    def _grid_norms(self, t_grid, derivative: bool) -> np.ndarray:
        # Accumulates term by term on purpose: the packed arrays would build
        # a terms x grid array (about 13 MB for the arm signal on the default
        # 200 001-point grid) for no gain in a once-per-build computation.
        t = np.asarray(t_grid, dtype=float)
        sq = np.zeros_like(t)
        for ch in self.channels:
            acc = np.zeros_like(t)
            for term in ch:
                acc += term.derivative(t) if derivative else term.value(t)
            sq += acc ** 2
        return np.sqrt(sq)

    def max_value_norm(self, t_grid) -> float:
        return float(self._grid_norms(t_grid, derivative=False).max())

    def max_derivative_norm(self, t_grid) -> float:
        return float(self._grid_norms(t_grid, derivative=True).max())

    @staticmethod
    def constant(values) -> "DisturbanceSignal":
        vals = np.asarray(values, dtype=float).reshape(-1)
        return DisturbanceSignal(tuple(
            (Term(amplitude=float(v), frequency=0.0, waveform="cos"),)
            for v in vals))


@dataclass(frozen=True)
class SimConfig:
    """Time grid of a run.  dt is the log resolution; dt/substeps is the
    integration and control-update period."""

    t0: float
    tf: float
    dt: float
    log_stride: int = 1
    substeps: int = 1
    blowup_norm: float = 1e9

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.tf <= self.t0:
            raise ParameterError("tf must exceed t0")
        if self.log_stride < 1 or self.substeps < 1:
            raise ParameterError("log_stride and substeps must be >= 1")
        steps = (self.tf - self.t0) / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ParameterError("(tf - t0)/dt must be an integer")

    @property
    def n_steps(self) -> int:
        return int(round((self.tf - self.t0) / self.dt))


def rk4_step(rhs: Callable[[float, np.ndarray], np.ndarray], t: float,
             state: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta update; a non-finite new state
    (tested entry by entry with math.isfinite) raises IntegrationError."""
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = rhs(t + dt, state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not all(map(math.isfinite, out.ravel().tolist())):
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
        """Write a fixed-header CSV with 15 significant digits per value."""
        status_idx = self.columns.index("qp_status") if "qp_status" in self.columns else -1
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.data:
                cells = []
                for j, v in enumerate(row):
                    if j == status_idx:
                        cells.append(str(int(v)))
                    else:
                        cells.append(f"{v:.14e}")
                fh.write(",".join(cells) + "\n")


def run_closed_loop(system: ControlAffineSystem,
                    safety,
                    nominal: Callable[[float, np.ndarray], np.ndarray],
                    disturbance: DisturbanceSignal,
                    cfg: SimConfig,
                    x0,
                    observer: ObserverConfig) -> TrajectoryLog:
    """Simulate the filtered closed loop and return the full log.

    Per integration step (dt/substeps): read the estimate, build the safety
    constraint, solve the QP, then advance plant and observer jointly with
    the chosen control held.  Deterministic: identical inputs give
    bit-identical logs.  A state norm above cfg.blowup_norm aborts the run
    and returns the partial log.  The observer starts from a zero estimate.
    """
    x = as_vector(x0, system.n, "x0")
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

    rows = []
    events = []
    counts = {name: 0 for name in STATUS_CODES}
    aborted = False
    dt_sub = cfg.dt / cfg.substeps
    memo_t, memo_d = math.nan, None

    def disturbance_at(t):
        """d(t), evaluated once per distinct time: RK4's two midpoint stages
        share a time, a step's last stage usually meets the next step's
        start, and the log reads d at the start of a step.  The memo holds
        the last pair only and is keyed on exact float equality, so every
        value is the one a fresh evaluation would give."""
        nonlocal memo_t, memo_d
        if t != memo_t:
            memo_t, memo_d = t, disturbance.value(t)
        return memo_d

    def rhs(t, y):
        """Joint plant-and-observer derivative under the held control u,
        which the stepping loop below rebinds at every control update."""
        xs = y[:n]
        fx, G1, G2 = system.evaluate(xs)
        drift = fx + G1.dot(u)
        dx = drift + G2.dot(disturbance_at(t))
        dy = np.empty(y.size)
        dy[:n] = dx
        dy[n:] = -observer.gain_at(xs).dot(
            drift + G2.dot(y[n:] + observer.integral_at(xs)))
        return dy

    # the latest decision's parts, read only when its step is logged
    u_nom = d_hat = dec = status = None

    def control_at(ts, xs):
        """One filter-plus-QP evaluation; returns the control to hold."""
        nonlocal u_nom, d_hat, dec, status
        d_hat = estimate(observer, st, xs)
        u_nom = as_vector(nominal(ts, xs), m, "u_nom")
        dec = safety.constraint(ts, xs, u_nom, d_hat)
        if dec.bypass:
            u = u_nom
            status = "bypassed" if dec.event else qp.INACTIVE
            if dec.event:
                events.append((ts, dec.event))
        else:
            res = qp.solve(qp.QpInstance(u_nom=u_nom, psi0=dec.psi0,
                                         psi1=dec.psi1))
            u = res.u
            status = res.status
            if status == qp.INFEASIBLE:
                events.append((ts, "qp_infeasible"))
        counts[status] += 1
        return u

    y = np.concatenate([x, st.z])
    for k in range(cfg.n_steps + 1):
        t = cfg.t0 + k * cfg.dt
        d_true = disturbance_at(t)
        u = control_at(t, x)

        if k % cfg.log_stride == 0 or k == cfg.n_steps:
            e_d = d_hat - d_true
            probe = safety.probe(x, e_d)
            psi0 = np.nan if dec.psi0 is None else dec.psi0
            psi1_u = np.nan if dec.psi1 is None else float(np.dot(dec.psi1, u))
            row = np.concatenate([
                [t], x, u_nom, u, d_true, d_hat,
                [float(np.linalg.norm(e_d)), probe.get("h", np.nan),
                 probe.get("hbar", np.nan), psi0, psi1_u,
                 STATUS_CODES[status]],
                [probe[name] for name in extra_names]])
            rows.append(row)

        if k == cfg.n_steps:
            break

        try:
            for j in range(cfg.substeps):
                ts = t + j * dt_sub
                if j > 0:
                    u = control_at(ts, x)
                y = rk4_step(rhs, ts, y, dt_sub)
                x = y[:n]
                st.z = y[n:]
        except IntegrationError:
            aborted = True
            events.append((t, "integration_error"))
            break
        if float(np.linalg.norm(x)) > cfg.blowup_norm:
            aborted = True
            events.append((t, "blowup"))
            break

    return TrajectoryLog(columns=columns,
                         data=np.array(rows),
                         events=events,
                         aborted=aborted,
                         status_counts=counts,
                         meta={"n": n, "m": m, "p": p, "dt": cfg.dt,
                               "substeps": cfg.substeps})


def metrics(log: TrajectoryLog,
            envelope: Callable[[np.ndarray], np.ndarray] | None = None,
            reference: Callable[[float], np.ndarray] | None = None,
            ref_indices: Sequence[int] | None = None) -> dict:
    """Scalar summary of a run.

    envelope, when given, is E(t) for the estimation-error bound; reference
    (with the state indices it refers to) enables the tracking RMSE.
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
    if envelope is not None:
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
