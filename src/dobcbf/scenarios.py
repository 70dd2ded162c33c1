"""Scenario registry for the experiment runner.

Each scenario bundles a plant, an observer, a safety filter, a nominal law,
a disturbance signal, and its derived constants (disturbance-derivative
bound, worst-case magnitude, inertia eigenvalue bounds), all resolved from a
plain nested-dict configuration with every default overridable.  `build` is
one skeleton for every scenario; a family function per plant (scalar,
double integrator, arm) supplies only what differs, the filter built with
its tuning as constructor arguments.  Every barrier is one closed-form Lie
chain under `filters.QpFilter`; doubleint-relr's barrier 1 - x0 has
relative degree 2, so params.poles must hold two poles, and any other
count is a ConfigError.  The arm's barrier is its energy barrier
beta*h_q - KE (`el.TwoLinkArm.energy_barrier`, pole gamma), with the
observer and constraint_omega (el2dof-dob, el2dof-noomega) or with the
worst-case d_max (el2dof-robust); its logged h is h_q.  The arm's nominal
law is PD tracking of the joint reference ref_amplitude*cos(t) on both
joints, plus G(q) under gravity_comp, and `Scenario.metrics` reads its
tracking RMSE from x0 and x1.  `Scenario.validate` returns the filter's
own initial-state report (`safety.report`), a `filters.ParamReport`, or
None for the robust baseline and the pass-through.

Configuration.  `resolve_config` checks a config against the named
scenario's `default_config` in one pass, and its result shares no mutable
object with the defaults:
  * a key that the default lacks is a ConfigError at every level,
    disturbance terms included, and the message names the key's path;
  * a number comes back as a finite float, or as an int where the default
    is an int, and may arrive as a string (YAML 1.1 reads `1e-3` as one);
    a true/false default takes only a bool, a string default a string;
  * a list is checked element by element against the default's first
    element;
  * a mapping is filled from its default, except inside a list: a
    disturbance term is checked but not filled, so a term without `phase`
    resolves without it and Term supplies phase 0 and waveform "sin"; a
    term without `amplitude` or `frequency` is a ConfigError in `build`.
Nothing converts a resolved value again.  "seed" is accepted and unread,
as the benchmark harness (perfbench/run.py, record.py) sets it in every
workload config.

Derived constants and their provenance:
  * the observer-side derivative bound omega is a certified upper bound on
    ||ddot(t)|| over the run's span [t0, tf], and the robust baseline's
    magnitude bound, the default d_max, one on ||d(t)||;
  * both come from DisturbanceSignal.norm_bound, which evaluates the same
    sums as the d(t) that the simulator applies.  It refines [t0, tf] by
    branch and bound on ||v||^2, whose second derivative is bounded in
    closed form, until the bound lies within simulate.BOUND_RTOL (1e-9) of
    the largest value found, or stops after simulate.BOUND_EVALUATIONS
    (20 000) evaluations, and adds a rounding margin that its docstring
    derives.  On the arm over the default 20 s it takes 157 evaluations
    for omega and 154 for d_max.  A signal that cannot be evaluated in
    floats over the span raises ParameterError, a ConfigError here;
  * the arm's inverse-inertia eigenvalue bounds are exact: the inertia
    matrix is affine in cos(q2), so its largest eigenvalue (convex in the
    matrix) peaks and its smallest (concave) bottoms out at q2 = 0 or pi;
  * so are the extremes of the spectrum of sym(L_d g2(x)): the arm's
    L_d g2 = alpha1 M^-1(q) takes them at q2 = 0 and pi, the integrators'
    constant one anywhere.  A coercivity margin lambda_min - alpha below
    -COERCIVITY_TOL, or an observer step lambda_max * dt/substeps outside
    RK4's real stability interval (necessary, not sufficient, for a
    bounded estimate), is a ConfigError.

The arm filter's constraint-side omega is the `constraint_omega` parameter.
Its default is a registry constant, deliberately smaller than the derived
derivative bound, and 0 for el2dof-noomega, which withholds the bound.
With the derived value (about 84 over the default span) the constant term
omega^2/(2 nu) dwarfs every state-dependent term of the constraint and
the QP is unsatisfiable whenever the arm is slow, so no useful motion
survives.  The envelope and convergence checks always use the
derived bound; the constraint-side value trades a quantified worst-case
floor for a usable filter, which is exactly the degraded-knowledge operating
mode the design admits.

Some certificates are checked on the run, not proved.  el2dof-dob prints
`certified: True` and enforces min h >= -1e-6 and the hbar decay bound, but
its constraint_omega of 3.0 is far below the derived omega_d of 83.52, so
the library's own guarantee there is violation_floor at omega_d, about -174
as t -> inf; the enforced checks are empirical.  el2dof-robust with a
configured d_max below the signal's magnitude bound still prints
`certified: True` (`params: {d_max: 0.0}` runs `ok`), again an empirical
check, not the worst-case theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import el as elmod
from . import filters, observer, simulate
from .model import BarrierSpec, ControlAffineSystem, ParameterError, as_floats

SCENARIOS = ("scalar-rel1", "doubleint-relr", "el2dof-dob", "el2dof-robust",
             "el2dof-nofilter", "el2dof-noomega")

#: constraint-side disturbance-derivative bound for the arm scenarios
ARM_CONSTRAINT_OMEGA = 3.0

SAFETY_TOL = 1e-6
ENVELOPE_TOL = 1e-3
FLOOR_TOL = 1e-4
COERCIVITY_TOL = 1e-8
#: RK4's stability interval on the negative real axis is about (-2.785, 0]
RK4_REAL_STABILITY = 2.785


class ConfigError(ValueError):
    """Unknown key, bad type, or failed re-validation of an override."""


# --------------------------------------------------------------------------
# configuration

#: the arm's disturbance on each joint, (amplitude, frequency, waveform) per term
_ARM_CHANNEL = ((10.0, 1.0, "sin"), (2.0, 2.0, "sin"), (-5.0, 5.0, "cos"),
                (10.0, 3.0, "cos"))


def default_config(name: str) -> dict:
    """The named scenario's defaults, new objects on every call."""
    if name == "scalar-rel1":
        substeps, x0, channels = 1, [1.0], [((2.0, 1.0, "sin"),)]
        params = {"alpha": 2.0, "beta": 1.0, "gamma": 1.0, "nu": 1.0,
                  "nominal_gain": 2.0, "nominal_target": -1.0}
    elif name == "doubleint-relr":
        substeps, x0, channels = 1, [0.0, 0.0], [((1.0, 0.0, "cos"),)]
        params = {"alpha": 2.0, "beta": 1.0, "nu": 1.0, "poles": [1.0, 1.0],
                  "nominal_kp": 4.0, "nominal_kd": 2.0, "nominal_target": 2.0}
    elif name in SCENARIOS:
        substeps, x0, channels = 8, [2.0, 2.5, 0.0, 0.0], [_ARM_CHANNEL] * 2
        params = {"alpha1": 500.0, "beta": 10.0, "gamma": 2.0, "nu": 1.0,
                  # withholding the derivative bound is omega = 0
                  "constraint_omega": 0.0 if name == "el2dof-noomega"
                                      else ARM_CONSTRAINT_OMEGA,
                  "kp": 200.0, "kd": 35.0, "ref_amplitude": 5.0,
                  "gravity_comp": False, "d_max": None}
    else:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")
    return {"scenario": name, "seed": 0,
            "sim": {"t0": 0.0, "tf": 20.0, "dt": 1e-3, "log_stride": 10,
                    "substeps": substeps},
            "params": params, "initial_state": x0,
            "disturbance": [[{"amplitude": a, "frequency": w, "phase": 0.0,
                              "waveform": wave} for a, w, wave in ch]
                            for ch in channels]}


def _resolve(default, value, where: str, fill: bool = True):
    """value checked against its default and returned as new objects, by
    the rules of the module docstring; fill is false inside a list."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected a mapping, got {value!r}")
        for key in value:
            if key not in default:
                raise ConfigError(
                    f"unknown configuration key {f'{where}.{key}'!r}")
        return {key: _resolve(default[key], value.get(key, default[key]),
                              f"{where}.{key}", fill)
                for key in (default if fill else value)}
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return [_resolve(default[0], v, f"{where}[{i}]", False)
                for i, v in enumerate(value)]
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true or false, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if isinstance(default, float) or (default is None and value is not None):
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        try:
            number = float(value)
        except (ValueError, OverflowError):
            raise ConfigError(f"{where}: expected a number, got {value!r}") from None
        if not math.isfinite(number):
            raise ConfigError(f"{where}: must be finite, got {value!r}")
        return number
    if isinstance(default, str) and not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def resolve_config(raw: dict) -> dict:
    """The named scenario's defaults overridden by raw, in one checked pass."""
    if "scenario" not in raw:
        raise ConfigError("configuration must name a scenario")
    return _resolve(default_config(raw["scenario"]), raw, "config")


# --------------------------------------------------------------------------
# derived constants


def _signal(channels: list) -> simulate.DisturbanceSignal:
    """The disturbance of resolved channels; each term names its amplitude
    and frequency, and Term supplies a missing phase or waveform."""
    for i, ch in enumerate(channels):
        for j, term in enumerate(ch):
            missing = [key for key in ("amplitude", "frequency")
                       if key not in term]
            if missing:
                raise ConfigError(f"config.disturbance[{i}][{j}] lacks {missing}")
    return simulate.DisturbanceSignal(
        tuple(tuple(simulate.Term(**term) for term in ch) for ch in channels))


def derivative_bound(signal: simulate.DisturbanceSignal, t0: float,
                     tf: float) -> float:
    """A certified upper bound on ||ddot(t)|| over the run's span [t0, tf]."""
    return signal.norm_bound(t0, tf, derivative=True)


def arm_mu_bounds(mass: Callable) -> tuple[float, float]:
    """Exact inverse-inertia eigenvalue bounds of a planar two-link arm over
    every configuration; mass is the arm's inertia callback.

    M(q) depends on q2 only, through c = cos(q2) in [-1, 1], and affinely;
    the extreme eigenvalues over c are therefore those at c = 1 and c = -1,
    that is at q2 = 0 and q2 = pi.  An inertia that is not positive definite
    there raises ParameterError.
    """
    lo, hi = np.inf, -np.inf
    for q2 in (0.0, math.pi):
        eigs = np.linalg.eigvalsh(np.asarray(mass((0.0, q2))))
        if eigs[0] <= 0:
            raise ParameterError(f"inertia matrix not SPD at q2 = {q2}")
        lo, hi = min(lo, 1.0 / eigs[-1]), max(hi, 1.0 / eigs[0])
    return float(lo), float(hi)


# --------------------------------------------------------------------------
# scenario objects


@dataclass
class Scenario:
    """Everything needed to run, validate, and judge one experiment."""

    name: str
    config: dict
    system: ControlAffineSystem
    safety: object
    nominal: Callable
    disturbance: simulate.DisturbanceSignal
    simcfg: simulate.SimConfig
    x0: np.ndarray
    observer_cfg: observer.ObserverConfig
    pairing_key: str
    envelope: Callable
    constants: dict
    certified: bool = True
    floor: Callable | None = None
    #: the arm's joint reference, tracked by x0 and x1; None elsewhere
    reference: Callable | None = None
    #: the arm itself on the arm scenarios, None on the others; the name
    #: predates the arm's inertia and gravity becoming its methods and
    #: stays, as the benchmark harness (perfbench/child.py) reads it
    el_system: elmod.TwoLinkArm | None = None
    #: decay rate of the augmented-barrier lower bound hbar(0)*exp(-rate*t);
    #: None when no such guarantee applies (robust/no-filter/withheld omega)
    decay_gamma: float | None = None
    #: builder of the run's joint plant-and-observer derivative; the arm
    #: family passes el.arm_derivative
    derivative: Callable = simulate.joint_derivative

    def run(self) -> simulate.TrajectoryLog:
        return simulate.run_closed_loop(
            self.system, self.safety, self.nominal, self.disturbance,
            self.simcfg, self.x0, observer=self.observer_cfg,
            derivative=self.derivative)

    def metrics(self, log: simulate.TrajectoryLog) -> dict:
        return simulate.metrics(log, envelope=self.envelope,
                                reference=self.reference)

    def validate(self) -> filters.ParamReport | None:
        """The filter's initial-state report, or None for a filter without
        one."""
        return self.safety.report(self.x0, self.constants["e0_norm"])

    def check_invariants(self, log: simulate.TrajectoryLog,
                         summary: dict) -> list[str]:
        """Certified-run invariants; nonempty return means failure."""
        failures = []
        if log.aborted:
            failures.append("run aborted before the horizon")
            return failures
        if self.certified and summary["min_h"] < -SAFETY_TOL:
            failures.append(f"min h = {summary['min_h']:.3e} below -{SAFETY_TOL}")
        if self.certified and "s1" in log.columns:
            worst = float(log.column("s1").min())
            if worst < -SAFETY_TOL:
                failures.append(f"min s1 = {worst:.3e} below -{SAFETY_TOL}")
        if summary["max_env_residual"] > ENVELOPE_TOL:
            failures.append(
                f"envelope residual {summary['max_env_residual']:.3e} "
                f"above {ENVELOPE_TOL}")
        if self.floor is not None:
            gap = float(np.min(log.column("h") - self.floor(log.column("t"))))
            if not gap >= -FLOOR_TOL:  # a NaN gap fails too
                failures.append(f"barrier under floor by {-gap:.3e}")
        if self.certified and self.decay_gamma is not None:
            hbar = log.column("hbar")
            if not np.any(np.isnan(hbar)):
                t = log.column("t")
                bound = hbar[0] * np.exp(-self.decay_gamma * (t - t[0]))
                worst = float(np.min(hbar - bound))
                if worst < -ENVELOPE_TOL:
                    failures.append(
                        f"augmented barrier under decay bound by {-worst:.3e}")
        return failures


# Family functions take (cfg, signal, simcfg, omega) and return their own
# Scenario fields plus `extremal_states`, where the observer's gain spectrum
# takes its extremes; `build` derives the rest.


def _qp_family(cfg: dict, omega: float, system: ControlAffineSystem,
               barrier: BarrierSpec, gain_shape: np.ndarray,
               nominal: Callable) -> dict:
    """A generic plant under the QpFilter, observed with the constant gain
    L = alpha * gain_shape (so p(x) = L x) and a constant g2."""
    prm = cfg["params"]
    alpha = prm["alpha"]
    obs = observer.ObserverConfig(gain=alpha * gain_shape, alpha=alpha,
                                  nu=prm["nu"], omega=omega)
    safety = filters.QpFilter(system, barrier, obs, prm["beta"], omega)
    return dict(
        system=system, observer_cfg=obs, safety=safety, nominal=nominal,
        extremal_states=[(0.0,) * system.n],
        pairing_key=cfg["scenario"], constants={"omega": omega},
        decay_gamma=barrier.poles[-1])


def _scalar(cfg: dict, signal, simcfg, omega: float) -> dict:
    prm = cfg["params"]
    gain, target = prm["nominal_gain"], prm["nominal_target"]
    # each constant output is one tuple, checked in place on every call
    zero, eye, one = (0.0,), ((1.0,),), (1.0,)
    system = ControlAffineSystem(
        n=1, m=1, p=1,
        f=lambda x: zero,
        g1=lambda x: eye,
        g2=lambda x: eye)
    # h = x0, L_f h = 0, L_g1 h = L_g2 h = 1
    barrier = BarrierSpec(chain=lambda x: ((float(x[0]), 0.0), one, one),
                          poles=(prm["gamma"],))
    return _qp_family(cfg, omega, system, barrier, np.eye(1),
                      lambda t, x: (gain * (target - float(x[0])),))


def _doubleint(cfg: dict, signal, simcfg, omega: float) -> dict:
    prm = cfg["params"]
    kp, kd, target = prm["nominal_kp"], prm["nominal_kd"], prm["nominal_target"]
    last, minus_one = ((0.0,), (1.0,)), (-1.0,)
    system = ControlAffineSystem(
        n=2, m=1, p=1,
        f=lambda x: (float(x[1]), 0.0),
        g1=lambda x: last,
        g2=lambda x: last)
    poles = tuple(prm["poles"])
    if len(poles) != 2:
        raise ParameterError(f"params.poles: the barrier 1 - x0 has relative "
                             f"degree 2 and needs 2 poles, got {len(poles)}")
    # h = 1 - x0, L_f h = -x1, L_f^2 h = 0, L_g1 L_f h = L_g2 L_f h = -1
    barrier = BarrierSpec(
        chain=lambda x: ((1.0 - float(x[0]), -float(x[1]), 0.0),
                         minus_one, minus_one),
        poles=poles)
    return _qp_family(cfg, omega, system, barrier, np.array([[0.0, 1.0]]),
                      lambda t, x: (kp * (target - float(x[0])) - kd * float(x[1]),))


def _arm(cfg: dict, signal, simcfg, omega: float) -> dict:
    name = cfg["scenario"]
    prm = cfg["params"]
    alpha1, beta, gamma, nu = prm["alpha1"], prm["beta"], prm["gamma"], prm["nu"]
    kp, kd, amp = prm["kp"], prm["kd"], prm["ref_amplitude"]
    if kp <= 0 or kd <= 0:
        raise ParameterError("PD gains kp and kd must be positive")

    arm = elmod.TwoLinkArm()
    system = arm.plant()
    mu1, mu2 = arm_mu_bounds(arm.mass)
    obs = elmod.el_observer_config(alpha1, mu1, nu, omega)
    # squares as products: a huge q gives an infinite h_q, which the energy
    # barrier's chain names, not an OverflowError
    h_q = lambda q: 16.0 - q[0] * q[0] - q[1] * q[1]
    grad_hq = lambda q: (-2.0 * q[0], -2.0 * q[1])
    constants = {"mu1": mu1, "mu2": mu2, "omega_d": omega}

    # each filter reads and checks only its own tuning, so a scenario never
    # rejects a value that its filter does not use
    floor = None
    if name == "el2dof-nofilter":
        safety = filters.NoFilter(lambda x: h_q(x[:2]))
    else:
        barrier = arm.energy_barrier(h_q, grad_hq, beta, gamma)
        if name == "el2dof-robust":
            d_max = prm["d_max"]
            if d_max is None:
                d_max = signal.norm_bound(simcfg.t0, simcfg.tf)
            constants["d_max"] = d_max
            safety = filters.QpFilter(system, barrier, None, d_max=d_max)
        else:
            # the energy scale beta lives in the barrier, so the augmented
            # barrier's own beta is 1
            safety = filters.QpFilter(system, barrier, obs, 1.0,
                                      prm["constraint_omega"])
    if name == "el2dof-noomega":
        # the worst-case floor is a theorem about the true disturbance, so it
        # uses the derived derivative bound, not the constraint-side value;
        # like the envelope it runs on the time since the start, t - t0
        floor = lambda t: elmod.violation_floor(nu, gamma, beta, omega,
                                                t - simcfg.t0)

    grav = arm.gravity if prm["gravity_comp"] else None

    def nominal(t, x):
        # q_des = (c, c) and qdot_des = (s, s), the same gains on both joints
        q0, q1, v0, v1 = as_floats(x, 4, "x")
        c, s = amp * math.cos(t), -amp * math.sin(t)
        tau0 = kp * (c - q0) + kd * (s - v0)
        tau1 = kp * (c - q1) + kd * (s - v1)
        if grav is not None:
            g0, g1 = grav((q0, q1))
            tau0, tau1 = tau0 + g0, tau1 + g1
        return tau0, tau1

    return dict(
        system=system, observer_cfg=obs, safety=safety, nominal=nominal,
        extremal_states=[(0.0, 0.0, 0.0, 0.0), (0.0, math.pi, 0.0, 0.0)],
        certified=name != "el2dof-nofilter", pairing_key="el2dof",
        floor=floor,
        reference=lambda t: np.array([amp * math.cos(t), amp * math.cos(t)]),
        el_system=arm, constants=constants,
        decay_gamma=gamma if name == "el2dof-dob" else None,
        derivative=elmod.arm_derivative)


def build(config: dict) -> Scenario:
    """Construct a scenario from a configuration dict.

    The skeleton derives what every scenario shares: the disturbance signal,
    the time grid, the derivative bound omega, the observer's coercivity
    margin and step, x0, e0 = ||d(t0)||, the estimation-error envelope (a
    function of absolute time that starts from e0 at t0).  The family
    function returns the plant, observer, filter, nominal law and extremal
    states, plus the Scenario fields of its own; the filter reports its own
    initial-state inequalities (Scenario.validate).
    """
    cfg = resolve_config(config)
    name = cfg["scenario"]
    family = {"scalar-rel1": _scalar, "doubleint-relr": _doubleint}.get(name, _arm)
    try:
        simcfg = simulate.SimConfig(**cfg["sim"])
        signal = _signal(cfg["disturbance"])
        omega = derivative_bound(signal, simcfg.t0, simcfg.tf)
        parts = family(cfg, signal, simcfg, omega)
        system, obs = parts["system"], parts["observer_cfg"]
        lam_min, lam_max = observer.gain_spectrum(
            obs, system, parts.pop("extremal_states"))
        margin = lam_min - obs.alpha
        step = lam_max * simcfg.dt / simcfg.substeps
        if margin < -COERCIVITY_TOL:
            raise ParameterError(f"observer coercivity margin {margin:.3e} "
                                 f"below -{COERCIVITY_TOL:.1e}")
        if step >= RK4_REAL_STABILITY:
            raise ParameterError(
                f"observer step lambda_max * dt/substeps = {step:.4g} is "
                f"outside RK4's real stability interval ({RK4_REAL_STABILITY})")
    except ValueError as exc:  # ParameterError, DimensionError, ...
        raise ConfigError(str(exc)) from exc
    if signal.dim != system.p:
        raise ConfigError(f"{name} needs a disturbance of {system.p} "
                          f"channel(s), got {signal.dim}")
    x0 = np.asarray(cfg["initial_state"], dtype=float)
    if x0.shape != (system.n,):
        raise ConfigError(f"initial_state needs {system.n} entries, "
                          f"got {x0.size}")
    e0 = float(np.linalg.norm(signal.value(simcfg.t0)))
    parts["constants"].update(e0_norm=e0, coercivity_margin=margin,
                              observer_step=step)

    return Scenario(name=name, config=cfg, disturbance=signal, simcfg=simcfg,
                    x0=x0,
                    envelope=lambda t: observer.error_envelope(obs, e0,
                                                               t - simcfg.t0),
                    **parts)
