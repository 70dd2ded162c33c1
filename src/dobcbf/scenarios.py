"""Scenario registry for the experiment runner.

Each scenario bundles a plant, an observer, a safety filter, a nominal law,
a disturbance signal, and its derived constants (disturbance-derivative
bound, worst-case magnitude, inertia eigenvalue bounds), all resolved from a
plain nested-dict configuration with every default overridable.  `build` is
one skeleton for every scenario; a family function per plant (scalar,
double integrator, arm) supplies only what differs.

Derived constants and their provenance:
  * the observer-side derivative bound is max_t ||ddot(t)|| of the analytic
    disturbance over a 200 001-point grid of the run's span [t0, tf];
  * the robust baseline's magnitude bound is max_t ||d(t)|| over the same
    grid;
  * both come from DisturbanceSignal.max_norm, which reads the same packed
    arrays as the d(t) the simulator applies;
  * the arm's inverse-inertia eigenvalue bounds are exact: the inertia
    matrix is affine in cos(q2), so its largest eigenvalue (convex in the
    matrix) peaks and its smallest (concave) bottoms out at q2 = 0 or pi.

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
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import el as elmod
from . import filters, observer, simulate
from .model import BarrierSpec, ControlAffineSystem, ParameterError, s_sequence

SCENARIOS = ("scalar-rel1", "doubleint-relr", "el2dof-dob", "el2dof-robust",
             "el2dof-nofilter", "el2dof-noomega")

#: constraint-side disturbance-derivative bound for the arm scenarios
ARM_CONSTRAINT_OMEGA = 3.0

SAFETY_TOL = 1e-6
ENVELOPE_TOL = 1e-3
FLOOR_TOL = 1e-4


class ConfigError(ValueError):
    """Unknown key, bad type, or failed re-validation of an override."""


# --------------------------------------------------------------------------
# default configurations


def _scalar_defaults() -> dict:
    return {
        "scenario": "scalar-rel1",
        "seed": 0,
        "sim": {"t0": 0.0, "tf": 20.0, "dt": 1e-3, "log_stride": 10,
                "substeps": 1},
        "params": {"alpha": 2.0, "beta": 1.0, "gamma": 1.0, "nu": 1.0,
                   "nominal_gain": 2.0, "nominal_target": -1.0},
        "initial_state": [1.0],
        "disturbance": [[{"amplitude": 2.0, "frequency": 1.0, "phase": 0.0,
                          "waveform": "sin"}]],
    }


def _doubleint_defaults() -> dict:
    return {
        "scenario": "doubleint-relr",
        "seed": 0,
        "sim": {"t0": 0.0, "tf": 20.0, "dt": 1e-3, "log_stride": 10,
                "substeps": 1},
        "params": {"alpha": 2.0, "beta": 1.0, "nu": 1.0,
                   "poles": [1.0, 1.0],
                   "nominal_kp": 4.0, "nominal_kd": 2.0,
                   "nominal_target": 2.0},
        "initial_state": [0.0, 0.0],
        "disturbance": [[{"amplitude": 1.0, "frequency": 0.0, "phase": 0.0,
                          "waveform": "cos"}]],
    }


def _el_defaults(name: str) -> dict:
    return {
        "scenario": name,
        "seed": 0,
        "sim": {"t0": 0.0, "tf": 20.0, "dt": 1e-3, "log_stride": 10,
                "substeps": 8},
        "params": {"alpha1": 500.0, "beta": 10.0, "gamma": 2.0, "nu": 1.0,
                   # withholding the derivative bound is omega = 0
                   "constraint_omega": 0.0 if name == "el2dof-noomega"
                                       else ARM_CONSTRAINT_OMEGA,
                   "eps_singular": 1e-4,
                   "kp": 200.0, "kd": 35.0, "ref_amplitude": 5.0,
                   "gravity_comp": False,
                   "d_max": None},
        "initial_state": [2.0, 2.5, 0.0, 0.0],
        "disturbance": [
            [{"amplitude": 10.0, "frequency": 1.0, "phase": 0.0, "waveform": "sin"},
             {"amplitude": 2.0, "frequency": 2.0, "phase": 0.0, "waveform": "sin"},
             {"amplitude": -5.0, "frequency": 5.0, "phase": 0.0, "waveform": "cos"},
             {"amplitude": 10.0, "frequency": 3.0, "phase": 0.0, "waveform": "cos"}],
            [{"amplitude": 10.0, "frequency": 1.0, "phase": 0.0, "waveform": "sin"},
             {"amplitude": 2.0, "frequency": 2.0, "phase": 0.0, "waveform": "sin"},
             {"amplitude": -5.0, "frequency": 5.0, "phase": 0.0, "waveform": "cos"},
             {"amplitude": 10.0, "frequency": 3.0, "phase": 0.0, "waveform": "cos"}]],
    }


def default_config(name: str) -> dict:
    if name == "scalar-rel1":
        return _scalar_defaults()
    if name == "doubleint-relr":
        return _doubleint_defaults()
    if name in SCENARIOS:
        return _el_defaults(name)
    raise ConfigError(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")


def merge_config(base: dict, override: dict, path: str = "") -> dict:
    """Recursive merge that rejects keys absent from the defaults."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key {where!r}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = merge_config(base[key], val, where)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _typed(default, value, where: str):
    """value checked against the type of its default; numbers come back as
    finite floats (ints for integer defaults).

    A number may arrive as a string: YAML 1.1 reads `1e-3` as one.  A list
    is checked element by element against the first default element, a
    mapping key by key against the default key of the same name.
    """
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
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        if not default:
            return list(value)
        return [_typed(default[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected a mapping, got {value!r}")
        return {key: _typed(default[key], v, f"{where}.{key}") if key in default else v
                for key, v in value.items()}
    if isinstance(default, str) and not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def resolve_config(raw: dict) -> dict:
    """Fill defaults for the named scenario, reject unknown keys, and check
    that every value has the type of its default (numbers finite)."""
    if "scenario" not in raw:
        raise ConfigError("configuration must name a scenario")
    base = default_config(raw["scenario"])
    return _typed(base, merge_config(base, raw), "config")


# --------------------------------------------------------------------------
# derived constants


def _signal_from_config(spec) -> simulate.DisturbanceSignal:
    channels = []
    for ch in spec:
        terms = []
        for term in ch:
            unknown = set(term) - {"amplitude", "frequency", "phase", "waveform"}
            if unknown:
                raise ConfigError(f"unknown disturbance term keys {sorted(unknown)}")
            missing = {"amplitude", "frequency"} - set(term)
            if missing:
                raise ConfigError(f"disturbance term lacks {sorted(missing)}")
            terms.append(simulate.Term(
                amplitude=float(term["amplitude"]),
                frequency=float(term["frequency"]),
                phase=float(term.get("phase", 0.0)),
                waveform=term.get("waveform", "sin")))
        channels.append(tuple(terms))
    return simulate.DisturbanceSignal(tuple(channels))


#: points of the grid over [t0, tf] on which the disturbance bounds are taken
BOUND_GRID_POINTS = 200_001


def derivative_bound(signal: simulate.DisturbanceSignal, t0: float,
                     tf: float) -> float:
    """max_t ||ddot(t)|| on a dense grid of the run's span [t0, tf]."""
    return signal.max_norm(np.linspace(t0, tf, BOUND_GRID_POINTS),
                           derivative=True)


def magnitude_bound(signal: simulate.DisturbanceSignal, t0: float,
                    tf: float) -> float:
    """max_t ||d(t)|| on a dense grid of the run's span [t0, tf]."""
    return signal.max_norm(np.linspace(t0, tf, BOUND_GRID_POINTS))


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
    certified: bool = True
    pairing_key: str = ""
    envelope: Callable | None = None
    floor: Callable | None = None
    reference: Callable | None = None
    ref_indices: tuple = ()
    el_system: elmod.ELSystem | None = None
    constants: dict = field(default_factory=dict)
    validators: Callable | None = None
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
                                reference=self.reference,
                                ref_indices=self.ref_indices or None)

    def validate(self) -> dict:
        return self.validators() if self.validators is not None else {}

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
        if self.envelope is not None and \
                summary.get("max_env_residual", -np.inf) > ENVELOPE_TOL:
            failures.append(
                f"envelope residual {summary['max_env_residual']:.3e} "
                f"above {ENVELOPE_TOL}")
        if self.floor is not None:
            gap = float(np.min(log.column("h") - self.floor(log.column("t"))))
            if gap < -FLOOR_TOL:
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


def _simcfg(cfg: dict) -> simulate.SimConfig:
    sim = cfg["sim"]
    return simulate.SimConfig(t0=float(sim["t0"]), tf=float(sim["tf"]),
                              dt=float(sim["dt"]),
                              log_stride=int(sim["log_stride"]),
                              substeps=int(sim["substeps"]))


# Family functions take (cfg, signal, simcfg, omega) and return their own
# Scenario fields plus `sample(rng)`, the validation states, and
# `report(x0, e0)`, the parameter report or None; `build` derives the rest.


def _qp_family(cfg: dict, omega: float, system: ControlAffineSystem,
               barrier: BarrierSpec, gain_shape: np.ndarray,
               nominal: Callable) -> dict:
    """A generic plant under the QpFilter, observed with the constant gain
    L = alpha * gain_shape (so p(x) = L x); states sampled in [-2, 2]^n."""
    prm = cfg["params"]
    alpha = float(prm["alpha"])
    obs = observer.ObserverConfig(gain=alpha * gain_shape, alpha=alpha,
                                  nu=float(prm["nu"]), omega=omega)
    fp = filters.FilterParams(beta=float(prm["beta"]), omega=omega)
    safety = filters.QpFilter(system, barrier, obs, fp)
    return dict(
        system=system, observer_cfg=obs, safety=safety, nominal=nominal,
        sample=lambda rng: rng.uniform(-2.0, 2.0, size=(200, system.n)),
        report=lambda x0, e0: filters.validate_params(
            safety, s_sequence(system, barrier, x0), e0),
        pairing_key=cfg["scenario"], constants={"omega": omega},
        decay_gamma=barrier.poles[-1])


def _constant(entries) -> np.ndarray:
    """A read-only float64 array, built once and returned by every call of
    a callback whose value does not depend on the state; the plant and the
    barrier still check it on every call."""
    arr = np.array(entries, dtype=float)
    arr.flags.writeable = False
    return arr


def _scalar(cfg: dict, signal, simcfg, omega: float) -> dict:
    prm = cfg["params"]
    gain, target = float(prm["nominal_gain"]), float(prm["nominal_target"])
    zero, eye, one = _constant([0.0]), _constant([[1.0]]), _constant([1.0])
    system = ControlAffineSystem(
        n=1, m=1, p=1,
        f=lambda x: zero,
        g1=lambda x: eye,
        g2=lambda x: eye)
    barrier = BarrierSpec(h=lambda x: float(x[0]),
                          lie_f=(lambda x: 0.0,),
                          lie_g1_fr=lambda x: one,
                          lie_g2_fr=lambda x: one,
                          poles=(float(prm["gamma"]),))
    return _qp_family(cfg, omega, system, barrier, np.eye(1),
                      lambda t, x: np.array([gain * (target - x[0])]))


def _doubleint(cfg: dict, signal, simcfg, omega: float) -> dict:
    prm = cfg["params"]
    kp, kd = float(prm["nominal_kp"]), float(prm["nominal_kd"])
    target = float(prm["nominal_target"])
    last, minus_one = _constant([[0.0], [1.0]]), _constant([-1.0])
    system = ControlAffineSystem(
        n=2, m=1, p=1,
        f=lambda x: np.array([x[1], 0.0]),
        g1=lambda x: last,
        g2=lambda x: last)
    barrier = BarrierSpec(
        h=lambda x: 1.0 - float(x[0]),
        lie_f=(lambda x: -float(x[1]), lambda x: 0.0),
        lie_g1_fr=lambda x: minus_one,
        lie_g2_fr=lambda x: minus_one,
        poles=tuple(float(v) for v in prm["poles"]))
    return _qp_family(cfg, omega, system, barrier, np.array([[0.0, 1.0]]),
                      lambda t, x: np.array([kp * (target - x[0]) - kd * x[1]]))


def _arm(cfg: dict, signal, simcfg, omega: float) -> dict:
    name = cfg["scenario"]
    prm = cfg["params"]
    alpha1, beta = float(prm["alpha1"]), float(prm["beta"])
    gamma, nu = float(prm["gamma"]), float(prm["nu"])
    kp, kd = float(prm["kp"]), float(prm["kd"])
    if kp <= 0 or kd <= 0:
        raise ParameterError("PD gains kp and kd must be positive")
    amp = float(prm["ref_amplitude"])

    el_sys = elmod.TwoLinkArm().system()
    system = elmod.to_control_affine(el_sys)
    mu1, mu2 = arm_mu_bounds(el_sys.mass)
    obs = elmod.el_observer_config(alpha1, mu1, nu, omega)
    h_q = lambda q: 16.0 - float(q[0]) ** 2 - float(q[1]) ** 2
    grad_hq = lambda q: np.array([-2.0 * q[0], -2.0 * q[1]])
    constants = {"mu1": mu1, "mu2": mu2, "omega_d": omega}

    # each filter reads and checks only its own tuning, so a scenario never
    # rejects a value that its filter does not use
    report = floor = None
    if name in ("el2dof-dob", "el2dof-noomega"):
        fp = elmod.ELFilterParams(
            beta=beta, gamma=gamma, omega=float(prm["constraint_omega"]),
            eps_singular=float(prm["eps_singular"]))
        safety = elmod.ELQpFilter(el_sys, h_q, grad_hq, obs, fp)
        report = lambda x0, e0: elmod.validate_el_params(safety, x0, e0)
    elif name == "el2dof-robust":
        d_max = prm["d_max"]
        d_max = float(d_max) if d_max is not None \
            else magnitude_bound(signal, simcfg.t0, simcfg.tf)
        constants["d_max"] = d_max
        safety = elmod.ELRobustFilter(el_sys, h_q, grad_hq, beta, gamma, d_max,
                                      eps_singular=float(prm["eps_singular"]))
    else:
        safety = filters.NoFilter(lambda x: h_q(x[:2]))
    if name == "el2dof-noomega":
        # the worst-case floor is a theorem about the true disturbance, so it
        # uses the derived derivative bound, not the constraint-side value;
        # like the envelope it runs on the time since the start, t - t0
        floor = lambda t: elmod.violation_floor(fp, obs.nu, omega, t - simcfg.t0)

    Kp = ((kp, 0.0), (0.0, kp))
    Kd = ((kd, 0.0), (0.0, kd))
    grav = el_sys.gravity if bool(prm["gravity_comp"]) else None

    def nominal(t, x):
        q0, q1, v0, v1 = x.tolist()  # the simulator's checked state
        c, s = amp * math.cos(t), -amp * math.sin(t)
        return elmod.pd_nominal(Kp, Kd, (q0, q1), (v0, v1), (c, c), (s, s),
                                gravity=grav((q0, q1)) if grav else None)

    def sample(rng):
        return np.hstack([rng.uniform(-math.pi, math.pi, size=(200, 2)),
                          rng.uniform(-8.0, 8.0, size=(200, 2))])

    return dict(
        system=system, observer_cfg=obs, safety=safety, nominal=nominal,
        sample=sample, report=report,
        certified=name != "el2dof-nofilter", pairing_key="el2dof",
        floor=floor,
        reference=lambda t: np.array([amp * math.cos(t), amp * math.cos(t)]),
        ref_indices=(0, 1), el_system=el_sys, constants=constants,
        decay_gamma=gamma if name == "el2dof-dob" else None,
        derivative=elmod.arm_derivative)


def build(config: dict) -> Scenario:
    """Construct a scenario from a configuration dict.

    The skeleton derives what every scenario shares: the disturbance signal,
    the time grid, the derivative bound omega, x0, e0 = ||d(t0)||, the
    estimation-error envelope (a function of absolute time that starts from
    e0 at t0), and the validators (the observer-gain check at states drawn
    from a seeded rng).  The family function returns the plant, observer,
    filter, nominal law, validation-state sampler and parameter report, plus
    the Scenario fields of its own.
    """
    cfg = resolve_config(config)
    name = cfg["scenario"]
    family = {"scalar-rel1": _scalar, "doubleint-relr": _doubleint}.get(name, _arm)
    try:
        simcfg = _simcfg(cfg)
        signal = _signal_from_config(cfg["disturbance"])
        omega = derivative_bound(signal, simcfg.t0, simcfg.tf)
        parts = family(cfg, signal, simcfg, omega)
    except ValueError as exc:  # ParameterError, DimensionError, ...
        raise ConfigError(str(exc)) from exc
    sample, report = parts.pop("sample"), parts.pop("report")
    system, obs = parts["system"], parts["observer_cfg"]
    if signal.dim != system.p:
        raise ConfigError(f"{name} needs a disturbance of {system.p} "
                          f"channel(s), got {signal.dim}")
    x0 = np.asarray(cfg["initial_state"], dtype=float)
    if x0.shape != (system.n,):
        raise ConfigError(f"initial_state needs {system.n} entries, "
                          f"got {x0.size}")
    e0 = float(np.linalg.norm(signal.value(simcfg.t0)))
    parts["constants"]["e0_norm"] = e0

    def validators():
        states = sample(np.random.default_rng(int(cfg["seed"])))
        out = {"gain": observer.validate_gain(obs, system, states)}
        if report is not None:
            out["params"] = report(x0, e0)
        return out

    return Scenario(name=name, config=cfg, disturbance=signal, simcfg=simcfg,
                    x0=x0,
                    envelope=lambda t: observer.error_envelope(obs, e0,
                                                               t - simcfg.t0),
                    validators=validators, **parts)
