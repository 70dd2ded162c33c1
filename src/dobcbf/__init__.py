"""Disturbance-observer-aware control barrier function safety filters.

The library couples a nonlinear disturbance observer with CBF-QP safety
filters so that the filtered control keeps the system safe despite unknown
matched/unmatched disturbances, with a quantified estimation-error envelope.
"""

from .model import (BarrierSpec, ControlAffineSystem, DimensionError,
                    ParameterError, coeffs_from_poles, s_sequence)
from .observer import (ObserverConfig, ObserverState, error_envelope,
                       estimate, gain_spectrum, initial_state)
from .qp import INACTIVE, ACTIVE, INFEASIBLE, QpInstance, QpResult, solve
from .filters import Decision, NoFilter, ParamReport, QpFilter
from .simulate import (DisturbanceSignal, IntegrationError, SimConfig, Term,
                       TrajectoryLog, metrics, rk4_step, run_closed_loop)
from .el import TwoLinkArm, el_observer_config, pd_nominal, violation_floor
from .scenarios import ConfigError, SCENARIOS, Scenario, build, resolve_config

__version__ = "0.1.0"
