"""Disturbance-observer-aware control barrier function safety filters.

The library couples a nonlinear disturbance observer with CBF-QP safety
filters so that the filtered control keeps the system safe despite unknown
matched/unmatched disturbances, with a quantified estimation-error envelope.
"""

from .model import (BarrierSpec, ControlAffineSystem, DimensionError,
                    ParameterError, coeffs_from_poles, lie_derivatives,
                    s_sequence)
from .observer import (GainReport, ObserverConfig, ObserverState,
                       error_envelope, estimate, initial_state, validate_gain)
from .qp import INACTIVE, ACTIVE, INFEASIBLE, QpInstance, QpResult, solve
from .filters import (Decision, FilterParams, NoFilter, ParamReport, QpFilter,
                      validate_params)
from .simulate import (DisturbanceSignal, IntegrationError, SimConfig, Term,
                       TrajectoryLog, metrics, rk4_step, run_closed_loop)
from .el import (ELFilterParams, ELQpFilter, ELRobustFilter, ELSystem,
                 TwoLinkArm, el_observer_config, guarded_decision,
                 kinetic_energy, pd_nominal, to_control_affine,
                 validate_el_params, violation_floor)
from .scenarios import ConfigError, SCENARIOS, Scenario, build, resolve_config

__version__ = "0.1.0"
