"""Task-separated hill climbing: encode deterministic motion tasks into
small neural-network controllers without gradients."""

from .dynamics import (ActuatorLimits, Control, PendulumParams, PendulumState,
                       VehicleParams, VehicleState, clamp_controls, step_bicycle,
                       step_pendulum, wrap_angle)
from .policy import MlpSpec, init_params, param_count
from .reward import Reward, Tolerances, VvcConfig, sparse_reward, vvc_bounds
from .tasks import (GoalTuple, Task, heading_grid, mirror_task, nearest_goal_lookup,
                    pendulum_tasks)
from .trainer import (BestSolution, CandidateScore, RolloutResult, TshcConfig,
                      adapt_sigma, draw_sigma, rollout, select_best, tshc_run)

__version__ = "0.1.0"
