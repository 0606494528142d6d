"""Environment wrappers that glue dynamics, reward machinery and feature
recipes behind one array-based interface.

A rollout's state is one float matrix with a row per state coordinate and
a column per lane: x, y, psi, v_prev, delta_prev for the vehicle and p,
p_dot, theta, theta_dot for the cart-pole.  The first four rows are the
goal coordinates in ``Task.z_goal`` order.  The lanes of one rollout are
(task, candidate) pairs in task-major order: with n candidates, lane
k * n + i runs task k with candidate i, so one rollout serves a whole task
list.  Every method works for a batch of lanes in lockstep, and for one
lane during replay; each row is contiguous, so a lane drops out of the
batch with one column selection.  ``constants`` gathers what a rollout
needs at every step once per call: a goal and tolerance column per lane
(the task's own goal column and floats when all lanes run one task), the
feature scales and the control bounds.  Each lane is computed independently, so results are
bit-identical no matter how candidates and tasks are grouped into batches.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, reward, tasks
from .dynamics import ActuatorLimits, PendulumParams, VehicleParams, wrap_angle
from .policy import affine_scale, control_bounds, control_intervals
from .reward import VvcConfig


@dataclass(frozen=True)
class RolloutConstants:
    """Per-call constants of a rollout over a task list in one environment.

    When all lanes run one task, ``goal`` is its (4, 1) column and
    ``z_goal`` and ``tol`` hold its floats; otherwise ``goal`` has a column
    per lane and ``z_goal`` and ``tol`` hold per-lane rows.  ``compact``
    keeps the columns of the live lanes.
    """

    recipe: str               # the feature recipe all tasks share
    goal: np.ndarray          # (4, 1 or lanes) goal columns
    z_goal: tuple             # x, y, psi and v of the goal: floats or goal's rows
    tol: tuple                # eps_d, eps_psi and eps_v: floats or per-lane rows
    scale: np.ndarray         # (4, 1) feature normalization column
    bounds: tuple = ()        # vehicle: control_bounds columns of v and delta

    def compact(self, keep):
        """The constants of the lanes ``keep`` (indices into the live lanes)."""
        if isinstance(self.tol[0], float):
            return self  # one task: its column and floats serve any lanes
        goal = self.goal[:, keep]
        return replace(self, goal=goal, z_goal=tuple(goal),
                       tol=tuple(row[keep] for row in self.tol))


def _constants(task_list, n, scale, bounds=()):
    recipes = {task.feature_recipe for task in task_list}
    if len(recipes) != 1:
        raise ValueError(f"the tasks of one rollout must share a feature recipe, "
                         f"got {sorted(recipes)}")
    tols = [(t.tol.eps_d, t.tol.eps_psi, t.tol.eps_v) for t in task_list]
    if len(task_list) == 1:
        # floats, not one-element rows: array-to-float arithmetic is the
        # cheaper numpy call, and one-task rollouts are per-step bound
        z_goal = task_list[0].z_goal
        return RolloutConstants(recipes.pop(), np.array(z_goal)[:, None], z_goal,
                                tols[0], scale, bounds)
    goal = np.repeat(np.array([task.z_goal for task in task_list]).T, n, axis=1)
    tol = np.repeat(np.array(tols).T, n, axis=1)
    return RolloutConstants(recipes.pop(), goal, tuple(goal), tuple(tol), scale, bounds)


def _initial_state(task_list, extra_rows, n):
    columns = np.array([task.z0 + (0.0,) * extra_rows for task in task_list]).T
    columns[2] = wrap_angle(columns[2])
    return np.repeat(columns, n, axis=1)


class VehicleEnv:
    kind = tasks.VEHICLE
    control_dim = 2
    csv_columns = ("t", "x", "y", "psi", "v", "delta")

    def __init__(self, params: VehicleParams = VehicleParams(),
                 limits: ActuatorLimits = ActuatorLimits(),
                 vvc: VvcConfig = VvcConfig(),
                 norm: tasks.VehicleNorm = tasks.VehicleNorm()):
        self.params = params
        self.limits = limits
        self.vvc = vvc
        self.norm = norm

    def feature_dim(self, task):
        return tasks.RECIPE_DIMS[task.feature_recipe]

    def constants(self, task_list, n):
        """Constants of a rollout of n candidates on each task of the list."""
        return _constants(task_list, n, tasks.norm_column(self.norm),
                          control_bounds(self.limits, self.params.Ts))

    def init_arrays(self, task_list, n):
        """(5, tasks * n) state: x, y, psi, v_prev, delta_prev."""
        return _initial_state(task_list, 1, n)

    def goal_mask(self, S, c):
        e_d, e_psi, e_v = reward.goal_errors(S[:4], c.goal)
        eps_d, eps_psi, eps_v = c.tol
        return (e_d < eps_d) & (e_psi < eps_psi) & (e_v < eps_v)

    def features_arrays(self, S, c, last_raw, out=None):
        steer = last_raw if c.recipe == tasks.GOAL5 else None
        return tasks.vehicle_features(S[:4], c.goal, c.scale, steer, out)

    def apply_arrays(self, S, raw, c):
        """Next state, applied controls (its v and delta rows), pathlength
        increment and crash-or-non-finite flag of one step."""
        lim = self.limits
        vvc_box = None
        if self.vvc.mode != reward.VVC_OFF:
            d = c.goal[:2] - S[:2]
            vvc_box = reward.vvc_bounds(np.hypot(d[0], d[1]), c.z_goal[3],
                                        lim.v_min, lim.v_max, self.vvc)
        lo, hi = control_intervals(S[3:], c.bounds, vvc_box)
        nxt = np.empty(S.shape)
        controls = affine_scale(raw.T, lo, hi, out=nxt[3:])
        dynamics.step_bicycle_arrays(S[:3], controls[0], controls[1], self.params,
                                     out=nxt[:3])
        d = nxt[:2] - S[:2]
        dp = -np.hypot(d[0], d[1])
        crash = dynamics.crash_check_arrays(nxt[0], nxt[1], self.params)
        return nxt, controls, dp, crash | ~np.isfinite(nxt[:3]).all(0)


class PendulumEnv:
    kind = tasks.PENDULUM
    control_dim = 1
    csv_columns = ("t", "p", "p_dot", "theta", "theta_dot", "force")

    def __init__(self, params: PendulumParams = PendulumParams(),
                 norm: tasks.PendulumNorm = tasks.PendulumNorm()):
        self.params = params
        self.norm = norm

    def feature_dim(self, task):
        return tasks.RECIPE_DIMS[task.feature_recipe]

    def constants(self, task_list, n):
        """Constants of a rollout of n candidates on each task of the list."""
        return _constants(task_list, n, tasks.norm_column(self.norm))

    def init_arrays(self, task_list, n):
        """(4, tasks * n) state: p, p_dot, theta, theta_dot."""
        return _initial_state(task_list, 0, n)

    def goal_mask(self, S, c):
        # stabilization succeeds on the pole angle alone
        return np.abs(wrap_angle(S[2] - c.z_goal[2])) < c.tol[1]

    def features_arrays(self, S, c, last_raw, out=None):
        return tasks.pendulum_features(S, c.scale, out)

    def apply_arrays(self, S, raw, c):
        """Next state, applied force as a (1, lanes) row, pathlength
        increment and crash-or-non-finite flag of one step."""
        f_max = self.params.f_max
        force = affine_scale(raw[:, 0], -f_max, f_max)
        nxt = dynamics.step_pendulum_arrays(S, force, self.params)
        dp = -np.abs(nxt[0] - S[0])
        crash = np.abs(nxt[0]) > self.params.p_limit
        return nxt, force[None], dp, crash | ~np.isfinite(nxt).all(0)
