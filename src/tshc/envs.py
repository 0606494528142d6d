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
batch with one column selection.  One call, ``start``, sets a rollout up:
it repeats each task's start state, goal and tolerance columns over its n
lanes (a column per lane, whatever the number of tasks; the goal's only
representation) and, for a constant-margin VVC, builds the control box
near the goal.  What no lane varies, the feature-scale column and the
vehicle's control bounds, an env builds once in ``__init__``; its params,
limits and norm are fixed.  A step observes the state once, ``observe``:
for the vehicle a (7, lanes) matrix, the goal difference (heading wrapped)
in rows 0-3 and its errors (distance, |d_psi|, |d_v|) in rows 4-6; for the
cart-pole its state itself.  The goal test, the features and the control
box with VVC all read it: the goal test is one comparison of the error
rows with the tolerance columns, the features read the difference rows
and the VVC reads the distance row, so a step forms each goal quantity
once.  The vehicle's control box is one intersection per step,
``control_intervals``, of the rate box around the previous controls with
an absolute box: the actuator limits, or near the goal the VVC box clipped
into them (picked per lane for a constant margin, built per step for a
spatial one).  Each lane is computed independently, so results are
bit-identical no matter how candidates and tasks are grouped into batches.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, reward, tasks
# apply_arrays calls control_intervals by this module's name, which perfbench wraps
from .dynamics import (ActuatorLimits, PendulumParams, VehicleParams, control_bounds,
                       control_intervals, scalar_array, wrap_angle)
from .policy import affine_scale
from .reward import VvcConfig


@dataclass(frozen=True)
class RolloutConstants:
    """Constants of a rollout over a task list in one environment, built
    by the env's ``start``: the lanes' columns and their feature recipe.

    ``goal`` and ``tol`` have a column per lane, the one representation of
    the goal that every step reads; ``tol`` holds eps_d, eps_psi and eps_v,
    the goal test's bounds on the rows of ``reward.goal_errors``.  ``near``
    is the vehicle's absolute control box inside a constant-margin VVC's
    ``r_thresh``, built once: (lo, hi) columns like ``goal``'s whose v row
    is the VVC box, clipped into the actuator's v box, and whose delta row
    is the steering limits.  ``compact`` keeps the columns of the live
    lanes.
    """

    recipe: str               # the feature recipe all tasks share
    goal: np.ndarray          # (4, lanes) goal columns
    tol: np.ndarray           # (3, lanes) eps_d, eps_psi and eps_v columns
    near: tuple = ()          # vehicle, constant-margin VVC: (2, lanes) box

    def compact(self, keep):
        """The constants of the lanes ``keep`` (indices into the live lanes)."""
        return RolloutConstants(self.recipe, self.goal[:, keep], self.tol[:, keep],
                                tuple(edge[:, keep] for edge in self.near))


def _start(task_list, n, extra_rows):
    """The (4 + extra_rows, lanes) start state, z0 with its heading wrapped
    and zero extra rows, and the constants of the lanes (see ``start``)."""
    recipes = {task.feature_recipe for task in task_list}
    if len(recipes) != 1:
        raise ValueError(f"the tasks of one rollout must share a feature recipe, "
                         f"got {sorted(recipes)}")
    S = np.array([task.z0 + (0.0,) * extra_rows for task in task_list]).T
    S[2] = wrap_angle(S[2])
    goal = np.array([task.z_goal for task in task_list]).T
    tol = np.array([(t.tol.eps_d, t.tol.eps_psi, t.tol.eps_v) for t in task_list]).T
    return np.repeat(S, n, axis=1), RolloutConstants(
        recipes.pop(), np.repeat(goal, n, axis=1), np.repeat(tol, n, axis=1))


# selects the v row of a (2, lanes) control box: a VVC narrows it only
_V_ROW = np.array([[True], [False]])


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
        self.feature_scale = tasks.norm_column(norm)
        self.control_bounds = control_bounds(limits, params.Ts)
        self.r_thresh = scalar_array(vvc.r_thresh)  # 0-d, as a constant-margin step reads it

    def start(self, task_list, n):
        """(5, tasks * n) state x, y, psi, v_prev, delta_prev and the
        constants of a rollout of n candidates on each task of the list.

        A lane starts from its task's speed at the nearest admissible one,
        inside [v_min, v_max], so that the first rate box lies inside the
        actuator box; delta_prev starts at 0."""
        S, c = _start(task_list, n, 1)
        lim = self.limits
        np.minimum(np.maximum(S[3], lim.v_min), lim.v_max, out=S[3])
        if self.vvc.mode != reward.VVC_CONSTANT:
            return S, c
        # the constant-margin box is the same everywhere inside r_thresh
        v_lo, v_hi = reward.vvc_bounds(0.0, c.goal[3], lim.v_min, lim.v_max, self.vvc)
        lo, hi = self.control_bounds[:2]
        return S, replace(c, near=(np.where(_V_ROW, v_lo, lo), np.where(_V_ROW, v_hi, hi)))

    def observe(self, S, c):
        """(7, lanes) observation of the state rows ``S``, read by the step:
        the goal difference in rows 0-3, its errors in rows 4-6."""
        obs = np.empty((7, S.shape[1]))
        reward.goal_errors(reward.goal_difference(S[:4], c.goal, out=obs[:4]), out=obs[4:])
        return obs

    def goal_mask(self, obs, c):
        return np.logical_and.reduce(obs[4:] < c.tol, axis=0)

    def features_arrays(self, obs, c, last_raw):
        steer = last_raw if c.recipe == tasks.GOAL5 else None
        return tasks.vehicle_features(obs[:4], self.feature_scale, steer)

    def apply_arrays(self, S, raw, c, obs):
        """Next state, applied controls (its v and delta rows), step length
        and crash flag of one step from ``S``, whose observation is ``obs``."""
        lo, hi, step_lo, step_hi = self.control_bounds
        if self.vvc.mode == reward.VVC_CONSTANT:
            far = obs[4] >= self.r_thresh
            lo, hi = np.where(far, lo, c.near[0]), np.where(far, hi, c.near[1])
        elif self.vvc.mode == reward.VVC_SPATIAL:
            lim = self.limits
            v_lo, v_hi = reward.vvc_bounds(obs[4], c.goal[3], lim.v_min, lim.v_max, self.vvc)
            lo, hi = np.where(_V_ROW, v_lo, lo), np.where(_V_ROW, v_hi, hi)
        lo, hi = control_intervals(S[3:], (lo, hi, step_lo, step_hi))
        nxt = np.empty(S.shape)
        controls = affine_scale(raw.T, lo, hi, out=nxt[3:])
        dynamics.step_bicycle_arrays(S[:3], controls[0], controls[1], self.params,
                                     out=nxt[:3])
        d = nxt[:2] - S[:2]
        return (nxt, controls, np.hypot(d[0], d[1]),
                dynamics.crash_check_arrays(nxt[:2], self.params))


class PendulumEnv:
    kind = tasks.PENDULUM
    control_dim = 1
    csv_columns = ("t", "p", "p_dot", "theta", "theta_dot", "force")

    def __init__(self, params: PendulumParams = PendulumParams(),
                 norm: tasks.PendulumNorm = tasks.PendulumNorm()):
        self.params = params
        self.norm = norm
        self.feature_scale = tasks.norm_column(norm)

    def start(self, task_list, n):
        """(4, tasks * n) state p, p_dot, theta, theta_dot and the constants
        of a rollout of n candidates on each task of the list."""
        return _start(task_list, n, 0)

    def observe(self, S, c):
        return S  # the goal test and the features read the state itself

    def goal_mask(self, obs, c):
        # stabilization succeeds on the pole angle alone
        return np.abs(wrap_angle(obs[2] - c.goal[2])) < c.tol[1]

    def features_arrays(self, obs, c, last_raw):
        return tasks.pendulum_features(obs, self.feature_scale)

    def apply_arrays(self, S, raw, c, obs):
        """Next state, applied force as a (1, lanes) row, step length of the
        cart and crash flag of one step."""
        a = self.params.arrays
        force = affine_scale(raw[:, 0], a.f_min, a.f_max)
        nxt = dynamics.step_pendulum_arrays(S, force, self.params)
        return nxt, force[None], np.abs(nxt[0] - S[0]), np.abs(nxt[0]) > a.p_limit
