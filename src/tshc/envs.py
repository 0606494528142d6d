"""Environment wrappers that glue dynamics, reward machinery and feature
recipes behind one array-based interface.

A rollout's state is one float matrix with a row per state coordinate and
a column per lane: x, y, psi, v_prev, delta_prev for the vehicle and p,
p_dot, theta, theta_dot for the cart-pole.  The first four rows are the
goal coordinates in ``Task.z_goal`` order.  Every method works for a batch
of n rollouts in lockstep, and for n == 1 during replay; each row is
contiguous, so a lane drops out of the batch with one column selection.
``constants`` gathers what a rollout of one task needs at every step (goal
and scale columns, control bounds), once per rollout.  Each batch lane is
computed independently, so results are bit-identical no matter how
candidates are grouped into batches.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics, reward, tasks
from .dynamics import ActuatorLimits, PendulumParams, VehicleParams, wrap_angle
from .policy import affine_scale, control_bounds, control_intervals
from .reward import VvcConfig


@dataclass(frozen=True)
class RolloutConstants:
    """Per-rollout constants of one task in one environment."""

    task: tasks.Task
    goal: np.ndarray          # (4, 1) goal column
    scale: np.ndarray         # (4, 1) feature normalization column
    bounds: tuple = ()        # vehicle: control_bounds columns of v and delta


def _goal_column(task):
    return np.array(task.z_goal)[:, None]


def _initial_state(z0, extra_rows, n):
    column = np.array(z0 + (0.0,) * extra_rows)
    column[2] = wrap_angle(column[2])
    return np.repeat(column[:, None], n, axis=1)


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

    def constants(self, task):
        return RolloutConstants(task, _goal_column(task), tasks.norm_column(self.norm),
                                control_bounds(self.limits, self.params.Ts))

    def init_arrays(self, task, n):
        """(5, n) state: x, y, psi, v_prev, delta_prev."""
        return _initial_state(task.z0, 1, n)

    def goal_mask(self, S, c):
        e_d, e_psi, e_v = reward.goal_errors(S[:4], c.goal)
        tol = c.task.tol
        return (e_d < tol.eps_d) & (e_psi < tol.eps_psi) & (e_v < tol.eps_v)

    def features_arrays(self, S, c, last_raw, out=None):
        steer = last_raw if c.task.feature_recipe == tasks.GOAL5 else None
        return tasks.vehicle_features(S[:4], c.goal, c.scale, steer, out)

    def apply_arrays(self, S, raw, c):
        """Next state, applied controls (its v and delta rows), pathlength
        increment and crash-or-non-finite flag of one step."""
        lim = self.limits
        vvc_box = None
        if self.vvc.mode != reward.VVC_OFF:
            d = c.goal[:2] - S[:2]
            vvc_box = reward.vvc_bounds(np.hypot(d[0], d[1]), c.task.z_goal[3],
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

    def constants(self, task):
        return RolloutConstants(task, _goal_column(task), tasks.norm_column(self.norm))

    def init_arrays(self, task, n):
        """(4, n) state: p, p_dot, theta, theta_dot."""
        return _initial_state(task.z0, 0, n)

    def goal_mask(self, S, c):
        # stabilization succeeds on the pole angle alone
        return np.abs(wrap_angle(S[2] - c.task.z_goal[2])) < c.task.tol.eps_psi

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


def env_for_kind(kind, **kwargs):
    if kind == tasks.VEHICLE:
        return VehicleEnv(**kwargs)
    if kind == tasks.PENDULUM:
        return PendulumEnv(**kwargs)
    raise ValueError(f"unknown env kind {kind!r}")
