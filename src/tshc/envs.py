"""Environment wrappers that glue dynamics, reward machinery and feature
recipes behind one array-based interface.

State is a dict of equally-shaped float arrays; every method works for a
batch of n rollouts in lockstep, and for n == 1 during replay.  Each
batch lane is computed independently, so results are bit-identical no
matter how candidates are grouped into batches.
"""

import numpy as np

from . import dynamics, reward, tasks
from .dynamics import ActuatorLimits, PendulumParams, VehicleParams, wrap_angle
from .policy import affine_scale, control_intervals
from .reward import VvcConfig


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

    def init_arrays(self, task, n):
        x0, y0, psi0, v0 = task.z0
        return {"x": np.full(n, x0), "y": np.full(n, y0),
                "psi": np.full(n, float(wrap_angle(psi0))),
                "v_prev": np.full(n, v0), "delta_prev": np.zeros(n)}

    def goal_mask(self, S, task):
        e_d, e_psi, e_v = reward.goal_errors(S["x"], S["y"], S["psi"],
                                             S["v_prev"], task.z_goal)
        tol = task.tol
        return (e_d < tol.eps_d) & (e_psi < tol.eps_psi) & (e_v < tol.eps_v)

    def features_arrays(self, S, task, last_raw):
        return tasks.vehicle_features(S["x"], S["y"], S["psi"], S["v_prev"],
                                      task, self.norm, last_raw)

    def apply_arrays(self, S, raw, task):
        lim = self.limits
        vvc_box = None
        if self.vvc.mode != reward.VVC_OFF:
            e_d = np.hypot(task.z_goal[0] - S["x"], task.z_goal[1] - S["y"])
            vvc_box = reward.vvc_bounds(e_d, task.z_goal[3],
                                        lim.v_min, lim.v_max, self.vvc)
        (v_lo, v_hi), (d_lo, d_hi) = control_intervals(
            S["v_prev"], S["delta_prev"], lim, self.params.Ts, vvc_box)
        v = affine_scale(raw[..., 0], v_lo, v_hi)
        delta = affine_scale(raw[..., 1], d_lo, d_hi)
        nx, ny, npsi = dynamics.step_bicycle_arrays(S["x"], S["y"], S["psi"],
                                                    v, delta, self.params)
        dp = -np.hypot(nx - S["x"], ny - S["y"])
        crash = dynamics.crash_check_arrays(nx, ny, self.params)
        nonfinite = ~(np.isfinite(nx) & np.isfinite(ny) & np.isfinite(npsi))
        next_state = {"x": nx, "y": ny, "psi": npsi, "v_prev": v, "delta_prev": delta}
        controls = np.stack([v, delta], axis=-1)
        return next_state, controls, dp, crash | nonfinite

    def rich_values(self, S, task, weights):
        gx, gy, gpsi, gv = task.z_goal
        a = np.asarray(weights, dtype=float)
        return -(a[0] * (S["x"] - gx) ** 2
                 + a[1] * (S["y"] - gy) ** 2
                 + a[2] * wrap_angle(S["psi"] - gpsi) ** 2
                 + a[3] * (S["v_prev"] - gv) ** 2)

    def terminal_state(self, S, i=0):
        return (float(S["x"][i]), float(S["y"][i]), float(S["psi"][i]),
                float(S["v_prev"][i]))


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

    def init_arrays(self, task, n):
        p0, pd0, th0, thd0 = task.z0
        return {"p": np.full(n, p0), "p_dot": np.full(n, pd0),
                "theta": np.full(n, float(wrap_angle(th0))),
                "theta_dot": np.full(n, thd0)}

    def goal_mask(self, S, task):
        # stabilization succeeds on the pole angle alone
        return np.abs(wrap_angle(S["theta"] - task.z_goal[2])) < task.tol.eps_psi

    def features_arrays(self, S, task, last_raw):
        return tasks.pendulum_features(S["p"], S["p_dot"], S["theta"],
                                       S["theta_dot"], self.norm)

    def apply_arrays(self, S, raw, task):
        f_max = self.params.f_max
        force = affine_scale(raw[..., 0], -f_max, f_max)
        np_, npd, nth, nthd = dynamics.step_pendulum_arrays(
            S["p"], S["p_dot"], S["theta"], S["theta_dot"], force, self.params)
        dp = -np.abs(np_ - S["p"])
        crash = np.abs(np_) > self.params.p_limit
        nonfinite = ~(np.isfinite(np_) & np.isfinite(npd)
                      & np.isfinite(nth) & np.isfinite(nthd))
        next_state = {"p": np_, "p_dot": npd, "theta": nth, "theta_dot": nthd}
        controls = force[..., None] if np.ndim(force) else np.array([force])
        return next_state, controls, dp, crash | nonfinite

    def rich_values(self, S, task, weights):
        gp, gpd, gth, gthd = task.z_goal
        a = np.asarray(weights, dtype=float)
        return -(a[0] * (S["p"] - gp) ** 2
                 + a[1] * (S["p_dot"] - gpd) ** 2
                 + a[2] * wrap_angle(S["theta"] - gth) ** 2
                 + a[3] * (S["theta_dot"] - gthd) ** 2)

    def terminal_state(self, S, i=0):
        return (float(S["p"][i]), float(S["p_dot"][i]), float(S["theta"][i]),
                float(S["theta_dot"][i]))


def env_for_kind(kind, **kwargs):
    if kind == tasks.VEHICLE:
        return VehicleEnv(**kwargs)
    if kind == tasks.PENDULUM:
        return PendulumEnv(**kwargs)
    raise ValueError(f"unknown env kind {kind!r}")
