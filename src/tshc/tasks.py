"""Task definitions and generators, feature recipes, control mirroring and
the trained-goal tuple store with nearest-setpoint lookup."""

import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import wrap_angle
from .reward import Tolerances, goal_difference, goal_errors

VEHICLE = "vehicle"
PENDULUM = "pendulum"

# feature recipes
GOAL4 = "goal4"          # normalized goal differences (x, y, psi, v)
GOAL5 = "goal5"          # goal4 plus the previous raw steering output
PENDULUM4 = "pendulum4"  # normalized (p, p_dot, theta, theta_dot)

RECIPE_DIMS = {GOAL4: 4, GOAL5: 5, PENDULUM4: 4}
RECIPE_KINDS = {GOAL4: VEHICLE, GOAL5: VEHICLE, PENDULUM4: PENDULUM}  # the plant each reads

# only tolerance set published for vehicle tasks: 0.25 m, 1 deg, 5 km/h
DEFAULT_VEHICLE_TOL = Tolerances(0.25, math.radians(1.0), 5.0 / 3.6)
# pendulum success is angle-only: upright within 12 deg
DEFAULT_PENDULUM_TOL = Tolerances(1.0, math.radians(12.0), 1.0)

UPRIGHT = (0.0, 0.0, 0.0, 0.0)
HANGING = (0.0, 0.0, math.pi, 0.0)


@dataclass(frozen=True)
class Task:
    id: str
    env_kind: str
    z0: tuple
    z_goal: tuple
    tol: Tolerances
    feature_recipe: str
    t_max: int | None = None   # optional per-task horizon override
    t_goal: int | None = None  # optional per-task success-window override

    def __post_init__(self):
        if self.env_kind not in (VEHICLE, PENDULUM):
            raise ValueError(f"env_kind: unknown kind {self.env_kind!r}")
        if RECIPE_KINDS.get(self.feature_recipe) != self.env_kind:
            raise ValueError(f"feature_recipe: {self.feature_recipe!r} is not a "
                             f"{self.env_kind} recipe")
        z0 = tuple(float(v) for v in self.z0)
        z_goal = tuple(float(v) for v in self.z_goal)
        if len(z0) != 4 or len(z_goal) != 4:
            raise ValueError("z0 and z_goal must have 4 entries")
        if not (np.all(np.isfinite(z0)) and np.all(np.isfinite(z_goal))):
            raise ValueError("task states must be finite")
        for name in ("t_max", "t_goal"):
            steps = getattr(self, name)
            if steps is not None and (type(steps) is not int or steps < 1):
                raise ValueError(f"{name} must be unset or an integer >= 1, got {steps!r}")
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "z_goal", z_goal)


@dataclass(frozen=True)
class GoalTuple:
    z_hat_goal: tuple  # achieved terminal state at training time
    z_goal: tuple      # commanded goal
    task_id: str = ""

    def __post_init__(self):
        # a NaN achieved point would win every nearest-setpoint lookup
        if not all(map(math.isfinite, self.z_hat_goal + self.z_goal)):
            raise ValueError("goal tuple states must be finite")


class _Norm:
    """Feature scales, each one dividing a feature: positive, so that no
    feature is infinite or mirrored."""

    def __post_init__(self):
        for name, scale in dataclasses.asdict(self).items():
            if not scale > 0.0:
                raise ValueError(f"{name}: normalization scale must be positive, got {scale}")


@dataclass(frozen=True)
class VehicleNorm(_Norm):
    dx: float = 20.0
    dy: float = 20.0
    dpsi: float = math.pi
    dv: float = 10.0


@dataclass(frozen=True)
class PendulumNorm(_Norm):
    dp: float = 2.4
    dp_dot: float = 3.0
    dtheta: float = math.pi
    dtheta_dot: float = 4.0 * math.pi


def norm_column(norm):
    """(4, 1) column of a VehicleNorm's or PendulumNorm's scales."""
    return np.array([[v] for v in dataclasses.astuple(norm)])


def vehicle_features(d, scale, last_raw_steer=None, out=None):
    """Normalized goal differences, one row per lane.

    ``d`` is a goal difference of ``reward.goal_difference`` (its heading
    row wrapped) and ``scale`` a (4, 1) column.  With ``last_raw_steer``
    the previous raw steering output is the fifth column.  Writes to
    ``out``, a (lanes, 4 or 5) array, when given.
    """
    if out is None:
        out = np.empty((d.shape[1], 4 if last_raw_steer is None else 5))
    np.divide(d, scale, out=out.T[:4])
    if last_raw_steer is not None:
        out[:, 4] = last_raw_steer
    return out


def pendulum_features(z, scale, out=None):
    """Normalized (p, p_dot, theta, theta_dot) of the state rows ``z``, one
    row per lane; writes to ``out`` when given."""
    if out is None:
        out = np.empty(z.shape[::-1])
    np.divide(z, scale, out=out.T)
    return out


def _signs(*values):
    signs = np.array(values)
    signs.flags.writeable = False
    return signs


# x-axis reflection of the features (y and heading differences and, for
# the 5-feature recipe, the previous raw steering flip) and of the raw
# controls (steering flips); multiplying by -1.0 negates exactly
_MIRROR_FEATURES = {GOAL4: _signs(1.0, -1.0, -1.0, 1.0),
                    GOAL5: _signs(1.0, -1.0, -1.0, 1.0, -1.0)}
_MIRROR_CONTROL = _signs(1.0, -1.0)


def check_mirror(env):
    """``ValueError`` unless mirroring reflects a rollout in ``env``: only a
    vehicle's, through the x-axis, which maps its steering box onto itself
    only when the steering limits are symmetric."""
    if env.kind != VEHICLE:
        raise ValueError(f"mirroring is defined for vehicle envs, not {env.kind} ones")
    lim = env.limits
    if lim.delta_min != -lim.delta_max or lim.deltadot_min != -lim.deltadot_max:
        raise ValueError(f"mirroring needs symmetric steering limits, but the env has "
                         f"steer [{lim.delta_min!r}, {lim.delta_max!r}] and steer_rate "
                         f"[{lim.deltadot_min!r}, {lim.deltadot_max!r}]")


def mirror_features(features, recipe: str):
    """Reflect vehicle features about the x-axis: negate the y and heading
    differences and, for the 5-feature recipe, the previous raw steering."""
    return np.multiply(features, _MIRROR_FEATURES[recipe])


def mirror_control(control_raw):
    """Negate the raw steering channel; velocity channel unchanged."""
    return np.multiply(control_raw, _MIRROR_CONTROL)


def mirror_goal(z_goal):
    x, y, psi, v = z_goal
    return (x, -y, float(wrap_angle(-psi)), v)


def mirror_task(task: Task) -> Task:
    """The x-axis reflection of a vehicle task."""
    if task.env_kind != VEHICLE:
        raise ValueError("mirroring applies to vehicle tasks only")
    return replace(task, id=task.id + "~mirror", z0=mirror_goal(task.z0),
                   z_goal=mirror_goal(task.z_goal))


def freeform_task(z0, z_goal, tol: Tolerances = DEFAULT_VEHICLE_TOL,
                  feature_recipe: str = GOAL4, task_id: str = "freeform") -> Task:
    return Task(task_id, VEHICLE, tuple(z0), tuple(z_goal), tol, feature_recipe)


def heading_grid(step_deg: float = 1.0, max_deg: float = 180.0,
                 tol: Tolerances = DEFAULT_VEHICLE_TOL) -> list:
    """Heading-change tasks from the origin: goal [0, 0, psi_goal, 0] for
    psi_goal in {0, step, 2*step, ..., max} degrees."""
    if not 0.0 < step_deg <= max_deg <= 180.0:
        raise ValueError("need 0 < step <= max <= 180 degrees")
    tasks = []
    n = int(math.floor(max_deg / step_deg + 1e-9))
    for k in range(n + 1):
        deg = k * step_deg
        tasks.append(Task(f"heading{deg:g}", VEHICLE,
                          (0.0, 0.0, 0.0, 0.0),
                          (0.0, 0.0, math.radians(deg), 0.0),
                          tol, GOAL5))
    return tasks


def pendulum_tasks(kind: str = "both", tol: Tolerances = DEFAULT_PENDULUM_TOL,
                   t_goal: int | None = None) -> list:
    """Upright stabilization and/or swing-up tasks for the cart-pole."""
    stabilize = Task("stabilize", PENDULUM, UPRIGHT, UPRIGHT, tol, PENDULUM4,
                     t_goal=t_goal)
    swingup = Task("swingup", PENDULUM, HANGING, UPRIGHT, tol, PENDULUM4,
                   t_goal=t_goal)
    if kind == "stabilize":
        return [stabilize]
    if kind == "swingup":
        return [swingup]
    if kind == "both":
        return [stabilize, swingup]
    raise ValueError(f"unknown pendulum task kind {kind!r}")


# weighted distance used by the setpoint lookup: 1 per metre, 0.1 per degree
# of heading error, 1 per m/s
LOOKUP_WEIGHTS = (1.0, 0.1 * 180.0 / math.pi, 1.0)


def nearest_goal_lookup(setpoint, store) -> GoalTuple:
    """Stored tuple whose achieved goal is closest to the setpoint.

    Distance is w_d * e_d + w_psi * e_psi + w_v * e_v; ties resolve to the
    lowest index.
    """
    if not store:
        raise ValueError("goal-tuple store is empty")
    achieved = np.array([tup.z_hat_goal for tup in store], dtype=float).T
    point = np.array(setpoint, dtype=float)[:, None]
    e_d, e_psi, e_v = goal_errors(goal_difference(point, achieved))
    w_d, w_psi, w_v = LOOKUP_WEIGHTS
    return store[int(np.argmin(w_d * e_d + w_psi * e_psi + w_v * e_v))]
