"""Deterministic discrete-time simulators: kinematic bicycle and cart-pole.

The ``*_arrays`` kernels work elementwise on numpy arrays and serve every
rollout, batched or a one-lane replay; the single-state wrappers over them
(``step_bicycle``, ``step_pendulum``, ``clamp_controls``) serve test oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Wrap an angle (scalar or array) to (-pi, pi]."""
    return a - TWO_PI * np.ceil((a - math.pi) / TWO_PI)


@dataclass(frozen=True)
class Control:
    v: float
    delta: float


@dataclass(frozen=True)
class ActuatorLimits:
    """Absolute and rate bounds for velocity and steering."""

    v_min: float = -10.0
    v_max: float = 10.0
    vdot_min: float = -8.0
    vdot_max: float = 5.0
    delta_min: float = -math.radians(40.0)
    delta_max: float = math.radians(40.0)
    deltadot_min: float = -math.radians(40.0)
    deltadot_max: float = math.radians(40.0)

    def __post_init__(self):
        for lo, hi in ((self.v_min, self.v_max), (self.vdot_min, self.vdot_max),
                       (self.delta_min, self.delta_max),
                       (self.deltadot_min, self.deltadot_max)):
            if not lo < hi:
                raise ValueError(f"limit pair must satisfy min < max, got ({lo}, {hi})")


@dataclass(frozen=True)
class VehicleParams:
    l_f: float = 3.5
    Ts: float = 0.01
    workspace: tuple = (-100.0, -100.0, 100.0, 100.0)  # (xmin, ymin, xmax, ymax)
    obstacles: tuple = ()  # tuples of (xmin, ymin, xmax, ymax)

    def __post_init__(self):
        if self.l_f <= 0.0:
            raise ValueError("wheelbase must be positive")
        if self.Ts <= 0.0:
            raise ValueError("sampling time must be positive")
        xmin, ymin, xmax, ymax = self.workspace
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("workspace box is degenerate")


@dataclass(frozen=True)
class VehicleState:
    x: float
    y: float
    psi: float
    v_prev: float = 0.0
    delta_prev: float = 0.0
    t: int = 0


@dataclass(frozen=True)
class PendulumParams:
    m_cart: float = 1.0
    m_pole: float = 0.1
    half_length: float = 0.5
    g: float = 9.8
    f_max: float = 10.0
    Ts: float = 0.02
    p_limit: float = 2.4  # track half-length; leaving it counts as a crash


@dataclass(frozen=True)
class PendulumState:
    p: float
    p_dot: float
    theta: float  # 0 = upright, wrapped to (-pi, pi]
    theta_dot: float
    t: int = 0


def rate_limited_interval(prev, abs_min, abs_max, rate_min, rate_max, Ts):
    """Intersection of absolute and rate boxes around the previous command.

    If the intersection is empty (the rate box lies fully outside the
    absolute box), collapses to the rate-feasible endpoint nearest the
    absolute box.  Works elementwise on arrays.
    """
    rate_lo = prev + rate_min * Ts
    rate_hi = prev + rate_max * Ts
    lo = np.maximum(rate_lo, abs_min)
    hi = np.minimum(rate_hi, abs_max)
    empty = lo > hi
    nearest = np.where(rate_lo > abs_max, rate_lo, rate_hi)
    lo = np.where(empty, nearest, lo)
    hi = np.where(empty, nearest, hi)
    return lo, hi


def intersect_interval(lo, hi, other_lo, other_hi):
    """Intersect [lo, hi] with [other_lo, other_hi] elementwise.

    An empty intersection collapses to the point of [lo, hi] nearest the
    other interval.
    """
    new_lo = np.maximum(lo, other_lo)
    new_hi = np.minimum(hi, other_hi)
    empty = new_lo > new_hi
    nearest = np.where(hi < other_lo, hi, lo)
    new_lo = np.where(empty, nearest, new_lo)
    new_hi = np.where(empty, nearest, new_hi)
    return new_lo, new_hi


def clamp_controls(raw: Control, prev: Control, lim: ActuatorLimits, Ts: float) -> Control:
    """Project a raw command onto the admissible absolute-and-rate box."""
    v_lo, v_hi = rate_limited_interval(prev.v, lim.v_min, lim.v_max,
                                       lim.vdot_min, lim.vdot_max, Ts)
    d_lo, d_hi = rate_limited_interval(prev.delta, lim.delta_min, lim.delta_max,
                                       lim.deltadot_min, lim.deltadot_max, Ts)
    return Control(float(np.clip(raw.v, v_lo, v_hi)),
                   float(np.clip(raw.delta, d_lo, d_hi)))


def step_bicycle_arrays(x, y, psi, v, delta, params: VehicleParams):
    """One Euler step of the kinematic bicycle model, elementwise."""
    Ts = params.Ts
    nx = x + Ts * v * np.cos(psi)
    ny = y + Ts * v * np.sin(psi)
    npsi = wrap_angle(psi + Ts * (v / params.l_f) * np.tan(delta))
    return nx, ny, npsi


def step_bicycle(s: VehicleState, a: Control, p: VehicleParams) -> VehicleState:
    nx, ny, npsi = step_bicycle_arrays(s.x, s.y, s.psi, a.v, a.delta, p)
    return VehicleState(float(nx), float(ny), float(npsi), a.v, a.delta, s.t + 1)


def crash_check_arrays(x, y, params: VehicleParams):
    """1 where (x, y) left the workspace or entered an obstacle, else 0."""
    xmin, ymin, xmax, ymax = params.workspace
    out = (x < xmin) | (x > xmax) | (y < ymin) | (y > ymax)
    for oxmin, oymin, oxmax, oymax in params.obstacles:
        out = out | ((x >= oxmin) & (x <= oxmax) & (y >= oymin) & (y <= oymax))
    return out


def pendulum_accelerations(theta, theta_dot, force, params: PendulumParams):
    """Cart and pole angular accelerations; theta measured from upright."""
    m_total = params.m_cart + params.m_pole
    ml = params.m_pole * params.half_length
    sin = np.sin(theta)
    cos = np.cos(theta)
    tmp = (force + ml * theta_dot * theta_dot * sin) / m_total
    theta_acc = (params.g * sin - cos * tmp) / (
        params.half_length * (4.0 / 3.0 - params.m_pole * cos * cos / m_total))
    p_acc = tmp - ml * theta_acc * cos / m_total
    return p_acc, theta_acc


def step_pendulum_arrays(p, p_dot, theta, theta_dot, force, params: PendulumParams):
    p_acc, theta_acc = pendulum_accelerations(theta, theta_dot, force, params)
    Ts = params.Ts
    return (p + Ts * p_dot,
            p_dot + Ts * p_acc,
            wrap_angle(theta + Ts * theta_dot),
            theta_dot + Ts * theta_acc)


def step_pendulum(s: PendulumState, force: float, params: PendulumParams) -> PendulumState:
    np_, npd, nth, nthd = step_pendulum_arrays(s.p, s.p_dot, s.theta, s.theta_dot,
                                               force, params)
    return PendulumState(float(np_), float(npd), float(nth), float(nthd), s.t + 1)


def pendulum_energy(s: PendulumState, params: PendulumParams) -> float:
    """Total mechanical energy (uniform-rod pole), for integration checks."""
    l = params.half_length
    vx = s.p_dot + l * s.theta_dot * math.cos(s.theta)
    vy = -l * s.theta_dot * math.sin(s.theta)
    i_cm = params.m_pole * l * l / 3.0
    kinetic = (0.5 * params.m_cart * s.p_dot ** 2
               + 0.5 * params.m_pole * (vx * vx + vy * vy)
               + 0.5 * i_cm * s.theta_dot ** 2)
    potential = params.m_pole * params.g * l * math.cos(s.theta)
    return kinetic + potential
