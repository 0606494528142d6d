"""Deterministic discrete-time simulators: kinematic bicycle and cart-pole.

The ``*_arrays`` kernels take a state's coordinates as the rows of one
array, elementwise over its lanes (columns), and serve every rollout,
batched or a one-lane replay; the single-state wrappers over them
(``step_bicycle``, ``step_pendulum``, ``clamp_controls``) serve test oracles.

The constants a step reads are 0-d float64 arrays (``scalar_array``, and the
``arrays`` of the plant parameters): a ufunc takes one faster than a
Python float, with the same bits, and a step makes dozens of such calls
on a handful of lanes.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np


def scalar_array(value):
    """``value`` as a read-only 0-d float64 array."""
    a = np.array(float(value))
    a.setflags(write=False)
    return a


def scalar_arrays(**values):
    """A namespace of ``scalar_array``s, one per keyword."""
    return SimpleNamespace(**{name: scalar_array(v) for name, v in values.items()})


PI = scalar_array(math.pi)
TWO_PI = scalar_array(2.0 * math.pi)


def wrap_angle(a, out=None):
    """Wrap an angle (scalar or array) to (-pi, pi]; ``out`` may be ``a``."""
    return np.subtract(a, TWO_PI * np.ceil((a - PI) / TWO_PI), out=out)


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
        for i, box in enumerate((self.workspace, *self.obstacles)):
            xmin, ymin, xmax, ymax = box
            if not (xmin < xmax and ymin < ymax):
                name = f"obstacles[{i - 1}]" if i else "workspace"
                raise ValueError(f"{name} box {tuple(box)} is degenerate: "
                                 f"need xmin < xmax and ymin < ymax")

    @cached_property
    def arrays(self):
        """``Ts`` and ``l_f`` as 0-d arrays, what a bicycle step reads."""
        return scalar_arrays(Ts=self.Ts, l_f=self.l_f)

    @cached_property
    def boxes(self):
        """(2, 1) low and high corner columns of the workspace, then a pair
        per obstacle: what ``crash_check_arrays`` compares positions with."""
        return tuple((np.array([[xmin], [ymin]]), np.array([[xmax], [ymax]]))
                     for xmin, ymin, xmax, ymax in (self.workspace, *self.obstacles))


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

    def __post_init__(self):
        for name in ("m_cart", "m_pole", "half_length", "Ts", "f_max", "p_limit"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @cached_property
    def arrays(self):
        """The constants a cart-pole step reads, as 0-d arrays."""
        return scalar_arrays(
            m_pole=self.m_pole, half_length=self.half_length, g=self.g, Ts=self.Ts,
            m_total=self.m_cart + self.m_pole, ml=self.m_pole * self.half_length,
            four_thirds=4.0 / 3.0, f_min=-self.f_max, f_max=self.f_max,
            p_limit=self.p_limit)


@dataclass(frozen=True)
class PendulumState:
    p: float
    p_dot: float
    theta: float  # 0 = upright, wrapped to (-pi, pi]
    theta_dot: float
    t: int = 0


def intersect_interval(lo, hi, other_lo, other_hi):
    """Intersect [lo, hi] with [other_lo, other_hi] elementwise.

    An empty intersection collapses to the point of [lo, hi] nearest the
    other interval.
    """
    new_lo = np.maximum(lo, other_lo)
    new_hi = np.minimum(hi, other_hi)
    empty = new_lo > new_hi
    if np.count_nonzero(empty):
        nearest = np.where(hi < other_lo, hi, lo)
        new_lo = np.where(empty, nearest, new_lo)
        new_hi = np.where(empty, nearest, new_hi)
    return new_lo, new_hi


def control_bounds(lim: ActuatorLimits, Ts):
    """(2, 1) columns of the v and delta channels: absolute minimum and
    maximum, then the largest step down and up in one sample (rate * Ts)."""
    return (np.array([[lim.v_min], [lim.delta_min]]),
            np.array([[lim.v_max], [lim.delta_max]]),
            np.array([[lim.vdot_min * Ts], [lim.deltadot_min * Ts]]),
            np.array([[lim.vdot_max * Ts], [lim.deltadot_max * Ts]]))


def control_intervals(prev, bounds):
    """Admissible [lo, hi] of the v (row 0) and delta (row 1) channels: the
    rate box around the previous commands ``prev``, a (2, lanes) array,
    intersected with the absolute box.  ``bounds`` holds the four columns of
    ``control_bounds``, whose absolute box may instead hold a column per
    lane: a VVC box clipped into the actuator's v box narrows its row 0."""
    lo, hi, step_lo, step_hi = bounds
    return intersect_interval(prev + step_lo, prev + step_hi, lo, hi)


def clamp_controls(raw: Control, prev: Control, lim: ActuatorLimits, Ts: float) -> Control:
    """Project a raw command onto the box of ``control_intervals``."""
    lo, hi = control_intervals(np.array([[prev.v], [prev.delta]]), control_bounds(lim, Ts))
    return Control(*np.clip([[raw.v], [raw.delta]], lo, hi)[:, 0].tolist())


def step_bicycle_arrays(pose, v, delta, params: VehicleParams, out=None):
    """One Euler step of the kinematic bicycle model.

    ``pose`` holds x, y and psi as its rows, elementwise over the lanes;
    the next pose is written to ``out`` (a new array by default).
    """
    x, y, psi = pose
    if out is None:
        out = np.empty(np.shape(pose))
    a = params.arrays
    tv = a.Ts * v
    np.add(x, tv * np.cos(psi), out=out[0])
    np.add(y, tv * np.sin(psi), out=out[1])
    np.add(psi, a.Ts * (v / a.l_f) * np.tan(delta), out=out[2])
    wrap_angle(out[2], out=out[2])
    return out


def step_bicycle(s: VehicleState, a: Control, p: VehicleParams) -> VehicleState:
    pose = np.array([[s.x], [s.y], [s.psi]])
    nx, ny, npsi = step_bicycle_arrays(pose, a.v, a.delta, p)[:, 0].tolist()
    return VehicleState(nx, ny, npsi, a.v, a.delta, s.t + 1)


def crash_check_arrays(xy, params: VehicleParams):
    """1 where a position left the workspace or entered an obstacle, else 0;
    ``xy`` holds x and y as its rows, elementwise over the lanes."""
    (lo, hi), *obstacles = params.boxes
    out = np.logical_or.reduce((xy < lo) | (xy > hi), axis=0)
    for lo, hi in obstacles:
        out |= np.logical_and.reduce((xy >= lo) & (xy <= hi), axis=0)
    return out


def pendulum_accelerations(theta, theta_dot, force, params: PendulumParams):
    """Cart and pole angular accelerations; theta measured from upright."""
    a = params.arrays
    sin = np.sin(theta)
    cos = np.cos(theta)
    tmp = (force + a.ml * theta_dot * theta_dot * sin) / a.m_total
    theta_acc = (a.g * sin - cos * tmp) / (
        a.half_length * (a.four_thirds - a.m_pole * cos * cos / a.m_total))
    p_acc = tmp - a.ml * theta_acc * cos / a.m_total
    return p_acc, theta_acc


def step_pendulum_arrays(z, force, params: PendulumParams):
    """One Euler step of the cart-pole, ``z + Ts * dz/dt``.

    ``z`` holds p, p_dot, theta and theta_dot as its rows, elementwise over
    the lanes; returns the next states in the same layout.
    """
    rate = np.empty(np.shape(z))
    rate[0::2] = z[1::2]  # p_dot, theta_dot
    rate[1], rate[3] = pendulum_accelerations(z[2], z[3], force, params)
    nxt = z + params.arrays.Ts * rate
    wrap_angle(nxt[2], out=nxt[2])
    return nxt


def step_pendulum(s: PendulumState, force: float, params: PendulumParams) -> PendulumState:
    z = np.array([[s.p], [s.p_dot], [s.theta], [s.theta_dot]])
    np_, npd, nth, nthd = step_pendulum_arrays(z, force, params)[:, 0].tolist()
    return PendulumState(np_, npd, nth, nthd, s.t + 1)

