"""Sparse-reward machinery: goal tolerances and errors, the per-step
sparse reward and virtual velocity constraints.

Crashes are represented by a dedicated flag carried next to the finite
score, never by an IEEE infinity, so comparisons stay total and files
stay portable.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import wrap_angle

VVC_OFF = "off"
VVC_SPATIAL = "spatial"
VVC_CONSTANT = "constant-margin"


@dataclass(frozen=True)
class Tolerances:
    eps_d: float
    eps_psi: float
    eps_v: float

    def __post_init__(self):
        # floats, as a task file reads them back, so that a task list has
        # one digest before and after a round trip
        for name in ("eps_d", "eps_psi", "eps_v"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if min(self.eps_d, self.eps_psi, self.eps_v) <= 0.0:
            raise ValueError("tolerances must be strictly positive")


@dataclass(frozen=True)
class VvcConfig:
    mode: str = VVC_OFF
    r_thresh: float = 5.0
    margin: float = 5.0 / 3.6  # 5 km/h

    def __post_init__(self):
        if self.mode not in (VVC_OFF, VVC_SPATIAL, VVC_CONSTANT):
            raise ValueError(f"unknown VVC mode {self.mode!r}")
        if self.r_thresh <= 0.0:
            raise ValueError("r_thresh must be positive")
        if self.margin < 0.0:
            raise ValueError("margin must be non-negative")


@dataclass(frozen=True)
class Reward:
    value: float
    crashed: bool = False


def goal_errors(z, goal):
    """Position, wrapped heading and velocity errors w.r.t. a goal.

    ``z`` and ``goal`` hold (x, y, psi, v) along their first axis and
    broadcast against each other: a (4, lanes) state matrix with a (4, 1)
    goal column, or a (4, 1) point against a (4, m) set of goals.
    """
    d = goal - z
    return np.hypot(d[0], d[1]), np.abs(wrap_angle(d[2])), np.abs(d[3])


def rich_values(z, goal, weights):
    """Dense reward: minus the weighted squared error of z to the goal.

    Both plants hold their four goal coordinates in the first four state
    rows, the third an angle, which is wrapped; ``goal`` and ``weights``
    are (4, 1) columns.
    """
    d = z - goal
    wrap_angle(d[2], out=d[2])
    w = weights * d ** 2
    # the four terms added left to right, written out: numpy does not
    # promise the order in which a reduction adds them
    return -(w[0] + w[1] + w[2] + w[3])


def sparse_reward(crash_flag) -> Reward:
    return Reward(-1.0, bool(crash_flag))


def vvc_bounds(e_d, v_goal, v_min, v_max, cfg: VvcConfig):
    """Velocity box valid at distance e_d from the goal; elementwise over e_d
    and over v_goal, a goal speed per lane or one float for all lanes (the
    global speeds and the config are scalars)."""
    if cfg.mode == VVC_OFF:
        shape = np.shape(e_d)
        if shape:
            return np.full(shape, float(v_min)), np.full(shape, float(v_max))
        return float(v_min), float(v_max)
    far = e_d >= cfg.r_thresh
    if cfg.mode == VVC_SPATIAL:
        frac = np.minimum(e_d, cfg.r_thresh) / cfg.r_thresh
        lo = v_goal + (v_min - v_goal) * frac
        hi = v_goal + (v_max - v_goal) * frac
        return np.where(far, v_min, lo), np.where(far, v_max, hi)
    # constant margin inside r_thresh, global bounds outside; both edges are
    # clipped to the global box, so a goal speed outside it collapses the
    # inner box onto the nearer global bound
    lo_in, hi_in = v_goal - cfg.margin, v_goal + cfg.margin
    if isinstance(v_goal, float):  # one goal speed: no array calls
        lo_in, hi_in = min(max(lo_in, v_min), v_max), min(max(hi_in, v_min), v_max)
    else:
        lo_in, hi_in = np.clip(lo_in, v_min, v_max), np.clip(hi_in, v_min, v_max)
    return np.where(far, v_min, lo_in), np.where(far, v_max, hi_in)
