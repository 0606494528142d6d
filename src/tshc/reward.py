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


def goal_errors(x, y, psi, v, goal):
    """Position, wrapped heading and velocity errors w.r.t. a (x, y, psi, v) goal."""
    e_d = np.hypot(goal[0] - x, goal[1] - y)
    e_psi = np.abs(wrap_angle(goal[2] - psi))
    e_v = np.abs(goal[3] - v)
    return e_d, e_psi, e_v


def sparse_reward(crash_flag) -> Reward:
    return Reward(-1.0, bool(crash_flag))


def vvc_bounds(e_d, v_goal, v_min, v_max, cfg: VvcConfig):
    """Velocity box valid at distance e_d from the goal; elementwise on arrays."""
    if cfg.mode == VVC_OFF:
        shape = np.shape(e_d)
        if shape:
            return np.full(shape, float(v_min)), np.full(shape, float(v_max))
        return float(v_min), float(v_max)
    if cfg.mode == VVC_SPATIAL:
        frac = np.minimum(e_d, cfg.r_thresh) / cfg.r_thresh
        lo = v_goal + (v_min - v_goal) * frac
        hi = v_goal + (v_max - v_goal) * frac
        lo = np.where(e_d >= cfg.r_thresh, v_min, lo)
        hi = np.where(e_d >= cfg.r_thresh, v_max, hi)
        return lo, hi
    # constant margin inside r_thresh, global bounds outside
    lo_in = np.maximum(v_goal - cfg.margin, v_min)
    hi_in = np.minimum(v_goal + cfg.margin, v_max)
    empty = lo_in > hi_in  # goal speed outside the global box: collapse
    if np.any(empty):
        point = np.clip(v_goal, v_min, v_max)
        lo_in = np.where(empty, point, lo_in)
        hi_in = np.where(empty, point, hi_in)
    far = e_d >= cfg.r_thresh
    return np.where(far, v_min, lo_in), np.where(far, v_max, hi_in)

