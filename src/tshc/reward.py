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


def goal_difference(z, goal, out=None):
    """``goal - z`` with its heading row wrapped in place.

    ``z`` and ``goal`` hold (x, y, psi, v) along their first axis and
    broadcast against each other: a (4, lanes) state matrix with a (4, 1)
    goal column, or a (4, 1) point against a (4, m) set of goals.  Writes
    to ``out`` when given.
    """
    d = np.subtract(goal, z, out=out)
    wrap_angle(d[2], out=d[2])
    return d


def goal_errors(d, out=None):
    """(3, lanes) position, heading and velocity errors of a goal
    difference ``d`` of ``goal_difference``; writes to ``out``, which must
    not overlap ``d``, when given."""
    e = np.abs(d[1:], out=out)  # |d_psi| and |d_v| in rows 1 and 2; row 0 is replaced
    np.hypot(d[0], d[1], out=e[0])
    return e


def sparse_reward(crash_flag) -> Reward:
    return Reward(-1.0, bool(crash_flag))


def vvc_bounds(e_d, v_goal, v_min, v_max, cfg: VvcConfig):
    """Velocity box valid at distance e_d from the goal, inside the global
    box [v_min, v_max], as arrays broadcast over e_d and over v_goal, a goal
    speed per lane or one for all lanes (the global speeds and the config
    are scalars).  ``off`` is the mode whose far test holds everywhere."""
    far = (e_d >= cfg.r_thresh) | (cfg.mode == VVC_OFF)
    if cfg.mode == VVC_SPATIAL:
        frac = np.minimum(e_d, cfg.r_thresh) / cfg.r_thresh
        lo_in = v_goal + (v_min - v_goal) * frac
        hi_in = v_goal + (v_max - v_goal) * frac
    else:  # constant margin inside r_thresh; off discards it
        lo_in, hi_in = v_goal - cfg.margin, v_goal + cfg.margin
    # both edges are clipped to the global box, so a goal speed outside it
    # collapses the inner box onto the nearer global bound, and the control
    # box is one intersection with the rate box.  Global bounds first: on a
    # tie of -0.0 and 0.0, numpy's maximum and minimum return the second
    lo_in = np.minimum(v_max, np.maximum(v_min, lo_in))
    hi_in = np.minimum(v_max, np.maximum(v_min, hi_in))
    return np.where(far, v_min, lo_in), np.where(far, v_max, hi_in)
