import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tshc.dynamics import ActuatorLimits, VehicleParams
from tshc.envs import VehicleEnv
from tshc.reward import (Reward, Tolerances, VVC_CONSTANT, VVC_OFF, VVC_SPATIAL,
                         VvcConfig, sparse_reward, vvc_bounds)
from tshc.tasks import freeform_task

TOL = Tolerances(0.25, math.radians(1.0), 5.0 / 3.6)


def vehicle_state(x, y, psi, v):
    """One-lane vehicle state matrix: x, y, psi, v_prev, delta_prev rows."""
    return np.array([[x], [y], [psi], [v], [0.0]])


def goal_flag(state, goal):
    """The goal test the trainer runs: VehicleEnv.goal_mask on one lane."""
    task = freeform_task((0.0, 0.0, 0.0, 0.0), goal, TOL)
    env = VehicleEnv()
    _, k = env.start([task], 1)
    return bool(env.goal_mask(env.observe(vehicle_state(*state), k), k)[0])


# ----------------------------------------------------------------- goal test

def test_goal_flag_exact_match():
    assert goal_flag((1.0, 2.0, 0.5, 3.0), (1.0, 2.0, 0.5, 3.0))


def test_goal_flag_boundary_is_strict():
    assert not goal_flag((0.25, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


def test_goal_flag_published_tolerance_example():
    # e_d = 0.2 m, e_psi = 0.5 deg, e_v = 1 km/h within (0.25 m, 1 deg, 5 km/h)
    assert goal_flag((0.2, 0.0, math.radians(0.5), 1.0 / 3.6), (0.0, 0.0, 0.0, 0.0))


def test_goal_flag_wraps_heading():
    assert goal_flag((0.0, 0.0, math.radians(359.0), 0.0),
                     (0.0, 0.0, 0.0, 0.0))  # 359 deg == -1 deg
    assert goal_flag((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 2.0 * math.pi, 0.0))


def test_goal_flag_each_axis_matters():
    goal = (0.0, 0.0, 0.0, 0.0)
    assert not goal_flag((1.0, 0.0, 0.0, 0.0), goal)
    assert not goal_flag((0.0, 0.0, 0.5, 0.0), goal)
    assert not goal_flag((0.0, 0.0, 0.0, 5.0), goal)


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(0.0, 1.0, 1.0)


# -------------------------------------------------------------- sparse_reward

def test_sparse_reward_values():
    assert sparse_reward(0) == Reward(-1.0, False)
    assert sparse_reward(1) == Reward(-1.0, True)


def test_sparse_reward_sum_over_clean_rollout():
    total = sum(sparse_reward(0).value for _ in range(10))
    assert total == -10.0


# ------------------------------------------------------------ pathlength step

FAR_TASK = freeform_task((0.0, 0.0, 0.0, 0.0), (50.0, 0.0, 0.0, 0.0), TOL)


def step_length(env, state, raw):
    """Step length of one VehicleEnv.apply_arrays step."""
    S, k = vehicle_state(*state), env.start([FAR_TASK], 1)[1]
    _, _, step, _ = env.apply_arrays(S, np.array([raw]), k, env.observe(S, k))
    return float(step[0])


def test_pathlength_delta_values():
    # Ts = 1 s and a symmetric +-5 m/s^2 rate box around v_prev = 0: raw 0
    # holds the car still, raw 1 drives 5 m along the 3-4-5 heading
    env = VehicleEnv(VehicleParams(Ts=1.0), ActuatorLimits(vdot_min=-5.0, vdot_max=5.0))
    assert step_length(env, (0.0, 0.0, 0.0, 0.0), [0.0, 0.0]) == 0.0
    step = step_length(env, (0.0, 0.0, math.atan2(4.0, 3.0), 0.0), [1.0, 0.0])
    assert step == pytest.approx(5.0, abs=1e-12)


def test_pathlength_triangle_inequality():
    env = VehicleEnv(VehicleParams(Ts=0.1))
    rng = np.random.default_rng(0)
    S = vehicle_state(0.0, 0.0, 0.0, 0.0)
    total = 0.0
    _, k = env.start([FAR_TASK], 1)
    for raw in rng.uniform(-1.0, 1.0, size=(20, 2)):
        S, _, step, _ = env.apply_arrays(S, raw[None, :], k, env.observe(S, k))
        total += float(step[0])
    straight = math.hypot(float(S[0, 0]), float(S[1, 0]))
    assert straight > 0.0
    assert total >= straight - 1e-12


# ---------------------------------------------------------------- vvc_bounds

def test_vvc_off_returns_global_bounds():
    assert vvc_bounds(0.3, 0.0, -10.0, 10.0, VvcConfig(VVC_OFF)) == (-10.0, 10.0)


def test_vvc_spatial_branches():
    cfg = VvcConfig(VVC_SPATIAL, r_thresh=5.0)
    assert vvc_bounds(7.0, 0.0, -10.0, 10.0, cfg) == (-10.0, 10.0)
    lo, hi = vvc_bounds(0.0, 0.0, -10.0, 10.0, cfg)
    assert lo == 0.0 and hi == 0.0
    lo, hi = vvc_bounds(2.5, 0.0, -10.0, 10.0, cfg)
    assert hi == pytest.approx(5.0)  # e_d = R/2 halves the bound
    assert lo == pytest.approx(-5.0)


def test_vvc_spatial_continuous_at_threshold():
    cfg = VvcConfig(VVC_SPATIAL, r_thresh=5.0)
    inside = vvc_bounds(5.0 - 1e-12, 1.0, -10.0, 10.0, cfg)
    outside = vvc_bounds(5.0, 1.0, -10.0, 10.0, cfg)
    assert inside[0] == pytest.approx(outside[0], abs=1e-9)
    assert inside[1] == pytest.approx(outside[1], abs=1e-9)


def test_vvc_constant_margin_branches():
    cfg = VvcConfig(VVC_CONSTANT, r_thresh=5.0, margin=5.0 / 3.6)
    lo, hi = vvc_bounds(1.0, 0.0, -10.0, 10.0, cfg)
    assert lo == pytest.approx(-5.0 / 3.6) and hi == pytest.approx(5.0 / 3.6)
    lo, hi = vvc_bounds(9.0, 0.0, -10.0, 10.0, cfg)
    assert (lo, hi) == (-10.0, 10.0)


def test_vvc_constant_margin_clips_to_global_box():
    cfg = VvcConfig(VVC_CONSTANT, margin=2.0)
    lo, hi = vvc_bounds(1.0, 9.5, -10.0, 10.0, cfg)
    assert lo == pytest.approx(7.5) and hi == pytest.approx(10.0)
    # goal speed outside the global box entirely: collapse to the clip point
    lo, hi = vvc_bounds(1.0, 20.0, -10.0, 10.0, cfg)
    assert lo == hi == 10.0


@given(st.floats(0.0, 20.0), st.floats(-8.0, 8.0),
       st.sampled_from([VVC_OFF, VVC_SPATIAL, VVC_CONSTANT]))
def test_vvc_bounds_ordered_and_within_box(e_d, v_goal, mode):
    lo, hi = vvc_bounds(e_d, v_goal, -10.0, 10.0, VvcConfig(mode))
    assert lo <= hi + 1e-12
    assert -10.0 - 1e-12 <= lo and hi <= 10.0 + 1e-12


def test_vvc_bounds_vectorized():
    cfg = VvcConfig(VVC_SPATIAL, r_thresh=5.0)
    e_d = np.array([0.0, 2.5, 5.0, 9.0])
    lo, hi = vvc_bounds(e_d, 0.0, -10.0, 10.0, cfg)
    assert np.allclose(hi, [0.0, 5.0, 10.0, 10.0])
    assert np.allclose(lo, [0.0, -5.0, -10.0, -10.0])


@pytest.mark.parametrize("mode", [VVC_SPATIAL, VVC_CONSTANT])
def test_vvc_bounds_per_lane_goal_speed_matches_scalar(mode):
    # a folded rollout passes one goal speed per lane; each lane's box must
    # be the bits of the one-goal-speed call, the collapse cases included
    cfg = VvcConfig(mode, r_thresh=5.0, margin=2.0)
    e_d = np.array([0.5, 1.0, 1.0, 4.0, 6.0, 0.0])
    v_goal = np.array([0.0, 9.5, 20.0, -13.0, 3.0, -10.0])
    lo, hi = vvc_bounds(e_d, v_goal, -10.0, 10.0, cfg)
    for i in range(len(e_d)):
        one_lo, one_hi = vvc_bounds(e_d[i:i + 1], float(v_goal[i]), -10.0, 10.0, cfg)
        assert lo[i:i + 1].tobytes() == one_lo.tobytes()
        assert hi[i:i + 1].tobytes() == one_hi.tobytes()


def test_vvc_config_validation():
    with pytest.raises(ValueError):
        VvcConfig("bogus")
    with pytest.raises(ValueError):
        VvcConfig(VVC_SPATIAL, r_thresh=0.0)
    with pytest.raises(ValueError):
        VvcConfig(VVC_CONSTANT, margin=-1.0)
