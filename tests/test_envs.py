import math

import numpy as np
import pytest

from tshc.dynamics import PendulumParams, VehicleParams
from tshc.envs import PendulumEnv, VehicleEnv
from tshc.plotting import render_svg
from tshc.reward import VVC_SPATIAL, VvcConfig
from tshc.tasks import freeform_task, pendulum_tasks


def test_vehicle_init_arrays_normalizes_heading():
    env = VehicleEnv()
    task = freeform_task((0, 0, 3 * math.pi, 0), (1, 0, 0, 0))
    S = env.init_arrays([task], 2)
    assert S.shape == (5, 2) and S.flags.c_contiguous
    assert np.allclose(S[2], math.pi)
    assert np.all(S[4] == 0.0)  # delta_prev


def test_vehicle_goal_mask_matches_tolerances():
    env = VehicleEnv()
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    S = np.zeros((5, 3))
    S[0] = [0.0, 0.2, 0.3]
    assert list(env.goal_mask(S, env.constants([task], 1))) == [True, True, False]


def test_vehicle_apply_uses_vvc_near_goal():
    vvc = VvcConfig(VVC_SPATIAL, r_thresh=5.0)
    env = VehicleEnv(vvc=vvc)
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))  # at the goal: v box = {0}
    S = env.init_arrays([task], 1)
    _, controls, _, _ = env.apply_arrays(S, np.array([[1.0, 0.0]]),
                                         env.constants([task], 1))
    assert controls[0, 0] == pytest.approx(0.0)  # full throttle still held at 0

    free = VehicleEnv()
    nxt, controls, _, _ = free.apply_arrays(S, np.array([[1.0, 0.0]]),
                                            free.constants([task], 1))
    assert controls[0, 0] == pytest.approx(0.05)  # rate limit only
    # the applied controls are the v_prev and delta_prev rows of the next state
    assert np.shares_memory(controls, nxt)
    assert nxt[3:].tolist() == controls.tolist()


def test_vehicle_apply_reports_crash():
    env = VehicleEnv(params=VehicleParams(workspace=(-1.0, -1.0, 1.0, 1.0)))
    task = freeform_task((0.999, 0, 0, 10.0), (0, 0, 0, 0))
    S = env.init_arrays([task], 1)
    _, _, _, crash = env.apply_arrays(S, np.array([[1.0, 0.0]]),
                                      env.constants([task], 1))
    assert bool(crash[0])


def test_apply_flags_non_finite_states():
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    env = VehicleEnv()
    S = env.init_arrays([task], 3)
    S[2, 1] = np.nan  # heading
    S[0, 2] = np.inf
    with np.errstate(invalid="ignore"):
        _, _, _, bad = env.apply_arrays(S, np.zeros((3, 2)), env.constants([task], 1))
    assert bad.tolist() == [False, True, True]
    pend = PendulumEnv()
    task = pendulum_tasks("stabilize")[0]
    S = pend.init_arrays([task], 2)
    S[3, 1] = np.nan  # theta_dot
    _, _, _, bad = pend.apply_arrays(S, np.zeros((2, 1)), pend.constants([task], 1))
    assert bad.tolist() == [False, True]


def test_pendulum_goal_mask_angle_only():
    env = PendulumEnv()
    task = pendulum_tasks("stabilize")[0]
    S = np.array([[2.0], [3.0], [math.radians(11.0)], [9.0]])
    assert bool(env.goal_mask(S, env.constants([task], 1))[0])
    S[2, 0] = math.radians(13.0)
    assert not bool(env.goal_mask(S, env.constants([task], 1))[0])


def test_pendulum_apply_scales_force_and_crashes_at_track_end():
    env = PendulumEnv(params=PendulumParams())
    task = pendulum_tasks("stabilize")[0]
    k = env.constants([task], 1)
    S = env.init_arrays([task], 1)
    _, controls, _, _ = env.apply_arrays(S, np.array([[1.0]]), k)
    assert controls.shape == (1, 1)
    assert controls[0, 0] == pytest.approx(10.0)  # raw +1 -> +F_max

    S = np.array([[2.39], [3.0], [0.0], [0.0]])
    _, _, _, crash = env.apply_arrays(S, np.array([[1.0]]), k)
    assert bool(crash[0])


def test_pendulum_pathlength_is_cart_travel():
    env = PendulumEnv()
    task = pendulum_tasks("stabilize")[0]
    S = np.array([[0.0], [1.0], [0.0], [0.0]])
    _, _, dp, _ = env.apply_arrays(S, np.array([[0.0]]), env.constants([task], 1))
    assert dp[0] == pytest.approx(-0.02)  # |Ts * p_dot|


# ------------------------------------------------------------------ plotting

def test_render_svg_structure():
    svg = render_svg([("a", [0.0, 1.0, 2.0], [0.0, 0.5, 0.0]),
                      ("b", [0.0, -1.0], [0.0, 1.0])],
                     goals=[(2.0, 0.0)])
    assert svg.count("<polyline") == 2
    assert "<title>a</title>" in svg and "<title>b</title>" in svg
    assert "x [m]" in svg and "y [m]" in svg
    assert svg.count("<circle") == 3  # two starts plus one goal marker
    with pytest.raises(ValueError):
        render_svg([])
