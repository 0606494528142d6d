import dataclasses
import math
from xml.etree import ElementTree

import numpy as np
import pytest

from tshc import reward
from tshc.dynamics import (ActuatorLimits, PendulumParams, VehicleParams, crash_check_arrays,
                           step_bicycle_arrays)
from tshc.envs import PendulumEnv, VehicleEnv
from tshc.plotting import render_svg
from tshc.policy import MlpSpec, param_count
from tshc.reward import VVC_SPATIAL, Tolerances, VvcConfig, vvc_bounds
from tshc.tasks import (GOAL5, PENDULUM, PENDULUM4, Task, VehicleNorm, freeform_task,
                        pendulum_tasks)
from tshc.trainer import rollout


def goal_mask(env, S, task):
    """The goal test of one step from the state rows S on ``task``."""
    _, k = env.start([task], 1)
    return env.goal_mask(env.observe(S, k), k)


def apply(env, S, raw, task):
    """One ``apply_arrays`` step from the state rows S on ``task``."""
    _, k = env.start([task], 1)
    return env.apply_arrays(S, np.asarray(raw), k, env.observe(S, k))


def assert_task_major(S, c, task_list, n, z0):
    """Lane k * n + i of a ``start`` holds ``z0[k]``, task k's start as the
    env takes it, and task k's goal and tolerance columns."""
    for k, task in enumerate(task_list):
        lanes = slice(k * n, (k + 1) * n)
        assert np.allclose(S[:4, lanes].T, z0[k], rtol=0.0, atol=1e-12)
        assert np.all(c.goal[:, lanes].T == task.z_goal)
        assert np.all(c.tol[:, lanes].T == (task.tol.eps_d, task.tol.eps_psi, task.tol.eps_v))


def test_vehicle_init_arrays_normalizes_heading():
    env = VehicleEnv()
    task = freeform_task((0, 0, 3 * math.pi, 0), (1, 0, 0, 0))
    S, _ = env.start([task], 2)
    assert S.shape == (5, 2) and S.flags.c_contiguous
    assert np.allclose(S[2], math.pi)
    assert np.all(S[4] == 0.0)  # delta_prev
    # folded: a lane starts from its task's z0, heading wrapped and speed
    # clipped into [v_min, v_max]
    other = freeform_task((1, -2, -2.5 * math.pi, 12.0), (3, 4, 0.5, 2),
                          Tolerances(0.5, 0.2, 1.5), task_id="b")
    S, c = env.start([task, other], 3)
    assert S.shape == (5, 6) and S.flags.c_contiguous
    assert_task_major(S, c, [task, other], 3, [(0, 0, math.pi, 0), (1, -2, -math.pi / 2, 10.0)])
    assert np.all(S[4] == 0.0)


def test_vehicle_start_speed_is_the_nearest_admissible_one():
    # a task's start speed outside [v_min, v_max] starts at the nearer
    # bound; inside it, it is kept as it is
    tasks = [freeform_task((0, 0, 0, v), (5, 0, 0, 2)) for v in (0.0, 12.0, 3.0, -0.5)]
    S, _ = VehicleEnv(limits=ActuatorLimits(v_min=1.0)).start(tasks, 2)
    assert S[3].tolist() == [1.0, 1.0, 10.0, 10.0, 3.0, 3.0, 1.0, 1.0]
    assert VehicleEnv().start(tasks, 1)[0][3].tolist() == [0.0, 10.0, 3.0, -0.5]


def test_zero_policy_never_commands_below_v_min():
    # the midpoint of every control box, from a start at rest: the first
    # box is [1.0, 1.5] around the admissible start speed 1.0, not the
    # [0.2, 0.5] rate box around 0, which misses the actuator box
    env = VehicleEnv(VehicleParams(Ts=0.1), limits=ActuatorLimits(v_min=1.0))
    spec = MlpSpec((4, 8, 2))
    res = rollout(np.zeros(param_count(spec)), freeform_task((0, 0, 0, 0), (50, 0, 0, 2)),
                  env, spec, 40, record=True)
    v = [row[4] for row in res.trajectory]
    assert res.steps == 40 and len(v) == 41
    assert v[0] == 1.25 and min(v) >= 1.0


def test_vehicle_goal_mask_matches_tolerances():
    env = VehicleEnv()
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    S = np.zeros((5, 3))
    S[0] = [0.0, 0.2, 0.3]
    assert list(goal_mask(env, S, task)) == [True, True, False]


def test_vehicle_apply_uses_vvc_near_goal():
    vvc = VvcConfig(VVC_SPATIAL, r_thresh=5.0)
    env = VehicleEnv(vvc=vvc)
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))  # at the goal: v box = {0}
    S, _ = env.start([task], 1)
    _, controls, _, _ = apply(env, S, [[1.0, 0.0]], task)
    assert controls[0, 0] == pytest.approx(0.0)  # full throttle still held at 0

    free = VehicleEnv()
    nxt, controls, _, _ = apply(free, S, [[1.0, 0.0]], task)
    assert controls[0, 0] == pytest.approx(0.05)  # rate limit only
    # the applied controls are the v_prev and delta_prev rows of the next state
    assert np.shares_memory(controls, nxt)
    assert nxt[3:].tolist() == controls.tolist()


def test_vehicle_apply_reports_crash():
    env = VehicleEnv(params=VehicleParams(workspace=(-1.0, -1.0, 1.0, 1.0)))
    task = freeform_task((0.999, 0, 0, 10.0), (0, 0, 0, 0))
    S, _ = env.start([task], 1)
    _, _, _, crash = apply(env, S, [[1.0, 0.0]], task)
    assert bool(crash[0])


def test_pendulum_goal_mask_angle_only():
    env = PendulumEnv()
    task = pendulum_tasks("stabilize")[0]
    S = np.array([[2.0], [3.0], [math.radians(11.0)], [9.0]])
    assert bool(goal_mask(env, S, task)[0])
    S[2, 0] = math.radians(13.0)
    assert not bool(goal_mask(env, S, task)[0])
    # folded: a lane starts from its task's z0, heading wrapped, and its
    # goal test reads its task's goal angle and eps_psi
    tilted = Task("tilted", PENDULUM, (0.5, 0, 7.0, 0), (0, 0, 1.0, 0),
                  Tolerances(1.0, 0.1, 1.0), PENDULUM4)
    S, c = env.start([task, tilted], 2)
    assert S.shape == (4, 4) and S.flags.c_contiguous
    assert_task_major(S, c, [task, tilted], 2, [task.z0, (0.5, 0, 7.0 - 2 * math.pi, 0)])
    S[2] = 0.95
    assert env.goal_mask(env.observe(S, c), c).tolist() == [False, False, True, True]


def test_pendulum_apply_scales_force_and_crashes_at_track_end():
    env = PendulumEnv(params=PendulumParams())
    task = pendulum_tasks("stabilize")[0]
    S, _ = env.start([task], 1)
    _, controls, _, _ = apply(env, S, [[1.0]], task)
    assert controls.shape == (1, 1)
    assert controls[0, 0] == pytest.approx(10.0)  # raw +1 -> +F_max

    S = np.array([[2.39], [3.0], [0.0], [0.0]])
    _, _, _, crash = apply(env, S, [[1.0]], task)
    assert bool(crash[0])


def test_pendulum_force_bound_follows_replaced_params():
    # the 0-d constants are cached per parameter instance: a replaced
    # instance computes its own, here a force bound of 5 N
    base = PendulumParams()
    assert base.arrays.f_max == 10.0
    env = PendulumEnv(dataclasses.replace(base, f_max=5.0))
    task = pendulum_tasks("stabilize")[0]
    _, controls, _, _ = apply(env, env.start([task], 3)[0], [[1.0], [-1.0], [0.0]], task)
    assert controls.tolist() == [[5.0, -5.0, 0.0]]
    spec = MlpSpec((4, 8, 1))
    theta = np.random.default_rng(0).normal(0.0, 30.0, param_count(spec))
    res = rollout(theta, task, env, spec, 30, t_goal=100, record=True)
    force = np.array([row[5] for row in res.trajectory[:-1]])
    assert len(force) == res.steps > 0
    assert np.all(np.abs(force) <= 5.0) and np.any(np.abs(force) == 5.0)


def test_pendulum_pathlength_is_cart_travel():
    env = PendulumEnv()
    task = pendulum_tasks("stabilize")[0]
    S = np.array([[0.0], [1.0], [0.0], [0.0]])
    _, _, step, _ = apply(env, S, [[0.0]], task)
    assert step[0] == pytest.approx(0.02)  # |Ts * p_dot|


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


@pytest.mark.parametrize("label", ['R&D<1>.csv', '"a" > b', "&amp;", "<title>"])
def test_render_svg_labels_with_markup_round_trip(label):
    svg = render_svg([(label, [0.0, 1.0], [0.0, 1.0])])
    title = ElementTree.fromstring(svg).find(".//{http://www.w3.org/2000/svg}title")
    assert title.text == label


# ------------------------------------------------------------ one step's pieces

STEP_PARAMS = VehicleParams(workspace=(-4.0, -4.0, 5.0, 4.0),
                            obstacles=((1.0, -1.0, 2.0, 1.0), (-3.0, 2.0, -2.0, 3.0)))
STEP_TASKS = [freeform_task((0, 0, 0, 0), (1.0, 0.5, math.pi, 2.0),
                            Tolerances(0.5, 0.1, 1.0), GOAL5, "a"),
              freeform_task((0, 0, 0, 0), (-2.0, 0.0, -math.pi / 2, 0.0),
                            Tolerances(1.5, 3.0, 0.2), GOAL5, "b")]
# x, y, psi, v_prev, delta_prev per lane: headings at +-pi, NaN and inf
# positions, points inside each obstacle and one outside the workspace
STEP_LANES = [(1.0, 0.5, -math.pi, 2.0, 0.1), (1.2, 0.5, math.pi, 2.5, 0.0),
              (math.nan, 0.0, 0.3, 0.0, 0.0), (math.inf, 1.0, 0.0, 1.0, 0.0),
              (0.0, -math.inf, 0.0, 0.0, 0.0), (1.5, 0.0, 0.1, 0.0, 0.0),
              (6.0, 0.0, 0.0, 0.0, 0.0), (-2.5, 2.5, 3.0, -1.0, -0.2),
              (-2.0, 0.0, -math.pi, 0.1, 0.0)]


def test_bicycle_step_equals_its_formula():
    # step_bicycle_arrays against the Euler step written out per coordinate
    # on the STEP_LANES poses (headings at +-pi, NaN and inf positions), with
    # finite and non-finite controls: equal bits, NaN payloads included, so
    # NaN exactly where the formula gives NaN
    pose = np.array(STEP_LANES).T[:3]
    v = np.array([2.0, -1.5, 0.0, 3.0, 1.0, math.nan, math.inf, -2.0, 0.5])
    delta = np.array([0.1, -0.3, 0.2, 0.0, math.inf, 0.0, 0.1, -0.5, math.nan])
    Ts, l_f = 0.1, 2.7
    params = VehicleParams(Ts=Ts, l_f=l_f)
    x, y, psi = pose
    with np.errstate(invalid="ignore"):
        heading = psi + Ts * (v / l_f) * np.tan(delta)
        expected = np.stack([
            x + (Ts * v) * np.cos(psi),
            y + (Ts * v) * np.sin(psi),
            heading - 2.0 * math.pi * np.ceil((heading - math.pi) / (2.0 * math.pi))])
        out = np.empty(pose.shape)
        assert step_bicycle_arrays(pose, v, delta, params, out=out) is out
        fresh = step_bicycle_arrays(pose, v, delta, params)
    for got in (out, fresh):
        assert got.tobytes() == expected.tobytes()
    assert np.isnan(expected).any() and np.isfinite(expected).any()
    assert np.isfinite(expected[:, :2]).all()


@pytest.mark.parametrize("case", ["one-task", "folded", "compacted"])
def test_step_pieces_equal_textbook_formulas(case, monkeypatch):
    # observe, goal_mask, features_arrays, the VVC distance and
    # crash_check_arrays against the formulas written out per coordinate:
    # equal bits, NaN where the formula gives NaN
    env = VehicleEnv(STEP_PARAMS, vvc=VvcConfig(VVC_SPATIAL, r_thresh=2.0))
    task_list = STEP_TASKS[:1] if case == "one-task" else STEP_TASKS
    n = len(STEP_LANES)
    S = np.tile(np.array(STEP_LANES).T, len(task_list))
    goal = np.array([t.z_goal for t in task_list for _ in range(n)]).T
    tol = np.array([(t.tol.eps_d, t.tol.eps_psi, t.tol.eps_v)
                    for t in task_list for _ in range(n)]).T
    _, c = env.start(task_list, n)
    if case == "compacted":  # lanes of both tasks, reordered and thinned
        keep = np.array([0, 2, 3, 10, 13, 16, 17, 5])
        c, S, goal, tol = c.compact(keep), S[:, keep], goal[:, keep], tol[:, keep]
    lanes = S.shape[1]
    last_raw = np.linspace(-1.0, 1.0, lanes)
    with np.errstate(invalid="ignore"):
        d = goal - S[:4]
        d[2] = d[2] - 2.0 * math.pi * np.ceil((d[2] - math.pi) / (2.0 * math.pi))
        obs = env.observe(S, c)
        assert np.array_equal(obs[:4], d, equal_nan=True)
        assert np.all((-math.pi < d[2]) & (d[2] <= math.pi))
        e_d = np.hypot(d[0], d[1])
        assert np.array_equal(obs[4:], [e_d, np.abs(d[2]), np.abs(d[3])], equal_nan=True)
        reached = (e_d < tol[0]) & (np.abs(d[2]) < tol[1]) & (np.abs(d[3]) < tol[2])
        assert np.array_equal(env.goal_mask(obs, c), reached)
        assert reached.any() and not reached.all()
        norm = VehicleNorm()
        features = np.stack([d[0] / norm.dx, d[1] / norm.dy, d[2] / norm.dpsi,
                             d[3] / norm.dv, last_raw], axis=1)
        assert np.array_equal(env.features_arrays(obs, c, last_raw), features,
                              equal_nan=True)
        seen = []

        def spy(e, *args):
            seen.append(e)
            return vvc_bounds(e, *args)
        monkeypatch.setattr(reward, "vvc_bounds", spy)
        env.apply_arrays(S, np.zeros((lanes, 2)), c, obs)
        assert np.array_equal(seen[0], e_d, equal_nan=True)
    x, y = S[0], S[1]
    crash = (x < -4.0) | (x > 5.0) | (y < -4.0) | (y > 4.0)
    for x0, y0, x1, y1 in STEP_PARAMS.obstacles:
        crash |= (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    assert np.array_equal(crash_check_arrays(S[:2], STEP_PARAMS), crash)
    assert crash.any() and not crash.all()
