import copy
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tshc.artifacts import append_log_record
from tshc.dynamics import ActuatorLimits, PendulumParams, VehicleParams
from tshc.envs import PendulumEnv, VehicleEnv
from tshc.policy import MlpSpec, init_params, param_count
from tshc.reward import VVC_CONSTANT, VVC_SPATIAL, Tolerances, VvcConfig
from tshc.tasks import (GOAL5, PENDULUM, PENDULUM4, RECIPE_DIMS, Task, freeform_task,
                        heading_grid, mirror_task, pendulum_tasks)
from tshc.trainer import (BestSolution, CandidateScore, TshcConfig, adapt_sigma,
                          batch_rollout, candidate_theta, draw_sigma,
                          evaluate_batch, rollout, select_best, tshc_run)

SPEC4 = MlpSpec((4, 8, 2))
SPEC5 = MlpSpec((5, 8, 2))


def strip_wall_time(history):
    return [(r.restart, r.iteration, r.sigma, r.n_solved, r.pathlength,
             r.reward, r.crashed, r.improved) for r in history]


def small_env():
    return VehicleEnv()


def perturb(theta, sigma, rng):
    return theta + sigma * rng.standard_normal(theta.shape[-1])


# -------------------------------------------------------------------- config

def test_config_validation():
    ok = dict(n_restarts=1, n_iter_max=1, n_candidates=1, t_max=1)
    TshcConfig(**ok)
    with pytest.raises(ValueError):
        TshcConfig(**{**ok, "n_candidates": 0})
    with pytest.raises(ValueError):
        TshcConfig(**ok, t_goal=0)
    with pytest.raises(ValueError):
        TshcConfig(**ok, beta=1.0)
    with pytest.raises(ValueError):
        TshcConfig(**ok, sigma_min=0.0)
    with pytest.raises(ValueError):
        TshcConfig(**ok, sigma_min=2.0, sigma_max=1.0)
    # a constant sigma reads sigma_max only, so a config, which may not set
    # sigma_min there, can still take one below sigma_min's default
    TshcConfig(**ok, sigma_mode="constant", sigma_max=0.005)
    with pytest.raises(ValueError):
        TshcConfig(**ok, sigma_mode="constant", sigma_max=0.0)
    with pytest.raises(ValueError):
        TshcConfig(**ok, sigma_mode="sometimes")
    with pytest.raises(ValueError):
        TshcConfig(**ok, workers=0)


# ------------------------------------------------------------------- rollout

def test_rollout_goal_at_start():
    # zero network on a task whose goal is the initial state: success at
    # t=0 with one reward collected and no distance travelled
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    res = rollout(np.zeros(param_count(SPEC4)), task, env, SPEC4, 50)
    assert res.success == 1
    assert res.pathlength == 0.0
    assert res.reward == -1.0
    assert not res.crashed
    assert res.steps == 0


def test_rollout_timeout_reward():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (50, 0, 0, 0))
    res = rollout(np.zeros(param_count(SPEC4)), task, env, SPEC4, 37)
    assert res.success == 0
    assert res.reward == -37.0
    assert res.steps == 37


def test_rollout_immediate_crash():
    # start on the workspace edge heading out at speed: crash on step one
    env = small_env()
    task = freeform_task((99.99, 0, 0, 10.0), (0, 0, 0, 0))
    theta = np.full(param_count(SPEC4), 50.0)  # saturated: full throttle
    res = rollout(theta, task, env, SPEC4, 50)
    assert res.success == 0
    assert res.crashed
    assert res.steps == 1


def test_rollout_records_trajectory():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (50, 0, 0, 0))
    res = rollout(np.zeros(param_count(SPEC4)), task, env, SPEC4, 10, record=True)
    assert len(res.trajectory) == 11  # 10 transitions plus the terminal row
    assert res.trajectory[0][0] == 0
    assert res.trajectory[-1][0] == 10
    assert len(res.trajectory[0]) == 1 + 3 + 2  # t, pose, controls


def test_rollout_respects_task_overrides():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (50, 0, 0, 0))
    task = type(task)(task.id, task.env_kind, task.z0, task.z_goal, task.tol,
                      task.feature_recipe, t_max=5)
    res = rollout(np.zeros(param_count(SPEC4)), task, env, SPEC4, 100)
    assert res.steps == 5 and res.reward == -5.0


def test_batch_rollout_matches_scalar_rollouts():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (3, 1, 0.2, 0))
    rng = np.random.default_rng(0)
    thetas = np.stack([perturb(init_params(SPEC4, rng), 30.0, rng)
                       for _ in range(8)])
    s, p, j, c, steps, _, _ = batch_rollout(thetas, SPEC4, [task], env, 40, 1)
    for i in range(8):
        ri = rollout(thetas[i], task, env, SPEC4, 40)
        assert (ri.success, ri.pathlength, ri.reward, ri.crashed, ri.steps) == \
            (s[i], p[i], j[i], c[i], steps[i])


def _finish_kind(success, crashed, steps):
    if success:
        return "goal at t=0" if steps == 0 else "goal run"
    return "crash" if crashed else "timeout"


def _on_track(env, S):
    if env.kind == "pendulum":
        return abs(S[0, 0]) <= env.params.p_limit
    xmin, ymin, xmax, ymax = env.params.workspace
    return xmin <= S[0, 0] <= xmax and ymin <= S[1, 0] <= ymax


def test_batch_rollout_compaction_is_lane_exact():
    # lanes of one batch reach their goal, crash and time out at different
    # steps, so finished lanes are dropped while others keep running; every
    # lane must match a batch of one bit for bit, terminal state included
    vehicle = VehicleEnv(VehicleParams(Ts=0.1, workspace=(-2.0, -2.0, 3.0, 2.0)))
    pendulum = PendulumEnv(PendulumParams(p_limit=0.5))
    vtol = Tolerances(0.5, 3.0, 3.0)
    cases = [
        (vehicle, freeform_task((0, 0, 0, 0), (0.3, 0, 0, 0), vtol), 14),
        (vehicle, freeform_task((0, 0, 0, 0), (1.0, 0, 0, 0), vtol), 14),
        (vehicle, freeform_task((0, 0, 0, 0), (1.0, 0, 0, 0), vtol, GOAL5), 14),
        (pendulum, pendulum_tasks("stabilize")[0], 60),
        (pendulum, Task("tilted", PENDULUM, (0, 0, 0.4, 0), (0, 0, 0, 0),
                        Tolerances(1.0, 0.2, 1.0), PENDULUM4), 60),
    ]
    rng = np.random.default_rng(2)
    scales = np.geomspace(0.01, 3.0, 16)[:, None]
    kinds = set()
    mixed = 0
    for env, task, t_max in cases:
        spec = MlpSpec((RECIPE_DIMS[task.feature_recipe], 6, env.control_dim))
        thetas = rng.normal(0.0, 1.0, (16, param_count(spec))) * scales
        for t_goal in (1, 3):
            for mirror in ((False, True) if env.kind == "vehicle" else (False,)):
                out = batch_rollout(thetas, spec, [task], env, t_max, t_goal, mirror=mirror)
                batch_kinds = set()
                for i in range(len(thetas)):
                    one = batch_rollout(thetas[i:i + 1], spec, [task], env, t_max,
                                        t_goal, mirror=mirror)
                    for a, b in zip(out[:5], one[:5]):
                        assert a[i:i + 1].tobytes() == b.tobytes()
                    end = out[6][:, i:i + 1]
                    assert end.tobytes() == one[6].tobytes()
                    kind = _finish_kind(out[0][i], out[3][i], out[4][i])
                    # a lane stops where it met its goal or left the track
                    if kind.startswith("goal"):
                        _, k = env.start([task], 1)
                        assert env.goal_mask(env.observe(end, k), k)[0]
                    elif kind == "crash":
                        assert not _on_track(env, end)
                    batch_kinds.add(kind)
                kinds |= batch_kinds
                mixed += len(batch_kinds) >= 3
    assert kinds == {"goal at t=0", "goal run", "crash", "timeout"}
    assert mixed >= 8


def _first_slot_move(steps):
    """The step count at which some lane first retires before a lane of
    higher index, so that a retirement moves a survivor into a lower slot;
    None if the lanes retire in index order."""
    later = np.maximum.accumulate(steps[::-1])[::-1]
    early = steps[:-1][steps[:-1] < later[1:]]
    return int(early.min()) if early.size else None


def _retires_out_of_order(steps):
    return _first_slot_move(steps) is not None


def _wide_cases():
    """Pendulum tasks whose lanes solve, crash and time out at scattered
    steps on a [4, 64, 64, 1] network: (env, tasks, spec, t_max, thetas)."""
    env = PendulumEnv(PendulumParams(p_limit=1.0))
    task_list = [pendulum_tasks("swingup")[0],
                 Task("tilted", PENDULUM, (0, 0, 0.4, 0), (0, 0, 0, 0),
                      Tolerances(1.0, 0.2, 1.0), PENDULUM4, t_goal=3),
                 Task("short", PENDULUM, (0, 0, -0.3, 0.5), (0, 0, 0, 0),
                      Tolerances(1.0, 0.1, 1.0), PENDULUM4, t_max=37)]
    spec = MlpSpec((4, 64, 64, 1))
    rng = np.random.default_rng(2)
    thetas = rng.normal(0.0, 1.0, (48, param_count(spec))) * np.geomspace(0.03, 1.0, 48)[:, None]
    return env, task_list, spec, 80, thetas


def test_batch_rollout_leaves_thetas_unchanged():
    # a retirement moves weight slots inside the rollout's own stack, never
    # inside the caller's thetas, which may be read-only: one task and a
    # folded list, while lanes retire out of index order
    env, task_list, spec, t_max, thetas = _wide_cases()
    thetas = thetas[::3]
    frozen = thetas.copy()
    frozen.setflags(write=False)
    before = thetas.tobytes()
    for rows in (thetas, frozen):
        for group in (task_list[1:2], task_list):
            steps = batch_rollout(rows, spec, group, env, t_max, 1, record=True)[4]
            assert _retires_out_of_order(steps)
            assert rows.tobytes() == before


def test_slot_moves_are_lane_exact_on_a_wide_network():
    # 48 lanes on the swing-up network finish at scattered steps, so most
    # retirements move survivors into the slots of retired lanes; every lane
    # must equal its one-lane rollout bit for bit: the five outputs, the
    # terminal column and the recorded trajectory
    env, task_list, spec, t_max, thetas = _wide_cases()
    kinds = set()
    for group, rows in ((task_list, thetas[::3]), (task_list[1:2], thetas)):
        out = batch_rollout(rows, spec, group, env, t_max, 1, record=True)
        assert len(out[0]) == 48
        assert _retires_out_of_order(out[4]) and len(set(out[4].tolist())) >= 10
        for k, task in enumerate(group):
            for i in range(len(rows)):
                lane = k * len(rows) + i
                one = batch_rollout(rows[i], spec, [task], env, t_max, 1, record=True)
                for a, b in zip(out[:5], one[:5]):
                    assert a[lane:lane + 1].tobytes() == b.tobytes(), (task.id, i)
                assert out[6][:, lane:lane + 1].tobytes() == one[6].tobytes()
                assert out[5][lane].tobytes() == one[5][0].tobytes()
                kinds.add(_finish_kind(out[0][lane], out[3][lane], out[4][lane]))
    assert {"goal run", "crash", "timeout"} <= kinds


def counted(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_one_lane_step_wraps_the_goal_difference_once(monkeypatch):
    # a one-lane rollout that meets its goal after k steps forms goal - z
    # once per goal test (k + 1) and wraps an angle once per goal
    # difference, once per bicycle step and once for the initial state
    from tshc import dynamics, envs, reward, tasks
    calls = {"goal_difference": 0, "wrap_angle": 0}
    monkeypatch.setattr(reward, "goal_difference",
                        counted(calls, "goal_difference", reward.goal_difference))
    wrap = counted(calls, "wrap_angle", dynamics.wrap_angle)
    for module in (dynamics, envs, reward, tasks):
        monkeypatch.setattr(module, "wrap_angle", wrap)
    task = freeform_task((0, 0, 0, 0), (1.0, 0, 0, 0), Tolerances(0.5, 3.0, 3.0))
    theta = np.full(param_count(SPEC4), 50.0)  # saturated: full throttle
    res = rollout(theta, task, VehicleEnv(VehicleParams(Ts=0.1)), SPEC4, 50)
    k = res.steps
    assert res.success == 1 and k > 1
    assert calls == {"goal_difference": k + 1, "wrap_angle": 2 * k + 2}


@pytest.mark.parametrize("mode", [VVC_CONSTANT, VVC_SPATIAL])
def test_one_lane_step_forms_the_goal_distance_once(monkeypatch, mode):
    # a one-lane rollout that meets its goal after k steps forms the goal
    # errors once per goal test (k + 1), and the VVC reads their distance
    # row: the only other hypot is each step's length (k)
    from tshc import reward
    calls = {"goal_errors": 0, "hypot": 0}
    monkeypatch.setattr(reward, "goal_errors",
                        counted(calls, "goal_errors", reward.goal_errors))
    monkeypatch.setattr(np, "hypot", counted(calls, "hypot", np.hypot))
    task = freeform_task((0, 0, 0, 0), (1.0, 0, 0, 0), Tolerances(0.5, 3.0, 3.0))
    theta = np.full(param_count(SPEC4), 50.0)  # saturated: full throttle
    env = VehicleEnv(VehicleParams(Ts=0.1), vvc=VvcConfig(mode, r_thresh=0.8))
    res = rollout(theta, task, env, SPEC4, 50)
    k = res.steps
    assert res.success == 1 and k > 1
    assert calls == {"goal_errors": k + 1, "hypot": 2 * k + 1}


@pytest.mark.parametrize("mode", [VVC_CONSTANT, VVC_SPATIAL])
@pytest.mark.parametrize("task_count", [1, 3])
def test_vvc_box_is_built_once_per_constant_margin_rollout(monkeypatch, mode, task_count):
    # the constant-margin box is the same everywhere inside r_thresh: one
    # vvc_bounds call builds it per rollout, and no step clips; the spatial
    # box depends on the distance, so every step builds it
    from tshc import reward
    calls = {"vvc_bounds": 0, "clip": 0}
    monkeypatch.setattr(reward, "vvc_bounds", counted(calls, "vvc_bounds", reward.vvc_bounds))
    monkeypatch.setattr(np, "clip", counted(calls, "clip", np.clip))
    env = VehicleEnv(VehicleParams(Ts=0.1), vvc=VvcConfig(mode, r_thresh=0.8))
    task_list = [freeform_task((0, 0, 0, 0), (x, 0, 0, 0), Tolerances(0.2, 3.0, 3.0),
                               task_id=str(x)) for x in (1.0, 1.5, 2.0)[:task_count]]
    thetas = np.random.default_rng(0).normal(0.0, 3.0, size=(4, param_count(SPEC4)))
    res = batch_rollout(thetas, SPEC4, task_list, env, 40, 1)
    python_steps = int(res[4].max())
    assert python_steps > 1
    expected = 1 if mode == VVC_CONSTANT else python_steps
    assert calls == {"vvc_bounds": expected, "clip": 0}


class ScriptedGoalEnv:
    """One-lane env whose goal test at step t reads flags[t] (0 past the end);
    its state is the step count."""

    kind = "scripted"
    control_dim = 1

    def __init__(self, flags):
        self.flags = flags

    def start(self, task_list, n):
        return np.zeros((1, len(task_list) * n)), self  # no per-lane columns

    def compact(self, keep):
        return self

    def observe(self, S, c):
        return S

    def goal_mask(self, obs, c):
        t = int(obs[0, 0])
        return np.full(obs.shape[1], t < len(self.flags) and self.flags[t] == 1)

    def features_arrays(self, obs, c, last_raw, out=None):
        return np.zeros((obs.shape[1], 1))

    def apply_arrays(self, S, raw, c, obs):
        n = S.shape[1]
        return S + 1, raw.T, np.zeros(n), np.zeros(n, dtype=bool)


def test_batch_rollout_goal_run_resets():
    # t_goal = 3 consecutive goal steps: a 0 resets the run counter, and a
    # run cut short by the horizon is no success, even one that would end
    # on the horizon's own step, since a lane is not goal-tested there
    spec = MlpSpec((1, 1))
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    for flags, t_max, success, steps in [((1, 0, 1, 1, 1), 8, 1, 4),
                                         ((0, 1, 1, 1), 8, 1, 3),
                                         ((1, 1), 2, 0, 2),
                                         ((1, 1, 1), 2, 0, 2),
                                         ((1, 1, 0, 1, 1), 5, 0, 5)]:
        s, _, j, _, n_steps, _, _ = batch_rollout(
            np.zeros(2), spec, [task], ScriptedGoalEnv(flags), t_max, 3)
        assert (s[0], n_steps[0]) == (success, steps), flags
        # the reward counts every step tested, the final goal step included
        assert j[0] == -(steps + success)


def test_batch_rollout_refuses_a_success_window_below_one():
    # a goal run ends only at a goal step, which a window of 0 would not need
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="t_goal must be >= 1"):
        batch_rollout(np.zeros(2), MlpSpec((1, 1)), [task], ScriptedGoalEnv(()), 5, 0)


@pytest.mark.parametrize("t_max", [0, -3])
def test_batch_rollout_refuses_a_horizon_below_one(t_max):
    # a lane leaves at its horizon, which a horizon below 1 would put
    # before the first step
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    env, spec = ScriptedGoalEnv(()), MlpSpec((1, 1))
    with pytest.raises(ValueError, match="t_max must be >= 1"):
        batch_rollout(np.zeros(2), spec, [task], env, t_max, 1)
    with pytest.raises(ValueError, match="t_max must be >= 1"):
        rollout(np.zeros(2), task, env, spec, t_max)


class NonFiniteLaneEnv(ScriptedGoalEnv):
    """Scripted env whose state rows are the step count, the lane index and
    a zero row; row ``row`` of lane ``lane`` becomes ``value`` on step
    ``at``, and no lane reaches its goal."""

    def __init__(self, lane, at, row=0, value=np.nan):
        super().__init__(())
        self.lane, self.at, self.row, self.value = lane, at, row, value

    def start(self, task_list, n):
        lanes = len(task_list) * n
        return np.array([np.zeros(lanes), np.arange(lanes, dtype=float), np.zeros(lanes)]), self

    def goal_mask(self, obs, c):
        return np.zeros(obs.shape[1], dtype=bool)

    def apply_arrays(self, S, raw, c, obs):
        nxt = S + [[1.0], [0.0], [0.0]]
        nxt[self.row, (S[1] == self.lane) & (nxt[0] == self.at)] = self.value
        return nxt, raw.T, np.ones(S.shape[1]), np.zeros(S.shape[1], dtype=bool)


def test_batch_rollout_retires_a_non_finite_lane_as_crashed():
    # the rollout, not the env, flags a non-finite state, whatever its row
    # and whether NaN or an infinity: the lane retires crashed at the step
    # its state went non-finite, and the other lanes run on
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    for row, value in [(0, np.nan), (1, np.inf), (2, -np.inf), (2, np.nan), (0, np.inf)]:
        s, p, _, crashed, steps, _, end = batch_rollout(
            np.zeros((2, 2)), MlpSpec((1, 1)), [task, task],
            NonFiniteLaneEnv(2, 4, row, value), 9, 1)
        assert crashed.tolist() == [False, False, True, False], (row, value)
        assert steps.tolist() == [9, 9, 4, 9]
        assert s.tolist() == [0] * 4 and p.tolist() == [-9.0, -9.0, -4.0, -9.0]
        assert np.array_equal(end[row, 2], value, equal_nan=True)
        assert np.isfinite(np.delete(end, 2, axis=1)).all()
    # with the real plants a NaN parameter vector makes a NaN control, whose
    # pose is NaN after the first step; that step has length 0, not NaN
    for env, task in [(VehicleEnv(), freeform_task((0, 0, 0, 0), (5, 0, 0, 0))),
                      (PendulumEnv(), pendulum_tasks("swingup")[0])]:
        spec = MlpSpec((RECIPE_DIMS[task.feature_recipe], 3, env.control_dim))
        thetas = np.zeros((2, param_count(spec)))
        thetas[1, 0] = np.nan
        with np.errstate(invalid="ignore"):
            _, p, _, crashed, steps, _, _ = batch_rollout(thetas, spec, [task], env, 5, 1)
        assert crashed.tolist() == [False, True] and steps.tolist() == [5, 1], env.kind
        assert np.isfinite(p).all() and p[1] == 0.0, env.kind


def test_tshc_run_logs_finite_scores_when_every_candidate_goes_non_finite(tmp_path):
    # sigma_max = 1e308 makes every candidate's controls NaN; a speed box of
    # +-1e308 with Ts = 2 makes Ts * v overflow under a constant sigma of 10.
    # Either way each candidate crashes at its first step: the log holds
    # pathlength 0, not the token NaN or -Infinity, which are not JSON
    task_list = heading_grid(10, 30)
    spec = MlpSpec((RECIPE_DIMS[task_list[0].feature_recipe], 8, 2))
    huge = ActuatorLimits(v_min=-1e308, v_max=1e308, vdot_min=-1e308, vdot_max=1e308)

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for env, sigma_max in [(VehicleEnv(), 1e308),
                           (VehicleEnv(VehicleParams(Ts=2.0), huge), 10.0)]:
        cfg = TshcConfig(1, 3, 4, 20, sigma_mode="constant", sigma_max=sigma_max)
        log = tmp_path / f"log{sigma_max}.jsonl"
        with np.errstate(all="ignore"):
            tshc_run(cfg, task_list, env, spec,
                     on_iteration=lambda record: append_log_record(log, record))
        records = [json.loads(line, parse_constant=refuse)
                   for line in log.read_text().splitlines()]
        assert [(r["pathlength"], r["reward"], r["crashed"]) for r in records] == \
            [(0.0, -4.0, True)] * 3, sigma_max


def _fold_cases():
    """(name, env, tasks, t_max, mirror options): task lists whose goals,
    tolerances, goal speeds (one beyond v_max), horizons and success
    windows differ from task to task."""
    vtol = Tolerances(0.5, 0.5, 3.0)
    box = dict(Ts=0.1, workspace=(-4.0, -4.0, 5.0, 4.0), obstacles=((1.4, -0.3, 1.8, 0.3),))
    vehicle = [  # small parameters back the car down the -x axis
        freeform_task((0, 0, 0, 0), (-1.0, 0, 0, -1.5), Tolerances(0.4, 0.5, 1.0), GOAL5,
                      task_id="behind"),
        Task("diag", "vehicle", (0, 0, 0.3, 1.0), (0.8, 0.6, 0.5, 2.0),
             Tolerances(0.8, 1.0, 4.0), GOAL5, t_max=9, t_goal=2),
        Task("far", "vehicle", (0, 0, 0, 0), (-2.5, 0, 0, -2.5),
             Tolerances(0.6, 0.6, 1.5), GOAL5, t_max=22, t_goal=3),
        Task("fast", "vehicle", (0, 0, 0, 0), (-3.0, 0, 0, -12.0),
             Tolerances(0.8, 0.5, 9.0), GOAL5, t_goal=2),
    ]
    pendulum = [
        pendulum_tasks("swingup")[0],
        Task("tilted", PENDULUM, (0, 0, 0.4, 0), (0, 0, 0, 0),
             Tolerances(1.0, 0.2, 1.0), PENDULUM4, t_goal=4),
        Task("short", PENDULUM, (0, 0, -0.3, 0.5), (0, 0, 0, 0),
             Tolerances(1.0, 0.1, 1.0), PENDULUM4, t_max=17),
    ]
    return [
        ("vehicle-vvc-constant",
         VehicleEnv(VehicleParams(**box), vvc=VvcConfig(VVC_CONSTANT, r_thresh=0.8)),
         vehicle, 25, (False, True)),
        ("vehicle-vvc-spatial",
         VehicleEnv(VehicleParams(**box), vvc=VvcConfig(VVC_SPATIAL, r_thresh=0.8)),
         vehicle, 25, (False,)),
        ("pendulum", PendulumEnv(PendulumParams(p_limit=1.0)), pendulum, 60, (False,)),
    ]


@pytest.mark.parametrize("case", [c[0] for c in _fold_cases()])
def test_folded_lanes_match_single_task_rollouts(case):
    # lanes are (task, candidate) pairs; each must equal its task rolled out
    # alone on one lane, bit for bit: the five outputs, the terminal column
    # and the recorded trajectory, pose and controls; each run has steps
    # both before and after a retirement first moves a slot, so recorded
    # rows are read back in lane order whatever slot a lane held
    _, env, task_list, t_max, mirrors = next(c for c in _fold_cases() if c[0] == case)
    spec = MlpSpec((RECIPE_DIMS[task_list[0].feature_recipe], 6, env.control_dim))
    rng = np.random.default_rng(5)
    n = 8
    thetas = rng.normal(0.0, 1.0, (n, param_count(spec))) * np.geomspace(0.01, 3.0, n)[:, None]
    kinds = set()
    for mirror in mirrors:
        out = batch_rollout(thetas, spec, task_list, env, t_max, 1, record=True, mirror=mirror)
        assert len(out[0]) == len(out[5]) == len(task_list) * n
        assert 0 < _first_slot_move(out[4]) < out[4].max()
        for k, task in enumerate(task_list):
            for i in range(n):
                lane = k * n + i
                one = batch_rollout(thetas[i], spec, [task], env, t_max, 1,
                                    record=True, mirror=mirror)
                for a, b in zip(out[:5], one[:5]):
                    assert a[lane:lane + 1].tobytes() == b.tobytes(), (task.id, i)
                assert out[6][:, lane:lane + 1].tobytes() == one[6].tobytes()
                assert out[5][lane].tobytes() == one[5][0].tobytes()
                assert out[4][lane] <= (task.t_max or t_max)
                kinds.add(_finish_kind(out[0][lane], out[3][lane], out[4][lane]))
    assert {"goal run", "timeout"} <= kinds


def test_recorded_fold_keeps_a_lane_whose_goal_holds_at_the_start():
    # the goal of the first task holds at t = 0, so its lanes retire before
    # any step and survivors move into their slots; the other lanes step,
    # and some crash after that move.  Every lane's outputs and rows equal
    # its one-lane recording, and a lane that never stepped records one row,
    # its terminal pose with zero controls
    for name, env, task_list, t_max, mirrors in _fold_cases():
        z0 = task_list[0].z0
        task_list = [replace(task_list[0], id="at-goal", z_goal=z0, t_goal=1), *task_list]
        spec = MlpSpec((RECIPE_DIMS[task_list[0].feature_recipe], 6, env.control_dim))
        rng = np.random.default_rng(8)
        n = 6
        thetas = rng.normal(0.0, 1.0, (n, param_count(spec))) * np.geomspace(0.1, 30.0, n)[:, None]
        for mirror in mirrors:
            out = batch_rollout(thetas, spec, task_list, env, t_max, 1, record=True,
                                mirror=mirror)
            assert _first_slot_move(out[4]) == 0, name
            kinds = set()
            for k, task in enumerate(task_list):
                for i in range(n):
                    lane = k * n + i
                    one = batch_rollout(thetas[i], spec, [task], env, t_max, 1,
                                        record=True, mirror=mirror)
                    for a, b in zip(out[:5], one[:5]):
                        assert a[lane:lane + 1].tobytes() == b.tobytes(), (name, task.id, i)
                    assert out[6][:, lane:lane + 1].tobytes() == one[6].tobytes()
                    assert out[5][lane].tobytes() == one[5][0].tobytes(), (name, task.id, i)
                    kinds.add(_finish_kind(out[0][lane], out[3][lane], out[4][lane]))
            assert {"goal at t=0", "crash"} <= kinds, name
            pose = len(env.csv_columns) - 1 - env.control_dim
            for lane in range(n):
                rows = out[5][lane]
                assert rows.shape == (1, len(env.csv_columns) - 1)
                assert rows[0, :pose].tobytes() == out[6][:pose, lane].tobytes()
                assert not rows[0, pose:].any()


def test_evaluate_batch_matches_per_task_sum():
    # the folded fan-out adds each task's lanes in task order, the sum a
    # loop of one-task rollouts makes, for a chunk of one candidate too,
    # whose tasks a plain numpy sum over more than 8 of them adds pairwise
    _, env, task_list, t_max, _ = _fold_cases()[0]
    task_list = task_list * 3
    rng = np.random.default_rng(6)
    thetas = rng.normal(0.0, 1.0, (6, param_count(SPEC5))) * np.geomspace(0.01, 3.0, 6)[:, None]
    expected = np.zeros((6, 4))
    for task in task_list:
        s, p, j, c, _, _, _ = batch_rollout(thetas, SPEC5, [task], env, t_max, 2)
        expected[:, 0] += s
        expected[:, 1] += p
        expected[:, 2] += j
        expected[:, 3] = np.logical_or(expected[:, 3], c)
    for rows in (slice(None), *(slice(i, i + 1) for i in range(6))):
        got = evaluate_batch(thetas[rows], task_list, env, SPEC5, t_max, 2)
        assert got.tobytes() == expected[rows].tobytes()


# ---------------------------------------------------------------- mirroring

def test_mirror_rollout_is_exact_reflection():
    env = small_env()
    task = heading_grid(10, 90)[4]
    rng = np.random.default_rng(11)
    theta = perturb(init_params(SPEC5, rng), 40.0, rng)
    mirrored = rollout(theta, task, env, SPEC5, 120, record=True, mirror=True)
    reference = rollout(theta, mirror_task(task), env, SPEC5, 120, record=True)
    assert mirrored.steps == reference.steps
    assert mirrored.pathlength == reference.pathlength
    for ra, rb in zip(mirrored.trajectory, reference.trajectory):
        assert ra[0] == rb[0]
        assert abs(ra[1] - rb[1]) < 1e-9        # x equal
        assert abs(ra[2] + rb[2]) < 1e-9        # y negated
        assert abs(ra[3] + rb[3]) < 1e-9        # psi negated
        assert abs(ra[4] - rb[4]) < 1e-9        # v equal
        assert abs(ra[5] + rb[5]) < 1e-9        # steering negated


def test_mirror_rollout_is_refused_for_pendulum():
    # it raised KeyError: 'pendulum4'
    spec = MlpSpec((4, 8, 1))
    with pytest.raises(ValueError, match="vehicle"):
        rollout(np.zeros(param_count(spec)), pendulum_tasks("swingup")[0], PendulumEnv(),
                spec, 10, mirror=True)


@pytest.mark.parametrize("limits", [dict(delta_min=-math.radians(20.0)),
                                    dict(deltadot_max=math.radians(50.0))],
                         ids=["steer", "steer_rate"])
def test_mirror_rollout_needs_symmetric_steering(limits):
    # with steer in (-20, 40) deg the mirrored rollout strayed from the
    # reflection without an error
    env = VehicleEnv(limits=ActuatorLimits(**limits))
    with pytest.raises(ValueError, match="symmetric steering"):
        rollout(np.zeros(param_count(SPEC5)), heading_grid(10, 90)[3], env, SPEC5, 300,
                mirror=True)


# ------------------------------------------------------ one-candidate scores

def test_evaluate_candidate_aggregates_tasks():
    env = small_env()
    tasks = [freeform_task((0, 0, 0, 0), (0, 0, 0, 0), task_id="a"),
             freeform_task((1, 0, 0, 0), (1, 0, 0, 0), task_id="b")]
    row = evaluate_batch(np.zeros(param_count(SPEC4)), tasks, env, SPEC4, 10, 1)[0]
    # columns n_solved, pathlength, reward, crashed
    assert row.tolist() == [2.0, 0.0, -2.0, 0.0]


def test_evaluate_candidate_sums_pathlengths():
    env = small_env()
    # straight full-throttle runs of different lengths
    t1 = freeform_task((0, 0, 0, 0), (50, 0, 0, 0))
    theta = np.full(param_count(SPEC4), 20.0)
    r1 = rollout(theta, t1, env, SPEC4, 30)
    _, path, rew, _ = evaluate_batch(theta, [t1, t1], env, SPEC4, 30, 1)[0]
    assert path == pytest.approx(2.0 * r1.pathlength)
    assert rew == pytest.approx(2.0 * r1.reward)


def test_evaluate_candidate_crash_poisons_aggregate():
    env = small_env()
    clean = freeform_task((0, 0, 0, 0), (0, 0, 0, 0), task_id="clean")
    doomed = freeform_task((99.99, 0, 0, 10.0), (0, 0, 0, 0), task_id="doomed")
    theta = np.full(param_count(SPEC4), 50.0)
    n_solved, _, _, crashed = evaluate_batch(theta, [clean, doomed], env, SPEC4, 10, 1)[0]
    assert crashed == 1.0
    assert n_solved == 1.0


# --------------------------------------------------------------- select_best


def brute_force_select(scores, best, n_tasks):
    """Direct transcription of the candidate-selection pseudocode."""
    full = [i for i, s in enumerate(scores) if s.n_solved == n_tasks]
    best = copy.deepcopy(best)
    if full:
        i_star, p_star = full[0], scores[full[0]].pathlength
        for i in full[1:]:
            if scores[i].pathlength > p_star:
                i_star, p_star = i, scores[i].pathlength
        if best.pathlength is None or p_star > best.pathlength:
            best = BestSolution(None, n_tasks, p_star, scores[i_star].reward)
    else:
        def key(s):
            if s.crashed:
                return (0, s.n_solved, s.pathlength)
            return (1, s.reward, 0.0)

        i_star = 0
        for i in range(1, len(scores)):
            if key(scores[i]) > key(scores[i_star]):
                i_star = i
        s = scores[i_star]
        if best.pathlength is None and key(s) > (1, best.reward, 0.0):
            best = BestSolution(None, s.n_solved, None, s.reward)
    return i_star, best, scores[i_star].n_solved


def random_score(rng, n_tasks):
    return CandidateScore(int(rng.integers(0, n_tasks + 1)),
                          float(-rng.integers(0, 8)),
                          float(-rng.integers(1, 30)),
                          bool(rng.random() < 0.3))


def test_select_best_spec_examples():
    # full solvers present: highest pathlength wins
    scores = [CandidateScore(2, -5.0, -10.0, False),
              CandidateScore(2, -3.0, -11.0, False),
              CandidateScore(1, -1.0, -5.0, False)]
    i_star, best, n_star = select_best(scores, BestSolution(), 2)
    assert i_star == 1 and n_star == 2
    assert best.pathlength == -3.0

    # no full solver: highest reward wins, best updated while P* unset
    scores = [CandidateScore(0, -2.0, -90.0, False),
              CandidateScore(0, -2.0, -70.0, False),
              CandidateScore(0, -2.0, -100.0, False)]
    i_star, best, _ = select_best(scores, BestSolution(), 2)
    assert i_star == 1
    assert best.reward == -70.0 and best.pathlength is None

    # P* already set: hill-climb move still happens, global best untouched
    settled = BestSolution(np.zeros(1), 2, -4.0, -12.0)
    i_star, best, _ = select_best(scores, settled, 2)
    assert i_star == 1
    assert best is settled


def test_select_best_tie_keeps_lowest_index():
    scores = [CandidateScore(1, -1.0, -10.0, False),
              CandidateScore(1, -1.0, -10.0, False)]
    i_star, _, _ = select_best(scores, BestSolution(), 1)
    assert i_star == 0


def test_select_best_crash_sentinel_ordering():
    # sentinel orders below any finite reward; among crashed candidates the
    # tie-break is solved count then pathlength
    scores = [CandidateScore(3, -1.0, -5.0, True),
              CandidateScore(0, -9.0, -200.0, False)]
    i_star, _, _ = select_best(scores, BestSolution(), 4)
    assert i_star == 1
    scores = [CandidateScore(1, -4.0, -5.0, True),
              CandidateScore(2, -9.0, -6.0, True)]
    i_star, _, _ = select_best(scores, BestSolution(), 4)
    assert i_star == 1


def test_select_best_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    n_tasks = 3
    best = BestSolution()
    for _ in range(1000):
        scores = [random_score(rng, n_tasks)
                  for _ in range(int(rng.integers(1, 7)))]
        expect_i, expect_best, expect_n = brute_force_select(scores, best, n_tasks)
        got_i, got_best, got_n = select_best(scores, best, n_tasks)
        assert got_i == expect_i
        assert got_n == expect_n
        assert got_best.n_solved == expect_best.n_solved
        assert got_best.pathlength == expect_best.pathlength
        assert got_best.reward == expect_best.reward
        best = got_best

    with pytest.raises(ValueError):
        select_best([], BestSolution(), 1)


def _select_matches_brute_force(scores, best, n_tasks):
    got = select_best(scores, best, n_tasks)
    rows = [CandidateScore(*row) for row in scores.tolist()]
    expect = brute_force_select(rows, best, n_tasks)
    assert got[0] == expect[0] and got[2] == expect[2]
    assert (got[1].n_solved, got[1].pathlength, got[1].reward) == \
           (expect[1].n_solved, expect[1].pathlength, expect[1].reward)
    if expect[1] == best:
        assert got[1] is best  # nothing improved: the incumbent itself
    return got[0]


def test_select_best_on_score_arrays_matches_brute_force():
    # (n, 4) arrays as evaluate_batch returns them, with -inf pathlengths
    # and rewards and exact ties in each of the three cases
    inf = float("-inf")
    fixed = [
        ([[2, -3.0, -9.0, 0], [2, -3.0, -5.0, 1], [1, -1.0, -1.0, 0]], 0),
        ([[1, -1.0, -1.0, 0], [2, inf, -9.0, 0], [2, inf, -5.0, 0]], 1),
        ([[1, -2.0, -1.0, 1], [0, -5.0, -7.0, 0], [1, -1.0, -7.0, 0]], 1),
        ([[1, -2.0, inf, 0], [0, -5.0, inf, 0], [1, -1.0, -1.0, 1]], 0),
        ([[0, -1.0, -1.0, 1], [1, -2.0, -3.0, 1], [1, -2.0, -1.0, 1]], 1),
        ([[1, inf, -1.0, 1], [1, inf, -3.0, 1], [0, -1.0, -1.0, 1]], 0),
    ]
    incumbents = [BestSolution(), BestSolution(None, 1, None, -4.0),
                  BestSolution(None, 2, -2.5, -4.0), BestSolution(None, 2, inf, inf)]
    for rows, want in fixed:
        for best in incumbents:
            assert _select_matches_brute_force(np.array(rows, dtype=float), best, 2) == want

    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        scores = np.column_stack((rng.integers(0, 3, n),
                                  rng.choice([inf, -2.0, -1.0], n),
                                  rng.choice([inf, -5.0, -4.0], n),
                                  rng.random(n) < 0.5)).astype(float)
        _select_matches_brute_force(scores, incumbents[int(rng.integers(4))], 2)


def test_best_monotonicity_over_random_stream():
    rng = np.random.default_rng(7)
    best = BestSolution()
    prev_p, prev_j = None, float("-inf")
    for _ in range(500):
        scores = [random_score(rng, 2) for _ in range(5)]
        _, best, _ = select_best(scores, best, 2)
        if best.pathlength is not None:
            if prev_p is not None:
                assert best.pathlength >= prev_p
            prev_p = best.pathlength
        else:
            assert best.reward >= prev_j
            prev_j = best.reward


# --------------------------------------------------------------- adapt_sigma

def test_adapt_sigma_directions():
    assert adapt_sigma(10.0, 5, 3, 2.0, 0.01, 16.0) == 5.0
    assert adapt_sigma(10.0, 3, 5, 2.0, 0.01, 16.0) == 16.0
    assert adapt_sigma(10.0, 4, 4, 2.0, 0.01, 16.0) == 10.0


def test_adapt_sigma_clamps():
    assert adapt_sigma(0.015, 2, 1, 2.0, 0.01, 16.0) == 0.01
    assert adapt_sigma(12.0, 1, 2, 2.0, 0.01, 16.0) == 16.0


# ---------------------------------------------------------------- draw_sigma

def test_draw_sigma_modes():
    rng = np.random.default_rng(0)
    assert draw_sigma("constant", rng, 10.0, 1000.0) == 1000.0
    draws = [draw_sigma("random-per-iter", rng, 10.0, 1000.0)
             for _ in range(10_000)]
    assert all(10.0 <= d <= 1000.0 for d in draws)
    assert min(draws) < 60.0 and max(draws) > 950.0  # actually spans the range


def test_draw_sigma_random_is_stream_deterministic():
    a = draw_sigma("random-per-restart", np.random.default_rng(3), 10.0, 1000.0)
    b = draw_sigma("random-per-restart", np.random.default_rng(3), 10.0, 1000.0)
    assert a == b


# ------------------------------------------------------------------ tshc_run

def test_tshc_run_trivial_task_first_iteration():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    cfg = TshcConfig(n_restarts=3, n_iter_max=5, n_candidates=4, t_max=10, seed=0)
    best, history = tshc_run(cfg, [task], env, SPEC4)
    assert best.n_solved == 1
    assert best.pathlength == 0.0
    assert len(history) == 1  # refine off: stop at the first full solution


def test_tshc_run_refine_keeps_iterating():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    cfg = TshcConfig(n_restarts=2, n_iter_max=4, n_candidates=4, t_max=10,
                     seed=0, refine=True)
    best, history = tshc_run(cfg, [task], env, SPEC4)
    assert best.n_solved == 1
    assert len(history) == 8  # every restart runs all iterations


def test_tshc_run_requires_tasks_and_matching_dims():
    env = small_env()
    cfg = TshcConfig(n_restarts=1, n_iter_max=1, n_candidates=1, t_max=1)
    with pytest.raises(ValueError):
        tshc_run(cfg, [], env, SPEC4)
    with pytest.raises(ValueError):
        tshc_run(cfg, heading_grid(10, 90), env, SPEC4)  # goal5 needs 5 inputs
    with pytest.raises(ValueError):
        tshc_run(cfg, pendulum_tasks("stabilize"), PendulumEnv(), SPEC4)
    # a cart-pole task has the 4 features of SPEC4 and the vehicle env takes
    # its 2 outputs, so only the task's kind shows it cannot run there
    with pytest.raises(ValueError,
                       match="task 'stabilize' is a pendulum task, environment is vehicle"):
        tshc_run(cfg, pendulum_tasks("stabilize"), env, SPEC4)


def test_tshc_run_sigma_stays_in_bounds():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (2, 0, 0, 0))
    cfg = TshcConfig(n_restarts=2, n_iter_max=6, n_candidates=8, t_max=30,
                     sigma_mode="adaptive", sigma_min=0.5, sigma_max=8.0, seed=3)
    _, history = tshc_run(cfg, [task], env, SPEC4)
    assert all(0.5 <= rec.sigma <= 8.0 for rec in history)


def test_tshc_run_candidate_count_is_exact():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (2, 0, 0, 0))
    calls = []
    cfg = TshcConfig(n_restarts=1, n_iter_max=3, n_candidates=5, t_max=10, seed=0)
    _, history = tshc_run(cfg, [task], env, SPEC4,
                          on_iteration=lambda rec: calls.append(rec))
    assert len(calls) == len(history) == 3


def test_tshc_run_seed_reproducible():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (1, 0, 0, 0))
    cfg = TshcConfig(n_restarts=2, n_iter_max=3, n_candidates=6, t_max=20,
                     sigma_mode="random-per-iter", sigma_min=1.0, sigma_max=50.0,
                     seed=9)
    best_a, hist_a = tshc_run(cfg, [task], env, SPEC4)
    best_b, hist_b = tshc_run(cfg, [task], env, SPEC4)
    assert strip_wall_time(hist_a) == strip_wall_time(hist_b)
    if best_a.theta is not None:
        assert np.array_equal(best_a.theta, best_b.theta)


def test_tshc_run_worker_count_invariance():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (1, 0, 0, 0))
    base = dict(n_restarts=1, n_iter_max=3, n_candidates=7, t_max=20,
                sigma_mode="constant", sigma_max=20.0, seed=5)
    best_1, hist_1 = tshc_run(TshcConfig(**base, workers=1), [task], env, SPEC4)
    # with workers unset, the run uses every CPU the process may run on
    for cfg in (TshcConfig(**base, workers=3), TshcConfig(**base)):
        best, hist = tshc_run(cfg, [task], env, SPEC4)
        assert strip_wall_time(hist_1) == strip_wall_time(hist)
        assert (best_1.theta is None) == (best.theta is None)
        if best_1.theta is not None:
            assert np.array_equal(best_1.theta, best.theta)


@pytest.mark.parametrize("workers, n_candidates, started", [(4, 2, [2]), (3, 1, [])])
def test_tshc_run_forks_only_the_workers_a_fan_out_uses(monkeypatch, workers,
                                                        n_candidates, started):
    from tshc import trainer
    pools = []

    class StubPool:
        def __init__(self, processes):
            pools.append(processes)

        def starmap(self, fn, jobs):
            return [fn(*job) for job in jobs]

        def close(self):
            pass

        def join(self):
            pass

    class StubContext:
        Pool = StubPool
    monkeypatch.setattr(trainer, "get_context", lambda method: StubContext())
    task = freeform_task((0, 0, 0, 0), (1, 0, 0, 0))
    cfg = TshcConfig(n_restarts=1, n_iter_max=2, n_candidates=n_candidates, t_max=10,
                     workers=workers, seed=0)
    tshc_run(cfg, [task], small_env(), SPEC4)
    assert pools == started


def test_candidate_theta_counter_seeding():
    theta = np.zeros(10)
    a = candidate_theta(theta, 2.0, 1, 1, 1, 3)
    b = candidate_theta(theta, 2.0, 1, 1, 1, 3)
    c = candidate_theta(theta, 2.0, 1, 1, 1, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_candidate_theta_fills_rows_in_place():
    # the fan-out writes each candidate into its row of one matrix; the rows
    # must be the vectors candidate_theta returns, and theta + sigma * noise
    # of the candidate's own stream, bit for bit
    rng = np.random.default_rng(8)
    theta = rng.normal(0.0, 1.0, 66)
    rows = np.full((5, 66), np.nan)
    for i in range(5):
        assert candidate_theta(theta, 3.5, 2, 4, 6, i, out=rows[i]) is not None
    for i in range(5):
        alone = candidate_theta(theta, 3.5, 2, 4, 6, i)
        assert rows[i].tobytes() == alone.tobytes()
        noise = np.random.default_rng(
            np.random.SeedSequence(entropy=2, spawn_key=(2, 4, 6, i))).standard_normal(66)
        assert alone.tobytes() == (theta + 3.5 * noise).tobytes()
    assert np.array_equal(theta, np.random.default_rng(8).normal(0.0, 1.0, 66))


def test_evaluate_batch_order_matches_candidate_indices():
    env = small_env()
    task = freeform_task((0, 0, 0, 0), (1, 0, 0, 0))
    theta = np.zeros(param_count(SPEC4))
    thetas = np.stack([candidate_theta(theta, 5.0, 0, 1, 1, i) for i in range(4)])
    whole = evaluate_batch(thetas, [task], env, SPEC4, 15, 1)
    split = np.concatenate([evaluate_batch(thetas[:2], [task], env, SPEC4, 15, 1),
                            evaluate_batch(thetas[2:], [task], env, SPEC4, 15, 1)])
    assert whole.shape == (4, 4)
    assert split.tobytes() == whole.tobytes()


# ------------------------------------------------------------- golden bits

def _golden_cases():
    """(name, env, tasks, t_max, mirror options) per digest."""
    obstacle = (1.4, -0.3, 1.8, 0.3)
    box = dict(Ts=0.1, workspace=(-4.0, -4.0, 5.0, 4.0), obstacles=(obstacle,))
    vtol = Tolerances(0.5, 0.5, 3.0)
    vehicle_tasks = [freeform_task((0, 0, 0, 0), (1.0, 0, 0, 0), vtol, task_id="ahead"),
                     freeform_task((0, 0, 0.3, 1.0), (0.8, 0.6, 0.5, 2.0), vtol, GOAL5,
                                   task_id="diag"),
                     freeform_task((0, 0, 0, 0), (1.0, -0.5, -0.4, 12.0), vtol, GOAL5,
                                   task_id="fast-goal")]
    both = (False, True)
    return [
        ("pendulum", PendulumEnv(PendulumParams(p_limit=1.0)),
         [pendulum_tasks("swingup")[0],
          Task("tilted", PENDULUM, (0, 0, 0.4, 0), (0, 0, 0, 0),
               Tolerances(1.0, 0.2, 1.0), PENDULUM4)], 60, (False,)),
        ("vehicle-vvc-off", VehicleEnv(VehicleParams(**box)),
         vehicle_tasks, 25, both),
        ("vehicle-vvc-spatial",
         VehicleEnv(VehicleParams(**box), vvc=VvcConfig(VVC_SPATIAL, r_thresh=0.8)),
         vehicle_tasks, 25, both),
        ("vehicle-vvc-constant",
         VehicleEnv(VehicleParams(**box), vvc=VvcConfig(VVC_CONSTANT, r_thresh=0.8)),
         vehicle_tasks, 25, both),
    ]


# sha256 per case, recorded on the rollout that still had a dense-reward
# option, with its sparse runs only: a match means the option's removal
# moved no bit of the sparse rollout
GOLDEN = {
    "pendulum": "eee68bc074375bb228d5ef79fd4d8d8359fe3ada83ef8f03ab638108872385af",
    "vehicle-vvc-off": "27e42c07de7e450da03e7d25596f0effe818a0f8ab3906db03533a27a22bc827",
    "vehicle-vvc-spatial": "c0babd91b279dec022763b5a88b7e7ea89f94139f633cae793140005f0935855",
    "vehicle-vvc-constant": "6ec26b6b8b90ab126a9124f9dee3ae01f9eaad15b42bf21aa03d5ee9761c6ec4",
}


@pytest.mark.parametrize("case", [c[0] for c in _golden_cases()])
def test_batch_rollout_golden_bits(case):
    # every output of batch_rollout, the terminal states and a recorded
    # replay, hashed; any change to the arithmetic of a rollout step moves
    # a bit somewhere in here
    name, env, task_list, t_max, mirrors = next(
        c for c in _golden_cases() if c[0] == case)
    rng = np.random.default_rng(sum(map(ord, name)))
    h = hashlib.sha256()
    kinds = set()
    for task in task_list:
        spec = MlpSpec((RECIPE_DIMS[task.feature_recipe], 6, env.control_dim))
        thetas = (rng.normal(0.0, 1.0, (12, param_count(spec)))
                  * np.geomspace(0.01, 3.0, 12)[:, None])
        for t_goal in (1, 3):
            for mirror in mirrors:
                out = batch_rollout(thetas, spec, [task], env, t_max, t_goal, mirror=mirror)
                for a in out[:5]:
                    h.update(a.tobytes())
                h.update(out[6].tobytes())
                kinds |= {_finish_kind(*f) for f in zip(out[0], out[3], out[4])}
        for mirror in mirrors:
            res = rollout(thetas[-3], task, env, spec, t_max, record=True, mirror=mirror)
            h.update(np.array(res.trajectory, dtype=float).tobytes())
    assert {"goal run", "crash", "timeout"} <= kinds
    assert h.hexdigest() == GOLDEN[name]


def _history_cases():
    """name -> (TshcConfig fields) of the training-loop digests: each sigma
    mode with refine off and on, a run that stops in the middle of a restart
    on a full solution, and a run that splits the fan-out over 2 workers."""
    base = dict(n_restarts=2, n_iter_max=4, n_candidates=8, t_max=40,
                sigma_min=0.5, sigma_max=5.0, seed=33)
    cases = {f"{mode}-refine-{'on' if refine else 'off'}": dict(base, sigma_mode=mode,
                                                               refine=refine)
             for mode in ("constant", "random-per-restart", "random-per-iter", "adaptive")
             for refine in (False, True)}
    # solved at restart 1, iteration 2: the run ends there, restarts 2 and 3 unused
    cases["stops-mid-restart"] = dict(base, n_restarts=3, sigma_mode="adaptive", seed=10)
    cases["two-workers"] = dict(base, sigma_mode="random-per-iter", refine=True, workers=2)
    return cases


# sha256 per case of the iteration history without wall times and of the
# best parameter vector, recorded before the loop's decisions were merged
# into one place each: a match means the loop's results did not move
GOLDEN_HISTORY = {
    "constant-refine-off": "3a982a894abd38c43c9c124af135fff37547685b001f2b1c96902a34a2db1b8c",
    "constant-refine-on": "3ba13ec063a6eb3aed61b0636637e84f6e7491eaf20e9e9159564813277cf209",
    "random-per-restart-refine-off": "0181a9b608cf2993cbe1d42a135c9af8a331d8f70c6081898ca2ca90066a152f",
    "random-per-restart-refine-on": "c99194251a3404f77b0c7424f97b27045a4b694693103a8c63910bc966720fee",
    "random-per-iter-refine-off": "1d8d4230fb3079438fe5c1e41f92655660a969e6fa755c1ad023303cf2f3bc6a",
    "random-per-iter-refine-on": "ac5781d8b19b963789ce17cbf7fd1174893689ae993e39545a416248d7b45195",
    "adaptive-refine-off": "9ee6e851d94baab91db6113037aab2bdeba121b1d52f795c53233ee5db49dbe0",
    "adaptive-refine-on": "31cabe5552411e2fce88eaffafe39fdb56f580f70d6a66c2842565de8e47fe65",
    "stops-mid-restart": "4f4ce88c5ce36a389e0d80ce276972ae68e26c1f12e4f749ee0a7ebf94656e6b",
    "two-workers": "ac5781d8b19b963789ce17cbf7fd1174893689ae993e39545a416248d7b45195",
}


@pytest.mark.parametrize("case", list(_history_cases()))
def test_tshc_run_golden_history(case):
    tol = Tolerances(1.0, 1.0, 3.0)
    task_list = [freeform_task((0, 0, 0, 0), (1.3, 0, 0, 0), tol, task_id="ahead"),
                 freeform_task((0, 0, 0, 0), (-1.3, 0.2, 0, 0), tol, task_id="behind")]
    best, history = tshc_run(TshcConfig(**_history_cases()[case]), task_list,
                             small_env(), SPEC4)
    h = hashlib.sha256(repr(strip_wall_time(history)).encode())
    h.update(best.theta.tobytes())
    assert h.hexdigest() == GOLDEN_HISTORY[case]
