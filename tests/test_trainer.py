import copy
import hashlib
import math

import numpy as np
import pytest

from tshc.dynamics import PendulumParams, VehicleParams
from tshc.envs import PendulumEnv, VehicleEnv
from tshc.policy import MlpSpec, init_params, param_count
from tshc.reward import VVC_CONSTANT, VVC_SPATIAL, Tolerances, VvcConfig
from tshc.tasks import (GOAL5, PENDULUM, PENDULUM4, Task, freeform_task,
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
        spec = MlpSpec((env.feature_dim(task), 6, env.control_dim))
        thetas = rng.normal(0.0, 1.0, (16, param_count(spec))) * scales
        for rich in (None, (1.0, 2.0, 0.5, 0.1)):
            for t_goal in (1, 3):
                for mirror in ((False, True) if env.kind == "vehicle" else (False,)):
                    out = batch_rollout(thetas, spec, [task], env, t_max, t_goal,
                                        rich_weights=rich, mirror=mirror)
                    batch_kinds = set()
                    for i in range(len(thetas)):
                        one = batch_rollout(thetas[i:i + 1], spec, [task], env, t_max,
                                            t_goal, rich_weights=rich, mirror=mirror)
                        for a, b in zip(out[:5], one[:5]):
                            assert a[i:i + 1].tobytes() == b.tobytes()
                        end = out[6][:, i:i + 1]
                        assert end.tobytes() == one[6].tobytes()
                        kind = _finish_kind(out[0][i], out[3][i], out[4][i])
                        # a lane stops where it met its goal or left the track
                        if kind.startswith("goal"):
                            assert env.goal_mask(end, env.constants([task], 1))[0]
                        elif kind == "crash":
                            assert not _on_track(env, end)
                        batch_kinds.add(kind)
                    kinds |= batch_kinds
                    mixed += len(batch_kinds) >= 3
    assert kinds == {"goal at t=0", "goal run", "crash", "timeout"}
    assert mixed >= 8


class ScriptedGoalEnv:
    """One-lane env whose goal test at step t reads flags[t] (0 past the end);
    its state is the step count."""

    kind = "scripted"
    control_dim = 1

    def __init__(self, flags):
        self.flags = flags

    def feature_dim(self, task):
        return 1

    def constants(self, task_list, n):
        return self  # no per-lane columns

    def compact(self, keep):
        return self

    def init_arrays(self, task_list, n):
        return np.zeros((1, len(task_list) * n))

    def goal_mask(self, S, c):
        t = int(S[0, 0])
        return np.full(S.shape[1], t < len(self.flags) and self.flags[t] == 1)

    def features_arrays(self, S, c, last_raw, out=None):
        return np.zeros((S.shape[1], 1))

    def apply_arrays(self, S, raw, c):
        n = S.shape[1]
        return S + 1, raw.T, np.zeros(n), np.zeros(n, dtype=bool)


def test_batch_rollout_goal_run_resets():
    # t_goal = 3 consecutive goal steps: a 0 resets the run counter, and a
    # run cut short by the horizon is no success
    spec = MlpSpec((1, 1))
    task = freeform_task((0, 0, 0, 0), (0, 0, 0, 0))
    for flags, t_max, success, steps in [((1, 0, 1, 1, 1), 8, 1, 4),
                                         ((0, 1, 1, 1), 8, 1, 3),
                                         ((1, 1), 2, 0, 2),
                                         ((1, 1, 0, 1, 1), 5, 0, 5)]:
        s, _, j, _, n_steps, _, _ = batch_rollout(
            np.zeros(2), spec, [task], ScriptedGoalEnv(flags), t_max, 3)
        assert (s[0], n_steps[0]) == (success, steps), flags
        # the reward counts every step tested, the final goal step included
        assert j[0] == -(steps + success)


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
    # and the recorded trajectory
    _, env, task_list, t_max, mirrors = next(c for c in _fold_cases() if c[0] == case)
    spec = MlpSpec((env.feature_dim(task_list[0]), 6, env.control_dim))
    rng = np.random.default_rng(5)
    n = 8
    thetas = rng.normal(0.0, 1.0, (n, param_count(spec))) * np.geomspace(0.01, 3.0, n)[:, None]
    kinds = set()
    for rich in (None, (1.0, 2.0, 0.5, 0.1)):
        for mirror in mirrors:
            out = batch_rollout(thetas, spec, task_list, env, t_max, 1,
                                rich_weights=rich, record=True, mirror=mirror)
            assert len(out[0]) == len(out[5]) == len(task_list) * n
            for k, task in enumerate(task_list):
                for i in range(n):
                    lane = k * n + i
                    one = batch_rollout(thetas[i], spec, [task], env, t_max, 1,
                                        rich_weights=rich, record=True, mirror=mirror)
                    for a, b in zip(out[:5], one[:5]):
                        assert a[lane:lane + 1].tobytes() == b.tobytes(), (task.id, i)
                    assert out[6][:, lane:lane + 1].tobytes() == one[6].tobytes()
                    assert out[5][lane].tobytes() == one[5][0].tobytes()
                    assert out[4][lane] <= (task.t_max or t_max)
                    kinds.add(_finish_kind(out[0][lane], out[3][lane], out[4][lane]))
    assert {"goal run", "timeout"} <= kinds


def test_evaluate_batch_matches_per_task_sum():
    # the folded fan-out adds each task's lanes in task order, the sum a
    # loop of one-task rollouts makes
    _, env, task_list, t_max, _ = _fold_cases()[0]
    rng = np.random.default_rng(6)
    thetas = rng.normal(0.0, 1.0, (6, param_count(SPEC5))) * np.geomspace(0.01, 3.0, 6)[:, None]
    for rich in (None, (1.0, 2.0, 0.5, 0.1)):
        expected = np.zeros((6, 4))
        for task in task_list:
            s, p, j, c, _, _, _ = batch_rollout(thetas, SPEC5, [task], env, t_max, 2,
                                                rich_weights=rich)
            expected[:, 0] += s
            expected[:, 1] += p
            expected[:, 2] += j
            expected[:, 3] = np.logical_or(expected[:, 3], c)
        got = evaluate_batch(thetas, task_list, env, SPEC5, t_max, 2, rich_weights=rich)
        assert got.tobytes() == expected.tobytes()


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
    best_3, hist_3 = tshc_run(TshcConfig(**base, workers=3), [task], env, SPEC4)
    assert strip_wall_time(hist_1) == strip_wall_time(hist_3)
    assert (best_1.theta is None) == (best_3.theta is None)
    if best_1.theta is not None:
        assert np.array_equal(best_1.theta, best_3.theta)


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
    """(name, env, tasks, t_max, mirror options, rich options) per digest."""
    obstacle = (1.4, -0.3, 1.8, 0.3)
    box = dict(Ts=0.1, workspace=(-4.0, -4.0, 5.0, 4.0), obstacles=(obstacle,))
    vtol = Tolerances(0.5, 0.5, 3.0)
    vehicle_tasks = [freeform_task((0, 0, 0, 0), (1.0, 0, 0, 0), vtol, task_id="ahead"),
                     freeform_task((0, 0, 0.3, 1.0), (0.8, 0.6, 0.5, 2.0), vtol, GOAL5,
                                   task_id="diag"),
                     freeform_task((0, 0, 0, 0), (1.0, -0.5, -0.4, 12.0), vtol, GOAL5,
                                   task_id="fast-goal")]
    rich = (None, (1.0, 2.0, 0.5, 0.1))
    both = (False, True)
    return [
        ("pendulum", PendulumEnv(PendulumParams(p_limit=1.0)),
         [pendulum_tasks("swingup")[0],
          Task("tilted", PENDULUM, (0, 0, 0.4, 0), (0, 0, 0, 0),
               Tolerances(1.0, 0.2, 1.0), PENDULUM4)], 60, (False,), rich),
        ("vehicle-vvc-off", VehicleEnv(VehicleParams(**box)),
         vehicle_tasks, 25, both, rich),
        ("vehicle-vvc-spatial",
         VehicleEnv(VehicleParams(**box), vvc=VvcConfig(VVC_SPATIAL, r_thresh=0.8)),
         vehicle_tasks, 25, both, rich),
        ("vehicle-vvc-constant",
         VehicleEnv(VehicleParams(**box), vvc=VvcConfig(VVC_CONSTANT, r_thresh=0.8)),
         vehicle_tasks, 25, both, rich),
    ]


# sha256 per case, recorded on the dict-state rollout that the state matrix
# replaced: a match means the refactor moved no bit
GOLDEN = {
    "pendulum": "e7ee97c8def09d3512485959a856ce3dad2a5cb244c21e1749a39a36b350184f",
    "vehicle-vvc-off": "6fc6800de9263e361500c349bb015dd0cb8c7e907a39c11d9e0da3965c31928d",
    "vehicle-vvc-spatial": "51437f1154221ee4708876c94bfdcf83a75d3c558187d54e047ade9a7ec8b9ef",
    "vehicle-vvc-constant": "05c396ee1cfc9a14bb260d12535c816ef25b5eb7cff8af1cbb598460554c14f7",
}


@pytest.mark.parametrize("case", [c[0] for c in _golden_cases()])
def test_batch_rollout_golden_bits(case):
    # every output of batch_rollout, the terminal states and a recorded
    # replay, hashed; any change to the arithmetic of a rollout step moves
    # a bit somewhere in here
    name, env, task_list, t_max, mirrors, riches = next(
        c for c in _golden_cases() if c[0] == case)
    rng = np.random.default_rng(sum(map(ord, name)))
    h = hashlib.sha256()
    kinds = set()
    for task in task_list:
        spec = MlpSpec((env.feature_dim(task), 6, env.control_dim))
        thetas = (rng.normal(0.0, 1.0, (12, param_count(spec)))
                  * np.geomspace(0.01, 3.0, 12)[:, None])
        for rich_weights in riches:
            for t_goal in (1, 3):
                for mirror in mirrors:
                    out = batch_rollout(thetas, spec, [task], env, t_max, t_goal,
                                        rich_weights=rich_weights, mirror=mirror)
                    for a in out[:5]:
                        h.update(a.tobytes())
                    h.update(out[6].tobytes())
                    kinds |= {_finish_kind(*f) for f in zip(out[0], out[3], out[4])}
        for mirror in mirrors:
            res = rollout(thetas[-3], task, env, spec, t_max, record=True, mirror=mirror)
            h.update(np.array(res.trajectory, dtype=float).tobytes())
    assert {"goal run", "crash", "timeout"} <= kinds
    assert h.hexdigest() == GOLDEN[name]
