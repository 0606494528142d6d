"""Hill-climbing trainer: restart loop, Gaussian perturbation fan-out,
folded rollouts over the task list, candidate selection,
perturbation-scale adaptation and the greedy parameter move.

All candidates of one iteration are evaluated on all tasks in one lockstep
rollout with batched numpy: its lanes are (task, candidate) pairs in
task-major order, the state is one (state_dim, lanes) matrix (see
``envs``), and the per-lane goal, tolerance, success-window and horizon
columns are built once per rollout.  A lane that reaches its goal,
crashes, goes non-finite or reaches its task's horizon is dropped from the
working arrays and columns at once, so later steps compute only the live
lanes; its step count, path length and reward are written when it leaves.
Every lane is independent, so neither folding tasks, dropping lanes nor
splitting the fan-out across worker processes changes a bit: results are
identical for any batch size, task grouping and worker count.  Candidate
noise is derived from a counter-based sub-seed (seed, restart, iteration,
candidate), which makes runs reproducible for any worker count.
"""

import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import NamedTuple

import numpy as np

from . import reward
from . import tasks as tasklib
from .policy import MlpSpec, forward_layers, init_params, unflatten

SIGMA_CONSTANT = "constant"
SIGMA_RANDOM_RESTART = "random-per-restart"
SIGMA_RANDOM_ITER = "random-per-iter"
SIGMA_ADAPTIVE = "adaptive"
SIGMA_MODES = (SIGMA_CONSTANT, SIGMA_RANDOM_RESTART, SIGMA_RANDOM_ITER, SIGMA_ADAPTIVE)

# namespaces for the counter-based seed streams
_SEED_INIT = 0
_SEED_SIGMA = 1
_SEED_PERTURB = 2


@dataclass(frozen=True)
class TshcConfig:
    n_restarts: int
    n_iter_max: int
    n_candidates: int
    t_max: int
    t_goal: int = 1
    beta: float = 2.0
    sigma_min: float = 0.01
    sigma_max: float = 10.0
    sigma_mode: str = SIGMA_ADAPTIVE
    refine: bool = False
    seed: int = 0
    workers: int = 1
    rich_weights: tuple | None = None

    def __post_init__(self):
        if min(self.n_restarts, self.n_iter_max, self.n_candidates, self.t_max) < 1:
            raise ValueError("iteration counts and horizon must be positive")
        if self.t_goal < 1:
            raise ValueError("t_goal must be >= 1")
        if self.beta <= 1.0:
            raise ValueError("beta must be > 1")
        if not 0.0 < self.sigma_min <= self.sigma_max:
            raise ValueError("need 0 < sigma_min <= sigma_max")
        if self.sigma_mode not in SIGMA_MODES:
            raise ValueError(f"unknown sigma mode {self.sigma_mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.rich_weights is not None and not all(w >= 0.0 for w in self.rich_weights):
            raise ValueError(f"rich_weights must be non-negative, got {self.rich_weights}")


@dataclass(frozen=True)
class RolloutResult:
    success: int
    pathlength: float
    reward: float
    crashed: bool
    steps: int
    trajectory: list | None = None
    terminal: tuple | None = None


class CandidateScore(NamedTuple):
    """One candidate's scores over all tasks: a row of the (n, 4) score
    array of a fan-out, whose columns are these fields in this order."""

    n_solved: int
    pathlength: float
    reward: float
    crashed: bool


@dataclass
class BestSolution:
    theta: np.ndarray | None = None
    n_solved: int = 0
    pathlength: float | None = None  # set only once all tasks are solved
    reward: float = float("-inf")  # unset; any finite candidate improves on it
    restart: int | None = None
    iteration: int | None = None


@dataclass(frozen=True)
class IterationRecord:
    restart: int
    iteration: int
    sigma: float
    n_solved: int
    pathlength: float
    reward: float
    crashed: bool
    improved: bool
    wall_time: float


def batch_rollout(thetas, spec: MlpSpec, task_list, env, t_max, t_goal,
                  rich_weights=None, record=False, mirror=False):
    """Simulate every task of ``task_list`` for a batch of n parameter
    vectors in lockstep.

    The lanes are (task, candidate) pairs in task-major order: lane
    k * n + i runs task k with ``thetas[i]``.  A task's own ``t_max`` and
    ``t_goal`` override the defaults given here.  Returns (success,
    pathlength, reward, crashed, steps, trajectories, terminal states),
    each per lane; the terminal states are a (state_dim, lanes) matrix, a
    lane's column holding where it reached its goal run, crashed or timed
    out.  With ``record`` the trajectories are one (steps + 1, columns)
    array per lane: at every step the pose before it and the controls
    applied when leaving it, then the terminal pose with the last controls
    (zeros if the lane never stepped); without it they are None.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = thetas.shape[0]
    if len(task_list) > 1:
        thetas = np.tile(thetas, (len(task_list), 1))
    lanes = thetas.shape[0]
    layers = unflatten(thetas, spec)
    consts = env.constants(task_list, n)
    S = env.init_arrays(task_list, n)
    terminal = np.empty(S.shape)
    features = np.empty((lanes, env.feature_dim(task_list[0])))
    if rich_weights is not None:
        weights = np.asarray(rich_weights, dtype=float)[:, None]
    # success windows per lane; one window shared by all tasks stays an int
    windows = [task.t_goal or t_goal for task in task_list]
    goal_run = windows[0] if len(set(windows)) == 1 else np.repeat(windows, n)
    # a lane times out at its task's horizon; the loop runs to the longest,
    # and a shorter one retires its lanes at that step, a check made only on
    # the steps in ``stops`` (whose last, the longest, the loop never reaches)
    horizons = [task.t_max or t_max for task in task_list]
    T = max(horizons)
    lane_horizon = np.repeat(horizons, n)
    stops = iter(sorted(set(horizons)))
    k = 5 - env.control_dim  # pose rows in a trajectory row
    if record:
        # a step writes the rows of the live lanes, in working order, to
        # ``steps_rec``; a retirement moves the rows written since the last
        # one (``since``) to the lanes' own rows of ``rec``
        rec = np.empty((T + 1, lanes, k + env.control_dim))
        steps_rec = np.empty((T, k + env.control_dim, lanes))
        since = 0
    # the working arrays (S, layers, consts, goal_run, last_raw, run and the
    # running path length and reward) hold the live lanes only; ``live``
    # maps them to their lanes, and a lane's results are written when it
    # retires
    live = np.arange(lanes)
    last_raw = np.zeros(lanes)
    run = np.zeros(lanes, dtype=np.int64)
    path = np.zeros(lanes)
    dense = np.zeros(lanes)
    success = np.zeros(lanes, dtype=np.int64)
    crashed = np.zeros(lanes, dtype=bool)
    steps = np.zeros(lanes, dtype=np.int64)
    P = np.zeros(lanes)
    J = np.zeros(lanes)

    def retire(gone, n_steps):
        nonlocal live, S, layers, consts, goal_run, last_raw, run, path, dense, since
        rows = live[gone]
        terminal[:, rows] = S[:, gone]
        steps[rows] = n_steps
        P[rows] = path[gone]
        J[rows] = dense[gone]
        if record:
            written = steps_rec[since:n_steps, :, :live.size]
            rec[since:n_steps, live] = written.transpose(0, 2, 1)
            since = n_steps
            rec[n_steps, rows, :k] = S[:k, gone].T
            rec[n_steps, rows, k:] = rec[n_steps - 1, rows, k:] if n_steps else 0.0
        keep = np.flatnonzero(~gone)
        live = live[keep]
        S = S[:, keep]
        layers = [(w[keep], b[keep]) for w, b in layers]
        consts = consts.compact(keep)
        if isinstance(goal_run, np.ndarray):
            goal_run = goal_run[keep]
        last_raw = last_raw[keep]
        run = run[keep]
        path = path[keep]
        dense = dense[keep]

    stop = next(stops)
    for t in range(T):
        if t == stop:
            timed_out = lane_horizon[live] == t
            stop = next(stops)
            if np.count_nonzero(timed_out):
                retire(timed_out, t)
                if not live.size:
                    break
        run = (run + 1) * env.goal_mask(S, consts)
        done = run >= goal_run
        if rich_weights is not None:
            # every live lane collects this step's reward, a lane that
            # reaches its goal run here included
            dense += reward.rich_values(S[:4], consts.goal, weights)
        if np.count_nonzero(done):
            success[live[done]] = 1
            retire(done, t)
            if not live.size:
                break
        feats = env.features_arrays(S, consts, last_raw, features[:live.size])
        if mirror:
            feats = tasklib.mirror_features(feats, consts.recipe)
        raw = forward_layers(layers, feats)
        if mirror:
            raw = tasklib.mirror_control(raw)
        S_next, controls, dp, crash = env.apply_arrays(S, raw, consts)
        path += dp
        if record:
            steps_rec[t, :k, :live.size] = S[:k]
            steps_rec[t, k:, :live.size] = controls
        S = S_next
        last_raw = raw[:, -1]
        if np.count_nonzero(crash):
            crashed[live[crash]] = True
            retire(crash, t + 1)
            if not live.size:
                break
    retire(np.ones(live.size, dtype=bool), T)  # lanes that timed out
    if rich_weights is None:
        # the sparse reward is -1 per goal test: one per step, plus the
        # test that found a lane's goal run
        J = (-(steps + success)).astype(float)
    trajectories = ([rec[:m + 1, lane] for lane, m in enumerate(steps.tolist())]
                    if record else None)
    return success, P, J, crashed, steps, trajectories, terminal


def rollout(theta, task, env, spec: MlpSpec, t_max, t_goal=1,
            rich_weights=None, record=False, mirror=False) -> RolloutResult:
    """Single-candidate rollout of one task: a one-lane ``batch_rollout``;
    optionally records the trajectory as (t, pose..., controls...) rows."""
    success, P, J, crashed, steps, trajectories, S = batch_rollout(
        theta, spec, [task], env, t_max, t_goal,
        rich_weights=rich_weights, record=record, mirror=mirror)
    trajectory = None
    if record:
        trajectory = [(t, *row) for t, row in enumerate(trajectories[0].tolist())]
    return RolloutResult(int(success[0]), float(P[0]), float(J[0]),
                         bool(crashed[0]), int(steps[0]), trajectory,
                         tuple(S[:4, 0].tolist()))


def evaluate_batch(thetas, task_list, env, spec, t_max, t_goal,
                   rich_weights=None):
    """Scores of each batch row summed over all tasks: an (n, 4) float array
    with the ``CandidateScore`` columns n_solved, pathlength, reward and
    crashed (0 or 1, set if the candidate crashed on any task).

    All tasks run in one folded rollout; each task's lanes are added in
    task order, as a loop over the tasks would add them."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = thetas.shape[0]
    s, p, j, c, _, _, _ = batch_rollout(thetas, spec, task_list, env, t_max, t_goal,
                                        rich_weights=rich_weights)
    scores = np.zeros((n, 4))
    for lo in range(0, len(task_list) * n, n):
        lanes = slice(lo, lo + n)
        scores[:, 0] += s[lanes]
        scores[:, 1] += p[lanes]
        scores[:, 2] += j[lanes]
        scores[:, 3] = np.logical_or(scores[:, 3], c[lanes])
    return scores


def _subseed(seed, *key):
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def candidate_theta(theta, sigma, seed, restart, iteration, index, out=None):
    """Reconstruct candidate ``index`` of one fan-out from its counter seed,
    ``theta + sigma * noise``; written to ``out`` (a new array by default)."""
    rng = np.random.default_rng(_subseed(seed, _SEED_PERTURB, restart, iteration, index))
    if out is None:
        out = np.empty(theta.shape[0])
    rng.standard_normal(out=out)
    np.multiply(out, sigma, out=out)
    return np.add(theta, out, out=out)


def _eval_chunk(theta, sigma, seed, restart, iteration, lo, hi,
                task_list, env, spec, t_max, t_goal, rich_weights):
    thetas = np.empty((hi - lo, theta.shape[0]))
    for j, i in enumerate(range(lo, hi)):
        candidate_theta(theta, sigma, seed, restart, iteration, i, out=thetas[j])
    return evaluate_batch(thetas, task_list, env, spec, t_max, t_goal,
                          rich_weights=rich_weights)


def _first_max(values, mask):
    # index of the largest value where mask holds, the lowest one on ties
    rows = np.flatnonzero(mask)
    return int(rows[np.argmax(values[rows])])


def select_best(scores, current_best: BestSolution, n_tasks):
    """Candidate choice and global-best update of one fan-out.

    ``scores`` is the (n, 4) array of ``evaluate_batch`` or a sequence of
    ``CandidateScore``.  Returns (i_star, updated best, n_tasks_star).  If
    any candidate solves all tasks, the winner is the full solver with the
    largest pathlength, and the global best improves on a strictly larger
    pathlength.  Otherwise, if any candidate never crashed, the winner has
    the highest reward among those, and the global best improves on a
    strictly higher reward while no full solution has been recorded.  If
    all crashed, the winner has the largest pathlength among those with the
    most solved tasks.  Ties keep the lowest candidate index; when nothing
    improves, ``current_best`` itself is returned.

    ``argmax`` matches a strict ``>`` scan only without NaN, and no score
    is NaN: a lane is dropped the step its state goes non-finite, and the
    position rows that feed a step's path length and reward come from the
    previous, finite state.  So pathlength and reward are finite or -inf,
    and a tie at -inf keeps the lowest index too.
    """
    scores = np.asarray(scores, dtype=float)
    if not len(scores):
        raise ValueError("scores must be non-empty")
    n_solved, path, rew, crashed = scores.T
    best = current_best
    full = n_solved == n_tasks
    if full.any():
        i_star = _first_max(path, full)
        if best.pathlength is None or path[i_star] > best.pathlength:
            best = BestSolution(n_solved=n_tasks, pathlength=float(path[i_star]),
                                reward=float(rew[i_star]))
    elif not crashed.all():
        i_star = _first_max(rew, crashed == 0)
        if best.pathlength is None and rew[i_star] > best.reward:
            best = BestSolution(n_solved=int(n_solved[i_star]), pathlength=None,
                                reward=float(rew[i_star]))
    else:
        i_star = _first_max(path, n_solved == n_solved.max())
    return i_star, best, int(n_solved[i_star])


def adapt_sigma(sigma, n_new, n_old, beta, sigma_min, sigma_max):
    """Shrink on progress, grow on regression, clamp to [min, max]."""
    if n_new > n_old:
        return max(sigma / beta, sigma_min)
    if n_new < n_old:
        return min(sigma * beta, sigma_max)
    return sigma


def draw_sigma(mode, rng, sigma_min, sigma_max):
    if mode == SIGMA_CONSTANT:
        return sigma_max
    if mode in (SIGMA_RANDOM_RESTART, SIGMA_RANDOM_ITER):
        return float(rng.uniform(sigma_min, sigma_max))
    return sigma_max  # adaptive starts from the top of the range


def tshc_run(cfg: TshcConfig, task_list, env, policy_spec: MlpSpec,
             on_iteration=None, on_improved=None):
    """Full training run; returns (BestSolution, list of IterationRecord)."""
    if not task_list:
        raise ValueError("at least one training task is required")
    for task in task_list:
        if env.feature_dim(task) != policy_spec.input_dim:
            raise ValueError(
                f"task {task.id!r} produces {env.feature_dim(task)} features, "
                f"policy expects {policy_spec.input_dim}")
    if policy_spec.output_dim != env.control_dim:
        raise ValueError(
            f"policy outputs {policy_spec.output_dim} channels, "
            f"environment needs {env.control_dim}")
    n_tasks = len(task_list)
    best = BestSolution()
    history = []
    pool = None
    ctx = get_context("fork")
    if cfg.workers > 1:
        pool = ctx.Pool(cfg.workers)
    t0 = time.monotonic()
    try:
        for restart in range(1, cfg.n_restarts + 1):
            theta = init_params(policy_spec,
                                np.random.default_rng(_subseed(cfg.seed, _SEED_INIT, restart)))
            sigma = draw_sigma(cfg.sigma_mode,
                               np.random.default_rng(_subseed(cfg.seed, _SEED_SIGMA, restart)),
                               cfg.sigma_min, cfg.sigma_max)
            n_old = 0
            for iteration in range(1, cfg.n_iter_max + 1):
                if cfg.sigma_mode == SIGMA_RANDOM_ITER:
                    sigma = draw_sigma(
                        cfg.sigma_mode,
                        np.random.default_rng(_subseed(cfg.seed, _SEED_SIGMA, restart, iteration)),
                        cfg.sigma_min, cfg.sigma_max)
                scores = _fan_out(pool, cfg, theta, sigma, restart, iteration,
                                  task_list, env, policy_spec)
                prev_best = best
                i_star, best, n_star = select_best(scores, best, n_tasks)
                improved = best is not prev_best
                theta = candidate_theta(theta, sigma, cfg.seed, restart, iteration, i_star)
                if improved:
                    best.theta = theta.copy()
                    best.restart = restart
                    best.iteration = iteration
                    if on_improved is not None:
                        on_improved(best)
                _, path, rew, crashed = scores[i_star].tolist()
                record = IterationRecord(
                    restart, iteration, float(sigma), n_star, path, rew,
                    bool(crashed), improved, time.monotonic() - t0)
                history.append(record)
                if on_iteration is not None:
                    on_iteration(record)
                if cfg.sigma_mode == SIGMA_ADAPTIVE:
                    sigma = adapt_sigma(sigma, n_star, n_old, cfg.beta,
                                        cfg.sigma_min, cfg.sigma_max)
                n_old = n_star
                if not cfg.refine and n_star == n_tasks:
                    break  # no refinement step
            if not cfg.refine and best.n_solved == n_tasks:
                break  # terminate on the first full solution, no extra restart
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return best, history


def _fan_out(pool, cfg, theta, sigma, restart, iteration, task_list, env, spec):
    args = (theta, sigma, cfg.seed, restart, iteration)
    static = (task_list, env, spec, cfg.t_max, cfg.t_goal, cfg.rich_weights)
    n = cfg.n_candidates
    if pool is None:
        return _eval_chunk(*args, 0, n, *static)
    bounds = np.linspace(0, n, min(cfg.workers, n) + 1, dtype=int)
    jobs = [args + (int(lo), int(hi)) + static
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    return np.concatenate(pool.starmap(_eval_chunk, jobs))
