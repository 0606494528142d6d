"""Hill-climbing trainer: restart loop, Gaussian perturbation fan-out,
folded rollouts over the task list, candidate selection,
perturbation-scale adaptation and the greedy parameter move.

All candidates of one iteration are evaluated on all tasks in one lockstep
rollout with batched numpy: its lanes are (task, candidate) pairs in
task-major order, the state is one (state_dim, lanes) matrix (see
``envs``), and the per-lane goal, tolerance, success-window and horizon
columns are built once per rollout, in the same layout for one task as
for many.  Every lane leaves inside the step loop, by one retirement per
cause: at its task's horizon (tested first, so no lane is goal-tested at
its horizon), at a complete goal run, or after a step that crashed it or
made its state non-finite (a crash; a step to a NaN pose has length 0).
A retired lane is dropped from the working arrays at once, so later steps
compute only the live lanes; its step count and path length are written
when it leaves, and its reward is the sparse one, -1 per goal test.
The working arrays hold the live lanes in slot order, which a retirement
permutes: each survivor past the new lane count moves into the slot of a
retired lane, so the rollout's own weight stack, one dense copy of each
layer made at setup, copies only those survivors, in place.  Every lane
is independent, so neither folding tasks, the slot order, dropping lanes
nor splitting the fan-out across worker processes changes a bit: results
are identical for any batch size, task grouping and worker count.  Candidate
noise is derived from a counter-based sub-seed (seed, restart, iteration,
candidate), which makes runs reproducible for any worker count.  The loop
around the rollouts makes each decision once: one contiguous chunk per
worker, split once per run, and every fan-out runs that job list through
the pool or, with one worker, in process; σ is drawn at a restart's first
iteration and, for random-per-iter, at every one; without ``refine`` the
first full solution ends the run.
"""

import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import NamedTuple

import numpy as np

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
# rows a recorded rollout allocates up front, unless its horizon needs fewer
_RECORD_ROWS = 1024


def _available_cpus():
    """The CPUs this process may run on, where the OS tells, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    # the only default of the pool size; a caller inside a daemonic process,
    # which may not fork a pool, passes 1
    workers: int = field(default_factory=_available_cpus)

    def __post_init__(self):
        if min(self.n_restarts, self.n_iter_max, self.n_candidates, self.t_max) < 1:
            raise ValueError("iteration counts and horizon must be positive")
        if self.t_goal < 1:
            raise ValueError("t_goal must be >= 1")
        if self.beta <= 1.0:
            raise ValueError("beta must be > 1")
        # a constant sigma is sigma_max, whatever sigma_min
        low = self.sigma_max if self.sigma_mode == SIGMA_CONSTANT else self.sigma_min
        if not 0.0 < low <= self.sigma_max:
            raise ValueError("need 0 < sigma_min <= sigma_max")
        if self.sigma_mode not in SIGMA_MODES:
            raise ValueError(f"unknown sigma mode {self.sigma_mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


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
                  record=False, mirror=False):
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
    if t_goal < 1:
        raise ValueError(f"t_goal must be >= 1, got {t_goal!r}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max!r}")
    if mirror:
        tasklib.check_mirror(env)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = thetas.shape[0]
    lanes = n * len(task_list)
    # a retirement moves weight slots in place, so the stack is the rollout's
    # own: a dense copy of each layer per task (np.tile copies for one too)
    layers = [(np.tile(w, (len(task_list), 1, 1)), np.tile(b, (len(task_list), 1)))
              for w, b in unflatten(thetas, spec)]
    S, consts = env.start(task_list, n)
    terminal = np.empty(S.shape)
    features = np.empty((lanes, tasklib.RECIPE_DIMS[task_list[0].feature_recipe]))
    # success window per lane
    goal_run = np.repeat([task.t_goal or t_goal for task in task_list], n)
    # a lane times out at its task's horizon; the loop runs to the longest,
    # and a shorter one retires its lanes at that step
    horizons = [task.t_max or t_max for task in task_list]
    T = max(horizons)
    lane_horizon = np.repeat(horizons, n)
    stops = set(horizons)
    if record:
        # a step writes the row of each live lane in place: k pose columns,
        # then the controls; the buffer doubles as the steps need it, so a
        # huge horizon costs only the rows of the steps taken
        rec = np.empty((min(T + 1, _RECORD_ROWS), lanes, len(env.csv_columns) - 1))
        k = rec.shape[2] - env.control_dim
    # the working arrays (S and its observation, layers, consts, last_raw,
    # run, path) hold the live lanes only, in slot order; ``live`` maps the
    # slots to their lanes, and a lane's results are written when it retires
    live = np.arange(lanes)
    # until a retirement moves a slot, ``live`` is arange(live.size), and a
    # recorded step writes its rows through a slice, not an index array
    moved = False
    last_raw = np.zeros(lanes)
    run = np.zeros(lanes, dtype=np.int64)
    path = np.zeros(lanes)
    success = np.zeros(lanes, dtype=np.int64)
    crashed = np.zeros(lanes, dtype=bool)
    steps = np.zeros(lanes, dtype=np.int64)
    P = np.zeros(lanes)

    def retire(gone, n_steps, outcome=None):
        # drops the lanes ``gone``, flagged in ``outcome``; True once none is left
        nonlocal live, moved, S, obs, layers, consts, last_raw, run, path
        rows = live[gone]
        if outcome is not None:
            outcome[rows] = True
        terminal[:, rows] = S[:, gone]
        steps[rows] = n_steps
        P[rows] = path[gone]
        if record:
            rec[n_steps, rows, :k] = S[:k, gone].T
            rec[n_steps, rows, k:] = rec[n_steps - 1, rows, k:] if n_steps else 0.0
        # the m survivors take slots [0, m): one past m moves into the slot
        # of a lane retired before m, and the others stay where they are
        m = live.size - np.count_nonzero(gone)
        holes = np.flatnonzero(gone[:m])
        movers = np.flatnonzero(~gone[m:]) + m
        keep = np.arange(m)
        keep[holes] = movers
        live = live[keep]
        S = S[:, keep]
        obs = obs[:, keep]
        # only the movers' weights are copied; each layer is a view
        if holes.size:
            moved = True
            for w, b in layers:
                w[holes] = w[movers]
                b[holes] = b[movers]
        layers = [(w[:m], b[:m]) for w, b in layers]
        consts = consts.compact(keep)
        last_raw = last_raw[keep]
        run = run[keep]
        path = path[keep]
        return not m

    # the horizon test comes first: a lane is never goal-tested at its horizon
    for t in range(T + 1):
        if t in stops:
            timed_out = lane_horizon[live] == t
            if np.count_nonzero(timed_out) and retire(timed_out, t):
                break
        obs = env.observe(S, consts)
        # a goal run (t_goal >= 1 steps) ends only at a step at the goal, so
        # a step with no lane at its goal just resets every run
        reached = env.goal_mask(obs, consts)
        if np.count_nonzero(reached):
            run = (run + 1) * reached
            done = run >= goal_run[live]
            if np.count_nonzero(done) and retire(done, t, success):
                break
        else:
            run.fill(0)
        feats = env.features_arrays(obs, consts, last_raw, features[:live.size])
        if mirror:
            feats = tasklib.mirror_features(feats, consts.recipe)
        raw = forward_layers(layers, feats)
        if mirror:
            raw = tasklib.mirror_control(raw)
        S_next, controls, step, crash = env.apply_arrays(S, raw, consts, obs)
        # a NaN control makes the pose NaN; the per-lane test runs only
        # when some lane is not finite, and a step to a NaN pose has length 0
        if not np.isfinite(S_next).all():
            crash |= ~np.isfinite(S_next).all(0)
            step[np.isnan(step)] = 0.0
        path -= step  # P is minus the distance travelled
        if record:
            if t + 1 == rec.shape[0]:  # a lane that crashes now writes row t + 1
                rec = np.concatenate((rec, np.empty_like(rec)))
            slots = live if moved else slice(live.size)
            rec[t, slots, :k] = S[:k].T
            rec[t, slots, k:] = controls.T
        S = S_next
        last_raw = raw[:, -1]
        if np.count_nonzero(crash) and retire(crash, t + 1, crashed):
            break
    # the sparse reward is -1 per goal test: one per step, plus the test
    # that found a lane's goal run
    J = (-(steps + success)).astype(float)
    trajectories = ([rec[:m + 1, lane] for lane, m in enumerate(steps.tolist())]
                    if record else None)
    return success, P, J, crashed, steps, trajectories, terminal


def rollout(theta, task, env, spec: MlpSpec, t_max, t_goal=1,
            record=False, mirror=False) -> RolloutResult:
    """Single-candidate rollout of one task: a one-lane ``batch_rollout``;
    optionally records the trajectory as (t, pose..., controls...) rows."""
    success, P, J, crashed, steps, trajectories, S = batch_rollout(
        theta, spec, [task], env, t_max, t_goal, record=record, mirror=mirror)
    trajectory = None
    if record:
        trajectory = [(t, *row) for t, row in enumerate(trajectories[0].tolist())]
    return RolloutResult(int(success[0]), float(P[0]), float(J[0]),
                         bool(crashed[0]), int(steps[0]), trajectory,
                         tuple(S[:4, 0].tolist()))


def evaluate_batch(thetas, task_list, env, spec, t_max, t_goal):
    """Scores of each batch row summed over all tasks: an (n, 4) float array
    with the ``CandidateScore`` columns n_solved, pathlength, reward and
    crashed (0 or 1, set if the candidate crashed on any task).

    All tasks run in one folded rollout; a cumulative sum adds each task's
    lanes in task order, as a loop over the tasks would (a numpy ``sum``
    may add them pairwise)."""
    s, p, j, c, _, _, _ = batch_rollout(thetas, spec, task_list, env, t_max, t_goal)
    lanes = np.stack([s, p, j, c], axis=1).reshape(len(task_list), -1, 4)
    scores = np.cumsum(lanes, axis=0)[-1]
    scores[:, 3] = scores[:, 3] > 0  # crashed on any task
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
                task_list, env, spec, t_max, t_goal):
    thetas = np.empty((hi - lo, theta.shape[0]))
    for j, i in enumerate(range(lo, hi)):
        candidate_theta(theta, sigma, seed, restart, iteration, i, out=thetas[j])
    return evaluate_batch(thetas, task_list, env, spec, t_max, t_goal)


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
    is NaN: a lane is dropped the step its state goes non-finite, that
    step's length counts as 0 if it is NaN (the pose it reached is NaN),
    and the reward counts goal tests.  So pathlength is finite or -inf,
    reward is finite, and a tie at -inf keeps the lowest index too.
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
    if mode in (SIGMA_RANDOM_RESTART, SIGMA_RANDOM_ITER):
        return float(rng.uniform(sigma_min, sigma_max))
    return sigma_max  # constant, and adaptive starts from the top of the range


def check_fit(task_list, env, spec: MlpSpec, theta=None):
    """Raise ``ValueError`` unless ``task_list`` has tasks and a policy of
    ``spec``, and the flat ``theta`` if given, fits ``env`` and them."""
    if not task_list:
        raise ValueError("at least one task is required")
    if spec.output_dim != env.control_dim:
        raise ValueError(f"policy outputs {spec.output_dim} channels, "
                         f"environment needs {env.control_dim}")
    for task in task_list:
        if task.env_kind != env.kind:
            raise ValueError(f"task {task.id!r} is a {task.env_kind} task, "
                             f"environment is {env.kind}")
        dims = tasklib.RECIPE_DIMS[task.feature_recipe]
        if dims != spec.input_dim:
            raise ValueError(f"task {task.id!r} produces {dims} features, "
                             f"policy expects {spec.input_dim}")
    if theta is not None:
        unflatten(theta, spec)  # raises on a length that does not fit


def tshc_run(cfg: TshcConfig, task_list, env, policy_spec: MlpSpec,
             on_iteration=None, on_improved=None):
    """Full training run; returns (BestSolution, list of IterationRecord)."""
    check_fit(task_list, env, policy_spec)
    n_tasks = len(task_list)
    best = BestSolution()
    history = []
    # at most one chunk per candidate: no idle worker and no empty chunk
    processes = min(cfg.workers, cfg.n_candidates)
    bounds = np.linspace(0, cfg.n_candidates, processes + 1, dtype=int)
    pool = get_context("fork").Pool(processes) if processes > 1 else None
    per_iter = cfg.sigma_mode == SIGMA_RANDOM_ITER
    t0 = time.monotonic()
    try:
        for restart in range(1, cfg.n_restarts + 1):
            theta = init_params(policy_spec,
                                np.random.default_rng(_subseed(cfg.seed, _SEED_INIT, restart)))
            n_old = 0
            for iteration in range(1, cfg.n_iter_max + 1):
                if iteration == 1 or per_iter:
                    key = (restart, iteration) if per_iter else (restart,)
                    rng = np.random.default_rng(_subseed(cfg.seed, _SEED_SIGMA, *key))
                    sigma = draw_sigma(cfg.sigma_mode, rng, cfg.sigma_min, cfg.sigma_max)
                scores = _fan_out(pool, bounds, cfg, theta, sigma, restart, iteration,
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
                    return best, history  # the first full solution ends the run
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return best, history


def _fan_out(pool, bounds, cfg, theta, sigma, restart, iteration, task_list, env, spec):
    # one job per chunk [lo, hi) of ``bounds``; without a pool, one chunk
    jobs = [(theta, sigma, cfg.seed, restart, iteration, int(lo), int(hi),
             task_list, env, spec, cfg.t_max, cfg.t_goal)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    chunks = [_eval_chunk(*jobs[0])] if pool is None else pool.starmap(_eval_chunk, jobs)
    return np.concatenate(chunks)
