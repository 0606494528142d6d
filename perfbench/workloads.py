"""The two benchmark workloads.

Each workload makes its inputs from the benchmark seed (``prepare``),
builds what its first operation needs (``setup``) and runs one fixed
budget of operations (``rep``) through the unmodified ``tshc`` package.
A repetition reports the latency of each operation, how many of its
planned operations failed a correctness check, and a digest of its
results, which must match every other repetition of the same seed.

Calls into ``tshc`` go through module attributes (``cli.main``,
``trainer.rollout``, ``artifacts.write_checkpoint``) so that the tracer's
wrappers see them.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

from tshc import artifacts, cli, trainer
from tshc import tasks as tasklib
from tshc.config import load_run_config
from tshc.policy import MlpSpec
from tshc.reward import VVC_CONSTANT

from tracer import REPLAY, SWING

SOLVED_GRID = os.path.join(os.path.dirname(os.path.abspath(__file__)), "solved_grid.json")
# a mirrored replay must reproduce the x-axis reflection of the plain one
MIRROR_TOL = 1e-9


@dataclasses.dataclass
class RepOutcome:
    op_s: list
    attempted: int
    failed: int
    digest: str
    best_n_solved: int
    errors: list = dataclasses.field(default_factory=list)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def _training_outcome(theta, records, n_solved, planned):
    """Per-iteration latencies, checks and digest of one training run.

    ``records`` are IterationRecord dicts; latency comes from consecutive
    ``wall_time`` values, which are seconds since the run started.
    """
    errors = []
    walls = [r["wall_time"] for r in records]
    op_s = [b - a for a, b in zip([0.0] + walls[:-1], walls)]
    good = sum(1 for r in records
               if all(math.isfinite(r[k]) for k in ("sigma", "pathlength", "reward")))
    if good < len(records):
        errors.append(f"{len(records) - good} iteration scores are non-finite")
    if theta is None or not np.all(np.isfinite(theta)):
        errors.append("best parameters are missing or non-finite")
        good = min(good, len(records) - 1)
    if len(records) != planned:
        errors.append(f"ran {len(records)} iterations, planned {planned}")
    fields = [{k: v for k, v in r.items() if k != "wall_time"} for r in records]
    digest = _digest(b"" if theta is None else np.asarray(theta, dtype=float).tobytes(),
                     json.dumps(fields, sort_keys=True))
    return RepOutcome(op_s, planned, planned - max(good, 0), digest, n_solved, errors)


def _cli(argv):
    """Exit code of one ``tshc`` command run in this process."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


def _clean_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class Workload:
    name = None
    workers = 1
    # whether the time metrics are scaled to the reference host speed
    # (hostspeed.py), whose one-process chunk stands for this workload's work
    host_scaled = False

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.tiny = tiny

    def prepare(self):
        """Write the input files made from the seed."""

    def setup(self):
        """Build what the first operation needs (the timed set-up)."""
        raise NotImplementedError

    def rep(self):
        raise NotImplementedError


class SwingupCli(Workload):
    """``tshc train`` on a pendulum swing-up config with a two-worker pool.

    The user path through config, the fork pool and artifacts: a
    checkpoint on every improvement and a log line per iteration.  With
    100 lanes the fixed Python cost per step dominates.  The budget is ten
    restarts of two iterations rather than one restart of twenty: how many
    lanes stay live depends on the training trajectory, and averaging ten
    independent ones per run cut the seed-to-seed spread of active
    lane-steps from 19% to 3% (coefficient of variation over 8 seeds).
    """

    name = SWING
    workers = 2

    def __init__(self, seed, workdir, tiny=False, workers=2):
        super().__init__(seed, workdir, tiny)
        self.workers = workers
        self.config_path = os.path.join(workdir, "swingup.yaml")
        self.out = os.path.join(workdir, "train")
        self.n_restarts = 2 if tiny else 10
        self.n_iter = 2

    def prepare(self):
        doc = {
            "seed": self.seed,
            "policy": {"layer_sizes": [4, 64, 64, 1]},
            "env": {"kind": "pendulum"},
            "tasks": {"generator": "pendulum", "kind": "swingup"},
            "training": {"n_restarts": self.n_restarts, "n_iter_max": self.n_iter,
                         "n_candidates": 6 if self.tiny else 100,
                         "t_max": 30 if self.tiny else 500,
                         "sigma_mode": "adaptive", "sigma_max": 10.0,
                         "beta": 2.0, "refine": True},
        }
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)  # JSON is valid YAML

    def setup(self):
        self.run_config = load_run_config(self.config_path, workers=self.workers,
                                          output_dir=self.out)

    def rep(self):
        _clean_dir(self.out)
        code = _cli(["train", self.config_path, "--workers", str(self.workers),
                     "--output-dir", self.out])
        seed = self.seed
        planned = self.n_restarts * self.n_iter
        try:
            with open(os.path.join(self.out, f"train_log_seed{seed}.jsonl")) as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            with open(os.path.join(self.out, f"checkpoint_seed{seed}.json")) as fh:
                theta = np.asarray(json.load(fh)["theta"], dtype=float)
            with open(os.path.join(self.out, f"summary_seed{seed}.json")) as fh:
                n_solved = json.load(fh)["n_star"]
        except (OSError, ValueError, KeyError) as exc:
            return RepOutcome([], planned, planned, "", 0,
                              [f"train exited {code}: {exc}"])
        outcome = _training_outcome(theta, records, n_solved, planned)
        if code not in (0, 1):
            outcome.errors.append(f"train exited {code}")
            outcome.failed = outcome.attempted
        return outcome


class ReplayGrid(Workload):
    """Replays and a plot of a heading-grid checkpoint that solves its tasks.

    The checkpoint holds the parameters stored in ``solved_grid.json``
    (the best restart of the acceptance gate's GRID run, made by
    ``solved_grid.py``) with the goal tuples of the tasks they solve.  A
    repetition rewrites the checkpoint, replays the grid tasks up to
    ``MAX_DEG``, replays a mirrored setpoint near each of their non-zero
    goals and plots the checkpoint: one-lane ``record=True`` rollouts, the
    mirror path, trajectory CSV I/O and the SVG renderer.  The seed draws
    the order and the headings of the mirrored setpoints.

    Every replay must solve its task, and a mirrored replay must be the
    x-axis reflection of the replay of the task it was looked up from
    within 1e-9: criterion 4 of the acceptance gate, on solved trajectories.
    """

    name = REPLAY
    # one-lane rollouts in one process, the work the reference chunk is made
    # of: scaled, the run-to-run spread of wall_s fell from 0.128 to 0.116
    # and of op_tail_s from 0.118 to 0.063 over ten runs, while on the
    # two-worker swingup-cli it rose from 0.109 to 0.162
    host_scaled = True
    # the first six grid tasks (0 to 50 degrees) keep a repetition near a
    # second, so that a run holds a dozen of them
    MAX_DEG = 50
    # moves the lookup distance by 0.05; the next-nearest stored goal of
    # these six is 1.3 away
    SETPOINT_JITTER_DEG = 0.5

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.config_path = os.path.join(workdir, "grid.yaml")
        self.ckpt = os.path.join(workdir, f"checkpoint_seed{seed}.json")
        self.task_path = os.path.join(workdir, f"tasks_seed{seed}.json")
        self.out = os.path.join(workdir, "replay")

    def prepare(self):
        with open(SOLVED_GRID) as fh:
            solved = json.load(fh)
        doc = {
            "seed": self.seed,
            "policy": {"layer_sizes": solved["layer_sizes"]},
            "env": {"kind": "vehicle", "sampling_time": 0.1},
            "vvc": {"mode": VVC_CONSTANT, "r_thresh": 5.0},
            "tasks": {"generator": "heading-grid", "step_deg": 10,
                      "max_deg": 30 if self.tiny else self.MAX_DEG},
            "training": {"n_restarts": 1, "n_iter_max": 1, "n_candidates": 1,
                         "t_max": solved["t_max"]},
        }
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)
        run = load_run_config(self.config_path, workers=1, output_dir=self.out)
        theta = np.asarray(solved["theta"], dtype=float)
        goal_tuples = []
        for task in run.task_list:
            res = trainer.rollout(theta, task, run.env, run.spec, run.training.t_max,
                                  run.training.t_goal)
            if res.success:
                goal_tuples.append(tasklib.GoalTuple(res.terminal, task.z_goal, task.id))
        tol = run.task_list[0].tol
        replay = {"t_max": run.training.t_max, "t_goal": run.training.t_goal,
                  "feature_recipe": run.task_list[0].feature_recipe,
                  "tolerances": {"d": tol.eps_d, "psi": tol.eps_psi, "v": tol.eps_v}}
        artifacts.write_checkpoint(self.ckpt, run.spec, theta, run.norm, run.task_list,
                                   run.env_config, self.seed,
                                   goal_tuples=goal_tuples, replay=replay)
        artifacts.write_task_list(self.task_path, run.task_list)

    def setup(self):
        self.doc = artifacts.read_checkpoint(self.ckpt)
        self.env = cli.env_from_config(self.doc["env"], self.doc["normalization"])
        self.tasks = artifacts.read_task_list(self.task_path)
        # each mirrored setpoint is the reflection of a stored achieved goal,
        # its heading moved by a seeded jitter, so the lookup serves it from
        # that goal's tuple
        rng = np.random.default_rng(self.seed)
        stored = [g for g in self.doc["goal_tuples"] if round(math.degrees(g.z_goal[2])) != 0]
        self.setpoints = []
        for k in rng.permutation(len(stored)):
            x, y, psi, v = (float(c) for c in stored[k].z_hat_goal)
            psi = -psi + math.radians(rng.uniform(-self.SETPOINT_JITTER_DEG,
                                                  self.SETPOINT_JITTER_DEG))
            self.setpoints.append((stored[k].task_id, f"{x!r},{-y!r},{psi!r},{v!r}"))

    def _write(self):
        """Rewrite the input checkpoint and task list, as training would."""
        doc = self.doc
        artifacts.write_checkpoint(
            self.ckpt, MlpSpec(tuple(doc["layer_sizes"])), doc["theta"],
            self.env.norm, self.tasks, doc["env"], doc["seed"],
            goal_tuples=doc["goal_tuples"], replay=doc["replay"])
        artifacts.write_task_list(self.task_path, self.tasks)

    def _replay(self, op_s, errors, argv, tag):
        """Run one timed replay; its CSV bytes and rows (None if it failed)."""
        t0 = time.perf_counter()
        code = _cli(["replay", self.ckpt, *argv, "--output-dir", self.out])
        op_s.append(time.perf_counter() - t0)
        base = os.path.join(self.out, f"replay_{tag}_seed{self.seed}")
        raw, rows, error = _read_product(base + ".csv")
        try:
            with open(base + ".json") as fh:
                solved = json.load(fh)["F"] == 1
        except (OSError, ValueError, KeyError) as exc:
            solved, error = False, error or str(exc)
        if code != 0 or error or not solved:
            errors.append(f"replay {' '.join(argv)}: exit {code}, solved {solved}; {error}")
            return raw, None
        return raw, rows

    def rep(self):
        _clean_dir(self.out)
        op_s, errors, blobs = [], [], []
        self._write()
        plain = {}
        for task in self.tasks:
            raw, plain[task.id] = self._replay(
                op_s, errors, ["--task", task.id, "--tasks", self.task_path], task.id)
            blobs.append(raw)
        for task_id, setpoint in self.setpoints:
            # one argument, since a setpoint may start with a minus sign
            raw, rows = self._replay(op_s, errors, [f"--setpoint={setpoint}", "--mirror"],
                                     "setpoint")
            blobs.append(raw)
            err = _reflection_error(rows, plain[task_id])
            if rows is not None and not err < MIRROR_TOL:
                errors.append(f"mirrored {task_id}: reflection error {err:.3g}")
        svg = os.path.join(self.out, "grid.svg")
        t0 = time.perf_counter()
        code = _cli(["plot", "--checkpoint", self.ckpt, "--tasks", self.task_path,
                     "-o", svg])
        op_s.append(time.perf_counter() - t0)
        raw, _, error = _read_product(svg)
        blobs.append(raw)
        if code != 0 or error:
            errors.append(f"plot exited {code}; {error}")
        # an operation is one command (every replay and the plot; the
        # checkpoint write counts only in the repetition's wall time), so the
        # median operation is one of the two 252-step replays rather than a
        # boundary between replay lengths; a failed one adds exactly one error
        return RepOutcome(op_s, len(op_s), len(errors), _digest(*blobs), 0, errors)


def _reflection_error(mirrored, plain):
    """Worst per-coordinate distance from the x-axis reflection of ``plain``."""
    if mirrored is None or plain is None or len(mirrored) != len(plain):
        return math.inf
    a = np.asarray(mirrored, dtype=float)[:, 1:6]
    b = np.asarray(plain, dtype=float)[:, 1:6] * np.array([1.0, -1.0, -1.0, 1.0, -1.0])
    return float(np.max(np.abs(a - b), initial=0.0))


def _read_product(path):
    """(bytes, trajectory rows or None, error) of a file a command wrote; a
    CSV must hold a finite trajectory."""
    rows = None
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if path.endswith(".csv"):
            _, rows = artifacts.read_trajectory_csv(path)
            if not np.all(np.isfinite(np.asarray(rows, dtype=float))):
                return raw, None, "non-finite trajectory"
    except (OSError, ValueError) as exc:
        return b"", None, str(exc)
    return raw, rows, ""


WORKLOADS = {w.name: w for w in (SwingupCli, ReplayGrid)}


def make(name, seed, workdir, tiny=False, workers=None):
    cls = WORKLOADS[name]
    if workers is not None:
        return cls(seed, workdir, tiny, workers=workers)
    return cls(seed, workdir, tiny)
