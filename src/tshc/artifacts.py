"""File formats: checkpoints, task lists, training logs, trajectory CSVs
and run summaries.

Everything is plain JSON/CSV with floats serialized at full decimal
precision (Python ``repr``), so replays round-trip bit-identically.  All
writes go through a temp file and an atomic rename; a crash can never
leave a partial artifact behind.
"""

import dataclasses
import hashlib
import json
import os
import tempfile

import numpy as np

from . import tasks as tasklib
from .config import tolerances_from_dict, tolerances_to_dict

CHECKPOINT_FORMAT = "tshc-checkpoint-v1"
# what replay and plot read from every checkpoint
CHECKPOINT_KEYS = ("theta", "layer_sizes", "env", "normalization", "task_digest",
                   "goal_tuples")
TASKLIST_FORMAT = "tshc-tasks-v1"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def task_to_dict(task):
    return {
        "id": task.id,
        "env_kind": task.env_kind,
        "z0": list(task.z0),
        "z_goal": list(task.z_goal),
        "tolerances": tolerances_to_dict(task.tol),
        "feature_recipe": task.feature_recipe,
        "t_max": task.t_max,
        "t_goal": task.t_goal,
    }


# the keys every task-file entry must have; t_max and t_goal may be absent
TASK_KEYS = ("id", "env_kind", "z0", "z_goal", "tolerances", "feature_recipe")


def task_from_dict(d, path="task"):
    """The ``Task`` of a task-file entry; a missing key or an invalid value
    raises a ``ValueError`` that names ``path``."""
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected a mapping, got {d!r}")
    missing = [key for key in TASK_KEYS if key not in d]
    if missing:
        raise ValueError(f"{path} has no {', '.join(missing)}")
    tol = tolerances_from_dict(d["tolerances"], f"{path}.tolerances")
    try:
        return tasklib.Task(d["id"], d["env_kind"], tuple(d["z0"]), tuple(d["z_goal"]),
                            tol, d["feature_recipe"], d.get("t_max"), d.get("t_goal"))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def task_digest(task_list):
    payload = json.dumps([task_to_dict(t) for t in task_list], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def write_task_list(path, task_list):
    doc = {"format": TASKLIST_FORMAT,
           "digest": task_digest(task_list),
           "tasks": [task_to_dict(t) for t in task_list]}
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def read_task_list(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != TASKLIST_FORMAT:
        raise ValueError(f"{path}: not a task-list file")
    if "tasks" not in doc:
        raise ValueError(f"{path}: task-list file has no tasks")
    return [task_from_dict(d, f"{path}: tasks[{i}]") for i, d in enumerate(doc["tasks"])]


def write_checkpoint(path, spec, theta, norm, task_list, env_config, seed,
                     best=None, goal_tuples=(), replay=None):
    doc = {
        "format": CHECKPOINT_FORMAT,
        "layer_sizes": list(spec.layer_sizes),
        "normalization": dataclasses.asdict(norm),
        "theta": [float(v) for v in np.asarray(theta).reshape(-1)],
        "task_digest": task_digest(task_list),
        "env": env_config,
        "seed": seed,
        "goal_tuples": [
            {"achieved": list(g.z_hat_goal), "commanded": list(g.z_goal),
             "task_id": g.task_id}
            for g in goal_tuples
        ],
    }
    if replay is not None:
        doc["replay"] = replay
    if best is not None:
        doc["best"] = {"n_solved": best.n_solved,
                       "pathlength": best.pathlength,
                       "reward": best.reward,
                       "restart": best.restart,
                       "iteration": best.iteration}
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def read_checkpoint(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    missing = [key for key in CHECKPOINT_KEYS if key not in doc]
    if missing:
        raise ValueError(f"{path}: checkpoint has no {', '.join(missing)}")
    doc["theta"] = np.asarray(doc["theta"], dtype=float)
    for i, g in enumerate(doc["goal_tuples"]):
        for key in ("achieved", "commanded"):
            if key not in g:
                raise ValueError(f"{path}: checkpoint goal_tuples[{i}] has no {key}")
    doc["goal_tuples"] = [
        tasklib.GoalTuple(tuple(g["achieved"]), tuple(g["commanded"]),
                          g.get("task_id", ""))
        for g in doc["goal_tuples"]
    ]
    return doc


def append_log_record(path, record):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(dataclasses.asdict(record)) + "\n")


def read_log(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_trajectory_csv(path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if i else str(int(v))
                              for i, v in enumerate(row)))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path):
    """(columns, rows) of a trajectory CSV: a header of at least t, x and y,
    then one row per step, an int step and floats; a file that is not one
    raises a ``ValueError`` that names it."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trajectory file")
    columns = tuple(lines[0].split(","))
    if len(columns) < 3:
        raise ValueError(f"{path}: expected at least the columns t, x and y, "
                         f"got {','.join(columns)}")
    if len(lines) == 1:
        raise ValueError(f"{path}: trajectory file has no rows")
    rows = []
    for i, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"{path}: line {i} has {len(parts)} values, "
                             f"expected {len(columns)}")
        try:
            rows.append((int(parts[0]),) + tuple(float(p) for p in parts[1:]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: {exc}") from None
    return columns, rows


def write_summary(path, summary):
    _atomic_write(path, json.dumps(summary, indent=2) + "\n")


def read_summary(path):
    with open(path) as fh:
        return json.load(fh)
