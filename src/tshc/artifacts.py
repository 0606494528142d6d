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
import math
import os
import tempfile

import numpy as np

from .config import GOAL_TUPLE, TASK, ConfigError, dump, load

CHECKPOINT_FORMAT = "tshc-checkpoint-v1"
# what replay and plot read from every checkpoint
CHECKPOINT_KEYS = ("theta", "layer_sizes", "env", "normalization", "task_digest",
                   "goal_tuples")
TASKLIST_FORMAT = "tshc-tasks-v1"


def atomic_write(path, text):
    """Write ``text`` to ``path`` through a temp file beside it and a rename;
    the file gets the mode a plain ``open`` gives, not the temp file's 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        umask = os.umask(0)  # read by setting it, then restored
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def task_digest(task_list):
    payload = json.dumps([dump(t, TASK) for t in task_list], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def write_task_list(path, task_list):
    doc = {"format": TASKLIST_FORMAT,
           "digest": task_digest(task_list),
           "tasks": [dump(t, TASK) for t in task_list]}
    atomic_write(path, json.dumps(doc, indent=2) + "\n")


def _unique_keys(pairs):
    """The dict of one JSON object's (key, value) pairs; a repeated key,
    which ``json`` would collapse onto its last value, is a ``ConfigError``."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _read_object(path):
    """The JSON object in the file ``path``; other JSON, or an object that
    repeats a key, is a ``ConfigError``."""
    with open(path) as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # a syntax error, bytes that are not text, a repeated key
            raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def read_task_list(path):
    doc = _read_object(path)
    if doc.get("format") != TASKLIST_FORMAT:
        raise ConfigError(f"{path}: not a task-list file")
    if "tasks" not in doc:
        raise ConfigError(f"{path}: task-list file has no tasks")
    return list(load(doc["tasks"], [TASK], f"{path}: tasks"))


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
        "goal_tuples": [dump(g, GOAL_TUPLE) for g in goal_tuples],
    }
    if replay is not None:
        doc["replay"] = replay
    if best is not None:
        doc["best"] = {field.name: getattr(best, field.name)
                       for field in dataclasses.fields(best) if field.name != "theta"}
    atomic_write(path, json.dumps(doc, indent=2) + "\n")


def read_checkpoint(path):
    doc = _read_object(path)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a checkpoint file")
    missing = [key for key in CHECKPOINT_KEYS if key not in doc]
    if missing:
        raise ConfigError(f"{path}: checkpoint has no {', '.join(missing)}")
    doc["theta"] = np.array(load(doc["theta"], ["plain"], f"{path}: theta"))
    doc["goal_tuples"] = list(load(doc["goal_tuples"], [GOAL_TUPLE], f"{path}: goal_tuples"))
    return doc


def append_log_record(path, record):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(dataclasses.asdict(record)) + "\n")


def read_log(path):
    """The records of a training log, one JSON object per line; a line that
    is not JSON, or repeats a key, is a ``ConfigError`` that names the file
    and the line."""
    records = []
    with open(path, "rb") as fh:
        for i, line in enumerate(fh, 1):
            try:
                if line.strip():
                    records.append(json.loads(line.decode(), object_pairs_hook=_unique_keys))
            except ValueError as exc:  # not text, not JSON, a repeated key
                raise ConfigError(f"{path}: line {i}: {exc}") from None
    return records


def write_trajectory_csv(path, columns, rows):
    """Rows of an int step and Python floats, as ``rollout`` records them."""
    lines = [",".join(columns)]
    for t, *values in rows:
        lines.append(",".join([str(t), *map(repr, values)]))
    atomic_write(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path):
    """(columns, rows) of a trajectory CSV: a header of at least t, x and y,
    then one row per step, an int step and finite floats; a file that is
    not one raises a ``ConfigError`` that names it."""
    with open(path) as fh:
        try:
            lines = [line.strip() for line in fh if line.strip()]
        except ValueError as exc:  # bytes that are not text
            raise ConfigError(f"{path}: {exc}") from None
    if not lines:
        raise ConfigError(f"{path}: empty trajectory file")
    columns = tuple(lines[0].split(","))
    if len(columns) < 3:
        raise ConfigError(f"{path}: expected at least the columns t, x and y, "
                          f"got {','.join(columns)}")
    if len(lines) == 1:
        raise ConfigError(f"{path}: trajectory file has no rows")
    rows = []
    for i, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ConfigError(f"{path}: line {i} has {len(parts)} values, "
                              f"expected {len(columns)}")
        try:
            values = tuple(float(p) for p in parts[1:])
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"expected finite values, got {line!r}")
            rows.append((int(parts[0]),) + values)
        except ValueError as exc:
            raise ConfigError(f"{path}: line {i}: {exc}") from None
    return columns, rows


def write_summary(path, summary):
    atomic_write(path, json.dumps(summary, indent=2) + "\n")


def read_summary(path):
    return _read_object(path)
