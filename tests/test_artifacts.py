import dataclasses
import json
import math
import os

import numpy as np
import pytest

from tshc import artifacts
from tshc.policy import MlpSpec, init_params, param_count
from tshc.reward import Tolerances
from tshc.tasks import GoalTuple, VehicleNorm, freeform_task, heading_grid, pendulum_tasks
from tshc.trainer import BestSolution, IterationRecord

ENV_CONFIG = {
    "kind": "vehicle", "wheelbase": 3.5, "sampling_time": 0.01,
    "workspace": [-100.0, -100.0, 100.0, 100.0], "obstacles": [],
    "limits": {"v": [-10.0, 10.0], "v_rate": [-8.0, 5.0],
               "steer": [-0.6981317007977318, 0.6981317007977318],
               "steer_rate": [-0.6981317007977318, 0.6981317007977318]},
    "vvc": {"mode": "off", "r_thresh": 5.0, "margin": 1.3888888888888888},
}


def test_task_list_round_trip(tmp_path):
    tasks = heading_grid(10, 90)
    path = tmp_path / "tasks.json"
    artifacts.write_task_list(path, tasks)
    loaded = artifacts.read_task_list(path)
    assert loaded == tasks


def test_task_list_rejects_other_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        artifacts.read_task_list(path)


def test_task_digest_bytes_are_unchanged(tmp_path):
    # the {d, psi, v} tolerance dict is written by the config schema's codec;
    # the digest of a task list must stay the one older task files and
    # checkpoints carry (recorded before the codec replaced the hand copies)
    tasks = heading_grid(10, 30) + pendulum_tasks("both", t_goal=4)
    tasks.append(dataclasses.replace(
        freeform_task((0, 0, 0, 0), (1, 2, 0.5, 1), Tolerances(0.3, 0.02, 0.5)), t_max=7))
    digest = "8e43f28a90fa5396fc053bceaa8c7ad3eaff0d5d8c668975deb46cc8728c5828"
    assert artifacts.task_digest(tasks) == digest
    path = tmp_path / "tasks.json"
    artifacts.write_task_list(path, tasks)
    assert json.loads(path.read_text())["digest"] == digest
    assert artifacts.task_digest(artifacts.read_task_list(path)) == digest


def test_task_list_with_integer_tolerances_keeps_its_digest(tmp_path):
    # a file stores the tolerances as written and reads them back as floats
    tasks = [freeform_task((0, 0, 0, 0), (1, 0, 0, 0), Tolerances(1, 2, 3))]
    path = tmp_path / "tasks.json"
    artifacts.write_task_list(path, tasks)
    assert artifacts.read_task_list(path) == tasks
    assert artifacts.task_digest(artifacts.read_task_list(path)) == artifacts.task_digest(tasks)


def test_task_digest_is_order_sensitive_and_stable():
    tasks = heading_grid(10, 90)
    assert artifacts.task_digest(tasks) == artifacts.task_digest(list(tasks))
    assert artifacts.task_digest(tasks) != artifacts.task_digest(tasks[::-1])


def test_checkpoint_round_trip_bit_exact(tmp_path):
    spec = MlpSpec((5, 8, 2))
    theta = init_params(spec, np.random.default_rng(0)) * math.pi * 1e6
    tasks = heading_grid(10, 90)
    tuples = [GoalTuple((0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 0.5, 0.0), "heading30")]
    best = BestSolution(theta, 10, -12.5, -400.0, restart=2, iteration=7)
    path = tmp_path / "ckpt.json"
    artifacts.write_checkpoint(path, spec, theta, VehicleNorm(), tasks,
                               ENV_CONFIG, seed=3, best=best,
                               goal_tuples=tuples,
                               replay={"t_max": 100, "t_goal": 1})
    doc = artifacts.read_checkpoint(path)
    assert doc["layer_sizes"] == [5, 8, 2]
    assert np.array_equal(doc["theta"], theta)  # full precision round-trip
    assert doc["task_digest"] == artifacts.task_digest(tasks)
    assert doc["seed"] == 3
    assert doc["goal_tuples"] == tuples
    assert doc["best"]["pathlength"] == -12.5
    assert doc["replay"]["t_max"] == 100
    assert doc["env"] == ENV_CONFIG


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("{}")
    with pytest.raises(ValueError):
        artifacts.read_checkpoint(path)


def test_log_append_and_read(tmp_path):
    path = tmp_path / "log.jsonl"
    records = [IterationRecord(1, i, 10.0, i, -1.0, -5.0, False, i == 2, 0.1)
               for i in range(1, 4)]
    for rec in records:
        artifacts.append_log_record(path, rec)
    loaded = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(loaded) == 3
    assert loaded[0]["restart"] == 1
    assert loaded[1]["iteration"] == 2
    assert loaded[1]["improved"] is True


def test_trajectory_csv_round_trip(tmp_path):
    path = tmp_path / "traj.csv"
    rows = [(0, 0.0, 0.0, 0.0, 0.1, 0.0),
            (1, 1.0 / 3.0, -2.5e-7, math.pi, 0.2, -0.01)]
    cols = ("t", "x", "y", "psi", "v", "delta")
    artifacts.write_trajectory_csv(path, cols, rows)
    rcols, rrows = artifacts.read_trajectory_csv(path)
    assert rcols == cols
    assert rrows == rows  # repr() serialization keeps every bit


def test_summary_round_trip(tmp_path):
    path = tmp_path / "summary.json"
    summary = {"n_star": 10, "p_star": -3.25, "wall_time_s": 1.5}
    artifacts.write_summary(path, summary)
    assert json.loads(path.read_text()) == summary


def test_writes_are_atomic_no_temp_left_behind(tmp_path):
    path = tmp_path / "deep" / "tasks.json"
    artifacts.write_task_list(path, heading_grid(10, 20))
    leftovers = [f for f in os.listdir(path.parent) if f.startswith(".tmp")]
    assert leftovers == []
    assert artifacts.read_task_list(path) == heading_grid(10, 20)
