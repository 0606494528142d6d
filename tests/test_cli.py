import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from xml.etree import ElementTree

import numpy as np
import pytest

from tshc import artifacts, cli
from tshc.cli import main
from tshc.config import ConfigError
from tshc.tasks import DEFAULT_VEHICLE_TOL, pendulum_tasks

TRIVIAL_YAML = """
seed: 3
policy:
  layer_sizes: [4, 8, 2]
env:
  kind: vehicle
tasks:
  generator: freeform
  z0: [0, 0, 0, 0]
  z_goal: [0, 0, 0, 0]
training:
  n_restarts: 1
  n_iter_max: 2
  n_candidates: 3
  t_max: 10
"""

HARD_YAML = TRIVIAL_YAML.replace("z_goal: [0, 0, 0, 0]",
                                 "z_goal: [90, 0, 0, 0]")

GRID_YAML = TRIVIAL_YAML.replace("[4, 8, 2]", "[5, 8, 2]").replace(
    "  generator: freeform\n  z0: [0, 0, 0, 0]\n  z_goal: [0, 0, 0, 0]\n",
    "  generator: heading-grid\n  step_deg: 10\n  max_deg: 20\n")


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def train(tmp_path, text):
    out = tmp_path / "out"
    code = main(["train", write_config(tmp_path, text),
                 "--output-dir", str(out), "--workers", "1"])
    return code, out


def test_train_writes_all_artifacts_and_exit_zero(tmp_path):
    code, out = train(tmp_path, TRIVIAL_YAML)
    assert code == 0
    for name in ("tasks_seed3.json", "train_log_seed3.jsonl",
                 "checkpoint_seed3.json", "summary_seed3.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary_seed3.json").read_text())
    assert summary["n_star"] == summary["n_tasks"] == 1
    assert summary["p_star"] == 0.0
    assert summary["seed"] == 3
    log = (out / "train_log_seed3.jsonl").read_text().splitlines()
    assert len(log) == summary["iterations"]
    ckpt = artifacts.read_checkpoint(out / "checkpoint_seed3.json")
    assert ckpt["seed"] == 3
    assert len(ckpt["goal_tuples"]) == 1
    assert ckpt["best"]["n_solved"] == 1


def test_train_unsolved_run_exits_one(tmp_path):
    code, out = train(tmp_path, HARD_YAML)
    assert code == 1
    summary = json.loads((out / "summary_seed3.json").read_text())
    assert summary["n_star"] == 0
    assert summary["restarts_with_full_solution"] == 0


# the car cannot go slower than 5 m/s in a 2 m box: every candidate crashes
CRASH_YAML = TRIVIAL_YAML.replace(
    "kind: vehicle",
    "kind: vehicle\n  sampling_time: 0.1\n  workspace: [-1, -1, 1, 1]\n  limits: {v: [5, 10]}"
).replace("z_goal: [0, 0, 0, 0]", "z_goal: [0.5, 0, 0, 0]").replace("t_max: 10", "t_max: 20")


def test_train_without_a_crash_free_candidate_removes_the_old_checkpoint(tmp_path):
    # a run that writes no checkpoint must not leave an older run's one, of
    # the same seed and directory, for replay to serve
    code, out = train(tmp_path, TRIVIAL_YAML)
    assert code == 0 and (out / "checkpoint_seed3.json").exists()
    code, out = train(tmp_path, CRASH_YAML)
    assert code == 1
    assert json.loads((out / "summary_seed3.json").read_text())["n_star"] == 0
    assert not (out / "checkpoint_seed3.json").exists()
    with pytest.raises(SystemExit) as err:
        main(["replay", str(out / "checkpoint_seed3.json"), "--setpoint", "0,0,0,0",
              "--output-dir", str(out)])
    assert err.value.code == 2


def test_interrupted_train_leaves_no_older_summary(tmp_path, monkeypatch):
    # a run stopped before it writes its summary must not leave an older
    # run's summary, of the same seed and directory, next to its own task file
    code, out = train(tmp_path, TRIVIAL_YAML)
    assert code == 0 and (out / "summary_seed3.json").exists()

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "tshc_run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        train(tmp_path, TRIVIAL_YAML)
    assert (out / "tasks_seed3.json").exists()
    assert not (out / "summary_seed3.json").exists()


def test_main_runs_twice_in_one_process_through_the_module_commands(tmp_path,
                                                                     monkeypatch):
    # the parser is built once per process, and each call runs the command
    # function the module holds when it is called, so a wrapper installed
    # on ``cli.cmd_replay`` after a first command is the one that runs
    code, out = train(tmp_path, TRIVIAL_YAML)
    assert code == 0
    seen = []

    def wrapped(args):
        seen.append(args.setpoint)
        return real(args)
    real = cli.cmd_replay
    monkeypatch.setattr(cli, "cmd_replay", wrapped)
    argv = ["replay", str(out / "checkpoint_seed3.json"), "--setpoint", "0,0,0,0",
            "--output-dir", str(tmp_path / "replay")]
    assert main(argv) == 0
    assert main(argv) == 0
    assert seen == ["0,0,0,0", "0,0,0,0"]
    assert (tmp_path / "replay" / "replay_setpoint_seed3.csv").exists()


def test_train_config_error_exits_two(tmp_path):
    path = write_config(tmp_path, TRIVIAL_YAML.replace("seed: 3", "seed: nope"))
    with pytest.raises(SystemExit) as err:
        main(["train", path, "--output-dir", str(tmp_path / "o")])
    assert err.value.code == 2


PENDULUM_YAML = """
seed: 3
policy:
  layer_sizes: [4, 8, 1]
env:
  kind: pendulum
tasks:
  generator: pendulum
  kind: swingup
training:
  n_restarts: 1
  n_iter_max: 1
  n_candidates: 2
  t_max: 10
"""


@pytest.mark.parametrize("text, key", [
    (PENDULUM_YAML.replace("kind: pendulum", "kind: pendulum\n  cart_mass: heavy"),
     "env.cart_mass"),
    (PENDULUM_YAML.replace("kind: swingup", "kind: bogus"), "tasks"),
    (PENDULUM_YAML.replace("kind: swingup", "kind: swingup\n  t_goal: x"), "tasks.t_goal"),
    (PENDULUM_YAML.replace("kind: swingup", "kind: swingup\n  t_goal: 0"), "tasks"),
    (TRIVIAL_YAML.replace("z_goal: [0, 0, 0, 0]",
                          "z_goal: [0, 0, 0, 0]\n  tolerances: {d: -1, psi: 1, v: 1}"),
     "tasks.tolerances"),
    (TRIVIAL_YAML.replace("z_goal: [0, 0, 0, 0]",
                          "z_goal: [0, 0, 0, 0]\n  feature_recipe: bogus"), "tasks"),
    (GRID_YAML.replace("max_deg: 20", "max_deg: 20\n  feature_recipe: goal4"),
     "tasks.feature_recipe"),
    (TRIVIAL_YAML.replace("kind: vehicle", 'kind: vehicle\n  workspace: [0, 0, "a", 1]'),
     "env.workspace[2]"),
    (TRIVIAL_YAML.replace("kind: vehicle", "kind: vehicle\n  workspace: [0, 0, 0, 1]"), "env"),
    (TRIVIAL_YAML.replace("kind: vehicle", "kind: vehicle\n  obstacles: 5"), "env.obstacles"),
    (TRIVIAL_YAML.replace("kind: vehicle", 'kind: vehicle\n  obstacles: [[0, 0, "a", 1]]'),
     "env.obstacles[0][2]"),
    (TRIVIAL_YAML.replace("kind: vehicle", "kind: vehicle\n  limits: {v: [5, -5]}"),
     "env.limits"),
    (TRIVIAL_YAML.replace("t_max: 10", "t_max: 10\n  refine: 'false'"), "training.refine"),
    (TRIVIAL_YAML.replace("n_candidates: 3", "n_candidates: 3.9"), "training.n_candidates"),
    (TRIVIAL_YAML.replace("seed: 3", "seed: 3\nworkers: x"), "config.workers"),
    (TRIVIAL_YAML.replace("seed: 3", "seed: 3\nworkers: 0"), "config.workers"),
    (TRIVIAL_YAML.replace("seed: 3", "seed: -1"), "config.seed"),
    (TRIVIAL_YAML.replace("seed: 3", "seed: 3\noutput_dir: [1, 2]"), "config.output_dir"),
    (TRIVIAL_YAML.replace("seed: 3", "seed: 3\noutput_dir: 5"), "config.output_dir"),
    (TRIVIAL_YAML.replace("seed: 3", "seed: 3\noutput_dir: {a: 1}"), "config.output_dir"),
    (GRID_YAML.replace("kind: vehicle", "kind: vehicle\n  obstacles: [[-1, -1, 1, 1]]"),
     "tasks: task 'heading0'"),
    (TRIVIAL_YAML.replace("kind: vehicle", "kind: vehicle\n  workspace: [-1, -1, 1, 1]")
     .replace("z_goal: [0, 0, 0, 0]", "z_goal: [0, 2, 0, 0]"), "tasks: task 'freeform'"),
    (TRIVIAL_YAML.replace("z_goal: [0, 0, 0, 0]",
                          "z_goal: [0, 0, 0, 0]\n  feature_recipe: pendulum4"),
     "tasks: feature_recipe"),
    (GRID_YAML.replace("[5, 8, 2]", "[4, 8, 2]"), "policy.layer_sizes"),
    (PENDULUM_YAML.replace("[4, 8, 1]", "[4, 8, 2]"), "policy.layer_sizes"),
    (TRIVIAL_YAML.replace("generator: freeform", "generator: [1]"), "tasks.generator"),
    (TRIVIAL_YAML.replace("generator: freeform", "generator: {a: 1}"), "tasks.generator"),
], ids=["cart_mass", "pendulum_kind", "t_goal", "task_t_goal_zero", "tolerance",
        "feature_recipe", "grid_feature_recipe", "workspace_entry", "degenerate_workspace",
        "obstacles_scalar", "obstacle_entry", "limits", "refine_string",
        "fractional_candidates", "workers", "workers_zero", "negative_seed",
        "output_dir_list", "output_dir_int", "output_dir_mapping", "grid_inside_obstacle",
        "goal_outside_workspace", "pendulum_recipe_on_vehicle", "narrow_input",
        "pendulum_two_outputs", "generator_list", "generator_mapping"])
def test_train_invalid_config_value_exits_two(tmp_path, capsys, text, key):
    # a value the config builders reject is an error line that names its
    # key (the section, when the section's own check rejects it) and exit
    # 2, not a traceback with exit 1 (the "not every task solved" code)
    path = write_config(tmp_path, text)
    with pytest.raises(SystemExit) as err:
        main(["train", path, "--output-dir", str(tmp_path / "o"), "--workers", "1"])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not (tmp_path / "o").exists()


def test_train_workers_option_below_one_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, TRIVIAL_YAML)
    with pytest.raises(SystemExit) as err:
        main(["train", path, "--output-dir", str(tmp_path / "o"), "--workers", "0"])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("error: --workers: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old, new, key", [
    ("training:", "training:\n  n_restarts: 1\ntraining:", "'training'"),
    ("  t_max: 10", "  t_max: 10\n  t_max: 20", "'t_max'"),
], ids=["section", "key"])
def test_train_repeated_config_key_exits_two(tmp_path, capsys, old, new, key):
    # YAML keeps the last of two equal keys; a config that repeats one is
    # an error naming the file and the key, not a run of the last value
    path = write_config(tmp_path, TRIVIAL_YAML.replace(old, new))
    with pytest.raises(SystemExit) as err:
        main(["train", path, "--output-dir", str(tmp_path / "o"), "--workers", "1"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith(f"error: {path}: found repeated key {key}"), message
    assert not (tmp_path / "o").exists()


def test_replay_task_produces_csv_and_summary(tmp_path):
    _, out = train(tmp_path, TRIVIAL_YAML)
    code = main(["replay", str(out / "checkpoint_seed3.json"),
                 "--task", "freeform", "--tasks", str(out / "tasks_seed3.json"),
                 "--output-dir", str(out)])
    assert code == 0
    cols, rows = artifacts.read_trajectory_csv(out / "replay_freeform_seed3.csv")
    assert cols == ("t", "x", "y", "psi", "v", "delta")
    meta = json.loads((out / "replay_freeform_seed3.json").read_text())
    assert meta["task"] == "freeform"
    assert meta["F"] == 1
    assert meta["mirror"] is False


def test_summary_scores_are_the_replay_scores(tmp_path):
    # p_star and j_star of a training run are what a replay of its
    # checkpoint reports as P and J: one path length, one sparse reward
    code, out = train(tmp_path, """
        seed: 3
        policy:
          layer_sizes: [4, 8, 2]
        env:
          kind: vehicle
          sampling_time: 0.1
        tasks:
          generator: freeform
          z0: [0, 0, 0, 0]
          z_goal: [2, 0, 0, 0]
          tolerances: {d: 0.5, psi: "90 deg", v: 3}
        training:
          n_restarts: 1
          n_iter_max: 6
          n_candidates: 20
          t_max: 40
          t_goal: 3
          refine: true
        """)
    assert code == 0
    summary = json.loads((out / "summary_seed3.json").read_text())
    assert main(["replay", str(out / "checkpoint_seed3.json"), "--task", "freeform",
                 "--tasks", str(out / "tasks_seed3.json"), "--output-dir", str(out)]) == 0
    meta = json.loads((out / "replay_freeform_seed3.json").read_text())
    assert meta["F"] == 1 and meta["steps"] > 0
    assert (summary["p_star"], summary["j_star"]) == (meta["P"], meta["J"])
    assert meta["J"] == -(meta["steps"] + 1)


def test_replay_setpoint_uses_nearest_goal(tmp_path):
    _, out = train(tmp_path, TRIVIAL_YAML)
    code = main(["replay", str(out / "checkpoint_seed3.json"),
                 "--setpoint", "0.05,0,0,0", "--output-dir", str(out)])
    assert code == 0
    meta = json.loads((out / "replay_setpoint_seed3.json").read_text())
    assert meta["task"] == "setpoint"


def test_replay_unknown_task_fails(tmp_path):
    _, out = train(tmp_path, TRIVIAL_YAML)
    with pytest.raises(SystemExit) as err:
        main(["replay", str(out / "checkpoint_seed3.json"),
              "--task", "bogus", "--tasks", str(out / "tasks_seed3.json")])
    assert err.value.code == 2


def test_replay_feature_dim_mismatch_names_both(tmp_path, capsys):
    _, out = train(tmp_path, TRIVIAL_YAML)
    # hand-build a task list whose recipe needs 5 features
    from tshc.tasks import heading_grid
    artifacts.write_task_list(tmp_path / "grid.json", heading_grid(10, 20))
    with pytest.raises(SystemExit) as err:
        main(["replay", str(out / "checkpoint_seed3.json"),
              "--task", "heading10", "--tasks", str(tmp_path / "grid.json")])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "5" in message and "4" in message


def test_replay_refuses_task_file_that_does_not_match_checkpoint(tmp_path, capsys):
    _, out = train(tmp_path, GRID_YAML)
    ckpt = str(out / "checkpoint_seed3.json")
    tasks = artifacts.read_task_list(out / "tasks_seed3.json")
    assert main(["replay", ckpt, "--task", "heading10",
                 "--tasks", str(out / "tasks_seed3.json"),
                 "--output-dir", str(out)]) == 0
    reordered = tmp_path / "reordered.json"
    artifacts.write_task_list(reordered, tasks[::-1])
    with pytest.raises(SystemExit) as err:
        main(["replay", ckpt, "--task", "heading10", "--tasks", str(reordered),
              "--output-dir", str(out)])
    assert err.value.code == 2
    assert "task digests differ" in capsys.readouterr().err


def test_plot_from_csv_and_checkpoint(tmp_path):
    _, out = train(tmp_path, TRIVIAL_YAML)
    main(["replay", str(out / "checkpoint_seed3.json"),
          "--task", "freeform", "--tasks", str(out / "tasks_seed3.json"),
          "--output-dir", str(out)])
    svg_path = tmp_path / "plot.svg"
    code = main(["plot", str(out / "replay_freeform_seed3.csv"),
                 "-o", str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 1
    assert "x [m]" in svg and "y [m]" in svg
    # a file name holding markup is escaped in the plot's label
    odd = tmp_path / 'R&D<1>".csv'
    odd.write_bytes((out / "replay_freeform_seed3.csv").read_bytes())
    assert main(["plot", str(odd), "-o", str(svg_path)]) == 0
    title = ElementTree.parse(svg_path).find(".//{http://www.w3.org/2000/svg}title")
    assert title.text == odd.name

    code = main(["plot", "--checkpoint", str(out / "checkpoint_seed3.json"),
                 "--tasks", str(out / "tasks_seed3.json"),
                 "-o", str(svg_path)])
    assert code == 0
    assert svg_path.read_text().count("<polyline") == 1


def test_plot_refuses_task_file_that_does_not_match_checkpoint(tmp_path, capsys):
    _, out = train(tmp_path, GRID_YAML)
    ckpt = str(out / "checkpoint_seed3.json")
    reversed_tasks = tmp_path / "reversed.json"
    artifacts.write_task_list(
        reversed_tasks, artifacts.read_task_list(out / "tasks_seed3.json")[::-1])
    svg_path = tmp_path / "p.svg"
    with pytest.raises(SystemExit) as err:
        main(["plot", "--checkpoint", ckpt, "--tasks", str(reversed_tasks),
              "-o", str(svg_path)])
    assert err.value.code == 2
    assert "task digests differ" in capsys.readouterr().err
    assert not svg_path.exists()


@pytest.mark.parametrize("field, value", [("t_goal", "x"), ("t_max", -3), ("t_goal", 0),
                                          ("t_max", True), ("t_max", 2.5)])
def test_replay_rejects_task_file_with_bad_horizon(tmp_path, capsys, field, value):
    # a per-task horizon is unset or an integer >= 1; anything else fails
    # when the task file is read, not inside the rollout
    _, out = train(tmp_path, TRIVIAL_YAML)
    path = out / "tasks_seed3.json"
    doc = json.loads(path.read_text())
    doc["tasks"][0][field] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["replay", str(out / "checkpoint_seed3.json"), "--task", "freeform",
              "--tasks", str(path), "--output-dir", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error:") and field in message


def test_replay_missing_task_file_is_an_error(tmp_path, capsys):
    _, out = train(tmp_path, TRIVIAL_YAML)
    with pytest.raises(SystemExit) as err:
        main(["replay", str(out / "checkpoint_seed3.json"), "--task", "freeform",
              "--tasks", str(tmp_path / "missing.json")])
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err


def edit_checkpoint(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_malformed_checkpoint_env_is_an_error(tmp_path, capsys):
    _, out = train(tmp_path, TRIVIAL_YAML)
    ckpt = out / "checkpoint_seed3.json"
    edit_checkpoint(ckpt, lambda doc: doc["env"]["vvc"].update(mode="bogus"))
    tasks = str(out / "tasks_seed3.json")
    capsys.readouterr()
    for argv in (["replay", str(ckpt), "--task", "freeform", "--tasks", tasks],
                 ["replay", str(ckpt), "--setpoint", "0,0,0,0"],
                 ["plot", "--checkpoint", str(ckpt), "--tasks", tasks,
                  "-o", str(tmp_path / "p.svg")]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith("error:") and "bogus" in message


def test_malformed_checkpoint_horizon_is_an_error(tmp_path, capsys):
    _, out = train(tmp_path, TRIVIAL_YAML)
    ckpt = out / "checkpoint_seed3.json"
    edit_checkpoint(ckpt, lambda doc: doc["replay"].update(t_max="x"))
    tasks = str(out / "tasks_seed3.json")
    for argv in (["replay", str(ckpt), "--task", "freeform", "--tasks", tasks],
                 ["plot", "--checkpoint", str(ckpt), "--tasks", tasks,
                  "-o", str(tmp_path / "p.svg")]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error:")


def test_incomplete_checkpoint_is_an_error(tmp_path, capsys):
    # a checkpoint missing a key replay and plot read, or a goal tuple
    # missing one of its points, fails with an error line naming the key,
    # not a traceback
    _, out = train(tmp_path, TRIVIAL_YAML)
    complete = (out / "checkpoint_seed3.json").read_text()
    ckpt = out / "incomplete.json"
    tasks = str(out / "tasks_seed3.json")
    edits = [(key, lambda doc, key=key: doc.pop(key)) for key in artifacts.CHECKPOINT_KEYS]
    edits += [(key, lambda doc, key=key: doc["goal_tuples"][0].pop(key))
              for key in ("achieved", "commanded")]
    for key, edit in edits:
        ckpt.write_text(complete)
        edit_checkpoint(ckpt, edit)
        capsys.readouterr()
        for argv in (["replay", str(ckpt), "--task", "freeform", "--tasks", tasks],
                     ["replay", str(ckpt), "--setpoint", "0,0,0,0"],
                     ["plot", "--checkpoint", str(ckpt), "--tasks", tasks,
                      "-o", str(tmp_path / "p.svg")]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, (key, argv)
            message = capsys.readouterr().err
            assert message.startswith("error:") and key in message, (key, message)
    assert "normalization" in artifacts.CHECKPOINT_KEYS
    assert not (tmp_path / "p.svg").exists()


def test_replay_setpoint_tolerance_fallback_is_published_default(tmp_path, monkeypatch):
    # a checkpoint without replay tolerances serves setpoints with the
    # published vehicle tolerances (0.25 m, 1 deg, 5 km/h)
    _, out = train(tmp_path, TRIVIAL_YAML)
    ckpt = out / "checkpoint_seed3.json"
    edit_checkpoint(ckpt, lambda doc: doc["replay"].pop("tolerances"))
    served = []
    real_rollout = cli.rollout

    def spy(theta, task, *args, **kwargs):
        served.append(task)
        return real_rollout(theta, task, *args, **kwargs)

    monkeypatch.setattr(cli, "rollout", spy)
    assert main(["replay", str(ckpt), "--setpoint", "0,0,0,0",
                 "--output-dir", str(out)]) == 0
    assert served[0].tol == DEFAULT_VEHICLE_TOL
    assert served[0].tol.eps_psi == math.radians(1.0)


def test_plot_without_inputs_fails(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["plot", "-o", str(tmp_path / "x.svg")])
    assert err.value.code == 2


def test_setpoint_parsing_accepts_units(tmp_path):
    _, out = train(tmp_path, TRIVIAL_YAML)
    code = main(["replay", str(out / "checkpoint_seed3.json"),
                 "--setpoint", "0,0,10 deg,5 km/h", "--output-dir", str(out)])
    assert code == 0
    with pytest.raises(SystemExit):
        main(["replay", str(out / "checkpoint_seed3.json"),
              "--setpoint", "1,2,3", "--output-dir", str(out)])


@pytest.mark.parametrize("text, problem", [("", "empty"), ("t,x,y\n", "no rows"),
                                           ("t,x\n0,1.0\n1,2.0\n", "t, x and y"),
                                           ("t,x,y\n0,0.0,0.0\n1,nan,1.0\n",
                                            "line 3: expected finite values"),
                                           ("t,x,y\n0,1.0,2.0\n\n\n1,1.0,bad\n",
                                            "line 5: could not convert"),
                                           ("t,x,y\n0,0.0,-inf\n", "line 2: expected finite"),
                                           (b"\xff\xfet,x,y\n0,0.0,0.0\n",
                                            "can't decode byte 0xff")])
def test_plot_malformed_trajectory_csv_exits_two(tmp_path, capsys, text, problem):
    path = tmp_path / "bad.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["plot", str(path), "-o", str(tmp_path / "p.svg")])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error:") and str(path) in message and problem in message
    assert not (tmp_path / "p.svg").exists()


def test_task_file_missing_key_is_an_error(tmp_path, capsys):
    # an entry without a required key, or a file without tasks, is an error
    # line naming the entry and the key, for replay and plot alike
    _, out = train(tmp_path, TRIVIAL_YAML)
    ckpt = str(out / "checkpoint_seed3.json")
    complete = json.loads((out / "tasks_seed3.json").read_text())
    path = tmp_path / "tasks.json"
    edits = [(f"tasks[0].{key}: missing required key",
              lambda doc, key=key: doc["tasks"][0].pop(key))
             for key in ("id", "env_kind", "z0", "z_goal", "tolerances", "feature_recipe")]
    edits += [("tasks[0].tolerances.psi: missing required key",
               lambda doc: doc["tasks"][0]["tolerances"].pop("psi")),
              ("has no tasks", lambda doc: doc.pop("tasks"))]
    for expected, edit in edits:
        doc = json.loads(json.dumps(complete))
        edit(doc)
        path.write_text(json.dumps(doc))
        for argv in (["replay", ckpt, "--task", "freeform", "--tasks", str(path)],
                     ["plot", "--checkpoint", ckpt, "--tasks", str(path),
                      "-o", str(tmp_path / "p.svg")]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, (expected, argv)
            message = capsys.readouterr().err
            assert message.startswith("error:") and expected in message, message
    assert not (tmp_path / "p.svg").exists()


def test_plot_checkpoint_draws_each_task_replay(tmp_path, monkeypatch):
    # plot --checkpoint rolls all tasks out in one folded rollout; each
    # polyline must be the path its task's own replay records
    _, out = train(tmp_path, GRID_YAML)
    ckpt = str(out / "checkpoint_seed3.json")
    tasks = str(out / "tasks_seed3.json")
    drawn = []
    monkeypatch.setattr(cli.plotting, "render_svg",
                        lambda trajectories, goals: drawn.extend(trajectories) or "<svg/>")
    assert main(["plot", "--checkpoint", ckpt, "--tasks", tasks,
                 "-o", str(tmp_path / "p.svg")]) == 0
    assert [label for label, _, _ in drawn] == ["heading0", "heading10", "heading20"]
    for label, xs, ys in drawn:
        assert main(["replay", ckpt, "--task", label, "--tasks", tasks,
                     "--output-dir", str(out)]) == 0
        _, rows = artifacts.read_trajectory_csv(out / f"replay_{label}_seed3.csv")
        assert xs == [r[1] for r in rows] and ys == [r[2] for r in rows]


def test_replay_task_mirror_replays_the_reflected_task(tmp_path):
    # --mirror replays the task's x-axis reflection into its own files, and
    # its trajectory is the reflection of the plain replay's
    _, out = train(tmp_path, GRID_YAML)
    argv = ["replay", str(out / "checkpoint_seed3.json"), "--task", "heading20",
            "--tasks", str(out / "tasks_seed3.json"), "--output-dir", str(out)]
    assert main(argv) == 0 and main(argv + ["--mirror"]) == 0
    _, plain = artifacts.read_trajectory_csv(out / "replay_heading20_seed3.csv")
    _, mirrored = artifacts.read_trajectory_csv(out / "replay_heading20-mirror_seed3.csv")
    meta = json.loads((out / "replay_heading20-mirror_seed3.json").read_text())
    assert meta["task"] == "heading20~mirror" and meta["mirror"] is True
    assert json.loads((out / "replay_heading20_seed3.json").read_text())["mirror"] is False
    plain, mirrored = np.array(plain), np.array(mirrored)
    assert plain.shape == mirrored.shape and np.abs(plain[:, 2:4]).max() > 0.0
    flip = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])  # t, x, y, psi, v, delta
    assert np.abs(mirrored - plain * flip).max() < 1e-9


@pytest.mark.parametrize("argv, message", [
    (["replay", "{ckpt}", "--task", "freeform", "--tasks", "{tasks}",
      "--setpoint", "0,0,0,0", "--output-dir", "{out}"], "not allowed with argument"),
    (["replay", "{ckpt}", "--setpoint", "0,0,0,0", "--tasks", "{missing}",
      "--output-dir", "{out}"], "error: --tasks needs --task"),
    (["plot", "{csv}", "--tasks", "{missing}", "-o", "{svg}"],
     "error: --tasks needs --checkpoint"),
], ids=["replay_task_and_setpoint", "replay_setpoint_tasks", "plot_csv_tasks"])
def test_replay_and_plot_refuse_options_they_would_ignore(tmp_path, capsys, argv, message):
    _, out = train(tmp_path, TRIVIAL_YAML)
    replay = ["replay", str(out / "checkpoint_seed3.json"), "--output-dir", str(out)]
    assert main(replay + ["--task", "freeform", "--tasks", str(out / "tasks_seed3.json")]) == 0
    before = sorted(p.name for p in out.iterdir())
    paths = dict(ckpt=out / "checkpoint_seed3.json", tasks=out / "tasks_seed3.json",
                 missing=tmp_path / "missing.json", csv=out / "replay_freeform_seed3.csv",
                 svg=tmp_path / "p.svg", out=out)
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main([a.format(**paths) for a in argv])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == before
    assert not paths["svg"].exists()


MIRROR_YAML = TRIVIAL_YAML.replace("z_goal: [0, 0, 0, 0]", "z_goal: [0, 0.1, 0, 0]")


@pytest.mark.parametrize("limits", ["{steer: [-40 deg, 30 deg]}",
                                    "{steer_rate: [-40 deg/s, 50 deg/s]}"])
def test_replay_mirror_needs_symmetric_steering(tmp_path, capsys, limits):
    # with asymmetric steering limits the mirrored replay is not a reflection
    _, out = train(tmp_path, MIRROR_YAML.replace(
        "kind: vehicle", f"kind: vehicle\n  limits: {limits}"))
    ckpt = str(out / "checkpoint_seed3.json")
    assert main(["replay", ckpt, "--setpoint", "0,-0.1,0,0",
                 "--output-dir", str(out)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["replay", ckpt, "--setpoint", "0,-0.1,0,0", "--mirror",
              "--output-dir", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error:") and "symmetric steering" in message


def test_replay_mirror_is_refused_for_pendulum(tmp_path, capsys):
    _, out = train(tmp_path, PENDULUM_YAML)
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["replay", str(out / "checkpoint_seed3.json"), "--task", "swingup",
              "--tasks", str(out / "tasks_seed3.json"), "--mirror"])
    assert err.value.code == 2
    assert "vehicle" in capsys.readouterr().err


def set_in(keys, value):
    """An edit that sets doc[k0][k1]... to ``value``."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


CHECKPOINT, TASKS = "checkpoint_seed3.json", "tasks_seed3.json"


@pytest.mark.parametrize("name, keys, value, key", [
    (CHECKPOINT, ("replay", "t_max"), -3, "t_max"),
    (CHECKPOINT, ("replay", "t_goal"), 0, "t_goal"),
    (CHECKPOINT, ("replay", "t_max"), 2.7, "replay.t_max"),
    (CHECKPOINT, ("replay", "t_max"), True, "replay.t_max"),
    (CHECKPOINT, ("replay", "feature_recipe"), "nope", "feature_recipe"),
    (CHECKPOINT, ("replay", "feature_recipe"), "pendulum4",
     "replay: feature_recipe: 'pendulum4' is not a vehicle recipe"),
    (CHECKPOINT, ("replay", "colour"), "red", "replay.colour"),
    (CHECKPOINT, ("goal_tuples", 0, "achieved"), [0, 0, 0], "goal_tuples[0].achieved"),
    (CHECKPOINT, ("goal_tuples", 0, "achieved"), "0000", "goal_tuples[0].achieved"),
    (CHECKPOINT, ("goal_tuples", 0, "achieved"), 0, "goal_tuples[0].achieved"),
    (CHECKPOINT, ("goal_tuples", 0), 5, "goal_tuples[0]"),
    (CHECKPOINT, ("goal_tuples", 0, "colour"), "red", "goal_tuples[0].colour"),
    (CHECKPOINT, ("goal_tuples", 0, "achieved"), [0, 0, math.nan, 0],
     "goal_tuples[0].achieved[2]: expected a finite quantity"),
    (TASKS, ("tasks", 0, "z0"), "0000", "tasks[0].z0"),
    (TASKS, ("tasks", 0, "colour"), "red", "tasks[0].colour"),
    (TASKS, ("tasks", 0, "feature_recipe"), "pendulum4",
     "tasks[0]: feature_recipe: 'pendulum4' is not a vehicle recipe"),
], ids=["replay_t_max_negative", "replay_t_goal_zero", "replay_t_max_fraction",
        "replay_t_max_bool", "replay_recipe", "replay_pendulum_recipe", "replay_unknown_key",
        "achieved_three", "achieved_string", "achieved_scalar", "goal_tuple_scalar",
        "goal_tuple_unknown_key", "achieved_nan",
        "task_z0_string", "task_unknown_key", "task_pendulum_recipe"])
def test_malformed_artifact_value_exits_two(tmp_path, capsys, name, keys, value, key):
    # task entries, goal tuples and the replay block are read through strict
    # tables: a bad value or an unknown key is an error line naming the file
    # and the key, with exit 2 and no output, not a traceback or a replay
    _, out = train(tmp_path, GRID_YAML)
    edit_checkpoint(out / name, set_in(keys, value))
    ckpt, tasks, replays = str(out / CHECKPOINT), str(out / TASKS), tmp_path / "replays"
    argvs = [["replay", ckpt, "--task", "heading10", "--tasks", tasks,
              "--output-dir", str(replays)],
             ["plot", "--checkpoint", ckpt, "--tasks", tasks, "-o", str(replays / "p.svg")]]
    if name == CHECKPOINT:
        argvs.append(["replay", ckpt, "--setpoint", "0,0,10 deg,0", "--output-dir", str(replays)])
    for argv in argvs:
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        message = capsys.readouterr().err
        assert message.startswith(f"error: {out / name}: ") and key in message, message
    assert not replays.exists()


def test_huge_checkpoint_horizon_replays_the_steps_taken(tmp_path):
    # a replay horizon of 10**30 steps is a valid int: a task that solves
    # replays and plots as it does at the trained horizon, where a record
    # buffer sized by the horizon raised "Maximum allowed dimension exceeded"
    _, out = train(tmp_path, TRIVIAL_YAML)
    ckpt, tasks = out / CHECKPOINT, str(out / TASKS)
    outputs = {}
    for horizon in ("trained", "huge"):
        if horizon == "huge":
            edit_checkpoint(ckpt, set_in(("replay", "t_max"), 10**30))
        here = tmp_path / horizon
        for argv in (["replay", str(ckpt), "--task", "freeform", "--tasks", tasks],
                     ["replay", str(ckpt), "--setpoint", "0,0,0,0"]):
            assert main(argv + ["--output-dir", str(here)]) == 0, (horizon, argv)
        assert main(["plot", "--checkpoint", str(ckpt), "--tasks", tasks,
                     "-o", str(here / "p.svg")]) == 0, horizon
        outputs[horizon] = {p.name: p.read_bytes() for p in here.iterdir()}
    assert len(outputs["huge"]) == 5 and outputs["huge"] == outputs["trained"]


def test_json_that_is_not_an_object_exits_two(tmp_path, capsys):
    # a task file or checkpoint holding another JSON value, no JSON, or an
    # object that repeats a key (which JSON would collapse onto its last
    # value) is an error line naming the file, not an AttributeError
    # traceback, a message that does not say which file is bad or a replay
    _, out = train(tmp_path, GRID_YAML)
    ckpt, tasks, bad = str(out / CHECKPOINT), str(out / TASKS), tmp_path / "bad.json"
    svg = str(tmp_path / "p.svg")
    for text, problem in (("[]", "expected a JSON object"), ('"x"', "expected a JSON object"),
                          ("3", "expected a JSON object"),
                          ("{bad", "Expecting property name enclosed in double quotes"),
                          ('{"format": 1, "format": 2}', "repeated key 'format'")):
        bad.write_text(text)
        for argv in (["replay", ckpt, "--task", "heading10", "--tasks", str(bad)],
                     ["replay", str(bad), "--setpoint", "0,0,0,0"],
                     ["plot", "--checkpoint", str(bad), "--tasks", tasks, "-o", svg],
                     ["plot", "--checkpoint", ckpt, "--tasks", str(bad), "-o", svg]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, (text, argv)
            message = capsys.readouterr().err
            assert message.startswith(f"error: {bad}: {problem}"), message
    assert not (tmp_path / "p.svg").exists()


def test_cart_pole_checkpoint_without_replay_recipe_falls_back_to_pendulum4(tmp_path):
    _, out = train(tmp_path, PENDULUM_YAML)
    edit_checkpoint(out / CHECKPOINT, lambda doc: doc["replay"].pop("feature_recipe"))
    assert main(["replay", str(out / CHECKPOINT), "--task", "swingup",
                 "--tasks", str(out / TASKS), "--output-dir", str(out)]) == 0


def test_plot_writes_its_svg_atomically(tmp_path, monkeypatch, capsys):
    # a write that fails at the rename leaves neither the SVG nor a temp
    # file; one that succeeds gives the SVG the mode a plain open would
    csv = tmp_path / "run.csv"
    csv.write_text("t,x,y\n0,0.0,0.0\n1,1.0,0.5\n")
    plots = tmp_path / "plots"

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(artifacts.os, "replace", refuse)
    with pytest.raises(SystemExit) as err:
        main(["plot", str(csv), "-o", str(plots / "p.svg")])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: rename refused\n"
    assert list(plots.iterdir()) == []
    monkeypatch.undo()
    assert main(["plot", str(csv), "-o", str(plots / "p.svg")]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert [p.name for p in plots.iterdir()] == ["p.svg"]
    assert (plots / "p.svg").stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("edit, expected", [
    (lambda doc: doc["theta"].pop(), "parameter vector has length 65, spec (5, 8, 2) needs 66"),
    (lambda doc: doc.update(layer_sizes=[5, 8, 1], theta=doc["theta"][:57]),
     "policy outputs 1 channels, environment needs 2"),
    (lambda doc: doc["theta"].__setitem__(3, math.nan),
     "theta[3]: expected a finite quantity, got nan"),
    (lambda doc: doc.update(theta=[doc["theta"]]),
     "theta[0]: expected a number or quantity string"),
    (lambda doc: doc.update(theta=0.5), "theta: expected a list, got 0.5"),
    (lambda doc: doc.update(theta={}), "theta: expected a list, got {}"),
    (lambda doc: doc.update(theta=["0.5"] * 66),
     "theta[0]: cannot parse '0.5'; allowed units: none (plain number only)"),
    (lambda doc: doc.update(theta=[True] * 66), "theta[0]: expected a quantity, got a boolean"),
], ids=["theta_length", "vehicle_one_output", "theta_nan", "theta_nested", "theta_scalar",
        "theta_mapping", "theta_strings", "theta_booleans"])
def test_checkpoint_policy_must_fit_theta_and_env(tmp_path, capsys, edit, expected):
    _, out = train(tmp_path, GRID_YAML)
    ckpt, tasks = out / CHECKPOINT, str(out / TASKS)
    edit_checkpoint(ckpt, edit)
    for argv in (["replay", str(ckpt), "--task", "heading10", "--tasks", tasks,
                  "--output-dir", str(tmp_path / "replays")],
                 ["plot", "--checkpoint", str(ckpt), "--tasks", tasks,
                  "-o", str(tmp_path / "replays" / "p.svg")]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err == f"error: {ckpt}: {expected}\n"
    assert not (tmp_path / "replays").exists()


@pytest.mark.parametrize("edit, tasks_file, replayed, plotted, expected", [
    # a 4-input policy on goal5 tasks: replay refused it, plot failed in np.matmul
    (lambda doc: doc.update(layer_sizes=[4, 8, 2], theta=doc["theta"][:58]), None,
     "heading10", "heading0", "task {!r} produces 5 features, policy expects 4"),
    # cart-pole tasks on a vehicle checkpoint
    (lambda doc: None, "pole.json", "swingup", "swingup",
     "task {!r} is a pendulum task, environment is vehicle"),
], ids=["four_inputs_goal5", "pendulum_tasks"])
def test_replay_and_plot_refuse_tasks_the_policy_does_not_fit(
        tmp_path, capsys, edit, tasks_file, replayed, plotted, expected):
    _, out = train(tmp_path, GRID_YAML)
    ckpt, tasks = out / CHECKPOINT, str(out / TASKS)
    edit_checkpoint(ckpt, edit)
    if tasks_file is not None:
        tasks = str(tmp_path / tasks_file)
        artifacts.write_task_list(tasks, pendulum_tasks("swingup"))
    for argv, task_id in ((["replay", str(ckpt), "--task", replayed, "--tasks", tasks,
                            "--output-dir", str(tmp_path / "replays")], replayed),
                          (["plot", "--checkpoint", str(ckpt), "--tasks", tasks,
                            "-o", str(tmp_path / "replays" / "p.svg")], plotted)):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err == f"error: {ckpt}: {expected.format(task_id)}\n"
    assert not (tmp_path / "replays").exists()


@pytest.mark.parametrize("seed", ["3/../../escaped", True, 3.0])
def test_checkpoint_seed_must_be_an_integer(tmp_path, capsys, seed):
    # the seed names the replay files; a path in it must not place them
    _, out = train(tmp_path, TRIVIAL_YAML)
    ckpt = out / CHECKPOINT
    edit_checkpoint(ckpt, set_in(("seed",), seed))
    (out / "replay_freeform_seed3").mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["replay", str(ckpt), "--task", "freeform", "--tasks", str(out / TASKS),
              "--output-dir", str(out)])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: seed: expected int")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("setpoint", ["nan,0,0,0", "inf,0,0,0", "0,0,-inf deg,0"])
def test_non_finite_setpoint_exits_two(tmp_path, capsys, setpoint):
    _, out = train(tmp_path, TRIVIAL_YAML)
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["replay", str(out / CHECKPOINT), "--setpoint", setpoint,
              "--output-dir", str(tmp_path / "replays")])
    assert err.value.code == 2
    index = 2 if "deg" in setpoint else 0
    assert capsys.readouterr().err.startswith(
        f"error: --setpoint[{index}]: expected a finite quantity")
    assert not (tmp_path / "replays").exists()


@pytest.mark.parametrize("replay", [None, {}, {"t_max": None, "t_goal": None}])
def test_replay_block_fallbacks(tmp_path, monkeypatch, replay):
    # without a replay block, or with null horizons, a setpoint is served
    # for 1000 steps, a 1-step goal window, goal5 and the published tolerances
    _, out = train(tmp_path, GRID_YAML)
    ckpt = out / CHECKPOINT
    edit_checkpoint(ckpt, lambda doc: doc.pop("replay") if replay is None
                    else doc.update(replay=replay))
    served = []
    real_rollout = cli.rollout

    def spy(theta, task, env, spec, t_max, t_goal, **kwargs):
        served.append((task, t_max, t_goal))
        return real_rollout(theta, task, env, spec, t_max, t_goal, **kwargs)

    monkeypatch.setattr(cli, "rollout", spy)
    assert main(["replay", str(ckpt), "--setpoint", "0,0,10 deg,0",
                 "--output-dir", str(out)]) == 0
    task, t_max, t_goal = served[0]
    assert (t_max, t_goal, task.feature_recipe, task.tol) == (
        1000, 1, "goal5", DEFAULT_VEHICLE_TOL)
    assert task.id == "setpoint" and task.z0 == (0.0,) * 4


def test_train_artifact_bytes_are_unchanged(tmp_path):
    # task file and checkpoint are written by the format tables; their bytes
    # must stay the ones the hand-written codecs produced
    _, out = train(tmp_path, GRID_YAML)
    assert hashlib.sha256((out / TASKS).read_bytes()).hexdigest() == (
        "8701dfd5992d6e4584baf649d69cf04c839cf55fdf1f9eca7d376411a927b242")
    assert hashlib.sha256((out / CHECKPOINT).read_bytes()).hexdigest() == (
        "7bdf588a356d75e02b95b32021913ec32c4fa1a32cd0e6506f03e07f04866544")


def test_unwritable_output_dir_exits_two_without_traceback(tmp_path):
    # an output directory under a regular file cannot be made: one error
    # line and exit 2, where exit 1 would mean an unsolved task
    blocker = tmp_path / "file"
    blocker.write_text("")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "tshc.cli", "train",
                           write_config(tmp_path, TRIVIAL_YAML),
                           "--output-dir", str(blocker / "out"), "--workers", "1"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_an_error_that_is_not_bad_input_keeps_its_traceback(tmp_path, monkeypatch):
    # main reports ConfigError and OSError only; a plain ValueError from
    # inside a command is a fault of the program and propagates
    _, out = train(tmp_path, TRIVIAL_YAML)

    def broken(*args, **kwargs):
        raise ValueError("not bad input")

    monkeypatch.setattr(cli, "rollout", broken)
    with pytest.raises(ValueError, match="not bad input") as err:
        main(["replay", str(out / "checkpoint_seed3.json"), "--task", "freeform",
              "--tasks", str(out / "tasks_seed3.json"), "--output-dir", str(out)])
    assert not isinstance(err.value, ConfigError)
