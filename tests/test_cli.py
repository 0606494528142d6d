import json
import math
import textwrap

import pytest

from tshc import artifacts, cli
from tshc.cli import main
from tshc.tasks import DEFAULT_VEHICLE_TOL

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
    summary = artifacts.read_summary(out / "summary_seed3.json")
    assert summary["n_star"] == summary["n_tasks"] == 1
    assert summary["p_star"] == 0.0
    assert summary["seed"] == 3
    log = artifacts.read_log(out / "train_log_seed3.jsonl")
    assert len(log) == summary["iterations"]
    ckpt = artifacts.read_checkpoint(out / "checkpoint_seed3.json")
    assert ckpt["seed"] == 3
    assert len(ckpt["goal_tuples"]) == 1
    assert ckpt["best"]["n_solved"] == 1


def test_train_unsolved_run_exits_one(tmp_path):
    code, out = train(tmp_path, HARD_YAML)
    assert code == 1
    summary = artifacts.read_summary(out / "summary_seed3.json")
    assert summary["n_star"] == 0
    assert summary["restarts_with_full_solution"] == 0


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


@pytest.mark.parametrize("text", [
    PENDULUM_YAML.replace("kind: pendulum", "kind: pendulum\n  cart_mass: heavy"),
    PENDULUM_YAML.replace("kind: swingup", "kind: bogus"),
    PENDULUM_YAML.replace("kind: swingup", "kind: swingup\n  t_goal: x"),
    TRIVIAL_YAML.replace("z_goal: [0, 0, 0, 0]",
                         "z_goal: [0, 0, 0, 0]\n  tolerances: {d: -1, psi: 1, v: 1}"),
    TRIVIAL_YAML.replace("z_goal: [0, 0, 0, 0]",
                         "z_goal: [0, 0, 0, 0]\n  feature_recipe: bogus"),
    TRIVIAL_YAML.replace("kind: vehicle", 'kind: vehicle\n  workspace: [0, 0, "a", 1]'),
    TRIVIAL_YAML.replace("kind: vehicle", "kind: vehicle\n  workspace: [0, 0, 0, 1]"),
    TRIVIAL_YAML.replace("kind: vehicle", "kind: vehicle\n  limits: {v: [5, -5]}"),
], ids=["cart_mass", "pendulum_kind", "t_goal", "tolerance", "feature_recipe",
        "workspace_entry", "degenerate_workspace", "limits"])
def test_train_invalid_config_value_exits_two(tmp_path, capsys, text):
    # a value the config builders reject is an error line and exit 2, not
    # a traceback with exit 1 (the "not every task solved" code)
    path = write_config(tmp_path, text)
    with pytest.raises(SystemExit) as err:
        main(["train", path, "--output-dir", str(tmp_path / "o"), "--workers", "1"])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_replay_task_produces_csv_and_summary(tmp_path):
    _, out = train(tmp_path, TRIVIAL_YAML)
    code = main(["replay", str(out / "checkpoint_seed3.json"),
                 "--task", "freeform", "--tasks", str(out / "tasks_seed3.json"),
                 "--output-dir", str(out)])
    assert code == 0
    cols, rows = artifacts.read_trajectory_csv(out / "replay_freeform_seed3.csv")
    assert cols == ("t", "x", "y", "psi", "v", "delta")
    meta = artifacts.read_summary(out / "replay_freeform_seed3.json")
    assert meta["task"] == "freeform"
    assert meta["F"] == 1
    assert meta["mirror"] is False


def test_replay_setpoint_uses_nearest_goal(tmp_path):
    _, out = train(tmp_path, TRIVIAL_YAML)
    code = main(["replay", str(out / "checkpoint_seed3.json"),
                 "--setpoint", "0.05,0,0,0", "--output-dir", str(out)])
    assert code == 0
    meta = artifacts.read_summary(out / "replay_setpoint_seed3.json")
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
