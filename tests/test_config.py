import math
import os
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tshc import artifacts, cli
from tshc.cli import main
from tshc.config import ConfigError, env_from_config, load_run_config, parse_quantity
from tshc.envs import PendulumEnv, VehicleEnv
from tshc.policy import param_count
from tshc.reward import VVC_OFF, VVC_SPATIAL, Tolerances
from tshc.tasks import DEFAULT_PENDULUM_TOL
from tshc.trainer import BestSolution, TshcConfig

VEHICLE_YAML = """
seed: 7
policy:
  layer_sizes: [4, 64, 64, 2]
env:
  kind: vehicle
  sampling_time: 0.1
  limits:
    v: [-10, 10]
    steer: ["-40 deg", "40 deg"]
vvc:
  mode: spatial
  r_thresh: 5
tasks:
  generator: freeform
  z0: [0, 0, 0, 0]
  z_goal: [20, 0, 0.7853981633974483, 0]
training:
  n_restarts: 1
  n_iter_max: 30
  n_candidates: 100
  t_max: 100
  sigma_mode: constant
  sigma_max: 10
"""

PENDULUM_YAML = """
seed: 1
policy:
  layer_sizes: [4, 64, 64, 1]
env:
  kind: pendulum
tasks:
  generator: pendulum
  kind: swingup
training:
  n_restarts: 3
  n_iter_max: 100
  n_candidates: 100
  t_max: 500
  sigma_max: 10
"""


def write(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(textwrap.dedent(text))
    return path


def test_parse_quantity_units():
    assert parse_quantity(3, "length") == 3.0
    assert parse_quantity("5 km/h", "speed") == pytest.approx(5.0 / 3.6)
    assert parse_quantity("40 deg", "angle") == pytest.approx(math.radians(40))
    assert parse_quantity("40 deg/s", "angrate") == pytest.approx(math.radians(40))
    with pytest.raises(ConfigError):
        parse_quantity("5 furlongs", "length")
    with pytest.raises(ConfigError):
        parse_quantity(True, "length")
    with pytest.raises(ConfigError):
        parse_quantity("x m", "length")


def test_vehicle_config_loads(tmp_path):
    run = load_run_config(write(tmp_path, VEHICLE_YAML))
    assert run.spec.layer_sizes == (4, 64, 64, 2)
    assert isinstance(run.env, VehicleEnv)
    assert run.env.params.Ts == 0.1
    assert run.env.vvc.mode == VVC_SPATIAL
    assert run.env.limits.delta_max == pytest.approx(math.radians(40))
    assert len(run.task_list) == 1
    assert run.task_list[0].z_goal[0] == 20.0
    assert run.training.n_candidates == 100
    assert run.training.sigma_mode == "constant"
    assert run.training.seed == 7


def test_pendulum_config_loads(tmp_path):
    run = load_run_config(write(tmp_path, PENDULUM_YAML))
    assert isinstance(run.env, PendulumEnv)
    assert run.env.params.Ts == 0.02
    assert [t.id for t in run.task_list] == ["swingup"]


def test_pendulum_parameters_are_validated(tmp_path):
    for line, path in (("sampling_time: -0.02", "Ts"), ("force_max: true", "env.force_max"),
                       ("cart_mass: 0", "m_cart"), ("pole_half_length: -1", "half_length")):
        bad = PENDULUM_YAML.replace("  kind: pendulum", f"  kind: pendulum\n  {line}")
        with pytest.raises(ValueError, match=path):
            load_run_config(write(tmp_path, bad))


def test_unknown_keys_are_errors(tmp_path):
    bad = VEHICLE_YAML.replace("seed: 7", "seed: 7\nturbo: yes")
    with pytest.raises(ConfigError, match="turbo"):
        load_run_config(write(tmp_path, bad))
    bad = VEHICLE_YAML.replace("  sampling_time: 0.1",
                               "  sampling_time: 0.1\n  colour: red")
    with pytest.raises(ConfigError, match="colour"):
        load_run_config(write(tmp_path, bad))


def test_policy_init_std_is_rejected(tmp_path):
    # the initial scale is fixed; a key that would be ignored is an error
    bad = VEHICLE_YAML.replace("  layer_sizes: [4, 64, 64, 2]",
                               "  layer_sizes: [4, 64, 64, 2]\n  init_std: 0.1")
    with pytest.raises(ConfigError, match="policy.init_std"):
        load_run_config(write(tmp_path, bad))


def test_readme_yaml_blocks_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for text in blocks:
        load_run_config(write(tmp_path, text))


def test_seed_must_be_integer(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        load_run_config(write(tmp_path, VEHICLE_YAML.replace("seed: 7",
                                                             "seed: auto")))


def test_vvc_rejected_for_pendulum(tmp_path):
    bad = PENDULUM_YAML.replace("seed: 1", "seed: 1\nvvc:\n  mode: spatial")
    with pytest.raises(ConfigError, match="vvc"):
        load_run_config(write(tmp_path, bad))


def test_missing_required_sections(tmp_path):
    bad = VEHICLE_YAML.replace("seed: 7\n", "")
    with pytest.raises(ConfigError, match="seed"):
        load_run_config(write(tmp_path, bad))


def test_freeform_requires_states(tmp_path):
    bad = VEHICLE_YAML.replace("  z0: [0, 0, 0, 0]\n", "")
    with pytest.raises(ConfigError, match="z0"):
        load_run_config(write(tmp_path, bad))


def test_bad_training_values_surface_with_context(tmp_path):
    bad = VEHICLE_YAML.replace("n_candidates: 100", "n_candidates: 0")
    with pytest.raises(ConfigError, match="training"):
        load_run_config(write(tmp_path, bad))


def test_rich_weights_is_an_unknown_key(tmp_path, capsys):
    # rewards are sparse only: a dense-reward weight vector is refused like
    # any other key the training section does not have
    path = write(tmp_path, VEHICLE_YAML.replace(
        "  sigma_max: 10\n", "  sigma_max: 10\n  rich_weights: [1, 1, 0.1, 0.1]\n"))
    with pytest.raises(SystemExit) as err:
        main(["train", str(path), "--output-dir", str(tmp_path / "o")])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: training.rich_weights: unknown key\n"
    assert not (tmp_path / "o").exists()


_SPATIAL_VVC = "  mode: spatial\n  r_thresh: 5\n"
_CONSTANT_SIGMA = "  sigma_mode: constant\n  sigma_max: 10\n"


@pytest.mark.parametrize("old, new, message", [
    (_SPATIAL_VVC, "  mode: 'off'\n  r_thresh: 5\n",
     "vvc.r_thresh: not read when vvc.mode is 'off'"),
    (_SPATIAL_VVC, "  mode: 'off'\n  margin: 1\n",
     "vvc.margin: not read when vvc.mode is 'off'"),
    (_SPATIAL_VVC, "  r_thresh: 5\n", "vvc.r_thresh: not read when vvc.mode is 'off'"),
    (_SPATIAL_VVC, "  margin: 1\n", "vvc.margin: not read when vvc.mode is 'off'"),
    (_SPATIAL_VVC, _SPATIAL_VVC + "  margin: 9\n",
     "vvc.margin: not read when vvc.mode is 'spatial'"),
    (_CONSTANT_SIGMA, _CONSTANT_SIGMA + "  beta: 3\n",
     "training.beta: not read when training.sigma_mode is 'constant'"),
    (_CONSTANT_SIGMA, "  sigma_mode: random-per-iter\n  sigma_max: 10\n  beta: 3\n",
     "training.beta: not read when training.sigma_mode is 'random-per-iter'"),
    (_CONSTANT_SIGMA, "  sigma_mode: random-per-restart\n  sigma_max: 10\n  beta: 3\n",
     "training.beta: not read when training.sigma_mode is 'random-per-restart'"),
    (_CONSTANT_SIGMA, _CONSTANT_SIGMA + "  sigma_min: 1\n",
     "training.sigma_min: not read when training.sigma_mode is 'constant'"),
], ids=["off_r_thresh", "off_margin", "no_mode_r_thresh", "no_mode_margin", "spatial_margin",
        "constant_beta", "random_iter_beta", "random_restart_beta", "constant_sigma_min"])
def test_keys_a_mode_does_not_read_are_errors(tmp_path, capsys, old, new, message):
    # each of these trained as if the key were absent, and the checkpoint
    # of a spatial run with margin 9 stored "margin": 9.0
    assert VEHICLE_YAML.count(old) == 1
    path = write(tmp_path, VEHICLE_YAML.replace(old, new))
    with pytest.raises(SystemExit) as err:
        main(["train", str(path), "--output-dir", str(tmp_path / "o")])
    assert err.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_keys_each_mode_reads_load(tmp_path):
    # adaptive reads beta and sigma_min, a random draw reads sigma_min, a
    # constant sigma may lie below sigma_min's default, and a checkpoint's
    # env dict keeps every VVC field whatever its mode
    for text in (PENDULUM_YAML.replace("  sigma_max: 10", "  sigma_max: 10\n  beta: 3\n"
                                       "  sigma_min: 1"),
                 VEHICLE_YAML.replace("  sigma_mode: constant",
                                      "  sigma_mode: random-per-restart\n  sigma_min: 1"),
                 VEHICLE_YAML.replace("  sigma_max: 10", "  sigma_max: 0.005")):
        load_run_config(write(tmp_path, text))
    run = load_run_config(write(tmp_path, VEHICLE_YAML.replace(_SPATIAL_VVC, "")))
    assert run.env_config["vvc"] == {"mode": "off", "r_thresh": 5.0, "margin": 5.0 / 3.6}
    env = env_from_config(dict(run.env_config, vvc=dict(run.env_config["vvc"], margin=9.0)))
    assert env.vvc.margin == 9.0


def test_a_bare_off_is_the_vvc_mode(tmp_path):
    # YAML 1.1 read it as false, which the mode refused as not a str
    run = load_run_config(write(tmp_path, VEHICLE_YAML.replace(_SPATIAL_VVC, "  mode: off\n")))
    assert run.env.vvc.mode == VVC_OFF


@pytest.mark.parametrize("word", ["yes", "no", "on", "off", "Yes", "OFF"])
def test_yaml_1_1_booleans_are_strings(tmp_path, capsys, word):
    # only true and false are booleans: refine: yes used to train with refine on
    path = write(tmp_path, VEHICLE_YAML.replace("  sigma_max: 10\n",
                                                f"  sigma_max: 10\n  refine: {word}\n"))
    with pytest.raises(SystemExit) as err:
        main(["train", str(path), "--output-dir", str(tmp_path / "o")])
    assert err.value.code == 2
    assert capsys.readouterr().err == f"error: training.refine: expected bool, got {word!r}\n"
    assert not (tmp_path / "o").exists()


def _pendulum_tolerances(tolerances):
    return PENDULUM_YAML.replace("  kind: swingup\n",
                                 f"  kind: swingup\n  tolerances: {tolerances}\n")


def test_pendulum_tolerances_read_psi_only(tmp_path):
    # the cart-pole goal test reads the heading tolerance only, so d and v
    # keep the defaults', and the default psi gives the task list's digest
    # of a config without tolerances
    run = load_run_config(write(tmp_path, _pendulum_tolerances('{psi: "20 deg"}')))
    assert run.task_list[0].tol == Tolerances(
        DEFAULT_PENDULUM_TOL.eps_d, math.radians(20.0), DEFAULT_PENDULUM_TOL.eps_v)
    default = load_run_config(write(tmp_path, PENDULUM_YAML)).task_list
    given = load_run_config(write(tmp_path, _pendulum_tolerances(
        f"{{psi: {DEFAULT_PENDULUM_TOL.eps_psi!r}}}"))).task_list
    assert artifacts.task_digest(given) == artifacts.task_digest(default)


@pytest.mark.parametrize("key", ["d", "v"])
def test_pendulum_tolerances_refuse_what_the_goal_test_does_not_read(tmp_path, capsys, key):
    # both used to be required and took no effect
    path = write(tmp_path, _pendulum_tolerances(f'{{psi: "12 deg", {key}: 1}}'))
    with pytest.raises(SystemExit) as err:
        main(["train", str(path), "--output-dir", str(tmp_path / "o")])
    assert err.value.code == 2
    assert capsys.readouterr().err == f"error: tasks.tolerances.{key}: unknown key\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("base, old, new, key", [
    (VEHICLE_YAML, "  sampling_time: 0.1", "  sampling_time: .nan", "env.sampling_time"),
    (VEHICLE_YAML, "  sampling_time: 0.1", "  sampling_time: 0.1\n  wheelbase: .nan",
     "env.wheelbase"),
    (VEHICLE_YAML, "  r_thresh: 5", "  r_thresh: .nan", "vvc.r_thresh"),
    (VEHICLE_YAML, "0.7853981633974483, 0]",
     "0.7853981633974483, 0]\n  tolerances: {d: .nan, psi: 1, v: 1}", "tasks.tolerances.d"),
    (VEHICLE_YAML, "  sigma_max: 10", "  sigma_max: 10\n  beta: .nan", "training.beta"),
    (VEHICLE_YAML, "  sigma_max: 10", "  sigma_max: .inf", "training.sigma_max"),
    (VEHICLE_YAML, "  steer:", "  v_rate: [-8, .inf]\n    steer:", r"env.limits.v_rate\[1\]"),
    (PENDULUM_YAML, "  kind: pendulum", "  kind: pendulum\n  gravity: .inf", "env.gravity"),
    (PENDULUM_YAML, "  kind: pendulum", "  kind: pendulum\n  gravity: -.inf", "env.gravity"),
    (VEHICLE_YAML, "seed: 7", "seed: 7\nnormalization: {dx: 0}",
     "normalization: dx: normalization scale must be positive"),
    (VEHICLE_YAML, "seed: 7", "seed: 7\nnormalization: {dpsi: -3.14}",
     "normalization: dpsi: normalization scale must be positive"),
    (PENDULUM_YAML, "seed: 1", "seed: 1\nnormalization: {dtheta_dot: 0}",
     "normalization: dtheta_dot: normalization scale must be positive"),
    (VEHICLE_YAML, "  sampling_time: 0.1", "  sampling_time: 0.1\n  obstacles: [[3, 1, 1, -1]]",
     r"env: obstacles\[0\] box \(3.0, 1.0, 1.0, -1.0\) is degenerate"),
    (VEHICLE_YAML, "  sampling_time: 0.1",
     "  sampling_time: 0.1\n  obstacles: [[1, 1, 2, 3], [-5, -2, -3, -2]]",
     r"env: obstacles\[1\] box \(-5.0, -2.0, -3.0, -2.0\) is degenerate"),
], ids=["sampling_time_nan", "wheelbase_nan", "r_thresh_nan", "tolerance_nan", "beta_nan",
        "sigma_max_inf", "v_rate_inf", "gravity_inf", "gravity_minus_inf", "norm_zero",
        "norm_negative", "pendulum_norm_zero", "obstacle_inverted", "obstacle_flat"])
def test_config_rejects_values_a_run_would_misread(tmp_path, base, old, new, key):
    # each of these loaded and ran: a NaN tolerance solves nothing, a zero
    # scale makes every feature infinite, an inverted obstacle blocks nothing
    assert base.count(old) == 1
    with pytest.raises(ConfigError, match=key):
        load_run_config(write(tmp_path, base.replace(old, new)))


def test_checkpoint_env_dict_is_checked_like_a_config(tmp_path):
    run = load_run_config(write(tmp_path, VEHICLE_YAML))
    with pytest.raises(ConfigError, match="env.wheelbase: expected a finite quantity"):
        env_from_config(dict(run.env_config, wheelbase=math.nan))
    with pytest.raises(ConfigError, match=r"env: obstacles\[0\]"):
        env_from_config(dict(run.env_config, obstacles=[[3, 1, 1, -1]]))
    with pytest.raises(ConfigError, match="normalization: dy: normalization scale"):
        env_from_config(run.env_config, {"dy": -1.0})


def test_workers_override_wins(tmp_path):
    run = load_run_config(write(tmp_path, VEHICLE_YAML), workers=4)
    assert run.training.workers == 4


def test_workers_default_counts_the_cpus_the_process_may_use(tmp_path, monkeypatch):
    # a process pinned to one of eight CPUs gets one worker, not eight; an
    # OS that cannot tell the affinity falls back to all CPUs; a TshcConfig
    # built without workers, a config without it and ``tshc train`` without
    # --workers all take that one default
    path = write(tmp_path, VEHICLE_YAML)
    trained = []

    def capture(cfg, *args, **kwargs):
        trained.append(cfg.workers)
        return BestSolution(), []
    monkeypatch.setattr(cli, "tshc_run", capture)

    def counts():
        assert main(["train", str(path), "--output-dir", str(tmp_path / "out")]) == 1  # unsolved
        return (TshcConfig(n_restarts=1, n_iter_max=1, n_candidates=1, t_max=1).workers,
                load_run_config(path).training.workers, trained.pop())
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert counts() == (1, 1, 1)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert counts() == (8, 8, 8)


def test_output_dir_defaults(tmp_path, monkeypatch):
    monkeypatch.setenv("TSHC_OUTPUT_DIR", str(tmp_path / "from-env"))
    run = load_run_config(write(tmp_path, VEHICLE_YAML))
    assert run.output_dir == str(tmp_path / "from-env")
    run = load_run_config(write(tmp_path, VEHICLE_YAML),
                          output_dir=str(tmp_path / "cli"))
    assert run.output_dir == str(tmp_path / "cli")


def test_env_config_round_trip(tmp_path):
    # config -> checkpoint -> env_from_config rebuilds the same environment
    vehicle = VEHICLE_YAML.replace("  sampling_time: 0.1", """  sampling_time: 0.1
  wheelbase: 2.7
  workspace: [-30, -20, 40, 25]
  obstacles: [[1, 1, 2, 3], [-5, -4, -3, -2]]""").replace(
        "  mode: spatial\n  r_thresh: 5", "  mode: constant-margin\n  margin: 3 km/h"
    ) + "normalization:\n  dpsi: 90 deg\n  dv: 5\n"
    pendulum = PENDULUM_YAML.replace("  kind: pendulum", """  kind: pendulum
  pole_half_length: 0.6
  track_limit: 3""") + "normalization:\n  dtheta_dot: 360 deg/s\n"
    rebuilt = []
    for text in (vehicle, pendulum):
        run = load_run_config(write(tmp_path, text))
        path = tmp_path / "ckpt.json"
        artifacts.write_checkpoint(path, run.spec, np.zeros(param_count(run.spec)),
                                   run.norm, run.task_list, run.env_config,
                                   run.training.seed)
        doc = artifacts.read_checkpoint(path)
        env = env_from_config(doc["env"], doc["normalization"])
        assert type(env) is type(run.env)
        for attr in ("params", "limits", "vvc", "norm"):
            assert getattr(env, attr, None) == getattr(run.env, attr, None), attr
        rebuilt.append(env)
    car, pole = rebuilt
    assert len(car.params.obstacles) == 2 and car.vvc.mode == "constant-margin"
    assert car.vvc.margin == pytest.approx(3.0 / 3.6)
    assert car.norm.dpsi == pytest.approx(math.pi / 2)
    assert pole.params.p_limit == 3.0
    assert pole.norm.dtheta_dot == pytest.approx(2.0 * math.pi)


def test_env_from_config_validates_like_a_config(tmp_path):
    run = load_run_config(write(tmp_path, VEHICLE_YAML))
    bad = dict(run.env_config, vvc=dict(run.env_config["vvc"], mode="bogus"))
    with pytest.raises(ConfigError, match="vvc"):
        env_from_config(bad)
    with pytest.raises(ConfigError, match="env.colour"):
        env_from_config(dict(run.env_config, colour="red"))
    with pytest.raises(ConfigError, match="env.kind"):
        env_from_config(dict(run.env_config, kind="boat"))
