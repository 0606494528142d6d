"""Run configuration: one YAML file with explicit keys, strict validation
(unknown keys are errors) and unit-suffixed quantities at the boundary.

Angles may be given as ``"40 deg"``, speeds as ``"5 km/h"`` and so on;
bare numbers are taken as SI (m, m/s, rad, s).

Each section is described once, by a table that maps a config key to the
field (or, for a ``[min, max]`` pair, the two fields) it sets and the kind
of its value.  The same table reads the section and writes the SI env dict
that checkpoints embed.  The formats of the files tshc reads back (task
entries, goal tuples, a checkpoint's replay block) are tables too, read
and written only through ``load`` and ``dump``.
"""

import functools
import inspect
import math
import os
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import yaml

from . import tasks as tasklib
from .dynamics import ActuatorLimits, PendulumParams, VehicleParams, crash_check_arrays
from .envs import PendulumEnv, VehicleEnv
from .policy import MlpSpec
from .reward import VVC_OFF, VVC_SPATIAL, Tolerances, VvcConfig
from .trainer import (SIGMA_CONSTANT, SIGMA_RANDOM_ITER, SIGMA_RANDOM_RESTART, TshcConfig,
                      check_fit)

DEFAULT_OUTPUT_ENV_VAR = "TSHC_OUTPUT_DIR"
# keyed by the few section classes and task builders; read on every _section call
_signature = functools.cache(inspect.signature)

_UNIT_FACTORS = {
    "length": {"m": 1.0},
    "speed": {"m/s": 1.0, "km/h": 1.0 / 3.6},
    "accel": {"m/s^2": 1.0, "m/s2": 1.0},
    "angle": {"rad": 1.0, "deg": math.pi / 180.0},
    "angrate": {"rad/s": 1.0, "deg/s": math.pi / 180.0},
    "time": {"s": 1.0},
    "plain": {},
}


class ConfigError(ValueError):
    """Bad input from outside: a config, checkpoint, task file, trajectory
    CSV or command-line option; ``cli.main`` reports it and exits 2."""


def parse_quantity(value, kind, path="value"):
    """A number (SI) or a '<number> <unit>' string converted to SI."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a quantity, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        parts = value.split()
        factors = _UNIT_FACTORS[kind]
        if len(parts) == 2 and parts[1] in factors:
            try:
                return float(parts[0]) * factors[parts[1]]
            except ValueError:
                raise ConfigError(f"{path}: bad number in {value!r}") from None
        allowed = ", ".join(factors) or "none (plain number only)"
        raise ConfigError(f"{path}: cannot parse {value!r}; allowed units: {allowed}")
    raise ConfigError(f"{path}: expected a number or quantity string")


class _Section(NamedTuple):  # kind of a mapping read into cls through table
    cls: object
    table: dict
    fallback: dict = {}  # fields the mapping may override; never mutated


def load(raw, kind, path, **fixed):
    """One value of ``kind``: a unit kind of ``_UNIT_FACTORS`` (a finite
    quantity, in SI), exactly an ``int``, ``bool`` or ``str``, a tuple of
    kinds (a list of that many values), a one-kind list (a list of any
    length) or a ``_Section``, whose ``fixed`` fields join its fallback.
    Errors are ``ConfigError``s that name the dotted key and index."""
    if isinstance(kind, str):
        value = parse_quantity(raw, kind, path)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite quantity, got {raw!r}")
        return value
    if isinstance(kind, _Section):
        return _section(raw, path, kind.cls, kind.table, **{**kind.fallback, **fixed})
    if isinstance(kind, type):
        if not isinstance(raw, kind) or (kind is int and isinstance(raw, bool)):
            raise ConfigError(f"{path}: expected {kind.__name__}, got {raw!r}")
        return raw
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {raw!r}")
    kinds = kind if isinstance(kind, tuple) else kind * len(raw)
    if len(raw) != len(kinds):
        raise ConfigError(f"{path}: expected {len(kinds)} values, got {len(raw)}")
    return tuple(load(v, k, f"{path}[{i}]") for i, (v, k) in enumerate(zip(raw, kinds)))


def _mapping(doc, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return doc


def _check_keys(doc, allowed, required, path):
    _mapping(doc, path)
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{path}.{key}: missing required key")


def _section(doc, path, cls, table, **fixed):
    """``cls(**fields)`` from the mapping ``doc`` read through ``table``
    (config key -> (field or field pair, kind)), over the ``fixed`` fields.

    A key whose fields have no default in ``cls`` and are not fixed is
    required; absent fields keep their defaults, and ``null`` leaves a
    field whose default is None unset.  A ``ValueError`` raised by ``cls``
    is prefixed with the section path.
    """
    params = _signature(cls).parameters

    def default(field):  # a pair's fields share defaults
        return params[field[0] if isinstance(field, tuple) else field].default
    required = [key for key, (field, _) in table.items()
                if default(field) is inspect.Parameter.empty and field not in fixed]
    _check_keys(doc, table, required, path)
    for key, raw in doc.items():
        field, kind = table[key]
        if raw is None and default(field) is None:
            continue
        value = load(raw, kind, f"{path}.{key}")
        fixed.update(zip(field, value) if isinstance(field, tuple) else [(field, value)])
    try:
        return cls(**fixed)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _dump(obj, table):
    """The SI dict of a section read by ``_section``: lists for tuples,
    dicts for nested sections."""
    def plain(value, kind=None):
        if isinstance(kind, _Section):
            return _dump(value, kind.table)
        return [plain(v) for v in value] if isinstance(value, tuple) else value
    return {key: plain(tuple(getattr(obj, f) for f in field) if isinstance(field, tuple)
                       else getattr(obj, field), kind)
            for key, (field, kind) in table.items()}


def dump(obj, section):
    """The JSON dict of ``obj``, a value that ``load`` reads as ``section``."""
    return _dump(obj, section.table)


def _same_names(**kinds):
    """Table of a section whose config keys are its fields' names."""
    return {key: (key, kind) for key, kind in kinds.items()}


_BOX = ("length",) * 4  # [xmin, ymin, xmax, ymax]
_VEHICLE = {"wheelbase": ("l_f", "length"), "sampling_time": ("Ts", "time"),
            "workspace": ("workspace", _BOX), "obstacles": ("obstacles", [_BOX])}
_LIMITS = {"v": (("v_min", "v_max"), ("speed",) * 2),
           "v_rate": (("vdot_min", "vdot_max"), ("accel",) * 2),
           "steer": (("delta_min", "delta_max"), ("angle",) * 2),
           "steer_rate": (("deltadot_min", "deltadot_max"), ("angrate",) * 2)}
_VVC = _same_names(mode=str, r_thresh="length", margin="speed")
_PENDULUM = {"cart_mass": ("m_cart", "plain"), "pole_mass": ("m_pole", "plain"),
             "pole_half_length": ("half_length", "length"), "gravity": ("g", "plain"),
             "force_max": ("f_max", "plain"), "sampling_time": ("Ts", "time"),
             "track_limit": ("p_limit", "length")}
# normalization keys are the norm dataclass's fields, as checkpoints store them
_VEHICLE_NORM = _same_names(dx="length", dy="length", dpsi="angle", dv="speed")
_PENDULUM_NORM = _same_names(dp="length", dp_dot="speed", dtheta="angle",
                             dtheta_dot="angrate")

# the {d, psi, v} tolerances of configs, task files and checkpoints
TOLERANCES = _Section(Tolerances, {"d": ("eps_d", "length"), "psi": ("eps_psi", "angle"),
                                   "v": ("eps_v", "speed")})
_TOLERANCES = ("tol", TOLERANCES)
# a cart-pole task's goal test reads its heading tolerance only: a config
# gives psi, and d and v keep DEFAULT_PENDULUM_TOL's
_PENDULUM_TOLERANCES = ("tol", _Section(Tolerances, {"psi": ("eps_psi", "angle")}, dict(
    eps_d=tasklib.DEFAULT_PENDULUM_TOL.eps_d, eps_v=tasklib.DEFAULT_PENDULUM_TOL.eps_v)))
_STATE = ("plain",) * 4  # a stored state or goal, in SI
# an entry of a task file
TASK = _Section(tasklib.Task, {
    **_same_names(id=str, env_kind=str, z0=_STATE, z_goal=_STATE), "tolerances": _TOLERANCES,
    **_same_names(feature_recipe=str, t_max=int, t_goal=int)})
# a checkpoint's goal tuple
GOAL_TUPLE = _Section(tasklib.GoalTuple, {"achieved": ("z_hat_goal", _STATE),
                                          "commanded": ("z_goal", _STATE),
                                          "task_id": ("task_id", str)})
# a checkpoint's replay block, read as the template of a setpoint task (its
# env_kind fixed to the checkpoint's, its feature recipe falling back to
# that plant's in REPLAY_RECIPES) whose t_max and t_goal are the replay
# horizon; an absent key keeps its fallback
REPLAY = _Section(tasklib.Task, {
    **_same_names(t_max=int, t_goal=int, feature_recipe=str), "tolerances": _TOLERANCES},
    dict(id="setpoint", z0=(0.0,) * 4, z_goal=(0.0,) * 4, t_max=1000, t_goal=1,
         tol=tasklib.DEFAULT_VEHICLE_TOL))
REPLAY_RECIPES = {tasklib.VEHICLE: tasklib.GOAL5, tasklib.PENDULUM: tasklib.PENDULUM4}
# unit kinds of a vehicle state or setpoint (x, y, psi, v)
VEHICLE_STATE = ("length", "length", "angle", "speed")
# generator -> (task-list builder, env kind it needs, key table)
_GENERATORS = {
    "freeform": (tasklib.freeform_task, tasklib.VEHICLE, {
        "tolerances": _TOLERANCES, **_same_names(
            z0=VEHICLE_STATE, z_goal=VEHICLE_STATE, feature_recipe=str)}),
    "heading-grid": (tasklib.heading_grid, tasklib.VEHICLE, {
        "tolerances": _TOLERANCES, **_same_names(step_deg="plain", max_deg="plain")}),
    "pendulum": (tasklib.pendulum_tasks, tasklib.PENDULUM, {
        "tolerances": _PENDULUM_TOLERANCES, **_same_names(kind=str, t_goal=int)}),
}


_POLICY = _same_names(layer_sizes=[int])
_TRAINING = _same_names(
    n_restarts=int, n_iter_max=int, n_candidates=int, t_max=int, t_goal=int,
    sigma_mode=str, sigma_min="plain", sigma_max="plain", beta="plain", refine=bool)
# mode key -> {mode: the keys of its section that the mode does not read}
_UNREAD = {"mode": {VVC_OFF: ("r_thresh", "margin"), VVC_SPATIAL: ("margin",)},
           "sigma_mode": {SIGMA_CONSTANT: ("sigma_min", "beta"),
                          SIGMA_RANDOM_RESTART: ("beta",), SIGMA_RANDOM_ITER: ("beta",)}}


@dataclass
class RunConfig:
    output_dir: str
    spec: MlpSpec
    env: object
    norm: object
    task_list: list
    training: TshcConfig
    env_config: dict  # raw SI values embedded into checkpoints


def _build_env(env_doc, vvc_doc, norm_doc):
    """(env, norm, SI env dict) from the env, vvc and normalization sections;
    ``vvc_doc`` is None without a vvc section."""
    env_doc = dict(_mapping(env_doc, "env"))
    kind = env_doc.pop("kind", None)
    if kind == tasklib.VEHICLE:
        limits = _section(env_doc.pop("limits", {}), "env.limits", ActuatorLimits, _LIMITS)
        params = _section(env_doc, "env", VehicleParams, _VEHICLE)
        vvc = _section({} if vvc_doc is None else vvc_doc, "vvc", VvcConfig, _VVC)
        norm = _section(norm_doc, "normalization", tasklib.VehicleNorm, _VEHICLE_NORM)
        return VehicleEnv(params, limits, vvc, norm), norm, {
            "kind": kind, **_dump(params, _VEHICLE), "limits": _dump(limits, _LIMITS),
            "vvc": _dump(vvc, _VVC)}
    if kind == tasklib.PENDULUM:
        if vvc_doc is not None:
            raise ConfigError("vvc: velocity constraints apply to vehicle runs only")
        params = _section(env_doc, "env", PendulumParams, _PENDULUM)
        norm = _section(norm_doc, "normalization", tasklib.PendulumNorm, _PENDULUM_NORM)
        return PendulumEnv(params, norm), norm, {"kind": kind, **_dump(params, _PENDULUM)}
    raise ConfigError(f"env.kind: expected 'vehicle' or 'pendulum', got {kind!r}")


def _build_tasks(doc, env_kind):
    doc = dict(_mapping(doc, "tasks"))
    generator = doc.pop("generator", None)
    if not isinstance(generator, str) or generator not in _GENERATORS:
        raise ConfigError(f"tasks.generator: unknown generator {generator!r}")
    build, kind, table = _GENERATORS[generator]
    if kind != env_kind:
        raise ConfigError(f"tasks.generator: {generator} needs a {kind} env")
    built = _section(doc, "tasks", build, table)
    return [built] if isinstance(built, tasklib.Task) else built  # freeform: one task


def _check_vehicle_tasks(task_list, params: VehicleParams):
    """Refuse a task whose z0 or z_goal is a crash, outside the workspace or
    inside an obstacle: each of its lanes would crash or could never finish."""
    xy = np.array([z[:2] for task in task_list for z in (task.z0, task.z_goal)]).T
    crashed = np.flatnonzero(crash_check_arrays(xy, params))
    if crashed.size:
        i = int(crashed[0])
        raise ConfigError(f"tasks: task {task_list[i // 2].id!r}: "
                          f"{('z0', 'z_goal')[i % 2]} at {tuple(xy[:, i].tolist())} is "
                          f"outside env.workspace or inside one of env.obstacles")


def _refuse_unread(doc, path, mode_key, mode):
    """Refuse a key of the config section ``doc`` that its mode does not
    read, as it would take no effect.  Only a config is checked: a
    checkpoint's env dict stores every ``VvcConfig`` field."""
    for key in _UNREAD[mode_key].get(mode, ()):
        if key in doc:
            raise ConfigError(f"{path}.{key}: not read when {path}.{mode_key} is {mode!r}")


def _at_least(raw, low, path):
    """The int ``raw``, which must be at least ``low``."""
    value = load(raw, int, path)
    if value < low:
        raise ConfigError(f"{path}: expected an int >= {low}, got {value!r}")
    return value


_YAML_MERGE = "tag:yaml.org,2002:merge"  # the tag of a '<<' key
_YAML_BOOL = "tag:yaml.org,2002:bool"


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that refuses a key given twice in one mapping,
    which ``safe_load`` would collapse onto its last value without a word;
    the entries that a ``<<`` merge key brings in may still be overridden.
    Only YAML 1.2's booleans are booleans: 1.1's ``yes``, ``no``, ``on``
    and ``off`` are strings, so ``mode: off`` is the mode ``"off"``."""

    yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers if tag != _YAML_BOOL]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()}

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != _YAML_MERGE:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found repeated key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep)


_UniqueKeyLoader.add_implicit_resolver(
    _YAML_BOOL, re.compile(r"^(?:true|True|TRUE|false|False|FALSE)$"), "tTfF")


def load_run_config(path, workers=None, output_dir=None) -> RunConfig:
    """The run of the config file ``path``; ``workers`` and ``output_dir``,
    the ``--workers`` and ``--output-dir`` options, override its keys."""
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    _check_keys(doc, {"seed", "output_dir", "policy", "env", "vvc",
                      "normalization", "tasks", "training", "workers"},
                {"seed", "policy", "env", "tasks", "training"}, "config")
    seed = _at_least(doc["seed"], 0, "config.seed")  # numpy seeds are non-negative
    spec = _section(doc["policy"], "policy", MlpSpec, _POLICY)
    env, norm, env_config = _build_env(doc["env"], doc.get("vvc"),
                                       doc.get("normalization", {}))
    task_list = _build_tasks(doc["tasks"], env.kind)
    try:
        check_fit(task_list, env, spec)
    except ValueError as exc:
        raise ConfigError(f"policy.layer_sizes: {exc}") from None
    if env.kind == tasklib.VEHICLE:
        _check_vehicle_tasks(task_list, env.params)
        _refuse_unread(doc.get("vvc") or {}, "vvc", "mode", env.vvc.mode)
    pool = {}  # without either, TshcConfig's own default
    if "workers" in doc:
        pool["workers"] = _at_least(doc["workers"], 1, "config.workers")
    if workers is not None:
        pool["workers"] = _at_least(workers, 1, "--workers")
    training = _section(doc["training"], "training", TshcConfig, _TRAINING, seed=seed,
                        **pool)
    _refuse_unread(doc["training"], "training", "sigma_mode", training.sigma_mode)
    config_dir = doc.get("output_dir")
    if config_dir is not None:
        load(config_dir, str, "config.output_dir")
    if output_dir is None:
        output_dir = config_dir or os.environ.get(DEFAULT_OUTPUT_ENV_VAR, "runs")
    return RunConfig(output_dir=output_dir, spec=spec, env=env, norm=norm,
                     task_list=task_list, training=training, env_config=env_config)


def env_from_config(env_config, normalization=None):
    """Rebuild a checkpoint's environment: its env dict is the SI form of a
    config's env section, vvc section inside, and is parsed the same way."""
    env_doc = dict(_mapping(env_config, "env"))
    return _build_env(env_doc, env_doc.pop("vvc", None), normalization or {})[0]
