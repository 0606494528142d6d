"""Run configuration: one YAML file with explicit keys, strict validation
(unknown keys are errors) and unit-suffixed quantities at the boundary.

Angles may be given as ``"40 deg"``, speeds as ``"5 km/h"`` and so on;
bare numbers are taken as SI (m, m/s, rad, s).
"""

import math
import os
from dataclasses import dataclass

import yaml

from . import tasks as tasklib
from .dynamics import ActuatorLimits, PendulumParams, VehicleParams
from .envs import PendulumEnv, VehicleEnv
from .policy import MlpSpec
from .reward import Tolerances, VvcConfig
from .trainer import TshcConfig

DEFAULT_OUTPUT_ENV_VAR = "TSHC_OUTPUT_DIR"

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
    pass


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


def _require_mapping(doc, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return doc


def _check_keys(doc, allowed, required, path):
    _require_mapping(doc, path)
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{path}.{key}: missing required key")


def _pair(doc, key, kind, path, default):
    if key not in doc:
        return default
    raw = doc[key]
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{path}.{key}: expected a [min, max] pair")
    return tuple(parse_quantity(v, kind, f"{path}.{key}") for v in raw)


# state-vector unit kinds per environment
_VEHICLE_STATE_KINDS = ("length", "length", "angle", "speed")
_PENDULUM_STATE_KINDS = ("length", "speed", "angle", "angrate")


def _state(doc, key, kinds, path):
    raw = doc[key]
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ConfigError(f"{path}.{key}: expected 4 state entries")
    return tuple(parse_quantity(v, k, f"{path}.{key}") for v, k in zip(raw, kinds))


def _tolerances(doc, path, default):
    if "tolerances" not in doc:
        return default
    tol = doc["tolerances"]
    _check_keys(tol, {"d", "psi", "v"}, {"d", "psi", "v"}, f"{path}.tolerances")
    return Tolerances(parse_quantity(tol["d"], "length", f"{path}.tolerances.d"),
                      parse_quantity(tol["psi"], "angle", f"{path}.tolerances.psi"),
                      parse_quantity(tol["v"], "speed", f"{path}.tolerances.v"))


@dataclass
class RunConfig:
    seed: int
    output_dir: str
    spec: MlpSpec
    env: object
    norm: object
    task_list: list
    training: TshcConfig
    env_config: dict  # raw SI values embedded into checkpoints


def _norm(norm_doc, cls, kinds):
    """Normalization dataclass from its section, whose keys are the fields."""
    _check_keys(norm_doc, set(kinds), set(), "normalization")
    d = cls()
    return cls(**{k: parse_quantity(norm_doc.get(k, getattr(d, k)), kind,
                                    f"normalization.{k}") for k, kind in kinds.items()})


def _build_vehicle_env(doc, vvc_doc, norm_doc):
    _check_keys(doc, {"kind", "wheelbase", "sampling_time", "workspace",
                      "obstacles", "limits"}, {"kind"}, "env")
    limits_doc = doc.get("limits", {})
    _check_keys(limits_doc, {"v", "v_rate", "steer", "steer_rate"}, set(),
                "env.limits")
    defaults = ActuatorLimits()
    v = _pair(limits_doc, "v", "speed", "env.limits", (defaults.v_min, defaults.v_max))
    vr = _pair(limits_doc, "v_rate", "accel", "env.limits",
               (defaults.vdot_min, defaults.vdot_max))
    st = _pair(limits_doc, "steer", "angle", "env.limits",
               (defaults.delta_min, defaults.delta_max))
    sr = _pair(limits_doc, "steer_rate", "angrate", "env.limits",
               (defaults.deltadot_min, defaults.deltadot_max))
    limits = ActuatorLimits(v[0], v[1], vr[0], vr[1], st[0], st[1], sr[0], sr[1])

    pd = VehicleParams()
    workspace = doc.get("workspace", list(pd.workspace))
    if not isinstance(workspace, (list, tuple)) or len(workspace) != 4:
        raise ConfigError("env.workspace: expected [xmin, ymin, xmax, ymax]")
    obstacles = doc.get("obstacles", [])
    for i, ob in enumerate(obstacles):
        if not isinstance(ob, (list, tuple)) or len(ob) != 4:
            raise ConfigError(f"env.obstacles[{i}]: expected [xmin, ymin, xmax, ymax]")
    params = VehicleParams(
        l_f=parse_quantity(doc.get("wheelbase", pd.l_f), "length", "env.wheelbase"),
        Ts=parse_quantity(doc.get("sampling_time", pd.Ts), "time", "env.sampling_time"),
        workspace=tuple(float(v) for v in workspace),
        obstacles=tuple(tuple(float(v) for v in ob) for ob in obstacles))

    _check_keys(vvc_doc, {"mode", "r_thresh", "margin"}, set(), "vvc")
    vvc_defaults = VvcConfig()
    try:
        vvc = VvcConfig(
            mode=vvc_doc.get("mode", vvc_defaults.mode),
            r_thresh=parse_quantity(vvc_doc.get("r_thresh", vvc_defaults.r_thresh),
                                    "length", "vvc.r_thresh"),
            margin=parse_quantity(vvc_doc.get("margin", vvc_defaults.margin),
                                  "speed", "vvc.margin"))
    except ValueError as exc:
        raise ConfigError(f"vvc: {exc}") from None

    norm = _norm(norm_doc, tasklib.VehicleNorm,
                 {"dx": "length", "dy": "length", "dpsi": "angle", "dv": "speed"})

    env = VehicleEnv(params, limits, vvc, norm)
    env_config = {
        "kind": "vehicle",
        "wheelbase": params.l_f,
        "sampling_time": params.Ts,
        "workspace": list(params.workspace),
        "obstacles": [list(o) for o in params.obstacles],
        "limits": {"v": [limits.v_min, limits.v_max],
                   "v_rate": [limits.vdot_min, limits.vdot_max],
                   "steer": [limits.delta_min, limits.delta_max],
                   "steer_rate": [limits.deltadot_min, limits.deltadot_max]},
        "vvc": {"mode": vvc.mode, "r_thresh": vvc.r_thresh, "margin": vvc.margin},
    }
    return env, norm, env_config


def _build_pendulum_env(doc, norm_doc):
    _check_keys(doc, {"kind", "cart_mass", "pole_mass", "pole_half_length",
                      "gravity", "force_max", "sampling_time", "track_limit"},
                {"kind"}, "env")
    d = PendulumParams()
    params = PendulumParams(
        m_cart=parse_quantity(doc.get("cart_mass", d.m_cart), "plain", "env.cart_mass"),
        m_pole=parse_quantity(doc.get("pole_mass", d.m_pole), "plain", "env.pole_mass"),
        half_length=parse_quantity(doc.get("pole_half_length", d.half_length),
                                   "length", "env.pole_half_length"),
        g=parse_quantity(doc.get("gravity", d.g), "plain", "env.gravity"),
        f_max=parse_quantity(doc.get("force_max", d.f_max), "plain", "env.force_max"),
        Ts=parse_quantity(doc.get("sampling_time", d.Ts), "time", "env.sampling_time"),
        p_limit=parse_quantity(doc.get("track_limit", d.p_limit), "length",
                               "env.track_limit"))
    norm = _norm(norm_doc, tasklib.PendulumNorm,
                 {"dp": "length", "dp_dot": "speed", "dtheta": "angle",
                  "dtheta_dot": "angrate"})
    env = PendulumEnv(params, norm)
    env_config = {
        "kind": "pendulum",
        "cart_mass": params.m_cart, "pole_mass": params.m_pole,
        "pole_half_length": params.half_length, "gravity": params.g,
        "force_max": params.f_max, "sampling_time": params.Ts,
        "track_limit": params.p_limit,
    }
    return env, norm, env_config


def _build_env(doc):
    """(env, norm, SI env dict) from the env, vvc and normalization sections."""
    env_doc = _require_mapping(doc["env"], "env")
    kind = env_doc.get("kind")
    norm_doc = doc.get("normalization", {})
    if kind == "vehicle":
        return _build_vehicle_env(env_doc, doc.get("vvc", {}), norm_doc)
    if kind == "pendulum":
        if "vvc" in doc:
            raise ConfigError("vvc: velocity constraints apply to vehicle runs only")
        return _build_pendulum_env(env_doc, norm_doc)
    raise ConfigError(f"env.kind: expected 'vehicle' or 'pendulum', got {kind!r}")


def _build_tasks(doc, env_kind):
    _check_keys(doc, {"generator", "z0", "z_goal", "feature_recipe", "tolerances",
                      "step_deg", "max_deg", "kind", "t_goal"},
                {"generator"}, "tasks")
    generator = doc["generator"]
    if generator == "freeform":
        if env_kind != "vehicle":
            raise ConfigError("tasks.generator: freeform needs a vehicle env")
        for key in ("z0", "z_goal"):
            if key not in doc:
                raise ConfigError(f"tasks.{key}: missing required key")
        tol = _tolerances(doc, "tasks", tasklib.DEFAULT_VEHICLE_TOL)
        return [tasklib.freeform_task(
            _state(doc, "z0", _VEHICLE_STATE_KINDS, "tasks"),
            _state(doc, "z_goal", _VEHICLE_STATE_KINDS, "tasks"),
            tol, doc.get("feature_recipe", tasklib.GOAL4))]
    if generator == "heading-grid":
        if env_kind != "vehicle":
            raise ConfigError("tasks.generator: heading-grid needs a vehicle env")
        tol = _tolerances(doc, "tasks", tasklib.DEFAULT_VEHICLE_TOL)
        try:
            return tasklib.heading_grid(float(doc.get("step_deg", 1.0)),
                                        float(doc.get("max_deg", 180.0)), tol)
        except ValueError as exc:
            raise ConfigError(f"tasks: {exc}") from None
    if generator == "pendulum":
        if env_kind != "pendulum":
            raise ConfigError("tasks.generator: pendulum needs a pendulum env")
        tol = _tolerances(doc, "tasks", tasklib.DEFAULT_PENDULUM_TOL)
        t_goal = doc.get("t_goal")
        return tasklib.pendulum_tasks(doc.get("kind", "both"), tol,
                                      int(t_goal) if t_goal else None)
    raise ConfigError(f"tasks.generator: unknown generator {generator!r}")


def _build_training(doc, seed, workers):
    _check_keys(doc, {"n_restarts", "n_iter_max", "n_candidates", "t_max",
                      "t_goal", "sigma_mode", "sigma_min", "sigma_max", "beta",
                      "refine", "rich_weights"},
                {"n_restarts", "n_iter_max", "n_candidates", "t_max"}, "training")
    d = TshcConfig  # the class attributes hold the field defaults
    rich = doc.get("rich_weights")
    if rich is not None:
        if not isinstance(rich, (list, tuple)) or len(rich) != 4:
            raise ConfigError("training.rich_weights: expected 4 weights")
        try:
            rich = tuple(float(w) for w in rich)
        except (TypeError, ValueError):
            raise ConfigError(f"training.rich_weights: expected numbers, got {rich}") from None
    try:
        return TshcConfig(
            n_restarts=int(doc["n_restarts"]),
            n_iter_max=int(doc["n_iter_max"]),
            n_candidates=int(doc["n_candidates"]),
            t_max=int(doc["t_max"]),
            t_goal=int(doc.get("t_goal", d.t_goal)),
            beta=float(doc.get("beta", d.beta)),
            sigma_min=parse_quantity(doc.get("sigma_min", d.sigma_min), "plain",
                                     "training.sigma_min"),
            sigma_max=parse_quantity(doc.get("sigma_max", d.sigma_max), "plain",
                                     "training.sigma_max"),
            sigma_mode=doc.get("sigma_mode", d.sigma_mode),
            refine=bool(doc.get("refine", d.refine)),
            seed=seed,
            workers=workers,
            rich_weights=rich)
    except ValueError as exc:
        raise ConfigError(f"training: {exc}") from None


def load_run_config(path, workers=None, output_dir=None) -> RunConfig:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    _check_keys(doc, {"seed", "output_dir", "policy", "env", "vvc",
                      "normalization", "tasks", "training", "workers"},
                {"seed", "policy", "env", "tasks", "training"}, "config")
    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("config.seed: expected an integer (wall-clock seeding "
                          "is not supported)")

    policy_doc = doc["policy"]
    _check_keys(policy_doc, {"layer_sizes"}, {"layer_sizes"}, "policy")
    try:
        spec = MlpSpec(tuple(policy_doc["layer_sizes"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"policy.layer_sizes: {exc}") from None

    env, norm, env_config = _build_env(doc)
    task_list = _build_tasks(_require_mapping(doc["tasks"], "tasks"), env.kind)

    if workers is None:
        workers = doc.get("workers", os.cpu_count() or 1)
    training = _build_training(_require_mapping(doc["training"], "training"),
                               seed, int(workers))

    if output_dir is None:
        output_dir = doc.get("output_dir") or os.environ.get(
            DEFAULT_OUTPUT_ENV_VAR, "runs")
    return RunConfig(seed=seed, output_dir=str(output_dir), spec=spec, env=env,
                     norm=norm, task_list=task_list, training=training,
                     env_config=env_config)


def env_from_config(env_config, normalization=None):
    """Rebuild a checkpoint's environment: its env dict is the SI form of a
    config's env section, vvc section inside, and is parsed the same way."""
    env_doc = dict(_require_mapping(env_config, "env"))
    doc = {"env": env_doc, "normalization": normalization or {}}
    if "vvc" in env_doc:
        doc["vvc"] = env_doc.pop("vvc")
    return _build_env(doc)[0]
