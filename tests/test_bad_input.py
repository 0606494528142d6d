"""Bad input as a class: bounded bad values set into the leaves of a config,
a checkpoint and a task file, each run through the CLI in process.

A case must end with exit 0 or 1, or with exit 2 and exactly one ``error:``
line; it may not end in a traceback, and no file it writes may hold a NaN or
an infinity.  Every leaf (each mapping value and list element, sections and
lists included) gets a sample of the bad values, drawn with a fixed seed.
"""

import copy
import json
import math
import random
import re

import pytest
import yaml

from tshc.cli import main

# bounded: none is a loop count or horizon that could make a case run long
BAD = (None, "x", [], {}, -1, 0, 1e309, True, [1], 1.5, "1 deg", math.nan)
PER_LEAF = 2  # of the bad values, sampled for each leaf: the sweep takes a few seconds

_BOX = [-4, -4, 5, 4]
_OBSTACLE = [3, 2, 4, 3]
_TRAINING = {"n_restarts": 1, "n_iter_max": 2, "n_candidates": 3, "t_max": 10, "t_goal": 1,
             "sigma_mode": "adaptive", "sigma_min": 0.5, "sigma_max": 5.0, "beta": 2.0,
             "refine": False}
_VEHICLE_ENV = {"kind": "vehicle", "wheelbase": 1.0, "sampling_time": 0.1,
                "workspace": _BOX, "obstacles": [_OBSTACLE],
                "limits": {"v": [-10, 10], "v_rate": [-8, 5], "steer": ["-40 deg", "40 deg"],
                           "steer_rate": ["-40 deg/s", "40 deg/s"]}}
_VVC = {"mode": "constant-margin", "r_thresh": 5, "margin": "5 km/h"}
_NORM = {"dx": 20, "dy": 20, "dpsi": "180 deg", "dv": 10}
_TOL = {"d": 0.25, "psi": "1 deg", "v": "5 km/h"}

CONFIGS = {
    "vehicle": {
        "seed": 3, "workers": 1, "policy": {"layer_sizes": [4, 3, 2]}, "env": _VEHICLE_ENV,
        "vvc": _VVC, "normalization": _NORM,
        "tasks": {"generator": "freeform", "z0": [0, 0, 0, 0], "z_goal": [1, 0, "10 deg", 0],
                  "tolerances": _TOL, "feature_recipe": "goal4"},
        "training": _TRAINING},
    "heading-grid": {
        "seed": 3, "policy": {"layer_sizes": [5, 3, 2]}, "env": _VEHICLE_ENV, "vvc": _VVC,
        "tasks": {"generator": "heading-grid", "step_deg": 10, "max_deg": 20,
                  "tolerances": _TOL},
        "training": _TRAINING},
    "pendulum": {
        "seed": 3, "policy": {"layer_sizes": [4, 3, 1]},
        "env": {"kind": "pendulum", "cart_mass": 1.0, "pole_mass": 0.1,
                "pole_half_length": 0.5, "gravity": 9.8, "force_max": 10.0,
                "sampling_time": 0.02, "track_limit": 2.4},
        "normalization": {"dp": 2.4, "dp_dot": 3.0, "dtheta": "180 deg",
                          "dtheta_dot": "720 deg/s"},
        "tasks": {"generator": "pendulum", "kind": "both", "tolerances": {"psi": "1 deg"},
                  "t_goal": 2},
        "training": _TRAINING},
}

# a NaN or an infinity as JSON, Python's repr or the CSV writer prints it
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _leaves(doc, path=()):
    """The path of every value inside ``doc``."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _cases(doc, seed):
    """(path, bad value, edited copy of ``doc``) for ``PER_LEAF`` values a leaf."""
    rng = random.Random(seed)
    for path in _leaves(doc):
        for value in rng.sample(BAD, PER_LEAF):
            edited = copy.deepcopy(doc)
            parent = edited
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            yield path, value, edited


def _run(argv, out, capsys):
    """(exit code, what went wrong or None) of ``main(argv)``, which writes
    into the directory ``out``."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is what the sweep looks for
        return None, f"{type(exc).__name__}: {exc}"
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    if code not in (0, 1) and (code != 2 or len(errors) != 1):
        return code, f"exit {code} with error lines {errors}"
    for path in out.rglob("*") if out.exists() else ():
        if path.is_file() and _NON_FINITE.search(path.read_text()):
            return code, f"{path.name} holds a NaN or an infinity"
    return code, None


@pytest.mark.parametrize("name", list(CONFIGS))
def test_bad_config_leaves_exit_cleanly(tmp_path, capsys, name):
    outcomes = {}
    cases = [((), None, CONFIGS[name]), *_cases(CONFIGS[name], name)]
    for i, (path, value, doc) in enumerate(cases):
        config = tmp_path / f"{i}.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / f"out{i}"
        outcomes[path, repr(value)] = _run(
            ["train", str(config), "--output-dir", str(out), "--workers", "1"], out, capsys)
    # the unedited config trains, so an exit 2 is the bad value's
    assert outcomes[(), "None"] in ((0, None), (1, None))
    assert not {case: o for case, o in outcomes.items() if o[1] is not None}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The checkpoint and task file of a heading-grid run whose 0° task
    solves, so the checkpoint holds a goal tuple for setpoint replays."""
    root = tmp_path_factory.mktemp("trained")
    config = root / "run.yaml"
    config.write_text(yaml.safe_dump(CONFIGS["heading-grid"]))
    main(["train", str(config), "--output-dir", str(root), "--workers", "1"])
    return (json.loads((root / "checkpoint_seed3.json").read_text()),
            json.loads((root / "tasks_seed3.json").read_text()))


def _replays(ckpt, tasks, out, edited):
    """The commands that read the ``edited`` file, a checkpoint or a task
    file, by name; each writes into ``out``."""
    argvs = {"replay --task": ["replay", ckpt, "--task", "heading10", "--tasks", tasks,
                               "--output-dir", out],
             "plot --checkpoint": ["plot", "--checkpoint", ckpt, "--tasks", tasks,
                                   "-o", f"{out}/plot.svg"]}
    if edited == "checkpoint":
        argvs["replay --setpoint"] = ["replay", ckpt, "--setpoint", "1,0.5,10 deg,0",
                                      "--output-dir", out]
        argvs["replay --setpoint --mirror"] = ["replay", ckpt, "--setpoint",
                                               "1,-0.5,-10 deg,0", "--mirror",
                                               "--output-dir", out]
    return argvs


@pytest.mark.parametrize("edited", ["checkpoint", "tasks"])
def test_bad_artifact_leaves_exit_cleanly(tmp_path, capsys, trained, edited):
    docs = dict(zip(("checkpoint", "tasks"), trained))
    outcomes = {}
    for i, (path, value, doc) in enumerate([((), None, docs[edited]),
                                            *_cases(docs[edited], edited)]):
        files = {}
        for kind, good in docs.items():
            files[kind] = tmp_path / f"{kind}{i}.json"
            files[kind].write_text(json.dumps(doc if kind == edited else good))
        out = tmp_path / f"out{i}"
        argvs = _replays(str(files["checkpoint"]), str(files["tasks"]), str(out), edited)
        for command, argv in argvs.items():
            outcomes[path, repr(value), command] = _run(argv, out, capsys)
    # the unedited files replay and plot
    assert all(o == (0, None) for case, o in outcomes.items() if case[0] == ())
    assert not {case: o for case, o in outcomes.items() if o[1] is not None}
