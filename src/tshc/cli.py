"""Command-line entry point: train from a config file, replay checkpoints
on tasks or raw setpoints, and export trajectory plots as SVG.

Commands::

    tshc train <config.yaml> [--workers N] [--output-dir DIR]
    tshc replay <checkpoint> (--task ID --tasks FILE | --setpoint x,y,psi,v)
                [--mirror] [--output-dir DIR]
    tshc plot <trajectory.csv ...> -o out.svg
    tshc plot --checkpoint CKPT --tasks FILE -o out.svg

The default output directory comes from $TSHC_OUTPUT_DIR.  Every artifact
file name embeds the run seed.
"""

import argparse
import dataclasses
import functools
import os
import re
import sys
import time

import numpy as np

from . import artifacts, plotting, trainer
from . import tasks as tasklib
from .config import (REPLAY, REPLAY_RECIPES, ConfigError, DEFAULT_OUTPUT_ENV_VAR,
                     VEHICLE_STATE, dump, env_from_config, load, load_run_config)
from .policy import MlpSpec
from .trainer import rollout, tshc_run


def cmd_train(args):
    run = load_run_config(args.config, workers=args.workers, output_dir=args.output_dir)
    out = run.output_dir
    cfg = run.training
    seed = cfg.seed
    task_path = os.path.join(out, f"tasks_seed{seed}.json")
    log_path = os.path.join(out, f"train_log_seed{seed}.jsonl")
    ckpt_path = os.path.join(out, f"checkpoint_seed{seed}.json")
    summary_path = os.path.join(out, f"summary_seed{seed}.json")
    artifacts.write_task_list(task_path, run.task_list)
    # a run that never finds a crash-free candidate writes no checkpoint, and
    # one that is interrupted writes no summary, so an older run's must not
    # stay behind to be replayed or read
    for stale in (log_path, ckpt_path, summary_path):
        if os.path.exists(stale):
            os.unlink(stale)

    replay_meta = dump(dataclasses.replace(run.task_list[0], t_max=cfg.t_max,
                                           t_goal=cfg.t_goal), REPLAY)

    def on_iteration(rec):
        artifacts.append_log_record(log_path, rec)
        print(f"[restart {rec.restart} iter {rec.iteration}] "
              f"sigma={rec.sigma:.4g} solved={rec.n_solved}/{len(run.task_list)} "
              f"P={rec.pathlength:.4g} J={rec.reward:.6g}"
              f"{' crash' if rec.crashed else ''}"
              f"{' *' if rec.improved else ''}", file=sys.stderr)

    def save(best, goal_tuples=()):
        artifacts.write_checkpoint(ckpt_path, run.spec, best.theta, run.norm,
                                   run.task_list, run.env_config, seed,
                                   best=best, goal_tuples=goal_tuples, replay=replay_meta)

    t_start = time.monotonic()
    best, history = tshc_run(cfg, run.task_list, run.env, run.spec,
                             on_iteration=on_iteration, on_improved=save)
    wall_time = time.monotonic() - t_start

    goal_tuples = []
    solved_ids = []
    if best.theta is not None:
        for task in run.task_list:
            res = rollout(best.theta, task, run.env, run.spec,
                          cfg.t_max, cfg.t_goal)
            if res.success:
                goal_tuples.append(tasklib.GoalTuple(res.terminal, task.z_goal,
                                                     task.id))
                solved_ids.append(task.id)
        save(best, goal_tuples)

    solved_restarts = sorted({r.restart for r in history
                              if r.n_solved == len(run.task_list)})
    artifacts.write_summary(summary_path, {
        "n_tasks": len(run.task_list),
        "n_star": best.n_solved,
        "p_star": best.pathlength,
        "j_star": best.reward if best.theta is not None else None,
        "solved_task_ids": solved_ids,
        "restarts_with_full_solution": len(solved_restarts),
        "iterations": len(history),
        "wall_time_s": wall_time,
        "seed": seed,
    })
    print(f"solved {best.n_solved}/{len(run.task_list)} tasks in "
          f"{wall_time:.1f} s; artifacts in {out}", file=sys.stderr)
    return 0 if best.n_solved == len(run.task_list) else 1


def _parse_setpoint(text):
    """x,y,psi,v: bare numbers in SI, or '<number> <unit>' quantities."""
    try:
        values = [p.strip() if " " in p.strip() else float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--setpoint: {exc}") from None
    return load(values, VEHICLE_STATE, "--setpoint")


def _slug(text):
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text).strip("-") or "setpoint"


def _read_checkpoint(args):
    """The checkpoint ``args.checkpoint``, its rebuilt environment, policy
    spec and replay template, a setpoint ``Task`` whose ``t_max`` and
    ``t_goal`` are the replay horizon; a checkpoint that cannot be read or
    rebuilt is a ``ConfigError``."""
    path = args.checkpoint
    doc = artifacts.read_checkpoint(path)
    try:
        env = env_from_config(doc["env"], doc["normalization"])
        replay = load(doc.get("replay", {}), REPLAY, "replay", env_kind=env.kind,
                      feature_recipe=REPLAY_RECIPES[env.kind])
        doc["seed"] = load(doc.get("seed", 0), int, "seed")
        spec = MlpSpec(load(doc["layer_sizes"], [int], "layer_sizes"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return doc, env, spec, replay


def _read_tasks(args, option):
    """The ``--tasks`` list, or None without ``option``; each of the two
    options needs the other."""
    given = getattr(args, option.lstrip("-")) is not None
    if args.tasks is None:
        if given:
            raise ConfigError(f"{option} needs --tasks FILE")
        return None
    if not given:
        raise ConfigError(f"--tasks needs {option}")
    return artifacts.read_task_list(args.tasks)


def _check_checkpoint(args, doc, env, spec, fit_tasks, task_list):
    """``ConfigError`` unless the checkpoint's policy fits ``fit_tasks`` and
    its env, and then unless ``task_list``, if given, is its task list."""
    try:
        trainer.check_fit(fit_tasks, env, spec, doc["theta"])
    except ValueError as exc:
        raise ConfigError(f"{args.checkpoint}: {exc}") from None
    if task_list is not None and artifacts.task_digest(task_list) != doc["task_digest"]:
        raise ConfigError(f"{args.tasks} is not the task list checkpoint "
                          f"{args.checkpoint} was trained on (task digests differ)")


def _refuse_non_finite(args, task, crashed, rows):
    """``ConfigError`` if ``rows``, the recorded trajectory of ``task`` with a
    row per step, holds a non-finite value; a step to a non-finite state is
    a crash, so only a crashed lane's rows are searched."""
    if crashed:
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise ConfigError(f"{args.checkpoint}: task {task.id!r}: the recorded "
                              f"trajectory leaves the finite range at step {bad[0]}")


def cmd_replay(args):
    doc, env, spec, replay = _read_checkpoint(args)
    if args.mirror:
        try:
            tasklib.check_mirror(env)
        except ValueError as exc:
            raise ConfigError(f"--mirror: {args.checkpoint}: {exc}") from None
    task_list = _read_tasks(args, "--task")
    if task_list is not None:
        matches = [t for t in task_list if t.id == args.task]
        if not matches:
            raise ConfigError(f"task {args.task!r} not found in {args.tasks}")
        task = tasklib.mirror_task(matches[0]) if args.mirror else matches[0]
    else:
        if env.kind != tasklib.VEHICLE:
            raise ConfigError("setpoint replay is defined for vehicle checkpoints")
        setpoint = _parse_setpoint(args.setpoint)
        store = doc["goal_tuples"]
        if not store:
            raise ConfigError("checkpoint stores no goal tuples; train first")
        lookup_point = tasklib.mirror_goal(setpoint) if args.mirror else setpoint
        tup = tasklib.nearest_goal_lookup(lookup_point, store)
        goal = tasklib.mirror_goal(tup.z_goal) if args.mirror else tup.z_goal
        task = dataclasses.replace(replay, z_goal=goal)

    _check_checkpoint(args, doc, env, spec, [task], task_list)

    res = rollout(doc["theta"], task, env, spec, replay.t_max, replay.t_goal,
                  record=True, mirror=args.mirror)
    _refuse_non_finite(args, task, res.crashed, res.trajectory)
    out = args.output_dir or os.environ.get(DEFAULT_OUTPUT_ENV_VAR, ".")
    base = os.path.join(out, f"replay_{_slug(task.id)}_seed{doc['seed']}")
    artifacts.write_trajectory_csv(base + ".csv", env.csv_columns, res.trajectory)
    artifacts.write_summary(base + ".json", {
        "task": task.id, "F": res.success, "P": res.pathlength,
        "J": res.reward, "crashed": res.crashed, "steps": res.steps,
        "mirror": bool(args.mirror),
    })
    print(f"F={res.success} P={res.pathlength:.4g} J={res.reward:.6g} "
          f"steps={res.steps} -> {base}.csv", file=sys.stderr)
    return 0


def cmd_plot(args):
    trajectories = []
    goals = []
    task_list = _read_tasks(args, "--checkpoint")
    if task_list is not None:
        doc, env, spec, replay = _read_checkpoint(args)
        _check_checkpoint(args, doc, env, spec, task_list, task_list)
        # every task in one recorded rollout, a lane per task
        _, _, _, crashed, _, recorded, _ = trainer.batch_rollout(
            doc["theta"], spec, task_list, env, replay.t_max, replay.t_goal, record=True)
        for task, lane_crashed, rows in zip(task_list, crashed, recorded):
            _refuse_non_finite(args, task, lane_crashed, rows)
            trajectories.append((task.id, rows[:, 0].tolist(), rows[:, 1].tolist()))
            goals.append((task.z_goal[0], task.z_goal[1]))
    for path in args.inputs:
        _, rows = artifacts.read_trajectory_csv(path)
        trajectories.append((os.path.basename(path),
                             [r[1] for r in rows], [r[2] for r in rows]))
    if not trajectories:
        raise ConfigError("no trajectories to plot")
    artifacts.atomic_write(args.output, plotting.render_svg(trajectories, goals))
    print(f"wrote {args.output} ({len(trajectories)} trajectories)",
          file=sys.stderr)
    return 0


@functools.cache
def build_parser():
    """The ``tshc`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="tshc",
        description="Encode motion-primitive tasks in small neural-network "
                    "controllers by task-separated hill climbing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train from a YAML config")
    p_train.add_argument("config")
    p_train.add_argument("--workers", type=int, default=None,
                         help="candidate-evaluation processes "
                              "(default: the CPUs this process may run on)")
    p_train.add_argument("--output-dir", default=None)

    p_replay = sub.add_parser("replay", help="replay a checkpoint")
    p_replay.add_argument("checkpoint")
    target = p_replay.add_mutually_exclusive_group(required=True)
    target.add_argument("--task", default=None, help="task id from --tasks")
    target.add_argument("--setpoint", default=None, help="x,y,psi,v")
    p_replay.add_argument("--tasks", default=None, help="task-list file")
    p_replay.add_argument("--mirror", action="store_true",
                          help="via steering mirroring: replay the task's x-axis "
                               "reflection, or serve the setpoint from a reflected goal")
    p_replay.add_argument("--output-dir", default=None)

    p_plot = sub.add_parser("plot", help="render trajectories as SVG")
    p_plot.add_argument("inputs", nargs="*", help="trajectory CSV files")
    p_plot.add_argument("--checkpoint", default=None)
    p_plot.add_argument("--tasks", default=None)
    p_plot.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None):
    """Run one command; bad input or an unreadable or unwritable file exits 2."""
    args = build_parser().parse_args(argv)
    try:
        # looked up when called, so a wrapper on ``cli.cmd_*`` is what runs
        return globals()["cmd_" + args.command](args)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    raise SystemExit(main())
