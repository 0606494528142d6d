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
import os
import re
import sys
import time

from . import artifacts, plotting, trainer
from . import tasks as tasklib
from .config import (ConfigError, DEFAULT_OUTPUT_ENV_VAR, VEHICLE_STATE, env_from_config,
                     load_run_config, parse_quantity, tolerances_from_dict,
                     tolerances_to_dict)
from .policy import MlpSpec
from .trainer import rollout, tshc_run


def _fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def cmd_train(args):
    try:
        run = load_run_config(args.config, workers=args.workers,
                              output_dir=args.output_dir)
    except (OSError, ValueError) as exc:  # ConfigError included
        _fail(exc)
    out = run.output_dir
    os.makedirs(out, exist_ok=True)
    seed = run.seed
    task_path = os.path.join(out, f"tasks_seed{seed}.json")
    log_path = os.path.join(out, f"train_log_seed{seed}.jsonl")
    ckpt_path = os.path.join(out, f"checkpoint_seed{seed}.json")
    summary_path = os.path.join(out, f"summary_seed{seed}.json")
    artifacts.write_task_list(task_path, run.task_list)
    if os.path.exists(log_path):
        os.unlink(log_path)

    cfg = run.training
    replay_meta = {
        "t_max": cfg.t_max,
        "t_goal": cfg.t_goal,
        "feature_recipe": run.task_list[0].feature_recipe,
        "tolerances": tolerances_to_dict(run.task_list[0].tol),
    }

    def on_iteration(rec):
        artifacts.append_log_record(log_path, rec)
        print(f"[restart {rec.restart} iter {rec.iteration}] "
              f"sigma={rec.sigma:.4g} solved={rec.n_solved}/{len(run.task_list)} "
              f"P={rec.pathlength:.4g} J={rec.reward:.6g}"
              f"{' crash' if rec.crashed else ''}"
              f"{' *' if rec.improved else ''}", file=sys.stderr)

    def on_improved(best):
        artifacts.write_checkpoint(ckpt_path, run.spec, best.theta, run.norm,
                                   run.task_list, run.env_config, seed,
                                   best=best, replay=replay_meta)

    t_start = time.monotonic()
    best, history = tshc_run(cfg, run.task_list, run.env, run.spec,
                             on_iteration=on_iteration, on_improved=on_improved)
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
        artifacts.write_checkpoint(ckpt_path, run.spec, best.theta, run.norm,
                                   run.task_list, run.env_config, seed,
                                   best=best, goal_tuples=goal_tuples,
                                   replay=replay_meta)

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
    parts = text.split(",")
    if len(parts) != 4:
        _fail(f"--setpoint expects 'x,y,psi,v', got {text!r}")
    try:
        return tuple(parse_quantity(p.strip() if " " in p.strip() else float(p), k,
                                    "setpoint")
                     for p, k in zip(parts, VEHICLE_STATE))
    except (ConfigError, ValueError) as exc:
        _fail(f"--setpoint: {exc}")


def _slug(text):
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text).strip("-") or "setpoint"


def _read_checkpoint(args):
    """The checkpoint ``args.checkpoint``, its rebuilt environment, policy
    spec and replay horizon (t_max, t_goal); a checkpoint that cannot be
    read or rebuilt exits 2."""
    try:
        doc = artifacts.read_checkpoint(args.checkpoint)
        env = env_from_config(doc["env"], doc["normalization"])
        replay_meta = doc.get("replay", {})
        horizon = int(replay_meta.get("t_max", 1000)), int(replay_meta.get("t_goal", 1))
        return doc, env, MlpSpec(tuple(doc["layer_sizes"])), horizon
    except (OSError, ValueError) as exc:  # ConfigError included
        _fail(exc)


def _read_tasks(args, option):
    if args.tasks is None:
        _fail(f"{option} needs --tasks FILE")
    try:
        return artifacts.read_task_list(args.tasks)
    except (OSError, ValueError) as exc:
        _fail(exc)


def _check_digest(args, doc, task_list):
    if artifacts.task_digest(task_list) != doc["task_digest"]:
        _fail(f"{args.tasks} is not the task list checkpoint {args.checkpoint} "
              f"was trained on (task digests differ)")


def _check_mirror(args, env):
    """``--mirror`` reflects through the x-axis, which the vehicle's steering
    box maps onto itself only when its limits are symmetric."""
    if env.kind != tasklib.VEHICLE:
        _fail("--mirror is defined for vehicle checkpoints")
    lim = env.limits
    if lim.delta_min != -lim.delta_max or lim.deltadot_min != -lim.deltadot_max:
        _fail(f"--mirror needs symmetric steering limits, but {args.checkpoint} has "
              f"steer [{lim.delta_min!r}, {lim.delta_max!r}] and steer_rate "
              f"[{lim.deltadot_min!r}, {lim.deltadot_max!r}]")


def cmd_replay(args):
    doc, env, spec, (t_max, t_goal) = _read_checkpoint(args)
    if args.mirror:
        _check_mirror(args, env)
    if args.task is not None:
        task_list = _read_tasks(args, "--task")
        matches = [t for t in task_list if t.id == args.task]
        if not matches:
            _fail(f"task {args.task!r} not found in {args.tasks}")
        task = matches[0]
    else:
        if args.setpoint is None:
            _fail("need either --task or --setpoint")
        if env.kind != tasklib.VEHICLE:
            _fail("setpoint replay is defined for vehicle checkpoints")
        setpoint = _parse_setpoint(args.setpoint)
        store = doc["goal_tuples"]
        if not store:
            _fail("checkpoint stores no goal tuples; train first")
        lookup_point = tasklib.mirror_goal(setpoint) if args.mirror else setpoint
        tup = tasklib.nearest_goal_lookup(lookup_point, store)
        goal = tasklib.mirror_goal(tup.z_goal) if args.mirror else tup.z_goal
        replay_meta = doc.get("replay", {})
        tol = tasklib.DEFAULT_VEHICLE_TOL
        if "tolerances" in replay_meta:
            try:
                tol = tolerances_from_dict(replay_meta["tolerances"], "replay.tolerances")
            except ValueError as exc:
                _fail(f"{args.checkpoint}: {exc}")
        task = tasklib.Task("setpoint", tasklib.VEHICLE, (0.0, 0.0, 0.0, 0.0), goal, tol,
                            replay_meta.get("feature_recipe", tasklib.GOAL5))

    if task.env_kind != env.kind:
        _fail(f"checkpoint environment is {env.kind!r} but task "
              f"{task.id!r} is {task.env_kind!r}")
    if env.feature_dim(task) != spec.input_dim:
        _fail(f"task {task.id!r} produces {env.feature_dim(task)} features "
              f"but the checkpoint policy expects {spec.input_dim}")
    if args.task is not None:
        _check_digest(args, doc, task_list)

    res = rollout(doc["theta"], task, env, spec, t_max, t_goal,
                  record=True, mirror=args.mirror)
    out = args.output_dir or os.environ.get(DEFAULT_OUTPUT_ENV_VAR, ".")
    os.makedirs(out, exist_ok=True)
    seed = doc.get("seed", 0)
    base = os.path.join(out, f"replay_{_slug(task.id)}_seed{seed}")
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
    if args.checkpoint is not None:
        task_list = _read_tasks(args, "--checkpoint")
        doc, env, spec, (t_max, t_goal) = _read_checkpoint(args)
        _check_digest(args, doc, task_list)
        # every task in one recorded rollout, a lane per task
        recorded = trainer.batch_rollout(doc["theta"], spec, task_list, env, t_max,
                                         t_goal, record=True)[5]
        for task, rows in zip(task_list, recorded):
            trajectories.append((task.id, rows[:, 0].tolist(), rows[:, 1].tolist()))
            goals.append((task.z_goal[0], task.z_goal[1]))
    for path in args.inputs:
        try:
            _, rows = artifacts.read_trajectory_csv(path)
        except (OSError, ValueError) as exc:
            _fail(exc)
        trajectories.append((os.path.basename(path),
                             [r[1] for r in rows], [r[2] for r in rows]))
    if not trajectories:
        _fail("no trajectories to plot")
    svg = plotting.render_svg(trajectories, goals)
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.output} ({len(trajectories)} trajectories)",
          file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tshc",
        description="Encode motion-primitive tasks in small neural-network "
                    "controllers by task-separated hill climbing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train from a YAML config")
    p_train.add_argument("config")
    p_train.add_argument("--workers", type=int, default=None,
                         help="candidate-evaluation processes "
                              "(default: available parallelism)")
    p_train.add_argument("--output-dir", default=None)
    p_train.set_defaults(func=cmd_train)

    p_replay = sub.add_parser("replay", help="replay a checkpoint")
    p_replay.add_argument("checkpoint")
    p_replay.add_argument("--task", default=None, help="task id from --tasks")
    p_replay.add_argument("--tasks", default=None, help="task-list file")
    p_replay.add_argument("--setpoint", default=None, help="x,y,psi,v")
    p_replay.add_argument("--mirror", action="store_true",
                          help="serve the goal via steering mirroring")
    p_replay.add_argument("--output-dir", default=None)
    p_replay.set_defaults(func=cmd_replay)

    p_plot = sub.add_parser("plot", help="render trajectories as SVG")
    p_plot.add_argument("inputs", nargs="*", help="trajectory CSV files")
    p_plot.add_argument("--checkpoint", default=None)
    p_plot.add_argument("--tasks", default=None)
    p_plot.add_argument("-o", "--output", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
