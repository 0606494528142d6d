"""tshc benchmark: two training/replay workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Training is a closed loop with one client: each operation (one
training iteration, or one replay/plot command) starts when the previous
one ends, in one process with at most two pool workers.  A workload's
fixed budget of operations (a "repetition") is run again and again until
``--seconds`` have passed; every repetition of a seed must give the same
result digest, and so must every run of that seed on the same sources.

``--trace 0`` prints the end-to-end metrics of the package as it is:
nothing is patched while it measures.  Set-up time is the median of
several fresh interpreter processes (``probe.py``) timed from their start
to the point where the first operation could begin.  On ``replay-grid``
every time metric is scaled to a reference host speed measured in the
same run (``hostspeed.py``): the shared host's speed drifts by 1.5x and
more over minutes.  The numerator of
``lane_steps_per_s`` is the exact, deterministic count of active
lane-steps of one repetition, taken by the tracer.  It is stored with the
result digest in ``.perfbench_out/digests.json`` under the workload, seed
and source digest; when no run has stored it yet, one traced repetition
runs after the timed ones to count it.

``--trace 1`` alternates untraced and traced repetitions and prints
per-layer metrics: the median over traced repetitions of each layer's
busy/self time, call and lane counts, and the tracing overhead (median
traced minus median untraced wall time).  Spans are written to
``.perfbench_out/spans-<workload>.npz`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (machine, versions, load, samples).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 8
# share of each repetition's wall time spent timing host-speed reference
# chunks right after it
REFERENCE_SHARE = 0.1

# (name, unit): every end-to-end metric, reported for every workload
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("lane_steps_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-step layers: busy (or self) time is also given per active lane-step
_PER_STEP_BUSY = ("policy.forward_layers", "policy.control_intervals",
                  "dynamics.step_bicycle_arrays", "dynamics.crash_check_arrays",
                  "dynamics.step_pendulum_arrays", "reward.goal_errors",
                  "reward.vvc_bounds", "tasks.vehicle_features",
                  "tasks.pendulum_features", "tasks.mirror_features")
_PER_STEP_SELF = ("trainer.batch_rollout", "envs.apply_arrays",
                  "envs.features_arrays", "envs.goal_mask")

PER_LAYER = (
    ("trainer.tshc_run.self_s", "s"),
    ("trainer.fanout.busy_s", "s"),
    ("trainer.batch_rollout.calls", "count"),
    ("trainer.python_steps", "count"),
    ("trainer.lane_steps", "count"),
    ("trainer.lane_slots", "count"),
    ("trainer.active_share", "ratio"),
    ("trainer.candidate_theta.busy_s", "s"),
    ("policy.unflatten.busy_s", "s"),
    ("trainer.select_best.busy_s", "s"),
    ("trainer.best_n_solved", "count"),
    ("trainer.pool.start_s", "s"),
    ("trainer.pool.overhead_s", "s"),
    ("trainer.pool.idle_share", "ratio"),
    ("trainer.pool.bytes_per_fanout", "B"),
    ("trainer.rollout.busy_s", "s"),
) + tuple(
    (f"{layer}.{kind}", unit)
    for layer in _PER_STEP_BUSY
    for kind, unit in (("busy_s", "s"), ("ns_per_lane_step", "ns"))
) + tuple(
    (f"{layer}.{kind}", unit)
    for layer in _PER_STEP_SELF
    for kind, unit in (("self_s", "s"), ("self_ns_per_lane_step", "ns"))
) + (
    ("artifacts.write_checkpoint.busy_s", "s"),
    ("artifacts.write_checkpoint.bytes", "B"),
    ("artifacts.append_log_record.busy_s", "s"),
    ("artifacts.read_checkpoint.busy_s", "s"),
    ("artifacts.write_trajectory_csv.busy_s", "s"),
    ("config.load_run_config.busy_s", "s"),
    ("config.env_from_config.busy_s", "s"),
    ("plotting.render_svg.busy_s", "s"),
    ("cli.cmd_train.self_s", "s"),
    ("cli.cmd_replay.self_s", "s"),
    ("cli.cmd_plot.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def op_medians(rep_ops):
    """Median latency of each operation of the budget, in budget order,
    over the repetitions that reached it."""
    longest = max((len(ops) for ops in rep_ops), default=0)
    return [statistics.median(ops[i] for ops in rep_ops if len(ops) > i)
            for i in range(longest)]


def _cpu_s():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _probe_setup(name, seed, workdir, tiny, workers):
    """Seconds from the start of a fresh interpreter to ``ready``."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed), workdir,
           "1" if tiny else "0", str(workers)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
    return elapsed


def _source_digest():
    """Digest of the package and of the benchmark's own inputs and code, so
    that a result recorded before either changed is not compared again."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "tshc"), HERE):
        for fname in sorted(os.listdir(folder)):
            if fname.endswith((".py", ".json")):
                with open(os.path.join(folder, fname), "rb") as fh:
                    h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _load_known(out_dir):
    """What the first run of each (workload, seed, sources) key recorded."""
    try:
        with open(os.path.join(out_dir, "digests.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _check_known(out_dir, key, entry):
    """Fields of ``entry`` that differ from the first run recorded under
    ``key``; records ``entry`` when there is none."""
    known = _load_known(out_dir)
    if key in known:
        return [field for field, value in entry.items() if known[key].get(field) != value]
    known[key] = entry
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".digests-")
    with os.fdopen(fd, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "digests.json"))
    return []


class Session:
    """Repetitions of one workload and what they measured."""

    def __init__(self, workload):
        self.workload = workload
        self.walls = []
        self.cpus = []
        self.rep_ops = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = []
        self.best_n_solved = []

    def rep(self, tracer=None):
        """Run one repetition; the tracer's counters for it, or None if it crashed."""
        if tracer is not None:
            tracer.counters.clear()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            out = self.workload.rep()
        except Exception as exc:  # a crashed repetition fails all its operations
            self.errors.append(f"{type(exc).__name__}: {exc}")
            self.attempted += 1
            self.failed += 1
            return None
        wall = time.perf_counter() - t0
        self.cpus.append(_cpu_s() - cpu0)
        self.walls.append(wall)
        self.rep_ops.append(list(out.op_s))
        self.attempted += out.attempted
        self.errors.extend(out.errors)
        if self.digests and out.digest != self.digests[0]:
            self.errors.append("result digest differs between repetitions")
            out.failed = out.attempted
        self.failed += out.failed
        self.digests.append(out.digest)
        self.best_n_solved.append(out.best_n_solved)
        return dict(tracer.counters) if tracer is not None else {}


def measure(name, seed, seconds, trace, tiny=False, workers=None, out_dir=OUT,
            probes=SETUP_PROBES):
    """Run one workload; returns (result dict, run record, tracer or None)."""
    import numpy as np
    import workloads

    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "loadavg_before": os.getloadavg(),
    }
    wl = workloads.make(name, seed, workdir, tiny, workers)
    session = Session(wl)
    traced = None
    key = f"{name}/seed{seed}/{'tiny' if tiny else 'full'}/{_source_digest()}"
    try:
        wl.prepare()
        if trace:
            wl.setup()
            metrics, traced, lane_steps = _run_traced(session, name, seconds, out_dir,
                                                      record)
            units = dict(PER_LAYER)
        else:
            def probe():
                return _probe_setup(name, seed, workdir, tiny, wl.workers)
            wl.setup()
            metrics = _run_untraced(session, seconds, record, probe, probes)
            lane_steps = _load_known(out_dir).get(key, {}).get("lane_steps")
            if lane_steps is None and session.walls:
                lane_steps = _count_lane_steps(session)
            metrics["lane_steps_per_s"] = (lane_steps or 0) / metrics["wall_s"]
            units = dict(END_TO_END)
        record["lane_steps_per_rep"] = lane_steps
        if session.digests and lane_steps is not None:
            for field in _check_known(out_dir, key, {"digest": session.digests[0],
                                                     "lane_steps": lane_steps}):
                session.errors.append(f"{field} differs from the first run of this seed")
                session.failed = session.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(
        loadavg_after=os.getloadavg(),
        digest=session.digests[0] if session.digests else None,
        errors=session.errors[:20])
    result = {
        "correct": session.failed == 0 and not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m: {"value": float(metrics[m]), "unit": units[m]} for m in units},
    }
    return result, record, traced


def _run_untraced(session, seconds, record, probe, probes):
    """Repeat the budget for ``seconds``; every end-to-end metric but
    lane-steps per second.

    The set-up probes run between repetitions, one each time another
    ``1/probes`` of the run has passed, so that their median spans the
    machine's state over the whole run.  After each repetition, host-speed
    reference chunks (``hostspeed.py``) run for a tenth of its wall time,
    so that they sample the host in the same stretches as the workload;
    on a workload whose ``host_scaled`` is set, every time metric is
    scaled by ``hostspeed.REFERENCE_S`` over their median.  Each operation of the budget (the i-th training iteration,
    or the i-th command of a replay budget) gets its median latency over
    the repetitions; ``op_p50_s`` is the median of these and ``op_tail_s``
    the largest, the slowest operation of the budget.  Taken per
    operation, a budget whose commands differ in length (104- and 252-step
    replays on ``replay-grid``) keeps its median on the same command from
    run to run.
    """
    setups, refs = [], []
    t_start = time.perf_counter()
    while not session.walls or time.perf_counter() - t_start < seconds:
        if session.rep() is None:
            break
        t_ref = time.perf_counter()
        refs.append(hostspeed.chunk())
        while time.perf_counter() - t_ref < REFERENCE_SHARE * session.walls[-1]:
            refs.append(hostspeed.chunk())
        done = (time.perf_counter() - t_start) / seconds if seconds > 0 else 1.0
        while len(setups) < probes * min(done, 1.0):
            setups.append(probe())
    while len(setups) < probes:
        setups.append(probe())
    nan = [float("nan")]
    per_op = op_medians(session.rep_ops) or nan
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(session.walls or nan),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": max(per_op),
        "cpu_s": statistics.median(session.cpus or nan),
    }
    scale = hostspeed.REFERENCE_S / statistics.median(refs or nan)
    applied = scale if session.workload.host_scaled else 1.0
    record.update(repetitions=len(session.walls), ops_per_rep=len(per_op),
                  rep_wall_s=list(session.walls), op_median_s=per_op,
                  setup_samples=setups, reference_chunks=len(refs),
                  reference_median_s=statistics.median(refs or nan),
                  host_scale=scale, scale_applied=applied, unscaled=raw)
    metrics = {m: v * applied for m, v in raw.items()}
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return metrics


def _count_lane_steps(session):
    """Active lane-steps of one traced repetition, run after the timed ones."""
    with tracing.Tracer() as traced:
        counters = session.rep(traced)
    return None if counters is None else counters.get("trainer.lane_steps", 0)


def _run_traced(session, name, seconds, out_dir, record):
    """Untraced and traced repetitions in turn for ``seconds``; every
    per-layer metric (median over traced repetitions), the tracer and the
    active lane-steps of one repetition.

    Tracing overhead is the median traced wall time minus the median
    untraced one, both taken in the same stretch of time.
    """
    traced = tracing.Tracer()
    untraced_walls, traced_walls, per_rep, lane_steps = [], [], [], set()
    t_start = time.perf_counter()
    while not per_rep or time.perf_counter() - t_start < seconds:
        if session.rep() is None:
            break
        untraced_walls.append(session.walls[-1])
        with traced:
            lo = len(traced)
            root = traced.open(traced.names.index(tracing.REP))
            counters = session.rep(traced)
            traced.close(root)
        if counters is None:
            break
        traced_walls.append(session.walls[-1])
        lane_steps.add(counters.get("trainer.lane_steps", 0))
        layers, pool = tracing.rep_stats(traced, lo, len(traced))
        per_rep.append(_layer_metrics(layers, pool, counters, session.best_n_solved[-1]))
    if len(lane_steps) > 1:
        session.errors.append(f"active lane-steps differ between repetitions: {lane_steps}")
    record.update(untraced_wall_s=untraced_walls, traced_wall_s=traced_walls)
    metrics = {m: statistics.median(r[m] for r in per_rep) if per_rep else float("nan")
               for m, _ in PER_LAYER if m != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls)
                                   if traced_walls else float("nan"))
    if per_rep:
        traced.check_called(name)
        traced.save(os.path.join(out_dir, f"spans-{name}.npz"))
    return metrics, traced, min(lane_steps) if lane_steps else None


def _layer_metrics(layers, pool, counters, best_n_solved):
    """One traced repetition's value of every per-layer metric."""
    def get(layer, i):
        return layers.get(layer, (0, 0.0, 0.0))[i]

    lane_steps = counters.get("trainer.lane_steps", 0)
    slots = counters.get("trainer.lane_slots", 0)
    fanouts = counters.get("trainer.pool.fanouts", 0)
    ckpt_calls = get("artifacts.write_checkpoint", 0)
    special = {
        "trainer.python_steps": counters.get("trainer.python_steps", 0),
        "trainer.lane_steps": lane_steps,
        "trainer.lane_slots": slots,
        "trainer.active_share": lane_steps / slots if slots else 0.0,
        "trainer.best_n_solved": best_n_solved,
        "trainer.pool.start_s": get(tracing.POOL_START, 1) / 1e9,
        "trainer.pool.overhead_s": pool["overhead_ns"] / 1e9,
        "trainer.pool.idle_share": pool["idle_share"],
        "trainer.pool.bytes_per_fanout":
            counters.get("trainer.pool.bytes", 0) / fanouts if fanouts else 0.0,
        "artifacts.write_checkpoint.bytes":
            counters.get("artifacts.write_checkpoint.bytes", 0) / ckpt_calls
            if ckpt_calls else 0.0,
    }
    values = {}
    for metric, _ in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        if metric in special:
            values[metric] = special[metric]
            continue
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = get(layer, 0)
        elif kind == "busy_s":
            values[metric] = get(layer, 1) / 1e9
        elif kind == "self_s":
            values[metric] = get(layer, 2) / 1e9
        elif kind == "ns_per_lane_step":
            values[metric] = get(layer, 1) / lane_steps if lane_steps else 0.0
        elif kind == "self_ns_per_lane_step":
            values[metric] = get(layer, 2) / lane_steps if lane_steps else 0.0
        else:
            raise KeyError(metric)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tshc", "__init__.py")):
        print(f"error: no tshc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload not in tracing.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(tracing.WORKLOAD_NAMES)}")
    sys.path.insert(0, SRC)
    try:
        result, record, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    except tracing.TraceError as exc:
        print(f"error: tracing failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
