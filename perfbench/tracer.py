"""Layer tracing of the tshc package from outside.

Wrappers are installed at the binding each caller actually uses (for
example ``tshc.trainer.forward_layers``, which ``batch_rollout`` calls, not
``tshc.policy.forward_layers``), so nothing under ``src/`` changes.  Each
wrapped call records one span: its binding, its parent span, and start and
end times from the system-wide monotonic clock.  Spans stay in memory, in
flat integer columns, and are written once when the run ends.

Pool workers are forked after the wrappers are installed, so they trace
too.  ``trainer.get_context`` is replaced by a proxy whose pool sends each
job through ``_pool_call``: the worker runs the job under a root span and
returns its spans and counters with the result, and the parent splices
them under the ``starmap`` span that waited for them.

The wrapper on ``trainer.batch_rollout`` also counts active lane-steps,
lane slots and time-loop iterations from the per-lane step counts it
returns.  Only the traced run installs anything; the end-to-end run
measures the package as it is.
"""

import functools
import importlib
import os
import pickle
import time
from array import array
from collections import Counter

import numpy as np

SWING = "swingup-cli"
REPLAY = "replay-grid"
WORKLOAD_NAMES = (SWING, REPLAY)
TRAIN = (SWING,)
VEHICLE = (REPLAY,)

# (module, attribute path, layer metric name, workloads that must call it).
# Two bindings may share a layer name; the guard checks each binding.
BINDINGS = (
    ("tshc.cli", "tshc_run", "trainer.tshc_run", (SWING,)),
    ("tshc.trainer", "_fan_out", "trainer.fanout", TRAIN),
    ("tshc.trainer", "batch_rollout", "trainer.batch_rollout", WORKLOAD_NAMES),
    ("tshc.cli", "rollout", "trainer.rollout", (SWING, REPLAY)),
    ("tshc.trainer", "candidate_theta", "trainer.candidate_theta", TRAIN),
    ("tshc.trainer", "select_best", "trainer.select_best", TRAIN),
    ("tshc.trainer", "unflatten", "policy.unflatten", WORKLOAD_NAMES),
    ("tshc.trainer", "forward_layers", "policy.forward_layers", WORKLOAD_NAMES),
    ("tshc.envs", "control_intervals", "policy.control_intervals", VEHICLE),
    ("tshc.envs", "VehicleEnv.goal_mask", "envs.goal_mask", VEHICLE),
    ("tshc.envs", "PendulumEnv.goal_mask", "envs.goal_mask", (SWING,)),
    ("tshc.envs", "VehicleEnv.features_arrays", "envs.features_arrays", VEHICLE),
    ("tshc.envs", "PendulumEnv.features_arrays", "envs.features_arrays", (SWING,)),
    ("tshc.envs", "VehicleEnv.apply_arrays", "envs.apply_arrays", VEHICLE),
    ("tshc.envs", "PendulumEnv.apply_arrays", "envs.apply_arrays", (SWING,)),
    ("tshc.dynamics", "step_bicycle_arrays", "dynamics.step_bicycle_arrays", VEHICLE),
    ("tshc.dynamics", "crash_check_arrays", "dynamics.crash_check_arrays", VEHICLE),
    ("tshc.dynamics", "step_pendulum_arrays", "dynamics.step_pendulum_arrays", (SWING,)),
    ("tshc.reward", "goal_errors", "reward.goal_errors", VEHICLE),
    ("tshc.reward", "vvc_bounds", "reward.vvc_bounds", VEHICLE),
    ("tshc.tasks", "vehicle_features", "tasks.vehicle_features", VEHICLE),
    ("tshc.tasks", "pendulum_features", "tasks.pendulum_features", (SWING,)),
    ("tshc.tasks", "mirror_features", "tasks.mirror_features", (REPLAY,)),
    ("tshc.artifacts", "write_checkpoint", "artifacts.write_checkpoint", (SWING, REPLAY)),
    ("tshc.artifacts", "append_log_record", "artifacts.append_log_record", (SWING,)),
    ("tshc.artifacts", "read_checkpoint", "artifacts.read_checkpoint", (REPLAY,)),
    ("tshc.artifacts", "write_trajectory_csv", "artifacts.write_trajectory_csv", (REPLAY,)),
    ("tshc.cli", "load_run_config", "config.load_run_config", (SWING,)),
    ("tshc.cli", "env_from_config", "config.env_from_config", (REPLAY,)),
    ("tshc.plotting", "render_svg", "plotting.render_svg", (REPLAY,)),
    ("tshc.cli", "cmd_train", "cli.cmd_train", (SWING,)),
    ("tshc.cli", "cmd_replay", "cli.cmd_replay", (REPLAY,)),
    ("tshc.cli", "cmd_plot", "cli.cmd_plot", (REPLAY,)),
)
POOL_BINDING = ("tshc.trainer", "get_context")

# spans recorded by the benchmark itself rather than by a wrapped binding
REP = "bench.rep"
POOL_START = "trainer.pool.start"
POOL_STARMAP = "trainer.pool.starmap"
POOL_WORKER = "trainer.pool.worker"

# the tracer whose pool workers run ``_pool_call``; a forked worker
# inherits it, which is how worker spans reach the parent's columns
_ACTIVE = None


class TraceError(RuntimeError):
    """A wrapped binding is gone, or a workload never called it."""


def binding_label(module, attr):
    return f"{module}.{attr}"


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or name not in vars(owner):
        raise TraceError(f"binding {binding_label(module, attr)} no longer exists; "
                         "the benchmark's tracer must follow the refactor")
    return owner, name, vars(owner)[name]


class Tracer:
    """Span columns, counters and the patched bindings of one run."""

    def __init__(self):
        self.names = [REP, POOL_START, POOL_STARMAP, POOL_WORKER]
        self.layer_of = {REP: REP, POOL_START: POOL_START,
                         POOL_STARMAP: POOL_STARMAP, POOL_WORKER: POOL_WORKER}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters = Counter()
        self._patched = []

    # ------------------------------------------------------------ spans

    def intern(self, label, layer):
        self.names.append(label)
        self.layer_of[label] = layer
        return len(self.names) - 1

    def open(self, name_id):
        i = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(i)
        return i

    def close(self, i):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def __len__(self):
        return len(self.start)

    def columns(self, lo=0, hi=None):
        """(parent, name, start, end) int64 arrays of spans [lo, hi)."""
        hi = len(self) if hi is None else hi
        return tuple(np.array(col[lo:hi], dtype=np.int64)
                     for col in (self.parent, self.name, self.start, self.end))

    def take_since(self, mark):
        """Remove spans from ``mark`` on and return them with parents rebased."""
        parent, name, start, end = self.columns(mark)
        parent = np.where(parent >= mark, parent - mark, -1)
        for col in (self.parent, self.name, self.start, self.end):
            del col[mark:]
        return parent, name, start, end

    def splice(self, spans, under):
        """Append spans taken in a worker, hanging their roots under ``under``."""
        parent, name, start, end = spans
        base = len(self)
        self.parent.extend((np.where(parent >= 0, parent + base, under)).tolist())
        self.name.extend(name.tolist())
        self.start.extend(start.tolist())
        self.end.extend(end.tolist())

    def save(self, path):
        parent, name, start, end = self.columns()
        np.savez(path, parent=parent, name=name, start=start, end=end,
                 names=np.array(self.names))

    # ------------------------------------------------- install / restore

    def install(self):
        """Patch every binding and the pool context."""
        global _ACTIVE
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for module, attr, layer, _ in BINDINGS:
                self._patch(module, attr, layer)
            owner, name, original = _resolve(*POOL_BINDING)
            self._patched.append((owner, name, original))
            setattr(owner, name, functools.partial(_context, self, original))
        except BaseException:
            self.restore()
            raise
        _ACTIVE = self

    def restore(self):
        global _ACTIVE
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        _ACTIVE = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _patch(self, module, attr, layer):
        owner, name, original = _resolve(module, attr)
        label = binding_label(module, attr)
        name_id = (self.names.index(label) if label in self.layer_of
                   else self.intern(label, layer))
        self._patched.append((owner, name, original))
        setattr(owner, name, _span_wrapper(self, name_id, original, _POST.get(label)))

    # ------------------------------------------------------------ guard

    def check_called(self, workload):
        """Raise if a binding this workload must call recorded no span."""
        _, name, _, _ = self.columns()
        calls = np.bincount(name, minlength=len(self.names))
        missing = [binding_label(m, a) for m, a, _, users in BINDINGS
                   if workload in users
                   and calls[self.names.index(binding_label(m, a))] == 0]
        if missing:
            raise TraceError(f"{workload} never called: {', '.join(missing)}")


def _span_wrapper(tracer, name_id, fn, post):
    if post is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            post(tracer, args, out)
            return out
    return traced


def _count_rollout(tracer, args, out):
    steps = out[4]
    last = int(steps.max()) if steps.size else 0
    c = tracer.counters
    c["trainer.python_steps"] += last
    c["trainer.lane_slots"] += last * steps.size
    c["trainer.lane_steps"] += int(steps.sum())


def _count_checkpoint_bytes(tracer, args, out):
    tracer.counters["artifacts.write_checkpoint.bytes"] += os.path.getsize(args[0])


# extra counts taken from a wrapped call's arguments and result, by binding
_POST = {"tshc.trainer.batch_rollout": _count_rollout,
         "tshc.artifacts.write_checkpoint": _count_checkpoint_bytes}


# ------------------------------------------------------------------ pool

def _context(tracer, get_context, method=None):
    return _ContextProxy(tracer, get_context(method))


class _ContextProxy:
    def __init__(self, tracer, ctx):
        self._tracer = tracer
        self._ctx = ctx

    def Pool(self, processes):
        tracer = self._tracer
        i = tracer.open(tracer.names.index(POOL_START))
        try:
            pool = self._ctx.Pool(processes)
        finally:
            tracer.close(i)
        return _PoolProxy(tracer, pool)


class _PoolProxy:
    def __init__(self, tracer, pool):
        self._tracer = tracer
        self._pool = pool

    def starmap(self, func, jobs):
        tracer = self._tracer
        calls = [(func, tuple(job)) for job in jobs]
        i = tracer.open(tracer.names.index(POOL_STARMAP))
        try:
            out = self._pool.starmap(_pool_call, calls)
        finally:
            tracer.close(i)
        results = []
        for result, spans, counters in out:
            tracer.counters.update(counters)
            tracer.splice(spans, i)
            results.append(result)
        # computed size of what the program itself pickles per fan-out
        tracer.counters["trainer.pool.bytes"] += (
            len(pickle.dumps([(func, job) for job in jobs]))
            + len(pickle.dumps(results)))
        tracer.counters["trainer.pool.fanouts"] += 1
        return results

    def close(self):
        self._pool.close()

    def join(self):
        self._pool.join()


def _pool_call(func, args):
    """Run one pool job in a worker; return its result, spans and counts."""
    tracer = _ACTIVE
    tracer.counters = Counter()
    tracer.stack = [-1]
    mark = len(tracer)
    i = tracer.open(tracer.names.index(POOL_WORKER))
    try:
        result = func(*args)
    finally:
        tracer.close(i)
    return result, tracer.take_since(mark), tracer.counters


# ----------------------------------------------------------- aggregation

def self_ns(parent, name, start, end, worker_id):
    """Each span's duration minus the part of it that its children cover.

    Children run one after another, except pool-worker roots, which run
    side by side under one ``starmap`` span, so their union is taken.
    ``parent`` holds indices into the same arrays, or -1.
    """
    dur = end - start
    has_parent = parent >= 0
    serial = has_parent & (name != worker_id)
    covered = np.bincount(parent[serial], weights=dur[serial],
                          minlength=len(dur)).astype(np.int64)
    workers = np.flatnonzero(has_parent & (name == worker_id))
    for p in np.unique(parent[workers]):
        kids = workers[parent[workers] == p]
        order = kids[np.argsort(start[kids])]
        union, reach = 0, start[p]
        for k in order:
            lo, hi = max(start[k], reach), end[k]
            if hi > lo:
                union += hi - lo
                reach = hi
        covered[p] += union
    return dur - covered


def rep_stats(tracer, lo, hi):
    """Per-layer calls, busy ns and self ns of spans [lo, hi), plus pool figures.

    The spans must form whole trees: every parent lies in the range too.
    """
    parent, name, start, end = tracer.columns(lo, hi)
    parent = np.where(parent >= lo, parent - lo, -1)
    worker_id = tracer.names.index(POOL_WORKER)
    dur = end - start
    own = self_ns(parent, name, start, end, worker_id)
    k = len(tracer.names)
    calls = np.bincount(name, minlength=k)
    busy = np.bincount(name, weights=dur, minlength=k)
    selfs = np.bincount(name, weights=own, minlength=k)
    layers = {}
    for nid, label in enumerate(tracer.names):
        c, b, s = layers.get(tracer.layer_of[label], (0, 0.0, 0.0))
        layers[tracer.layer_of[label]] = (c + int(calls[nid]), b + busy[nid], s + selfs[nid])

    workers = np.flatnonzero(name == worker_id)
    overhead, worker_busy, offered = 0, 0, 0
    for s in np.unique(parent[workers]):
        kids = workers[parent[workers] == s]
        fanout = parent[s] if parent[s] >= 0 else s
        overhead += dur[fanout] - dur[kids].max()
        worker_busy += dur[kids].sum()
        offered += dur[s] * len(kids)
    pool = {"overhead_ns": overhead,
            "idle_share": 1.0 - worker_busy / offered if offered else 0.0}
    return layers, pool
