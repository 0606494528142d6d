"""Self-test of the benchmark at tiny budgets.

    python3 -m pytest perfbench -q

Checks the per-operation medians and the host-speed scaling of
``replay-grid`` (and its absence on ``swingup-cli``), that every
metric named in BENCHMARK.json is emitted with its unit for each
workload, that traced spans nest with non-negative self times,
that untraced and traced runs of a seed count the same lane-steps, that
the untraced run patches nothing once the count is stored, that a
mirrored replay which is not a reflection counts as failed, that the
worker count does not change the swing-up digest, and that the
tracer fails loudly on a missing or uncalled binding and restores every
attribute it patched.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _measure(tmp_path, name, trace, **kwargs):
    return run.measure(name, 3, 0, trace, tiny=True, out_dir=str(tmp_path),
                       probes=1, **kwargs)


def _bindings():
    return {(m, a): tracing._resolve(m, a)[2]
            for m, a, _, _ in tracing.BINDINGS + (tracing.POOL_BINDING + (None, None),)}


def test_metric_lists_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(tracing.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


def test_op_medians_are_taken_per_operation_of_the_budget():
    # over the repetitions that reached each operation
    assert run.op_medians([[1, 5], [2, 4], [3]]) == [2, 4.5]


@pytest.mark.parametrize("name, scaled", ((tracing.REPLAY, True), (tracing.SWING, False)))
def test_time_metrics_are_scaled_to_the_reference_host_speed(tmp_path, name, scaled):
    result, record, _ = _measure(tmp_path, name, 0)
    assert record["reference_chunks"] >= 1 and record["host_scale"] > 0
    assert record["scale_applied"] == (record["host_scale"] if scaled else 1.0)
    for metric, raw in record["unscaled"].items():
        assert result["metrics"][metric]["value"] == pytest.approx(
            raw * record["scale_applied"])


@pytest.mark.parametrize("name", tracing.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_unit(tmp_path, name, trace):
    result, record, _ = _measure(tmp_path, name, trace)
    assert result["correct"], record["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    got = {m: (v["unit"], v["value"]) for m, v in result["metrics"].items()}
    assert sorted(got) == sorted(m for m, _ in expected)
    for metric, unit in expected:
        assert got[metric][0] == unit
        assert np.isfinite(got[metric][1]), metric
    if not trace:
        assert all(got[m][1] > 0 for m in got), got
    # the run is deterministic per seed, so lane counts are exact
    assert json.loads(json.dumps(result)) == result


@pytest.mark.parametrize("name", (tracing.SWING, tracing.REPLAY))
def test_spans_nest_and_self_times_are_non_negative(tmp_path, name):
    _, _, tr = _measure(tmp_path, name, 1)
    parent, names, start, end = tr.columns()
    assert np.all(end >= start)
    has = parent >= 0
    assert np.all(start[has] >= start[parent[has]])
    assert np.all(end[has] <= end[parent[has]])
    own = tracing.self_ns(parent, names, start, end, tr.names.index(tracing.POOL_WORKER))
    assert np.all(own >= 0)
    if name == tracing.SWING:
        assert np.any(names == tr.names.index(tracing.POOL_WORKER))


@pytest.mark.parametrize("name", tracing.WORKLOAD_NAMES)
def test_lane_step_count_is_shared_between_runs(tmp_path, name):
    """An untraced run counts lane-steps in one traced repetition after its
    timed ones; a later traced run of the same seed must count the same."""
    first, one, _ = _measure(tmp_path, name, 0)
    second, two, _ = _measure(tmp_path, name, 1)
    assert first["correct"] and second["correct"], (one["errors"], two["errors"])
    assert one["lane_steps_per_rep"] == two["lane_steps_per_rep"] > 0


def test_untraced_run_with_a_stored_count_patches_nothing(tmp_path, monkeypatch):
    _measure(tmp_path, tracing.SWING, 1)

    def refuse(self):
        raise AssertionError("the end-to-end run installed the tracer")
    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    result, record, _ = _measure(tmp_path, tracing.SWING, 0)
    assert result["correct"], record["errors"]


def test_replay_grid_fails_a_mirror_that_is_not_a_reflection(tmp_path, monkeypatch):
    import tshc.tasks
    mirror = tshc.tasks.mirror_control
    # steering off by a part in a million: the mirrored replays still solve
    monkeypatch.setattr(tshc.tasks, "mirror_control",
                        lambda raw: mirror(raw) * (1.0 - 1e-6))
    result, record, _ = _measure(tmp_path, tracing.REPLAY, 0)
    assert not result["correct"] and result["failed"] > 0
    assert any("reflection error" in e for e in record["errors"]), record["errors"]


def test_swingup_digest_is_worker_count_invariant(tmp_path):
    _, one, _ = _measure(tmp_path / "w1", tracing.SWING, 0, workers=1)
    _, two, _ = _measure(tmp_path / "w2", tracing.SWING, 0, workers=2)
    assert one["digest"] == two["digest"]


def test_missing_binding_fails_loudly_and_restores(monkeypatch):
    import tshc.trainer
    before = _bindings()
    monkeypatch.delattr(tshc.trainer, "select_best")
    with pytest.raises(tracing.TraceError, match="select_best"):
        tracing.Tracer().install()
    monkeypatch.undo()
    assert _bindings() == before


def test_uncalled_binding_fails_loudly(tmp_path):
    before = _bindings()
    with tracing.Tracer() as tr:
        assert _bindings() != before
        with pytest.raises(tracing.TraceError, match="never called"):
            tr.check_called(tracing.SWING)
    assert _bindings() == before


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    _measure(tmp_path, tracing.SWING, 1)
    assert _bindings() == before
