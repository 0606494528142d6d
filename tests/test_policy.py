import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tshc.dynamics import ActuatorLimits, Control, clamp_controls, intersect_interval
from tshc.envs import control_bounds, control_intervals
from tshc.policy import (MlpSpec, affine_scale, forward_layers, init_params, param_count,
                         unflatten)
from tshc.trainer import candidate_theta

LIM = ActuatorLimits()


def forward(theta, spec, s):
    return forward_layers(unflatten(theta, spec), s)


def perturb(theta, sigma, rng):
    return theta + sigma * rng.standard_normal(theta.shape[-1])


# --------------------------------------------------------------- param_count

def test_param_count_published_architectures():
    assert param_count(MlpSpec((5, 8, 2))) == 66
    assert param_count(MlpSpec((4, 64, 64, 2))) == 4610


def test_param_count_minimal():
    assert param_count(MlpSpec((1, 1))) == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((4,))
    with pytest.raises(ValueError):
        MlpSpec((4, 0, 2))


# --------------------------------------------------------------- init_params

def test_init_statistics():
    theta = init_params(MlpSpec((5, 8, 2)), np.random.default_rng(0))
    assert theta.shape == (66,)
    big = np.concatenate([init_params(MlpSpec((4, 64, 64, 2)),
                                      np.random.default_rng(s))
                          for s in range(22)])  # ~1e5 draws
    n = big.size
    assert abs(big.mean()) < 3.0 * 0.001 / math.sqrt(n)
    assert abs(big.std() - 0.001) < 0.05 * 0.001


def test_init_deterministic():
    a = init_params(MlpSpec((5, 8, 2)), np.random.default_rng(7))
    b = init_params(MlpSpec((5, 8, 2)), np.random.default_rng(7))
    assert np.array_equal(a, b)


# ------------------------------------------------------ candidate perturbation

def test_perturb_zero_sigma_is_identity():
    theta = np.arange(10.0)
    out = candidate_theta(theta, 0.0, 0, 1, 1, 0)
    assert np.array_equal(out, theta)


def test_perturb_does_not_mutate_input():
    theta = np.zeros(66)
    candidate_theta(theta, 5.0, 0, 1, 1, 0)
    assert np.all(theta == 0.0)


def test_perturb_statistics_and_determinism():
    theta = np.zeros(100_000)
    a = candidate_theta(theta, 3.0, 5, 1, 1, 0)
    b = candidate_theta(theta, 3.0, 5, 1, 1, 0)
    assert np.array_equal(a, b)
    assert abs(a.std() - 3.0) < 0.05 * 3.0


# ------------------------------------------------------------------- forward

def test_forward_zero_parameters():
    spec = MlpSpec((4, 8, 2))
    out = forward(np.zeros(param_count(spec)), spec, np.ones(4))
    assert np.array_equal(out, np.zeros(2))


def test_forward_single_layer_closed_form():
    # [1,1] network: out = tanh(w*u + b)
    spec = MlpSpec((1, 1))
    w, b, u = 0.7, -0.2, 1.3
    out = forward(np.array([w, b]), spec, np.array([u]))
    assert out[0] == pytest.approx(math.tanh(w * u + b), abs=1e-15)


def test_forward_two_layer_closed_form():
    spec = MlpSpec((2, 2, 1))
    w1 = np.array([[0.3, -0.4], [0.1, 0.2]])
    b1 = np.array([0.05, -0.02])
    w2 = np.array([[1.5, -0.7]])
    b2 = np.array([0.3])
    theta = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])  # canonical order
    s = np.array([0.4, -0.9])
    hidden = np.tanh(w1 @ s + b1)
    expected = np.tanh(w2 @ hidden + b2)
    out = forward(theta, spec, s)
    assert np.allclose(out, expected, atol=1e-15, rtol=0.0)


def test_forward_rejects_bad_inputs():
    spec = MlpSpec((4, 8, 2))
    with pytest.raises(ValueError):
        forward(np.zeros(10), spec, np.ones(4))
    with pytest.raises(ValueError):
        forward(np.zeros((3, 10)), spec, np.ones((3, 4)))


@settings(max_examples=60)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 1000.0))
def test_forward_output_strictly_inside_unit_box(seed, sigma):
    spec = MlpSpec((5, 8, 2))
    rng = np.random.default_rng(seed)
    theta = perturb(init_params(spec, rng), sigma, rng)
    s = rng.uniform(-1.0, 1.0, size=5)
    out = forward(theta, spec, s)
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_forward_batched_matches_loop():
    spec = MlpSpec((5, 8, 2))
    rng = np.random.default_rng(3)
    thetas = np.stack([perturb(init_params(spec, rng), 10.0, rng)
                       for _ in range(6)])
    s = rng.uniform(-1, 1, size=(6, 5))
    batched = forward(thetas, spec, s)
    for i in range(6):
        assert np.array_equal(batched[i], forward(thetas[i], spec, s[i]))


# --------------------------------------------------------- flatten/unflatten

def test_flatten_unflatten_round_trip():
    spec = MlpSpec((4, 64, 64, 2))
    theta = init_params(spec, np.random.default_rng(1))
    parts = [a.ravel() for layer in unflatten(theta, spec) for a in layer]
    assert np.array_equal(np.concatenate(parts), theta)


def test_unflatten_canonical_order():
    # [2,1]: weights row-major first, then bias
    spec = MlpSpec((2, 1))
    (w, b), = unflatten(np.array([1.0, 2.0, 3.0]), spec)
    assert np.array_equal(w, [[1.0, 2.0]])
    assert np.array_equal(b, [3.0])


# ------------------------------------------------------------- output scaling

def test_affine_scale_endpoints_exact():
    assert affine_scale(-1.0, 0.3, 0.9) == 0.3
    assert affine_scale(1.0, 0.3, 0.9) == 0.9
    assert affine_scale(0.0, -2.0, 2.0) == 0.0


def scale_outputs(raw, prev: Control, vvc_box, Ts):
    """The control step of VehicleEnv.apply_arrays for one lane: a VVC box,
    clipped into the actuator's v box, replaces the v row of the absolute
    box."""
    lo, hi, *steps = control_bounds(LIM, Ts)
    if vvc_box is not None:
        lo, hi = lo.copy(), hi.copy()
        lo[0], hi[0] = np.clip(vvc_box, LIM.v_min, LIM.v_max)
    lo, hi = control_intervals(np.array([[prev.v], [prev.delta]]), (lo, hi, *steps))
    v, delta = affine_scale(np.asarray(raw)[:, None], lo, hi)[:, 0].tolist()
    return Control(v, delta)


def test_scale_outputs_box_corners_and_midpoint():
    prev = Control(0.0, 0.0)
    lo = scale_outputs(np.array([-1.0, -1.0]), prev, None, 0.01)
    hi = scale_outputs(np.array([1.0, 1.0]), prev, None, 0.01)
    assert lo.v == pytest.approx(LIM.vdot_min * 0.01)
    assert hi.v == pytest.approx(LIM.vdot_max * 0.01)
    assert lo.delta == pytest.approx(LIM.deltadot_min * 0.01)
    assert hi.delta == pytest.approx(LIM.deltadot_max * 0.01)
    mid = scale_outputs(np.array([0.0, 0.0]), prev, None, 0.01)
    assert mid.delta == pytest.approx(0.0, abs=1e-15)


def test_scale_outputs_respects_vvc_box():
    prev = Control(0.18, 0.0)
    # rate interval [0.1, 0.23] intersected with the VVC box [0, 0.2]
    a = scale_outputs(np.array([1.0, 0.0]), prev, (0.0, 0.2), 0.01)
    assert a.v == pytest.approx(0.2)
    a = scale_outputs(np.array([-1.0, 0.0]), prev, (0.0, 0.2), 0.01)
    assert a.v == pytest.approx(0.1)


def test_scale_outputs_empty_vvc_intersection_collapses():
    # vvc box far below the reachable rate interval -> nearest endpoint
    prev = Control(5.0, 0.0)
    a = scale_outputs(np.array([1.0, 0.0]), prev, (-1.0, 0.0), 0.01)
    assert a.v == pytest.approx(5.0 + LIM.vdot_min * 0.01)


@settings(max_examples=60)
@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-9, 9), st.floats(-0.5, 0.5))
def test_scale_then_clamp_is_noop(r0, r1, prev_v, prev_d):
    prev = Control(prev_v, prev_d)
    a = scale_outputs(np.array([r0, r1]), prev, None, 0.01)
    c = clamp_controls(a, prev, LIM, 0.01)
    assert c.v == pytest.approx(a.v, abs=1e-12)
    assert c.delta == pytest.approx(a.delta, abs=1e-12)


def test_control_intervals_shapes():
    lo, hi = control_intervals(np.zeros((2, 4)), control_bounds(LIM, 0.01))
    assert lo.shape == hi.shape == (2, 4)
    assert np.all(lo <= hi)
    # a per-lane absolute box whose v row is a VVC box narrows that row only
    box = (np.array([[0.01] * 4, [LIM.delta_min] * 4]),
           np.array([[0.02] * 4, [LIM.delta_max] * 4]))
    lo, hi = control_intervals(np.zeros((2, 4)), box + control_bounds(LIM, 0.01)[2:])
    assert lo[0].tolist() == [0.01] * 4 and hi[0].tolist() == [0.02] * 4
    assert lo[1].tolist() == [LIM.deltadot_min * 0.01] * 4
    # the bound columns hold the absolute limits and the rates times Ts
    assert [c[:, 0].tolist() for c in control_bounds(LIM, 0.1)] == [
        [LIM.v_min, LIM.delta_min], [LIM.v_max, LIM.delta_max],
        [LIM.vdot_min * 0.1, LIM.deltadot_min * 0.1],
        [LIM.vdot_max * 0.1, LIM.deltadot_max * 0.1]]


# ties of -0.0 and 0.0, and the collapse of an empty intersection onto the
# nearer endpoint, meet edges exactly on these values
EDGES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]) | st.floats(-3.0, 3.0)
BOXES = st.tuples(EDGES, EDGES).map(sorted)


def assert_one_intersection_is_two(prev, steps, actuator, vvc):
    # the v row's control box as two intersections (the rate box around
    # prev with the actuator's v box, then with the raw VVC box) against
    # one, of the rate box with the VVC box clipped into the actuator's as
    # reward.vvc_bounds clips it: the same bits wherever the rate box meets
    # the actuator's box; where it misses it, only the sign of a zero edge
    # may differ
    prev = np.array(prev, dtype=float)
    (s_lo, s_hi), (g_lo, g_hi), (v_lo, v_hi) = (np.array(boxes, dtype=float).T
                                                for boxes in (steps, actuator, vvc))
    lo, hi = intersect_interval(prev + s_lo, prev + s_hi, g_lo, g_hi)
    two = intersect_interval(lo, hi, v_lo, v_hi)
    clipped = (np.minimum(g_hi, np.maximum(g_lo, v_lo)),
               np.minimum(g_hi, np.maximum(g_lo, v_hi)))
    one = control_intervals(prev, (*clipped, s_lo, s_hi))
    meets = np.maximum(prev + s_lo, g_lo) <= np.minimum(prev + s_hi, g_hi)
    for a, b in zip(one, two):
        assert np.array_equal(a, b)
        assert a[meets].tobytes() == b[meets].tobytes()


@settings(max_examples=300)
@given(st.lists(st.tuples(EDGES, BOXES, BOXES, BOXES), min_size=1, max_size=8))
def test_one_intersection_with_the_clipped_vvc_box_is_the_two_step_box(lanes):
    assert_one_intersection_is_two(*zip(*lanes))


def test_one_intersection_is_the_two_step_box_for_every_edge_order():
    # six edges on six values realize every order of them, ties included:
    # boxes inside, straddling and outside one another, and every collapse
    values = np.arange(6.0)
    boxes = [(lo, hi) for lo in values for hi in values if lo <= hi]
    cases = [(0.0, r, g, v) for r in boxes for g in boxes for v in boxes]
    assert_one_intersection_is_two(*zip(*cases))
