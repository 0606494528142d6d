import math

import numpy as np
import pytest

from tshc.reward import Tolerances, goal_difference
from tshc.tasks import (GOAL4, GOAL5, PENDULUM, PENDULUM4, GoalTuple, PendulumNorm, Task,
                        VEHICLE, VehicleNorm, freeform_task, heading_grid,
                        mirror_control, mirror_features, mirror_goal, mirror_task,
                        nearest_goal_lookup, norm_column, pendulum_features,
                        pendulum_tasks, vehicle_features)

TOL = Tolerances(0.25, math.radians(1.0), 5.0 / 3.6)


# ----------------------------------------------------------------- Task type

def test_task_validation():
    with pytest.raises(ValueError):
        Task("t", "boat", (0,) * 4, (0,) * 4, TOL, GOAL4)
    with pytest.raises(ValueError):
        Task("t", VEHICLE, (0,) * 3, (0,) * 4, TOL, GOAL4)
    with pytest.raises(ValueError):
        Task("t", VEHICLE, (0, 0, 0, math.inf), (0,) * 4, TOL, GOAL4)
    with pytest.raises(ValueError):
        Task("t", VEHICLE, (0,) * 4, (0,) * 4, TOL, "bogus")
    # a feature recipe reads one plant's state
    with pytest.raises(ValueError, match="'pendulum4' is not a vehicle recipe"):
        Task("t", VEHICLE, (0,) * 4, (0,) * 4, TOL, PENDULUM4)
    with pytest.raises(ValueError, match="'goal5' is not a pendulum recipe"):
        Task("t", PENDULUM, (0,) * 4, (0,) * 4, TOL, GOAL5)


def test_freeform_task_defaults():
    t = freeform_task((0, 0, 0, 0), (20, 0, math.pi / 4, 0))
    assert t.env_kind == VEHICLE and t.feature_recipe == GOAL4
    assert t.z_goal[2] == pytest.approx(math.pi / 4)


# ------------------------------------------------------------------ features

def column(*values):
    return np.array(values, dtype=float)[:, None]


def goal4(z, task, last_raw_steer=None):
    return vehicle_features(goal_difference(column(*z), column(*task.z_goal)),
                            norm_column(VehicleNorm()), last_raw_steer)


def test_goal4_features_hand_value():
    t = freeform_task((0, 0, 0, 0), (20.0, 10.0, math.pi / 2, 5.0))
    f = goal4((10.0, 5.0, 0.0, 2.5), t)
    assert f.shape == (1, 4) and f.flags.c_contiguous
    assert np.allclose(f, [[0.5, 0.25, 0.5, 0.25]], atol=1e-15)


def test_goal5_features_append_last_raw_steer():
    t = heading_grid(10, 90)[3]
    f = goal4((0.0, 0.0, 0.0, 0.0), t, np.array([0.7]))
    assert f.shape == (1, 5)
    assert f[0, 4] == 0.7
    assert f[0, 2] == pytest.approx(math.radians(30) / math.pi)


def test_feature_heading_difference_wraps():
    t = freeform_task((0, 0, 0, 0), (0.0, 0.0, math.radians(170), 0.0))
    f = goal4((0.0, 0.0, math.radians(-170), 0.0), t)
    # shortest signed difference is -20 deg, not +340 deg
    assert f[0, 2] == pytest.approx(math.radians(-20) / math.pi)


def test_features_are_rows_computed_lane_by_lane():
    # lanes are rows of a C-ordered (lanes, k) result, and each row has the
    # bits of that lane's one-lane result
    t = heading_grid(10, 90)[3]
    rng = np.random.default_rng(1)
    z = rng.normal(0.0, 2.0, (4, 3))
    goal, scale = column(*t.z_goal), norm_column(VehicleNorm())
    last = rng.uniform(-1.0, 1.0, 3)
    f = vehicle_features(goal_difference(z, goal), scale, last)
    assert f.shape == (3, 5) and f.flags.c_contiguous
    for i in range(3):
        one = vehicle_features(goal_difference(z[:, i:i + 1], goal), scale, last[i:i + 1])
        assert f[i:i + 1].tobytes() == one.tobytes()
    p = pendulum_features(z, norm_column(PendulumNorm()))
    assert p.flags.c_contiguous
    assert p.tolist() == (z / norm_column(PendulumNorm())).T.tolist()


def test_pendulum_features_hand_value():
    f = pendulum_features(column(1.2, 1.5, math.pi / 2, 2.0 * math.pi),
                          norm_column(PendulumNorm()))
    assert np.allclose(f, [[0.5, 0.5, 0.5, 0.5]], atol=1e-15)


# ----------------------------------------------------------------- mirroring

def test_mirror_features_negates_lateral_terms():
    f = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    m = mirror_features(f, GOAL5)
    assert np.allclose(m, [0.1, -0.2, -0.3, 0.4, -0.5])
    m4 = mirror_features(np.array([0.1, 0.2, 0.3, 0.4]), GOAL4)
    assert np.allclose(m4, [0.1, -0.2, -0.3, 0.4])


def test_mirror_features_is_involution():
    f = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    assert np.array_equal(mirror_features(mirror_features(f, GOAL5), GOAL5), f)


def test_mirror_control_negates_steering_only():
    raw = np.array([0.3, -0.8])
    m = mirror_control(raw)
    assert m[0] == 0.3 and m[1] == 0.8
    assert np.array_equal(mirror_control(m), raw)


def test_mirror_goal_and_task():
    g = mirror_goal((1.0, 2.0, 0.5, 3.0))
    assert g == (1.0, -2.0, -0.5, 3.0)
    # pi maps to itself under wrapping
    assert mirror_goal((0.0, 0.0, math.pi, 0.0))[2] == math.pi
    t = heading_grid(10, 90)[4]
    m = mirror_task(t)
    assert m.z_goal[2] == pytest.approx(-t.z_goal[2])
    assert m.id.endswith("~mirror")
    with pytest.raises(ValueError):
        mirror_task(pendulum_tasks("stabilize")[0])


# -------------------------------------------------------------- heading_grid

def test_heading_grid_layout():
    tasks = heading_grid(10, 90)
    assert len(tasks) == 10
    assert [t.id for t in tasks][:3] == ["heading0", "heading10", "heading20"]
    assert tasks[-1].z_goal == (0.0, 0.0, math.pi / 2, 0.0)
    for t in tasks:
        assert t.z0 == (0.0, 0.0, 0.0, 0.0)
        assert t.feature_recipe == GOAL5


def test_heading_grid_validation():
    with pytest.raises(ValueError):
        heading_grid(0, 90)
    with pytest.raises(ValueError):
        heading_grid(10, 200)


# ------------------------------------------------------------ pendulum tasks

def test_pendulum_task_sets():
    both = pendulum_tasks("both")
    assert [t.id for t in both] == ["stabilize", "swingup"]
    swing = pendulum_tasks("swingup", t_goal=50)[0]
    assert swing.z0[2] == math.pi and swing.z_goal[2] == 0.0
    assert swing.t_goal == 50
    assert swing.feature_recipe == PENDULUM4
    with pytest.raises(ValueError):
        pendulum_tasks("sideways")


# ------------------------------------------------------- nearest_goal_lookup

STORE = [
    GoalTuple((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), "a"),
    GoalTuple((0.0, 0.0, math.radians(30), 0.0), (0.0, 0.0, math.radians(30), 0.0), "b"),
    GoalTuple((5.0, 0.0, 0.0, 0.0), (5.0, 0.0, 0.0, 0.0), "c"),
]


def test_goal_tuple_states_must_be_finite():
    # a NaN achieved point would be served for every setpoint: argmin
    # returns the first NaN
    for bad in ((math.nan, 0.0, 0.0, 0.0), (0.0, 0.0, -math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            GoalTuple(bad, (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            GoalTuple((0.0, 0.0, 0.0, 0.0), bad)


def test_lookup_exact_and_nearest():
    assert nearest_goal_lookup((0, 0, math.radians(30), 0), STORE).task_id == "b"
    assert nearest_goal_lookup((0, 0, math.radians(20), 0), STORE).task_id == "b"
    assert nearest_goal_lookup((4.0, 0, 0, 0), STORE).task_id == "c"


def test_lookup_weighted_tradeoff():
    # heading error costs 0.1 per degree, position 1 per metre; between
    # b = (0,0,30deg) and c = (5,0,0deg) the balance tips with the setpoint
    near_b = (2.0, 0.0, math.radians(28), 0.0)   # b: 2+0.2  c: 3+2.8
    near_c = (2.6, 0.0, 0.0, 0.0)                # b: 2.6+3  c: 2.4
    assert nearest_goal_lookup(near_b, STORE[1:]).task_id == "b"
    assert nearest_goal_lookup(near_c, STORE[1:]).task_id == "c"


def test_lookup_tie_resolves_to_lowest_index():
    store = [GoalTuple((1.0, 0, 0, 0), (1.0, 0, 0, 0), "first"),
             GoalTuple((-1.0, 0, 0, 0), (-1.0, 0, 0, 0), "second")]
    assert nearest_goal_lookup((0, 0, 0, 0), store).task_id == "first"


def test_lookup_empty_store_raises():
    with pytest.raises(ValueError):
        nearest_goal_lookup((0, 0, 0, 0), [])


def test_lookup_wraps_heading():
    store = [GoalTuple((0, 0, math.radians(350), 0), (0, 0, math.radians(350), 0), "wrap"),
             GoalTuple((0, 0, math.radians(90), 0), (0, 0, math.radians(90), 0), "far")]
    assert nearest_goal_lookup((0, 0, math.radians(-5), 0), store).task_id == "wrap"
