import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tshc.dynamics import (ActuatorLimits, Control, PendulumParams, PendulumState,
                           VehicleParams, VehicleState, clamp_controls,
                           crash_check_arrays, intersect_interval,
                           pendulum_accelerations, step_bicycle,
                           step_pendulum, wrap_angle)
from tshc.envs import control_intervals
from tshc.reward import VVC_CONSTANT, VVC_OFF, VVC_SPATIAL, VvcConfig, vvc_bounds
from tshc.tasks import mirror_goal

LIM = ActuatorLimits()
PAR = VehicleParams()
PEND = PendulumParams()


# ---------------------------------------------------------------- wrap_angle

def test_wrap_angle_identity_inside_range():
    for a in (-3.0, -1.0, 0.0, 1.0, 3.0, math.pi):
        assert wrap_angle(a) == pytest.approx(a, abs=0.0)


def test_wrap_angle_maps_to_half_open_interval():
    for a in np.linspace(-25.0, 25.0, 1001):
        w = float(wrap_angle(a))
        assert -math.pi < w <= math.pi
        # difference is an exact multiple of 2*pi
        assert abs((a - w) / (2.0 * math.pi) - round((a - w) / (2.0 * math.pi))) < 1e-9


def test_wrap_angle_boundary_prefers_positive_pi():
    assert float(wrap_angle(math.pi)) == math.pi
    assert float(wrap_angle(-math.pi)) == math.pi
    assert float(wrap_angle(3.0 * math.pi)) == pytest.approx(math.pi)


# ------------------------------------------------------------ clamp_controls

def test_clamp_rate_limits_velocity():
    # raw v=50 from standstill: rate limit 5 m/s^2 * 0.01 s wins -> 0.05
    a = clamp_controls(Control(50.0, 0.0), Control(0.0, 0.0), LIM, 0.01)
    assert a.v == pytest.approx(0.05, abs=1e-15)


def test_clamp_rate_limits_braking():
    lim = ActuatorLimits(vdot_min=-5.0)
    a = clamp_controls(Control(-50.0, 0.0), Control(0.0, 0.0), lim, 0.01)
    assert a.v == pytest.approx(-0.05, abs=1e-15)


def test_clamp_inside_box_is_identity():
    raw = Control(0.02, 0.001)
    a = clamp_controls(raw, Control(0.0, 0.0), LIM, 0.01)
    assert a.v == raw.v and a.delta == raw.delta


def test_clamp_absolute_limit_wins_near_vmax():
    a = clamp_controls(Control(50.0, 0.0), Control(9.99, 0.0), LIM, 0.1)
    assert a.v == pytest.approx(10.0)


@given(st.floats(-100, 100), st.floats(-2, 2),
       st.floats(-15, 15), st.floats(-0.6, 0.6))
def test_clamp_idempotent_and_admissible(raw_v, raw_d, prev_v, prev_d):
    prev_v = float(np.clip(prev_v, LIM.v_min, LIM.v_max))
    prev_d = float(np.clip(prev_d, LIM.delta_min, LIM.delta_max))
    prev = Control(prev_v, prev_d)
    once = clamp_controls(Control(raw_v, raw_d), prev, LIM, 0.01)
    twice = clamp_controls(once, prev, LIM, 0.01)
    assert once == twice
    assert LIM.v_min - 1e-12 <= once.v <= LIM.v_max + 1e-12
    assert prev.v + LIM.vdot_min * 0.01 - 1e-12 <= once.v \
        <= prev.v + LIM.vdot_max * 0.01 + 1e-12
    assert LIM.delta_min - 1e-12 <= once.delta <= LIM.delta_max + 1e-12


def test_rate_interval_degenerate_collapses_toward_box():
    # previous command far above v_max: rate box entirely outside -> the
    # rate-feasible endpoint nearest the absolute box (maximal braking)
    lo, hi = control_intervals(20.0, (-10.0, 10.0, -8.0 * 0.1, 5.0 * 0.1))
    assert lo == hi == pytest.approx(20.0 - 0.8)
    # the v and delta channels as the rows of one array, the second one
    # inside its box
    lo, hi = control_intervals(np.array([[20.0], [0.0]]),
                               (np.array([[-10.0], [-0.7]]), np.array([[10.0], [0.7]]),
                                np.array([[-0.8], [-0.1]]), np.array([[0.5], [0.1]])))
    assert lo[0, 0] == hi[0, 0] == pytest.approx(20.0 - 0.8)
    assert (lo[1, 0], hi[1, 0]) == (-0.1, 0.1)


def test_intersect_interval_plain_and_empty():
    assert intersect_interval(0.0, 1.0, 0.5, 2.0) == (0.5, 1.0)
    lo, hi = intersect_interval(0.0, 1.0, 2.0, 3.0)
    assert lo == hi == 1.0  # collapses to the endpoint nearest [2, 3]
    lo, hi = intersect_interval(0.0, 1.0, -3.0, -2.0)
    assert lo == hi == 0.0


# the two clip formulas that ``intersect_interval`` replaced, as they were
# written: the references its bits are pinned to

def _intersect_before(lo, hi, other_lo, other_hi):
    new_lo = np.maximum(lo, other_lo)
    new_hi = np.minimum(hi, other_hi)
    empty = new_lo > new_hi
    if np.count_nonzero(empty):
        nearest = np.where(hi < other_lo, hi, lo)
        new_lo = np.where(empty, nearest, new_lo)
        new_hi = np.where(empty, nearest, new_hi)
    return new_lo, new_hi


def _vvc_clip_before(v_min, v_max, lo_in, hi_in):
    return (np.minimum(v_max, np.maximum(v_min, lo_in)),
            np.minimum(v_max, np.maximum(v_min, hi_in)))


def _vvc_bounds_before(e_d, v_goal, v_min, v_max, cfg):
    far = (e_d >= cfg.r_thresh) | (cfg.mode == VVC_OFF)
    if cfg.mode == VVC_SPATIAL:
        frac = np.minimum(e_d, cfg.r_thresh) / cfg.r_thresh
        lo_in = v_goal + (v_min - v_goal) * frac
        hi_in = v_goal + (v_max - v_goal) * frac
    else:
        lo_in, hi_in = v_goal - cfg.margin, v_goal + cfg.margin
    lo_in, hi_in = _vvc_clip_before(v_min, v_max, lo_in, hi_in)
    return np.where(far, v_min, lo_in), np.where(far, v_max, hi_in)


_EDGES = (-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf)
# every box of the edges: signed-zero ties, degenerate boxes and ±inf
_BOXES = [(lo, hi) for lo in _EDGES for hi in _EDGES if lo <= hi]
# the other box also lies on either side of a box, or is a NaN distance's
_OTHERS = _BOXES + [(math.nan, math.nan)]


def _bits(pair):
    return np.array(pair).tobytes()


@pytest.mark.parametrize("reference", [_intersect_before, _vvc_clip_before])
def test_intersect_interval_keeps_the_bits_of_the_clips_it_replaced(reference):
    cases = np.array([box + other for box in _BOXES for other in _OTHERS]).T
    for case in cases.T:
        args = [np.float64(v) for v in case]
        assert _bits(intersect_interval(*args)) == _bits(reference(*args)), args
    # a lane per case: the empty lanes do not change the others' bits
    assert _bits(intersect_interval(*cases)) == _bits(reference(*cases))


@pytest.mark.parametrize("mode", [VVC_OFF, VVC_SPATIAL, VVC_CONSTANT])
@pytest.mark.parametrize("margin", [0.0, 2.0])
def test_vvc_bounds_keeps_the_bits_of_its_own_clip(mode, margin):
    cfg = VvcConfig(mode, r_thresh=5.0, margin=margin)
    e_d, v_goal = (a.ravel() for a in np.meshgrid(
        [0.0, 1.0, 2.5, 5.0, 9.0, math.inf, math.nan],
        _EDGES + (-20.0, -10.0, 0.5, 9.5, 20.0)))
    for v_min, v_max in _BOXES:
        v_min, v_max = np.float64(v_min), np.float64(v_max)
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf are NaN in both
            assert (_bits(vvc_bounds(e_d, v_goal, v_min, v_max, cfg))
                    == _bits(_vvc_bounds_before(e_d, v_goal, v_min, v_max, cfg)))


# -------------------------------------------------------------- step_bicycle

def test_bicycle_zero_velocity_fixed_point():
    s = VehicleState(1.0, 2.0, 0.5)
    n = step_bicycle(s, Control(0.0, 0.3), PAR)
    assert (n.x, n.y, n.psi) == (1.0, 2.0, 0.5)
    assert n.t == 1


def test_bicycle_straight_line_hand_value():
    s = VehicleState(0.0, 0.0, 0.0)
    n = step_bicycle(s, Control(1.0, 0.0), PAR)
    assert n.x == pytest.approx(0.01, abs=1e-12)
    assert n.y == 0.0 and n.psi == 0.0


def test_bicycle_unit_yaw_rate_hand_value():
    # v/l_f * tan(pi/4) = 3.5/3.5 * 1 = 1 rad/s -> psi' = 0.01 after 0.01 s
    s = VehicleState(0.0, 0.0, 0.0)
    lim_free = VehicleParams()
    n = step_bicycle(s, Control(3.5, math.pi / 4.0), lim_free)
    assert n.psi == pytest.approx(0.01, abs=1e-12)


def test_bicycle_single_step_oracle():
    # frozen full-state oracle: x=1, y=-2, psi=0.3, v=4, delta=0.2, Ts=0.01
    # x' = 1 + 0.04*cos(0.3), y' = -2 + 0.04*sin(0.3),
    # psi' = 0.3 + 0.01*(4/3.5)*tan(0.2)
    s = VehicleState(1.0, -2.0, 0.3)
    n = step_bicycle(s, Control(4.0, 0.2), PAR)
    assert abs(n.x - 1.0382134595650243) < 1e-12
    assert abs(n.y - (-1.9881791917335465)) < 1e-12
    assert abs(n.psi - 0.3023166861200991) < 1e-12
    assert n.v_prev == 4.0 and n.delta_prev == 0.2


def test_bicycle_straight_line_property():
    for psi in (-1.0, -0.3, 0.0, 0.4, 1.2):
        s = VehicleState(0.3, -0.7, psi)
        n = step_bicycle(s, Control(2.0, 0.0), PAR)
        assert n.y - s.y == pytest.approx(math.tan(psi) * (n.x - s.x), abs=1e-12)


def test_bicycle_heading_rate_bound():
    bound = PAR.Ts * LIM.v_max * math.tan(LIM.delta_max) / PAR.l_f
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.uniform(LIM.v_min, LIM.v_max)
        d = rng.uniform(LIM.delta_min, LIM.delta_max)
        s = VehicleState(0.0, 0.0, rng.uniform(-3, 3))
        n = step_bicycle(s, Control(v, d), PAR)
        assert abs(float(wrap_angle(n.psi - s.psi))) <= bound + 1e-12


def test_bicycle_deterministic():
    s = VehicleState(0.1, 0.2, 0.3)
    a = Control(1.5, 0.05)
    first = step_bicycle(s, a, PAR)
    second = step_bicycle(s, a, PAR)
    assert first == second


# --------------------------------------------------------------- crash_check

def test_crash_center_is_clear():
    assert not crash_check_arrays(np.zeros((2, 1)), PAR)[0]


def test_crash_outside_workspace():
    crash = crash_check_arrays(np.array([[101.0, 0.0], [0.0, -101.0]]), PAR)
    assert crash.tolist() == [True, True]


def test_crash_inside_obstacle():
    par = VehicleParams(obstacles=((1.0, 1.0, 2.0, 2.0),))
    crash = crash_check_arrays(np.array([[1.5, 0.5], [1.5, 0.5]]), par)
    assert crash.tolist() == [True, False]


# ------------------------------------------------------------- step_pendulum

def test_pendulum_upright_rest_is_fixed_point():
    s = PendulumState(0.0, 0.0, 0.0, 0.0)
    n = step_pendulum(s, 0.0, PEND)
    assert (n.p, n.p_dot, n.theta, n.theta_dot) == (0.0, 0.0, 0.0, 0.0)


def test_pendulum_hanging_rest_is_fixed_point():
    s = PendulumState(0.0, 0.0, math.pi, 0.0)
    n = step_pendulum(s, 0.0, PEND)
    # sin(pi) is ~1e-16 in floating point, so "unchanged" holds to rounding
    assert n.theta == math.pi
    assert n.theta_dot == pytest.approx(0.0, abs=1e-12)
    assert n.p == 0.0 and n.p_dot == pytest.approx(0.0, abs=1e-12)


def test_pendulum_single_step_oracle():
    # frozen hand oracle from upright rest with F = 10 N:
    # tmp       = 10 / 1.1
    # theta_acc = -tmp / (0.5 * (4/3 - 0.1/1.1)) = -14.634146341463415
    # p_acc     = tmp - 0.05 * theta_acc / 1.1   =  9.75609756097561
    p_acc, theta_acc = pendulum_accelerations(0.0, 0.0, 10.0, PEND)
    assert abs(theta_acc - (-14.634146341463415)) < 1e-12
    assert abs(p_acc - 9.75609756097561) < 1e-12
    n = step_pendulum(PendulumState(0.0, 0.0, 0.0, 0.0), 10.0, PEND)
    assert n.p == 0.0  # position integrates the old velocity
    assert abs(n.p_dot - 0.1951219512195122) < 1e-12
    assert n.theta == 0.0
    assert abs(n.theta_dot - (-0.29268292682926828)) < 1e-12


def test_pendulum_hanging_step_oracle():
    # from hanging rest (theta = pi) with F = 10 N the pole term flips sign:
    # tmp = 10/1.1, theta_acc = tmp / (0.5*(4/3 - 0.1/1.1)) = +14.634146341463415
    p_acc, theta_acc = pendulum_accelerations(math.pi, 0.0, 10.0, PEND)
    assert abs(theta_acc - 14.634146341463415) < 1e-12
    assert abs(p_acc - 9.75609756097561) < 1e-12


def test_pendulum_step_takes_python_scalars():
    # the kernels read their constants as 0-d arrays; Python floats still
    # go in, and the results equal the formulas in Python floats, bit for bit
    par = PendulumParams(m_cart=0.7, m_pole=0.3, half_length=0.4, Ts=0.05)
    theta, theta_dot, force = 2.5, -1.3, 4.0
    m_total = par.m_cart + par.m_pole
    ml = par.m_pole * par.half_length
    sin, cos = float(np.sin(theta)), float(np.cos(theta))
    tmp = (force + ml * theta_dot * theta_dot * sin) / m_total
    theta_acc = (par.g * sin - cos * tmp) / (
        par.half_length * (4.0 / 3.0 - par.m_pole * cos * cos / m_total))
    p_acc = tmp - ml * theta_acc * cos / m_total
    got = pendulum_accelerations(theta, theta_dot, force, par)
    assert [float(a) for a in got] == [p_acc, theta_acc]
    n = step_pendulum(PendulumState(0.1, 0.2, theta, theta_dot), force, par)
    assert (n.p, n.p_dot, n.theta_dot) == (0.1 + par.Ts * 0.2, 0.2 + par.Ts * p_acc,
                                           theta_dot + par.Ts * theta_acc)
    assert n.theta == theta + par.Ts * theta_dot
    for a in (-math.pi, 4.0, -7.5):
        w = wrap_angle(a)
        assert np.ndim(w) == 0
        assert float(w) == a - 2.0 * math.pi * math.ceil((a - math.pi) / (2.0 * math.pi))
    assert mirror_goal((1.0, 2.0, -math.pi, 3.0)) == (1.0, -2.0, math.pi, 3.0)


def pendulum_energy(s: PendulumState, params: PendulumParams) -> float:
    """Total mechanical energy (uniform-rod pole), the integration checks' oracle."""
    l = params.half_length
    vx = s.p_dot + l * s.theta_dot * math.cos(s.theta)
    vy = -l * s.theta_dot * math.sin(s.theta)
    i_cm = params.m_pole * l * l / 3.0
    kinetic = (0.5 * params.m_cart * s.p_dot ** 2
               + 0.5 * params.m_pole * (vx * vx + vy * vy)
               + 0.5 * i_cm * s.theta_dot ** 2)
    potential = params.m_pole * params.g * l * math.cos(s.theta)
    return kinetic + potential


def test_pendulum_energy_drift_halves_with_timestep():
    s = PendulumState(0.0, 0.3, 2.5, 0.4)
    e0 = pendulum_energy(s, PEND)

    def one_step_error(ts):
        par = PendulumParams(Ts=ts)
        return abs(pendulum_energy(step_pendulum(s, 0.0, par), par) - e0)

    # the one-step drift vanishes with the step size (at least first order;
    # measured decay is in fact quadratic)
    err_full = one_step_error(0.02)
    err_half = one_step_error(0.01)
    err_quarter = one_step_error(0.005)
    assert err_half <= 0.6 * err_full
    assert err_quarter <= 0.6 * err_half


# ------------------------------------------------------------- construction

def test_limits_reject_inverted_pairs():
    with pytest.raises(ValueError):
        ActuatorLimits(v_min=5.0, v_max=-5.0)


def test_params_reject_degenerate_workspace():
    with pytest.raises(ValueError):
        VehicleParams(workspace=(1.0, 0.0, -1.0, 2.0))
    with pytest.raises(ValueError):
        VehicleParams(Ts=0.0)
