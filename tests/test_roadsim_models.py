import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avcalib.roadsim import (
    CHANGE_LEFT,
    CHANGE_RIGHT,
    STAY,
    DegenerateGapError,
    FvdParams,
    GippsParams,
    IdmParams,
    KraussParams,
    LaneChangeParams,
    NeighborView,
    W99Params,
    car_following_acceleration,
    lane_change_decision,
)

ALL_MODELS = [
    IdmParams(),
    GippsParams(),
    FvdParams(),
    KraussParams(),
    W99Params(),
]


def idm_equilibrium_gap(p: IdmParams, v: float, tol=1e-12) -> float:
    """Bisection on the model equation for the gap where acceleration is
    zero at equal speeds; independent of the simulator code path."""
    def a_of(gap):
        s_star = p.s0 + v * p.T
        return p.a_max * (1.0 - (v / p.v0) ** p.delta - (s_star / gap) ** 2)

    lo, hi = p.s0 * 1e-6, 10.0 * (p.s0 + v * p.T)
    assert a_of(lo) < 0 < a_of(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if a_of(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# IDM


def test_idm_standing_start_free_flow_gives_max_acceleration():
    p = IdmParams()
    assert car_following_acceleration(p, 0.0, None, 0.1) == pytest.approx(p.a_max)


def test_idm_at_desired_speed_free_flow_gives_zero():
    p = IdmParams()
    assert car_following_acceleration(p, p.v0, None, 0.1) == pytest.approx(0.0, abs=1e-12)


def test_idm_free_flow_strictly_positive_below_desired():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = IdmParams(
            a_max=float(rng.uniform(0.5, 3.0)),
            b=float(rng.uniform(0.5, 4.0)),
            T=float(rng.uniform(0.5, 2.5)),
            s0=float(rng.uniform(0.5, 4.0)),
            delta=float(rng.uniform(1.0, 6.0)),
            v0=float(rng.uniform(10.0, 35.0)),
        )
        v = float(rng.uniform(0.0, p.v0 * 0.999))
        assert car_following_acceleration(p, v, None, 0.1) > 0.0


def test_idm_equilibrium_gap_matches_bisection_oracle():
    p = IdmParams()
    v = 15.0
    s_eq = idm_equilibrium_gap(p, v)
    a = car_following_acceleration(p, v, (s_eq, v), 0.1)
    assert abs(a) < 1e-9


def test_non_positive_gap_is_a_degenerate_input():
    for model in ALL_MODELS:
        with pytest.raises(DegenerateGapError):
            car_following_acceleration(model, 10.0, (0.0, 5.0), 0.1, desired_speed=20.0)
        with pytest.raises(DegenerateGapError):
            car_following_acceleration(model, 10.0, (-3.0, 5.0), 0.1, desired_speed=20.0)


def test_acceleration_never_brakes_below_zero_speed():
    rng = np.random.default_rng(6)
    dt = 0.1
    for model in ALL_MODELS:
        for _ in range(100):
            v = float(rng.uniform(0, 30))
            gap = float(rng.uniform(0.2, 120.0))
            vl = float(rng.uniform(0, 30))
            a = car_following_acceleration(model, v, (gap, vl), dt, desired_speed=25.0)
            assert math.isfinite(a)
            assert v + a * dt >= -1e-12


# ---------------------------------------------------------------------------
# the other model families


@pytest.mark.parametrize("model", ALL_MODELS)
def test_free_flow_acceleration_non_negative_below_desired(model):
    for v in (0.0, 5.0, 12.0, 19.0):
        a = car_following_acceleration(model, v, None, 0.1, desired_speed=20.0)
        assert a >= 0.0


@pytest.mark.parametrize("model", ALL_MODELS)
def test_strong_braking_when_fast_behind_slow_close_leader(model):
    a = car_following_acceleration(model, 20.0, (6.0, 2.0), 0.1, desired_speed=25.0)
    assert a < -0.5


@pytest.mark.parametrize("model", ALL_MODELS)
def test_one_step_never_overruns_a_stopped_leader(model):
    dt = 0.1
    for gap in (0.3, 1.0, 3.0):
        a = car_following_acceleration(model, 0.0, (gap, 0.0), dt, desired_speed=20.0)
        v_new = max(0.0, 0.0 + a * dt)
        assert v_new * dt < gap


def test_w99_needs_a_desired_speed():
    with pytest.raises(ValueError):
        car_following_acceleration(W99Params(), 10.0, None, 0.1)


def test_w99_free_acceleration_ramp():
    p = W99Params()
    a0 = car_following_acceleration(p, 0.0, None, 0.1, desired_speed=30.0)
    a_mid = car_following_acceleration(p, 10.0, None, 0.1, desired_speed=30.0)
    assert a0 == pytest.approx(p.cc8)
    assert p.cc9 <= a_mid <= p.cc8


def test_model_desired_speeds():
    assert IdmParams(v0=21.0).desired_speed == 21.0
    assert GippsParams(v_desired=23.0).desired_speed == 23.0
    assert FvdParams(v0=19.0).desired_speed == 19.0
    assert KraussParams(v_max=24.0).desired_speed == 24.0
    assert W99Params().desired_speed is None


def test_model_spawn_gaps():
    assert IdmParams(s0=2.5).spawn_gap == 2.5
    assert FvdParams(b_len=7.0).spawn_gap == 7.0
    assert W99Params(cc0=1.2).spawn_gap == 1.2
    assert GippsParams().spawn_gap == 2.0
    assert KraussParams().spawn_gap == 2.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        IdmParams(T=0.0)
    with pytest.raises(ValueError):
        GippsParams(decel_max=1.0)
    with pytest.raises(ValueError):
        FvdParams(sc=3.0, b_len=5.0)
    with pytest.raises(ValueError):
        LaneChangeParams(safe_dist_reduction=1.5)
    with pytest.raises(ValueError):
        LaneChangeParams(max_decel_trailing=2.0)


# ---------------------------------------------------------------------------
# lane-change decision


CF = IdmParams()
LC = LaneChangeParams()


def test_blocked_by_slow_leader_with_empty_target_changes():
    decision = lane_change_decision(
        15.0,
        a_current=car_following_acceleration(CF, 15.0, (8.0, 5.0)),
        left=NeighborView(),  # empty lane
        right=None,
        params=LC,
        cf_model=CF,
    )
    assert decision == CHANGE_LEFT


def test_close_fast_rear_vehicle_blocks_change():
    decision = lane_change_decision(
        15.0,
        a_current=car_following_acceleration(CF, 15.0, (8.0, 5.0)),
        left=NeighborView(follower=(1.0, 20.0)),
        right=None,
        params=LC,
        cf_model=CF,
    )
    assert decision == STAY


def test_symmetric_conditions_stay():
    same = NeighborView(leader=(40.0, 15.0), follower=(40.0, 15.0))
    decision = lane_change_decision(
        15.0,
        a_current=car_following_acceleration(CF, 15.0, (40.0, 15.0)),
        left=same,
        right=same,
        params=LC,
        cf_model=CF,
    )
    assert decision == STAY


def test_right_preferred_on_equal_advantage():
    empty = NeighborView()
    decision = lane_change_decision(
        15.0,
        a_current=car_following_acceleration(CF, 15.0, (8.0, 5.0)),
        left=empty,
        right=empty,
        params=LC,
        cf_model=CF,
    )
    assert decision == CHANGE_RIGHT


def test_absent_neighbors_mean_infinite_gaps():
    decision = lane_change_decision(
        15.0,
        a_current=car_following_acceleration(CF, 15.0, (8.0, 5.0)),
        left=NeighborView(leader=None, follower=None),
        right=None,
        params=LC,
        cf_model=CF,
    )
    assert decision == CHANGE_LEFT


def test_trailing_decel_bound_respected():
    # follower approaching fast: the induced braking exceeds the bound
    strict = LaneChangeParams(max_decel_trailing=-0.5)
    decision = lane_change_decision(
        15.0,
        a_current=car_following_acceleration(CF, 15.0, (8.0, 5.0)),
        left=NeighborView(follower=(12.0, 24.0)),
        right=None,
        params=strict,
        cf_model=CF,
    )
    assert decision == STAY


def test_insufficient_advantage_stays():
    slightly_better = NeighborView(leader=(42.0, 15.0))
    decision = lane_change_decision(
        15.0,
        a_current=car_following_acceleration(CF, 15.0, (40.0, 15.0)),
        left=slightly_better,
        right=None,
        params=LC,
        cf_model=CF,
    )
    assert decision == STAY


# ---------------------------------------------------------------------------
# max_free_accel: the bound behind the engine's lane-change side-scan skip


@settings(max_examples=400, deadline=None)
@given(
    # a W99 driver whose following oscillation cc7 exceeds its free
    # acceleration: its bound must cover the following regime
    model=st.sampled_from(ALL_MODELS + [W99Params(cc7=4.0)]),
    v=st.floats(0.0, 45.0),
    gap=st.floats(0.01, 400.0),
    v_leader=st.floats(0.0, 45.0),
    leader_accel=st.floats(-10.0, 5.0),
    prev_accel=st.floats(-10.0, 5.0),
    v_des=st.floats(0.5, 45.0),
    dt=st.floats(0.01, 1.0),
)
@example(  # W99's following regime after a positive prev_accel: +cc7
    model=W99Params(cc7=4.0), v=10.0, gap=12.0, v_leader=10.0, leader_accel=0.0,
    prev_accel=1.0, v_des=20.0, dt=0.1,
)
def test_max_free_accel_bounds_every_leader(
    model, v, gap, v_leader, leader_accel, prev_accel, v_des, dt
):
    bound = max(model.max_free_accel(v, v_des, dt), -v / dt)
    a = car_following_acceleration(
        model, v, (gap, v_leader), dt, desired_speed=v_des, leader_accel=leader_accel,
        prev_accel=prev_accel,
    )
    assert a <= bound



_POSITIVE = st.floats(0.05, 10.0)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(0.0, 45.0),                          # v
            st.one_of(st.none(), st.floats(0.05, 300.0)),  # gap, None: free road
            st.floats(0.0, 45.0),                          # v_leader
            st.floats(1.0, 45.0),                          # v_des
            st.builds(
                IdmParams, a_max=_POSITIVE, b=_POSITIVE, T=st.floats(0.2, 3.0),
                s0=_POSITIVE, delta=st.floats(1.0, 8.0), v0=st.floats(1.0, 45.0),
            ),
        ),
        min_size=1, max_size=40,
    ),
)
@example(rows=[(18.477, 7.114, 12.484, 19.4, IdmParams(T=1.44, s0=2.4, v0=19.4))])
def test_idm_rows_equal_the_scalar_accel_bit_for_bit(rows):
    # the array form the engine uses against IdmParams.accel, element by
    # element, including the squaring where x * x differs from pow(x, 2);
    # its free-road term against max_free_accel, the lane-change skip's bound
    v, gap, v_leader, v_des, models = zip(*rows)
    terms = tuple(np.asarray(column) for column in zip(*(m._terms for m in models)))
    got, free = IdmParams.accel_rows(
        terms, np.asarray(v), np.asarray([math.inf if g is None else g for g in gap]),
        np.asarray(v_leader), np.asarray(v_des),
    )
    expected = [m.accel(*args, 0.0, 0.0, 0.1) for m, *args in zip(models, v, gap, v_leader, v_des)]
    assert got.tobytes() == np.asarray(expected).tobytes()
    bounds = [m.max_free_accel(speed, d, 0.1) for m, speed, d in zip(models, v, v_des)]
    assert free.tobytes() == np.asarray(bounds).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    bases=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=64),
    exponents=st.one_of(st.just(2.0), st.floats(1.0, 8.0)),
)
@example(bases=[0.0, 5e-324, 2.2250738585072014e-308, 1e6], exponents=2.0)
@example(bases=[0.0, 5e-324, 2.2250738585072014e-308, 1e6], exponents=8.0)
@example(bases=[18.477 * 1.44 / 7.114], exponents=2.0)  # x * x is not pow(x, 2) near here
def test_float_power_is_libm_pow_bit_for_bit(bases, exponents):
    # accel_rows' powers: np.float_power must stay the C library's pow, as
    # math.pow and ** are, on the engine's domain (a ratio or a gap ratio to
    # a power of 1 to 8), at any array length, with an array of exponents
    # and with the scalar 2.0; np.power, which has vector loops, is not
    x = np.asarray(bases)
    expected = np.asarray([math.pow(b, exponents) for b in bases])
    assert np.float_power(x, exponents).tobytes() == expected.tobytes()
    assert np.float_power(x, np.full(len(x), exponents)).tobytes() == expected.tobytes()
