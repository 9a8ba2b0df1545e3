import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avcalib.demo import showcase_scenario
from avcalib.roadsim import (
    BehaviorSpec,
    Entrance,
    FvdParams,
    GippsParams,
    IdmParams,
    KraussParams,
    LaneChangeParams,
    Link,
    RoadNetwork,
    ScenarioConfig,
    Simulation,
    W99Params,
    scenario_from_dict,
    scenario_to_dict,
)

import scalar_models

ALL_MODELS = [
    IdmParams(),
    GippsParams(),
    FvdParams(),
    KraussParams(),
    W99Params(),
]


def cf_rows(model, speed, leader=None, dt=0.1, desired_speed=None, leader_accel=0.0,
            prev_accel=0.0):
    """`model`'s ``accel_rows`` on one vehicle at `speed` behind `leader`,
    (bumper gap, speed) or None for free flow: its acceleration, unclamped,
    and its bound ``free``."""
    gap, v_leader = (math.inf, 0.0) if leader is None else leader
    v_des = model.desired_speed(math.inf) if desired_speed is None else desired_speed
    a, free = type(model).accel_rows(
        np.asarray(model.terms)[:, None],
        *(np.asarray([float(x)]) for x in (speed, gap, v_leader, v_des, prev_accel, leader_accel)),
        dt,
    )
    return a.item(), free.item()


def cf_accel(model, speed, leader=None, dt=0.1, **kwargs):
    """``cf_rows``' acceleration with the engine's clamp at -speed / dt."""
    return max(cf_rows(model, speed, leader, dt, **kwargs)[0], -speed / dt)


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
    assert cf_accel(p, 0.0, None, 0.1) == pytest.approx(p.a_max)


def test_idm_at_desired_speed_free_flow_gives_zero():
    p = IdmParams()
    assert cf_accel(p, p.v0, None, 0.1) == pytest.approx(0.0, abs=1e-12)


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
        assert cf_accel(p, v, None, 0.1) > 0.0


def test_idm_equilibrium_gap_matches_bisection_oracle():
    p = IdmParams()
    v = 15.0
    s_eq = idm_equilibrium_gap(p, v)
    a = cf_accel(p, v, (s_eq, v), 0.1)
    assert abs(a) < 1e-9


def test_acceleration_never_brakes_below_zero_speed():
    rng = np.random.default_rng(6)
    dt = 0.1
    for model in ALL_MODELS:
        for _ in range(100):
            v = float(rng.uniform(0, 30))
            gap = float(rng.uniform(0.2, 120.0))
            vl = float(rng.uniform(0, 30))
            a = cf_accel(model, v, (gap, vl), dt, desired_speed=25.0)
            assert math.isfinite(a)
            assert v + a * dt >= -1e-12


# ---------------------------------------------------------------------------
# the other model families


@pytest.mark.parametrize("model", ALL_MODELS)
def test_free_flow_acceleration_non_negative_below_desired(model):
    for v in (0.0, 5.0, 12.0, 19.0):
        a = cf_accel(model, v, None, 0.1, desired_speed=20.0)
        assert a >= 0.0


@pytest.mark.parametrize("model", ALL_MODELS)
def test_strong_braking_when_fast_behind_slow_close_leader(model):
    a = cf_accel(model, 20.0, (6.0, 2.0), 0.1, desired_speed=25.0)
    assert a < -0.5


@pytest.mark.parametrize("model", ALL_MODELS)
def test_one_step_never_overruns_a_stopped_leader(model):
    dt = 0.1
    for gap in (0.3, 1.0, 3.0):
        a = cf_accel(model, 0.0, (gap, 0.0), dt, desired_speed=20.0)
        v_new = max(0.0, 0.0 + a * dt)
        assert v_new * dt < gap


def test_w99_free_acceleration_ramp():
    p = W99Params()
    a0 = cf_accel(p, 0.0, None, 0.1, desired_speed=30.0)
    a_mid = cf_accel(p, 10.0, None, 0.1, desired_speed=30.0)
    assert a0 == pytest.approx(p.cc8)
    assert p.cc9 <= a_mid <= p.cc8


def test_model_desired_speeds():
    assert IdmParams(v0=21.0).desired_speed(30.0) == 21.0
    assert GippsParams(v_desired=23.0).desired_speed(30.0) == 23.0
    assert FvdParams(v0=19.0).desired_speed(30.0) == 19.0
    assert KraussParams(v_max=24.0).desired_speed(30.0) == 24.0
    assert W99Params().desired_speed(30.0) == 30.0  # the link speed limit


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


@pytest.mark.parametrize("make, field", [
    (lambda x: IdmParams(T=x), "IdmParams.T"),
    (lambda x: IdmParams(v0=x), "IdmParams.v0"),
    (lambda x: GippsParams(decel_max=x), "GippsParams.decel_max"),
    (lambda x: W99Params(cc3=x), "W99Params.cc3"),
    (lambda x: W99Params(cc5=x), "W99Params.cc5"),
    (lambda x: LaneChangeParams(advantage_threshold=x), "LaneChangeParams.advantage_threshold"),
    (lambda x: LaneChangeParams(max_decel_own=x), "LaneChangeParams.max_decel_own"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make(value)


def test_scenario_with_a_nan_parameter_is_rejected_at_load():
    # json reads NaN, and a model must not take it
    d = json.loads(json.dumps(scenario_to_dict(showcase_scenario(0))))
    d["behavior"]["background"]["car_following"]["T"] = json.loads("NaN")
    with pytest.raises(ValueError, match="IdmParams.T"):
        scenario_from_dict(d)


# ---------------------------------------------------------------------------
# lane-change decision


CF = IdmParams()
LC = LaneChangeParams()


def advantage(leader=None, current=(8.0, 5.0), speed=15.0):
    """The acceleration advantage of a side with `leader` (None for none) for
    a vehicle at `speed` behind `current` in its own lane."""
    return cf_accel(CF, speed, leader) - cf_accel(CF, speed, current)


def test_blocked_by_slow_leader_with_empty_target_changes():
    assert LC.accepts(15.0, advantage(), None, None)


def test_close_fast_rear_vehicle_blocks_change():
    assert not LC.accepts(15.0, advantage(), None, (1.0, 20.0))


def test_close_or_much_slower_target_leader_blocks_change():
    # the front margin is 2.0 * 0.6 = 1.2 m; 10 m behind a vehicle 10 m/s
    # slower the changer would need -5.7 m/s^2, beyond max_decel_own
    assert LC.accepts(15.0, 1.0, (10.0, 15.0), None)
    assert not LC.accepts(15.0, 1.0, (1.0, 15.0), None)
    assert not LC.accepts(15.0, 1.0, (10.0, 5.0), None)
    assert LaneChangeParams(max_decel_own=-6.0).accepts(15.0, 1.0, (10.0, 5.0), None)


def test_symmetric_conditions_stay():
    same = (40.0, 15.0)
    assert not LC.accepts(15.0, advantage(same, current=same), same, same)


def test_absent_neighbors_mean_infinite_gaps():
    # None stands for a vehicle too far away to matter, ahead or behind
    assert LC.accepts(15.0, advantage(), None, None)
    assert LC.accepts(15.0, advantage(), (1e9, 0.0), (1e9, 30.0))


def test_trailing_decel_bound_respected():
    # follower approaching fast: the induced braking (-3.75 m/s^2) exceeds
    # the bound
    fast = (12.0, 24.0)
    assert not LaneChangeParams(max_decel_trailing=-0.5).accepts(15.0, advantage(), None, fast)
    assert LaneChangeParams(max_decel_trailing=-4.0).accepts(15.0, advantage(), None, fast)


def test_insufficient_advantage_stays():
    slightly_better = (42.0, 15.0)
    assert not LC.accepts(15.0, advantage(slightly_better, current=(40.0, 15.0)),
                          slightly_better, None)


def first_step_lane_changes(ahead):
    """The target lanes of the changes started on the first step by a
    vehicle at 15 m/s, 8 m behind a fixed vehicle at 5 m/s in the middle of
    three lanes, when each side lane is empty but for a fixed vehicle at
    15 m/s `ahead[lane]` m ahead."""
    net = RoadNetwork(
        links=(Link(id="A", length=1000.0, lane_count=3, speed_limit=72.0),),
        entrances=(Entrance(id="E1", link="A"),),
        subject_route=("A",),
    )
    cfg = ScenarioConfig(
        network=net, entrance_inputs={"E1": 0.0},
        behavior={"background": BehaviorSpec(CF, LC)},
        total_time=10.0, warmup_time=9.0, time_step=0.1,
    )
    sim = Simulation([cfg])
    length = cfg.vehicle_length
    changer = sim.add_vehicle(lane=2, pos=100.0, speed=15.0)
    sim.add_vehicle(lane=2, pos=100.0 + length + 8.0, speed=5.0, fixed=True)
    for lane, gap in ahead.items():
        sim.add_vehicle(lane=lane, pos=100.0 + length + gap, speed=15.0, fixed=True)
    sim.step()
    return [lc.to_lane for lc in sim.logs[0].lane_changes if lc.vehicle_id == changer]


def test_right_preferred_on_equal_advantage():
    assert first_step_lane_changes({}) == [1]
    assert first_step_lane_changes({1: 60.0, 3: 60.0}) == [1]


def test_larger_advantage_wins():
    # both sides pay off, and the one with the farther leader pays more
    assert LC.accepts(15.0, advantage((60.0, 15.0)), (60.0, 15.0), None)
    assert first_step_lane_changes({1: 60.0}) == [3]
    assert first_step_lane_changes({3: 60.0}) == [1]


# ---------------------------------------------------------------------------
# accel_rows: each family against its scalar rule (tests/scalar_models.py)


def rows_match_the_scalar_rule(rows, dt):
    """``accel_rows`` of one family on `rows`, each (model, v, gap or None,
    v_leader, v_des, prev_accel, leader_accel), equals the scalar ``accel``
    and ``max_free_accel`` row by row, bit for bit, with no floating-point
    warning."""
    models, v, gap, v_leader, v_des, prev_accel, leader_accel = zip(*rows)
    (cls,) = {type(m) for m in models}
    columns = [np.asarray(c) for c in (
        v, [math.inf if g is None else g for g in gap], v_leader, v_des, prev_accel, leader_accel,
    )]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        got, free = cls.accel_rows(np.asarray([m.terms for m in models]).T, *columns, dt)
    expected = [scalar_models.accel(*row, dt) for row in rows]
    assert got.tobytes() == np.asarray(expected).tobytes()
    bounds = [scalar_models.max_free_accel(m, speed, d, dt) for m, speed, d in zip(models, v, v_des)]
    assert free.tobytes() == np.asarray(bounds).tobytes()


_SPEED = st.floats(0.0, 45.0)
_POSITIVE = st.floats(0.05, 10.0)
_DT = st.floats(0.01, 1.0)


def family_rows(models):
    """Rows for ``rows_match_the_scalar_rule``, their models drawn from
    `models`."""
    return st.lists(
        st.tuples(
            models, _SPEED,
            st.one_of(st.none(), st.floats(0.01, 400.0)),  # gap, None: free road
            _SPEED, st.floats(0.5, 45.0),                  # v_leader, v_des
            st.floats(-10.0, 5.0), st.floats(-10.0, 5.0),  # prev_accel, leader_accel
        ),
        min_size=1, max_size=40,
    )


@settings(max_examples=200, deadline=None)
@given(
    rows=family_rows(st.builds(
        IdmParams, a_max=_POSITIVE, b=_POSITIVE, T=st.floats(0.2, 3.0), s0=_POSITIVE,
        delta=st.floats(1.0, 8.0), v0=st.floats(1.0, 45.0),
    )),
    dt=_DT,
)
# x * x is not pow(x, 2) near this gap ratio
@example(rows=[(IdmParams(T=1.44, s0=2.4, v0=19.4), 18.477, 7.114, 12.484, 19.4, 0.0, 0.0)],
         dt=0.1)
@example(rows=[  # s_dyn at 0: from rest, and behind a leader faster by T * 2 sqrt(ab);
    # at v_des with no leader
    (IdmParams(), 0.0, 10.0, 5.0, 20.0, 0.0, 0.0),
    (IdmParams(a_max=1.0, b=1.0, T=1.0), 2.0, 10.0, 4.0, 20.0, 0.0, 0.0),
    (IdmParams(), 22.2, None, 0.0, 22.2, 0.0, 0.0),
], dt=0.1)
def test_idm_rows_equal_the_scalar_accel_bit_for_bit(rows, dt):
    rows_match_the_scalar_rule(rows, dt)


GIPPS_EXACT = GippsParams(decel_max=-2.0, leader_eff_length=4.5, leader_decel_est=-2.0, tau=0.5)


@settings(max_examples=200, deadline=None)
@given(
    rows=family_rows(st.builds(
        GippsParams, accel_max=_POSITIVE, decel_max=st.floats(-8.0, -0.5),
        leader_eff_length=st.floats(3.0, 10.0), leader_decel_est=st.floats(-8.0, -0.5),
        v_desired=st.floats(1.0, 45.0), tau=st.floats(0.2, 2.0),
    )),
    dt=_DT,
)
@example(rows=[  # under exactly 0 and just above it; at v_des (ratio 1) and above it,
    # where the cap on the ratio keeps v_acc at v; v_safe below 0
    (GIPPS_EXACT, 2.0, 0.25, 0.0, 20.0, 0.0, 0.0),
    (GIPPS_EXACT, 2.0, 0.25000000000000006, 0.0, 20.0, 0.0, 0.0),
    (GippsParams(), 22.2, 80.0, 22.2, 22.2, 0.0, 0.0),
    (GippsParams(), 1.0, None, 0.0, 0.5, 0.0, 0.0),
    (GippsParams(), 30.0, 2.5, 0.0, 22.2, 0.0, 0.0),
], dt=0.1)
def test_gipps_rows_equal_the_scalar_accel_bit_for_bit(rows, dt):
    rows_match_the_scalar_rule(rows, dt)


@settings(max_examples=200, deadline=None)
@given(
    rows=family_rows(st.builds(
        FvdParams, alpha=st.floats(0.05, 2.0), lambda0=st.floats(0.05, 2.0),
        v0=st.floats(1.0, 45.0), b_len=st.floats(1.0, 10.0), beta=st.floats(0.5, 4.0),
        sc=st.floats(11.0, 120.0),
    )),
    dt=_DT,
)
@example(rows=[  # the gap at b_len, on the ramp, at sc, beyond it, and none; v_des > v0
    (FvdParams(), 10.0, 6.0, 8.0, 30.0, 0.0, 0.0),
    (FvdParams(), 10.0, 30.0, 8.0, 30.0, 0.0, 0.0),
    (FvdParams(), 10.0, 60.0, 8.0, 30.0, 0.0, 0.0),
    (FvdParams(), 10.0, 90.0, 8.0, 30.0, 0.0, 0.0),
    (FvdParams(), 10.0, None, 8.0, 30.0, 0.0, 0.0),
], dt=0.1)
def test_fvd_rows_equal_the_scalar_accel_bit_for_bit(rows, dt):
    rows_match_the_scalar_rule(rows, dt)


@settings(max_examples=200, deadline=None)
@given(
    rows=family_rows(st.builds(
        KraussParams, a=_POSITIVE, b=_POSITIVE, tau=st.floats(0.2, 2.0),
        v_max=st.floats(1.0, 45.0),
    )),
    dt=_DT,
)
@example(rows=[  # v_mean at its floor 0.1 and below it; v_safe below 0; v_max under v_des
    (KraussParams(), 0.1, 0.05, 0.1, 22.2, 0.0, 0.0),
    (KraussParams(), 0.0, 0.05, 0.0, 22.2, 0.0, 0.0),
    (KraussParams(), 20.0, 0.5, 0.0, 22.2, 0.0, 0.0),
    (KraussParams(v_max=15.0), 14.95, None, 0.0, 22.2, 0.0, 0.0),
], dt=0.1)
def test_krauss_rows_equal_the_scalar_accel_bit_for_bit(rows, dt):
    rows_match_the_scalar_rule(rows, dt)


W99_BOUNDARIES = [
    # emergency: at dx = sdxc = cc0 behind a leader at rest, from rest, at
    # dv = 0, and beyond cc0 at dv < 0
    (W99Params(), 5.0, 1.5, 0.0, 20.0, 0.0, -1.0),
    (W99Params(), 0.0, 1.0, 0.0, 20.0, 0.0, 0.0),
    (W99Params(), 5.0, 3.0, 5.0, 20.0, 0.0, 0.0),
    (W99Params(), 10.0, 3.0, 5.0, 20.0, 0.0, 0.5),
    # approaching: beyond sdxc, and within it, which needs cc4 > cc5
    (W99Params(), 20.0, 30.0, 10.0, 25.0, 0.0, 0.0),
    (W99Params(cc4=1.0, cc5=-1.0), 5.0, 3.0, 5.0, 20.0, 0.0, 0.0),
    # following: after prev_accel 0 and > 0, below and at v_des
    (W99Params(), 10.0, 12.0, 10.0, 20.0, 0.0, 0.0),
    (W99Params(), 10.0, 12.0, 10.0, 20.0, 1.0, 0.0),
    (W99Params(), 10.0, 12.0, 10.0, 10.0, 1.0, 0.0),
    # free: at dx = sdxo, inside sdxo with the ramp above cc7, no leader at
    # v_des
    (W99Params(), 10.0, 14.5, 10.0, 20.0, 0.0, 0.0),
    (W99Params(), 10.0, 14.0, 12.0, 20.0, 0.0, 0.0),
    (W99Params(), 20.0, None, 0.0, 20.0, 0.0, 0.0),
    # v_leader at 0.01, v at cc5
    (W99Params(), 5.0, 8.0, 0.01, 20.0, 0.0, 0.0),
    (W99Params(), 0.35, 8.0, 1.0, 20.0, 0.0, 0.0),
]


@settings(max_examples=300, deadline=None)
@given(
    rows=family_rows(st.builds(
        W99Params, cc0=st.floats(0.5, 3.0), cc1=st.floats(0.3, 2.0), cc2=st.floats(0.5, 8.0),
        cc3=st.floats(-15.0, 0.0), cc4=st.floats(-2.0, 2.0), cc5=st.floats(-2.0, 2.0),
        cc6=st.floats(1e-5, 1e-2), cc7=st.floats(0.05, 4.0), cc8=st.floats(0.5, 5.0),
        cc9=st.floats(0.5, 3.0),
    )),
    dt=_DT,
)
@example(rows=W99_BOUNDARIES, dt=0.1)
def test_w99_rows_equal_the_scalar_accel_bit_for_bit(rows, dt):
    rows_match_the_scalar_rule(rows, dt)


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
def test_free_bounds_every_leader(model, v, gap, v_leader, leader_accel, prev_accel, v_des, dt):
    # the bound behind the engine's lane-change side-scan skip
    a, free = cf_rows(
        model, v, (gap, v_leader), dt, desired_speed=v_des, leader_accel=leader_accel,
        prev_accel=prev_accel,
    )
    assert max(a, -v / dt) <= max(free, -v / dt)


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
