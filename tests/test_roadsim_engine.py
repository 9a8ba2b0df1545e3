from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from avcalib.roadsim import (
    BehaviorSpec,
    Entrance,
    IdmParams,
    LaneChangeParams,
    Link,
    RoadNetwork,
    ScenarioConfig,
    Simulation,
    run_scenario,
)
from avcalib.roadsim.engine import KIND_SUBJECT

from test_roadsim_models import idm_equilibrium_gap


def corridor(
    lanes=1,
    length=3000.0,
    inputs=0.0,
    total=100.0,
    warmup=10.0,
    dt=0.1,
    seed=0,
    limit=72.0,
    idm=None,
    variation=0.0,
    entry_speed=None,
    subject_speed=50.0,
):
    net = RoadNetwork(
        links=(Link(id="A", length=length, lane_count=lanes, speed_limit=limit),),
        entrances=(Entrance(id="E1", link="A", entry_speed=entry_speed),),
        subject_route=("A",),
    )
    behavior = {
        "background": BehaviorSpec(idm or IdmParams(), LaneChangeParams()),
        "subject": BehaviorSpec(IdmParams(), LaneChangeParams()),
    }
    return ScenarioConfig(
        network=net,
        entrance_inputs={"E1": float(inputs)},
        behavior=behavior,
        subject_desired_speed=subject_speed,
        total_time=total,
        warmup_time=warmup,
        time_step=dt,
        speed_variation=variation,
        seed=seed,
    )


def test_empty_world_stays_empty():
    sim = Simulation(corridor(total=5.0, warmup=4.0))
    sim.step()
    # no inputs, before subject insertion
    assert sim.vehicles == [] or all(v.kind == KIND_SUBJECT for v in sim.vehicles)
    assert len(sim.log.frames[0]) == 0


def test_single_vehicle_at_desired_speed_advances_exactly():
    cfg = corridor(total=10.0, warmup=1.0, dt=0.1)
    sim = Simulation(cfg)
    p = IdmParams()  # the corridor's background model
    veh = sim.add_vehicle(pos=100.0, speed=p.v0)
    for _ in range(20):
        sim.step()
    frames = sim.log.frames

    def row(frame):
        return int(np.nonzero(frame.ids == veh.vid)[0][0])

    for a, b in zip(frames[:-1], frames[1:]):
        assert b.pos[row(b)] - a.pos[row(a)] == pytest.approx(p.v0 * 0.1, abs=1e-12)
        assert b.speed[row(b)] == pytest.approx(p.v0, abs=1e-12)


def test_two_vehicle_platoon_converges_to_oracle_gap():
    cfg = corridor(total=300.0, warmup=1.0, dt=0.1)
    sim = Simulation(cfg)
    p = IdmParams()  # the corridor's background model
    leader = sim.add_vehicle(pos=300.0, speed=15.0, fixed=True)
    follower = sim.add_vehicle(pos=200.0, speed=10.0)
    while sim.step_index < sim.n_steps and leader.pos < cfg.network.links[0].length - 200:
        sim.step()
    assert abs(follower.speed - 15.0) <= 0.01
    gap = leader.pos - follower.pos - cfg.vehicle_length
    assert gap == pytest.approx(idm_equilibrium_gap(p, 15.0), abs=0.05)


def test_five_vehicle_platoon_speed_convergence():
    cfg = corridor(total=300.0, warmup=1.0, dt=0.1, length=8000.0)
    sim = Simulation(cfg)
    sim.add_vehicle(pos=600.0, speed=15.0, fixed=True)
    for k in range(5):
        sim.add_vehicle(pos=500.0 - 60.0 * k, speed=0.0)
    while sim.step_index < sim.n_steps:
        sim.step()
    final = sim.log.frames[-1]
    platoon = final.kinds != KIND_SUBJECT
    assert platoon.sum() == 6
    assert np.all(np.abs(final.speed[platoon] - 15.0) <= 0.05)


def test_same_seed_gives_byte_identical_logs():
    cfg = corridor(inputs=900.0, total=60.0, warmup=10.0, dt=0.2, lanes=2, seed=7,
                   variation=0.1)
    a = run_scenario(cfg).to_csv()
    b = run_scenario(cfg).to_csv()
    assert a == b
    c = run_scenario(replace(cfg, seed=8)).to_csv()
    assert a != c


def test_zero_input_spawns_nothing():
    cfg = corridor(inputs=0.0, total=30.0, warmup=5.0)
    log = run_scenario(cfg)
    assert len(log.arrival_times["E1"]) == 0
    assert all(s.vehicle_id == 0 for s in log.spawns)  # only the subject


def test_arrival_counts_follow_poisson():
    # 200 seeded runs at 3600 pcu/h over 600 s; the count histogram must
    # pass a chi-square goodness-of-fit test against Poisson(600)
    counts = []
    for seed in range(200):
        cfg = corridor(inputs=3600.0, total=600.0, warmup=10.0, dt=5.0,
                       length=200.0, seed=seed)
        log = run_scenario(cfg)
        counts.append(len(log.arrival_times["E1"]))
    counts = np.asarray(counts)
    mean = 600.0
    edges = stats.poisson.ppf(np.linspace(0.1, 0.9, 9), mean)
    edges = np.unique(np.concatenate([[-np.inf], edges, [np.inf]]))
    observed, _ = np.histogram(counts, bins=edges)
    cdf = stats.poisson.cdf(edges[1:-1], mean)
    probs = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    expected = probs * len(counts)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    crit = stats.chi2.ppf(0.99, df=len(observed) - 1)
    assert chi2 < crit, (chi2, crit)


def test_interarrival_times_are_exponential():
    cfg = corridor(inputs=720.0, total=3000.0, warmup=10.0, dt=5.0, length=200.0, seed=3)
    log = run_scenario(cfg)
    times = np.asarray(log.arrival_times["E1"])
    gaps = np.diff(times)
    assert len(gaps) > 400
    result = stats.kstest(gaps, "expon", args=(0.0, 3600.0 / 720.0))
    assert result.pvalue > 0.01


def test_spawn_suppressed_when_entry_is_blocked():
    cfg = corridor(inputs=1800.0, total=30.0, warmup=5.0, dt=0.2, length=400.0)
    sim = Simulation(cfg)
    blocker = sim.add_vehicle(pos=4.0, speed=0.0, fixed=True)
    for _ in range(sim.n_steps):
        sim.step()
    spawned = [s for s in sim.log.spawns if s.vehicle_id != 0 and s.vehicle_id != blocker.vid]
    assert spawned == []
    assert len(sim.log.arrival_times["E1"]) > 5  # arrivals queued, not dropped


def test_doubling_inputs_does_not_decrease_density():
    lower, higher = [], []
    for seed in range(10):
        base = corridor(inputs=400.0, lanes=2, total=150.0, warmup=30.0, dt=0.2,
                        length=2000.0, seed=seed, variation=0.1)
        doubled = replace(base, entrance_inputs={"E1": 800.0})
        lower.append(run_scenario(base).mean_density())
        higher.append(run_scenario(doubled).mean_density())
    assert np.mean(higher) > np.mean(lower)
    assert sum(h >= l for h, l in zip(higher, lower)) >= 9


def test_no_collisions_at_moderate_demand():
    # 1000 pcu/h/lane with default behavior across ten seeds
    for seed in range(10):
        cfg = corridor(inputs=2000.0, lanes=2, total=200.0, warmup=50.0, dt=0.2,
                       length=2500.0, seed=seed, variation=0.1, entry_speed=55.0)
        log = run_scenario(cfg)
        assert log.collision_count == 0, f"seed {seed}"
        assert log.feasible


def test_gridlock_reported_as_infeasible_partial_log():
    cfg = corridor(inputs=1200.0, total=700.0, warmup=20.0, dt=0.5, length=300.0,
                   entry_speed=30.0, subject_speed=30.0)
    sim = Simulation(cfg)
    sim.add_vehicle(pos=280.0, speed=0.0, fixed=True)  # plug the exit
    log = sim.run()
    assert not log.feasible
    assert log.gridlock_at is not None
    assert log.frames[-1].time < cfg.total_time - cfg.time_step


def test_exactly_one_live_frame_when_total_is_warmup_plus_dt():
    cfg = corridor(total=50.1, warmup=50.0, dt=0.1)
    log = run_scenario(cfg)
    live = log.live_frames()
    assert len(live) == 1
    assert live[0].time == pytest.approx(50.0)


def test_subject_present_for_whole_live_horizon():
    cfg = corridor(inputs=400.0, lanes=2, total=120.0, warmup=30.0, dt=0.2,
                   length=3000.0, seed=2, subject_speed=50.0)
    log = run_scenario(cfg)
    for frame in log.live_frames():
        assert (frame.kinds == KIND_SUBJECT).sum() == 1


def test_state_invariants_hold_on_every_frame():
    cfg = corridor(inputs=1200.0, lanes=2, total=120.0, warmup=20.0, dt=0.2,
                   length=1500.0, seed=5, variation=0.15, entry_speed=50.0)
    log = run_scenario(cfg)
    length_by_idx = np.asarray(log.route_lengths)
    lanes_by_idx = np.asarray(log.route_lane_counts)
    vmax = 1.3 * 72.0 / 3.6
    for frame in log.frames:
        assert np.all(frame.speed >= 0.0)
        assert np.all(frame.pos >= 0.0)
        assert np.all(frame.pos <= length_by_idx[frame.link_idx] + 1e-9)
        assert np.all(frame.lanes >= 1)
        assert np.all(frame.lanes <= lanes_by_idx[frame.link_idx])
    # displacement bound between consecutive frames for persistent vehicles
    for a, b in zip(log.frames[:-1], log.frames[1:]):
        ids_a = {int(i): k for k, i in enumerate(a.ids)}
        for k, vid in enumerate(b.ids):
            j = ids_a.get(int(vid))
            if j is None:
                continue
            arc_a = a.pos[j] + np.sum(length_by_idx[: a.link_idx[j]])
            arc_b = b.pos[k] + np.sum(length_by_idx[: b.link_idx[k]])
            assert arc_b - arc_a <= vmax * cfg.time_step + 1e-6


def test_lane_changes_recorded_with_lateral_ramp():
    cfg = corridor(inputs=1400.0, lanes=2, total=150.0, warmup=20.0, dt=0.2,
                   length=2000.0, seed=11, variation=0.2, entry_speed=45.0)
    log = run_scenario(cfg)
    assert len(log.lane_changes) > 0
    # lateral offsets stay within half a lane width
    for frame in log.frames:
        assert np.all(np.abs(frame.lat) <= 3.5 / 2 + 1e-9)


def test_multi_link_transitions_and_despawn():
    net = RoadNetwork(
        links=(
            Link(id="A", length=300.0, lane_count=1, speed_limit=72.0, downstream="B"),
            Link(id="B", length=300.0, lane_count=1, speed_limit=72.0),
        ),
        entrances=(Entrance(id="E1", link="A"),),
        subject_route=("A", "B"),
    )
    cfg = ScenarioConfig(
        network=net,
        entrance_inputs={"E1": 600.0},
        behavior={"background": BehaviorSpec(IdmParams(), LaneChangeParams())},
        subject_desired_speed=60.0,
        total_time=60.0,
        warmup_time=30.0,
        time_step=0.2,
        speed_variation=0.0,
        seed=1,
    )
    log = run_scenario(cfg)
    assert len(log.despawns) > 0
    seen_links = {int(i) for f in log.frames for i in f.link_idx}
    assert seen_links == {0, 1}
