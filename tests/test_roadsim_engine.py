import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from avcalib.demo import showcase_scenario
from avcalib.detection import DetectionRecord, SurroundingObs
from avcalib.roadsim import (
    BehaviorSpec,
    Entrance,
    IdmParams,
    LaneChangeParams,
    Link,
    RoadNetwork,
    ScenarioConfig,
    Simulation,
    VirtualDetector,
    record_frame,
    run_batch,
    run_scenario,
    virtual_detector_sample,
)
from avcalib.roadsim import engine
from avcalib.roadsim.engine import (
    KIND_SUBJECT,
    LANE_WIDTH,
    LC_DURATION,
    LOOKAHEAD_LINKS,
    heading_deg,
)
from avcalib.roadsim.network import KMH
from avcalib.roadsim.models import MODEL_CLASSES

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
        "subject": BehaviorSpec(IdmParams(v0=subject_speed * KMH), LaneChangeParams()),
    }
    return ScenarioConfig(
        network=net,
        entrance_inputs={"E1": float(inputs)},
        behavior=behavior,
        total_time=total,
        warmup_time=warmup,
        time_step=dt,
        speed_variation=variation,
        seed=seed,
    )


def test_empty_world_stays_empty():
    sim = Simulation([corridor(total=5.0, warmup=4.0)])
    sim.step()
    # no inputs, before subject insertion
    assert all(kind == KIND_SUBJECT for kind in sim.kind.tolist())
    assert len(sim.logs[0].frames[0]) == 0


def test_single_vehicle_at_desired_speed_advances_exactly():
    cfg = corridor(total=10.0, warmup=1.0, dt=0.1)
    sim = Simulation([cfg])
    p = IdmParams()  # the corridor's background model
    veh = sim.add_vehicle(pos=100.0, speed=p.v0)
    for _ in range(20):
        sim.step()
    frames = sim.logs[0].frames

    def row(frame):
        return int(np.nonzero(frame.ids == veh)[0][0])

    for a, b in zip(frames[:-1], frames[1:]):
        assert b.pos[row(b)] - a.pos[row(a)] == pytest.approx(p.v0 * 0.1, abs=1e-12)
        assert b.speed[row(b)] == pytest.approx(p.v0, abs=1e-12)


def test_two_vehicle_platoon_converges_to_oracle_gap():
    cfg = corridor(total=300.0, warmup=1.0, dt=0.1)
    sim = Simulation([cfg])
    p = IdmParams()  # the corridor's background model
    leader = sim.add_vehicle(pos=300.0, speed=15.0, fixed=True)
    follower = sim.add_vehicle(pos=200.0, speed=10.0)
    while (sim.step_index < sim.n_steps
           and sim.vehicle(leader)["pos"] < cfg.network.links[0].length - 200):
        sim.step()
    assert abs(sim.vehicle(follower)["speed"] - 15.0) <= 0.01
    gap = sim.vehicle(leader)["pos"] - sim.vehicle(follower)["pos"] - cfg.vehicle_length
    assert gap == pytest.approx(idm_equilibrium_gap(p, 15.0), abs=0.05)


def test_five_vehicle_platoon_speed_convergence():
    cfg = corridor(total=300.0, warmup=1.0, dt=0.1, length=8000.0)
    sim = Simulation([cfg])
    sim.add_vehicle(pos=600.0, speed=15.0, fixed=True)
    for k in range(5):
        sim.add_vehicle(pos=500.0 - 60.0 * k, speed=0.0)
    while sim.step_index < sim.n_steps:
        sim.step()
    final = sim.logs[0].frames[-1]
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
    sim = Simulation([cfg])
    blocker = sim.add_vehicle(pos=4.0, speed=0.0, fixed=True)
    for _ in range(sim.n_steps):
        sim.step()
    log = sim.logs[0]
    spawned = [s for s in log.spawns if s.vehicle_id != 0 and s.vehicle_id != blocker]
    assert spawned == []
    assert len(log.arrival_times["E1"]) > 5  # arrivals queued, not dropped


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
    sim = Simulation([cfg])
    sim.add_vehicle(pos=280.0, speed=0.0, fixed=True)  # plug the exit
    (log,) = sim.run()
    assert not log.feasible
    assert log.gridlock_at is not None
    assert log.frames[-1].time < cfg.total_time - cfg.time_step


def test_exactly_one_live_frame_when_total_is_warmup_plus_dt():
    cfg = corridor(total=50.1, warmup=50.0, dt=0.1)
    log = run_scenario(cfg)
    live = [f for f in log.frames if not log.is_warmup(f.time)]
    assert len(live) == 1
    assert live[0].time == pytest.approx(50.0)
    assert log.live_steps == 1


class PerStepDetector:
    """Reference sink: one detection record built per live step from the
    step's window, value by value in Python."""

    def __init__(self, config):
        self.config = config
        self.links = config.network.route_links()
        self.records = []

    def __call__(self, case):
        if case.time < self.config.warmup_time:
            return
        subject, *visible = case.window(*self.config.detection_range)
        s_link, s_lane, s_arc, s_lat, s_speed, s_accel, s_lat_rate = subject
        obs = tuple(
            SurroundingObs(str(vid), lane, rel, (lane - s_lane) * LANE_WIDTH + (lat - s_lat),
                           speed * 3.6, heading_deg(lat_rate, speed) if lat_rate else 0.0)
            for vid, lane, rel, lat, speed, lat_rate in zip(*(c.tolist() for c in visible))
        )
        d = LANE_WIDTH / 2.0 - abs(s_lat)
        link = self.links[s_link]
        self.records.append(DetectionRecord(
            float(case.time), link.id, link.speed_limit, s_speed * 3.6,
            s_lat_rate / max(s_speed, 0.1), s_arc, 0.0, s_accel, s_lane,
            d if s_lat >= 0.0 else -d, obs,
        ))


@pytest.mark.parametrize("dt, warmup, total, live", [
    (0.5, 0.0, 128.0, 256),
    (0.25, 100.0, 164.0, 256),
    (0.25, 0.0, 128.0, 512),
    (0.5, 10.0, 100.5, 181),
])
def test_detector_sample_matches_per_step_records(dt, warmup, total, live):
    cfg = corridor(inputs=1500.0, lanes=2, total=total, warmup=warmup, dt=dt,
                   length=3000.0, seed=1, variation=0.1)
    detector, reference = VirtualDetector(cfg), PerStepDetector(cfg)

    def sink(case):
        detector(case)
        reference(case)

    run_scenario(cfg, sink)
    records = virtual_detector_sample(detector).records
    assert len(records) == len(reference.records) == live
    assert [repr(r) for r in records] == [repr(r) for r in reference.records]
    assert sum(len(r.surroundings) for r in records) > live
    assert any(o.heading_deg for r in records for o in r.surroundings)


def test_detector_sample_without_live_steps_is_empty():
    dataset = virtual_detector_sample(VirtualDetector(corridor()))
    assert len(dataset.timestamp) == len(dataset.obs_vehicle) == 0
    assert dataset.obs_offsets.tolist() == [0]
    assert dataset.records == ()


def test_subject_present_for_whole_live_horizon():
    cfg = corridor(inputs=400.0, lanes=2, total=120.0, warmup=30.0, dt=0.2,
                   length=3000.0, seed=2, subject_speed=50.0)
    log = run_scenario(cfg)
    live = [f for f in log.frames if not log.is_warmup(f.time)]
    assert len(live) == log.live_steps > 0
    for frame in live:
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


def test_lane_index_built_once_per_step(monkeypatch):
    # each step sorts the lane index at most once, after the move, and not
    # at all when no vehicle changed lanes or link, entered or left, and
    # every lane kept its order; the insertions merge into it without a
    # sort, and only a step whose collision pushback moved a vehicle sorts
    # again. After every step the index is the one a fresh sort gives.
    sorts = []
    lexsort = np.lexsort

    def counted(keys):
        sorts.append(len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(engine.np, "lexsort", counted)
    sim = Simulation([replace(showcase_scenario(0), warmup_time=40.0, total_time=100.0)])
    log = sim.logs[0]
    kept = 0
    while sim.step_index < sim.n_steps:
        sorts.clear()
        sim.step()
        assert len(sorts) <= 1 + bool(sim._cases[0].collision_pairs), sim.time
        kept += not sorts
        # every vehicle in its lane, one changing lanes in its other lane too
        two = (sim.lc_start == sim.lc_start).nonzero()[0]
        keys = sim.gbase + sim.lane
        keys = np.concatenate((keys, sim.lc_from[two] + sim.lc_to[two] - keys[two] + 2 * sim.gbase[two]))
        rows = np.concatenate((np.arange(len(sim.pos)), two))
        fresh = lexsort((rows, sim.pos[rows], keys))
        assert sim._order.tolist() == rows[fresh].tolist()
        assert sim._keys.tolist() == keys[fresh].tolist()
    assert kept > 0
    assert len(log.spawns) > 20 and log.lane_changes


def test_vehicle_abreast_in_target_lane_blocks_the_change():
    # a slow leader ahead makes the left lane attractive, but a vehicle sits
    # exactly abreast there: the change must wait until it is clear
    sim = Simulation([corridor(lanes=2, total=10.0, warmup=9.0, dt=0.1)])
    sim.add_vehicle(lane=1, pos=144.5, speed=15.0, fixed=True)
    changer = sim.add_vehicle(lane=1, pos=100.0, speed=15.0)
    abreast = sim.add_vehicle(lane=2, pos=100.0, speed=15.0, fixed=True)
    (log,) = sim.run()
    starts = [lc for lc in log.lane_changes if lc.vehicle_id == changer]
    assert starts and starts[0].time > 0.0
    assert log.collisions == []
    changer, abreast = sim.vehicle(changer), sim.vehicle(abreast)
    assert abs(changer["pos"] - abreast["pos"]) > sim.vehicle_length


@pytest.mark.parametrize("link_idx, lane", [(-1, 1), (4, 1), (0, 0), (0, 3)])
def test_add_vehicle_rejects_a_link_or_lane_off_the_route(link_idx, lane):
    # the showcase route has four two-lane links; lane 3 of L1 would share
    # its lane group key with lane 0 of L2 and corrupt the lane index
    sim = Simulation([showcase_scenario(0)])
    with pytest.raises(ValueError, match="off"):
        sim.add_vehicle(link_idx=link_idx, lane=lane)
    assert len(sim.pos) == 0
    sim.add_vehicle(link_idx=3, lane=2)
    assert sim.vehicle(1)["link"] == 3 and sim.vehicle(1)["lane"] == 2


def test_fixed_vehicle_keeps_its_speed_through_a_pushback():
    # a fixed vehicle runs into a slower free one: the pushback moves it
    # back, but it keeps its speed, as add_vehicle promises
    sim = Simulation([corridor(lanes=1, total=10.0, warmup=9.0, dt=0.1)])
    fixed = sim.add_vehicle(pos=100.0, speed=15.0, fixed=True)
    sim.add_vehicle(pos=102.0, speed=0.0)
    (log,) = sim.run()
    # it never brakes, so it runs into the free vehicle more than once
    assert log.collisions
    assert all(c.follower_id == fixed for c in log.collisions)
    assert sim.vehicle(fixed)["speed"] == 15.0
    assert all(
        f.speed[f.ids == fixed][0] == 15.0 for f in log.frames if fixed in f.ids
    )


def test_collisions_are_reported_in_lane_order_and_from_the_rear():
    # overlapping vehicles added lane 3 first, so the lane index does not
    # hold its lanes in order; events still come lane by lane and, within a
    # lane, pair by pair from the rear
    sim = Simulation([corridor(lanes=3, total=10.0, warmup=9.0, dt=0.1)])
    placed = {}
    for lane, positions in ((3, (200.0, 203.0)), (1, (100.0, 103.0, 106.0)), (2, (50.0, 52.0))):
        placed[lane] = [
            sim.add_vehicle(lane=lane, pos=pos, speed=10.0, fixed=True) for pos in positions
        ]
    sim.step()
    events = [(c.lane, c.follower_id, c.leader_id) for c in sim.logs[0].collisions]
    assert events == [
        (1, placed[1][0], placed[1][1]),
        (1, placed[1][1], placed[1][2]),
        (2, placed[2][0], placed[2][1]),
        (3, placed[3][0], placed[3][1]),
    ]


@pytest.mark.parametrize("pos", [190.0, 170.0])
def test_lane_change_toward_a_lost_lane_ends_at_the_drop(pos):
    # a vehicle changing into lane 3 reaches a 3 -> 2 lane drop before
    # (190 m) or after (170 m) the midpoint of its change: the change ends
    # where lane 3 does, and no vehicle is ever in a lane its link lacks
    net = RoadNetwork(
        links=(
            Link(id="A", length=200.0, lane_count=3, speed_limit=72.0, downstream="B"),
            Link(id="B", length=1000.0, lane_count=2, speed_limit=72.0),
        ),
        entrances=(Entrance(id="E1", link="A"),),
        subject_route=("A", "B"),
    )
    cfg = ScenarioConfig(
        network=net,
        entrance_inputs={"E1": 0.0},
        behavior={"background": BehaviorSpec(IdmParams(), LaneChangeParams())},
        total_time=6.0,
        warmup_time=5.0,
        time_step=0.1,
        seed=0,
    )
    sim = Simulation([cfg])
    changer = sim.add_vehicle(lane=2, pos=pos, speed=15.0)
    sim._start_lane_change(sim.row(changer), 3)  # from lane 2 at t = 0
    (log,) = sim.run()
    lane_counts = np.asarray(log.route_lane_counts)
    on_b = []
    for f in log.frames:
        assert np.all(f.lanes <= lane_counts[f.link_idx])
        row = np.nonzero(f.ids == changer)[0][0]
        if f.link_idx[row] == 1:
            on_b.append((f.time, f.lanes[row], f.lat[row]))
    assert 0.0 < on_b[0][0] < LC_DURATION
    assert all(lane == 2 and lat == 0.0 for _t, lane, lat in on_b)


def brute_force_leaders(sim):
    """Every row's (leader row, centre distance), worked out from scratch by
    the rule the engine documents. Each (link, lane) lists its vehicles by
    position, ties in row (insertion) order, a vehicle mid-change in its
    origin and target lane too. A vehicle's leader in one of its lanes is the
    next vehicle there; the last one takes the first vehicle at or ahead of
    it along the lane downstream, the lane id capped at each link's lane
    count, for up to LOOKAHEAD_LINKS more links. Over its lanes it keeps the
    nearer leader, on a tie the one of the group that its earliest-inserted
    member (lower lane first) put in the list first."""
    groups = {}
    pos = sim.pos.tolist()
    for r, (link, lane, start, origin, target) in enumerate(zip(
        sim.link.tolist(), sim.lane.tolist(), sim.lc_start.tolist(),
        sim.lc_from.tolist(), sim.lc_to.tolist(),
    )):
        for lane in (lane,) if start != start else sorted({lane, origin, target}):
            groups.setdefault((link, lane), []).append(r)
    for group in groups.values():
        group.sort(key=lambda r: pos[r])
    counts = [link.lane_count for link in sim.route]

    def ahead(link_idx, lane, arc, exclude):
        for j in range(link_idx, min(link_idx + LOOKAHEAD_LINKS + 1, len(counts))):
            lane = min(lane, counts[j])
            for c in groups.get((j, lane), ()):
                if c != exclude and sim.offsets[j] + pos[c] >= arc:
                    return c, sim.offsets[j] + pos[c] - arc
        return -1, math.inf

    best = {}
    for (link_idx, lane), group in groups.items():
        for i, r in enumerate(group):
            if i + 1 < len(group):
                lead, d = group[i + 1], pos[group[i + 1]] - pos[r]
            else:
                lead, d = ahead(link_idx, lane, sim.offsets[link_idx] + pos[r], r)
            if lead >= 0 and (r not in best or d < best[r][1]):
                best[r] = (lead, d)
    return best


class LeaderCheckedSimulation(Simulation):
    """Checks each step's leader pass against brute_force_leaders, and every
    vehicle's lane against its link's lane count."""

    checked = 0

    def _leader_pass(self):
        lead, lead_d = super()._leader_pass()
        expected = brute_force_leaders(self)
        counts = [link.lane_count for link in self.route]
        for r, (link, lane) in enumerate(zip(self.link.tolist(), self.lane.tolist())):
            assert 1 <= lane <= counts[link]
            exp_lead, exp_d = expected.get(r, (-1, math.inf))
            assert lead[r] == exp_lead and lead_d[r] == exp_d, (self.time, int(self.vid[r]))
            self.checked += 1
        return lead, lead_d


def leader_corridor(seed, lanes, inflows, model, dt):
    """Short links, so that vehicles cross many lane drops and lane gains."""
    names = ("A", "B", "C", "D", "E")
    net = RoadNetwork(
        links=tuple(
            Link(id=n, length=150.0, lane_count=k, speed_limit=72.0,
                 downstream=names[i + 1] if i + 1 < len(names) else None)
            for i, (n, k) in enumerate(zip(names, lanes))
        ),
        entrances=(Entrance(id="E1", link="A"), Entrance(id="E2", link="B", entry_speed=40.0)),
        subject_route=names,
    )
    return ScenarioConfig(
        network=net,
        entrance_inputs={"E1": inflows[0], "E2": inflows[1]},
        behavior={"background": BehaviorSpec(MODEL_CLASSES[model](), LaneChangeParams())},
        total_time=60.0,
        warmup_time=20.0,
        time_step=dt,
        speed_variation=0.2,
        seed=seed,
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lanes=st.lists(st.integers(1, 3), min_size=5, max_size=5),
    inflows=st.tuples(st.floats(300.0, 2400.0), st.floats(0.0, 900.0)),
    model=st.sampled_from(sorted(MODEL_CLASSES)),
    dt=st.sampled_from([0.1, 0.2]),
)
@example(  # a vehicle reaches the 3 -> 2 drop while changing into lane 3
    seed=720, lanes=[3, 2, 1, 3, 2], inflows=(1630.0, 891.0), model="idm", dt=0.1,
)
def test_leader_pass_matches_brute_force(seed, lanes, inflows, model, dt):
    sim = LeaderCheckedSimulation([leader_corridor(seed, lanes, inflows, model, dt)])
    sim.run([lambda case: None])
    assert sim.checked > 0


class ScanCheckedSimulation(Simulation):
    """Checks each step's neighbour-lane scans against the scalar skip rule:
    a vehicle due an evaluation scans exactly when
    ``max(max_free_accel(v, v_des, dt), -v/dt) - a`` exceeds its advantage
    threshold, ``a`` being its acceleration this step; and each case's
    counters against its due and scanned vehicles."""

    checked = scans = 0

    def _lane_change_decisions(self, a, v_des, free):
        due = (self.lc_due_at <= self.time).nonzero()[0].tolist()
        expected = []
        for r in due:
            c, kind = divmod(int(self.slot[r]), 2)
            model, lc = self._cases[c].cf[kind], self._cases[c].lc[kind]
            v = float(self.speed[r])
            bound = max(model.max_free_accel(v, float(v_des[r]), self.dt), -v / self.dt)
            if bound - float(a[r]) > lc.advantage_threshold:
                expected.append(r)
        counters = [(log.lc_evaluations, log.lc_scans) for log in self.logs]
        self.scanned = []
        starts = super()._lane_change_decisions(a, v_des, free)
        assert self.scanned == expected, self.time
        for c, (log, (evaluations, scans)) in enumerate(zip(self.logs, counters)):
            assert log.lc_evaluations - evaluations == sum(self.case[r] == c for r in due)
            assert log.lc_scans - scans == sum(self.case[r] == c for r in expected)
        self.checked += len(due)
        self.scans += len(expected)
        return starts

    def _evaluate_lane_change(self, r, *args):
        self.scanned.append(r)
        return super()._evaluate_lane_change(r, *args)


def scan_checked(lanes, dt, cases):
    """A ScanCheckedSimulation of one batch on leader_corridor: per case its
    seed, its background family and the advantage threshold of every
    vehicle; each case's subject is IDM."""
    configs = []
    for seed, model, threshold in cases:
        cfg = leader_corridor(seed, lanes, (1800.0, 600.0), model, dt)
        lc = LaneChangeParams(advantage_threshold=threshold)
        configs.append(replace(cfg, behavior={
            "background": BehaviorSpec(MODEL_CLASSES[model](), lc),
            "subject": BehaviorSpec(IdmParams(), lc),
        }))
    sim = ScanCheckedSimulation(configs)
    sim.run([lambda case: None] * len(configs))
    return sim


@settings(max_examples=10, deadline=None)
@given(
    lanes=st.lists(st.integers(1, 3), min_size=5, max_size=5),
    dt=st.sampled_from([0.1, 0.2]),
    cases=st.lists(
        st.tuples(
            st.integers(0, 2**32 - 1),                    # seed
            st.sampled_from(["idm", "w99", "gipps"]),     # background family
            st.floats(-0.5, 3.0),                         # advantage threshold
        ),
        min_size=1, max_size=3,
    ),
)
def test_lane_change_scans_follow_the_scalar_skip_rule(lanes, dt, cases):
    assert scan_checked(lanes, dt, cases).checked > 0


def test_a_batch_of_three_families_both_scans_and_skips():
    sim = scan_checked([2, 3, 3, 2, 2], 0.1, [(1, "idm", 0.2), (2, "w99", 0.2), (3, "gipps", 0.2)])
    assert sim.checked > sim.scans > 0


def _crawling(cfg):
    """Everyone's desired speed below the gridlock speed: the corridor
    gridlocks once its vehicles have stood for GRIDLOCK_TIME."""
    crawl = IdmParams(a_max=0.05, v0=0.05)
    background = cfg.behavior["background"]
    return replace(cfg, behavior={
        "background": BehaviorSpec(crawl, background.lane_change),
        "subject": BehaviorSpec(crawl, background.lane_change),
    })


def _recorded(configs, batch):
    """Per config: its log and detection records, simulated as one batch or
    one by one."""
    detectors = [VirtualDetector(cfg) for cfg in configs]

    def sink(detector):
        def both(case):
            record_frame(case)
            detector(case)
        return both

    sinks = [sink(d) for d in detectors]
    if batch:
        logs = run_batch(configs, sinks)
    else:
        logs = [run_batch([cfg], [s])[0] for cfg, s in zip(configs, sinks)]
    return [
        (log.to_csv(), log.lane_changes, log.collisions, log.spawns, log.despawns,
         {eid: t.tobytes() for eid, t in log.arrival_times.items()},
         (log.steps, log.vehicle_steps, log.live_steps, log.live_vehicle_steps,
          log.lc_evaluations, log.lc_scans, log.feasible, log.gridlock_at),
         repr(log.stopped_by), [repr(r) for r in virtual_detector_sample(d).records])
        for log, d in zip(logs, detectors)
    ]


_CASES = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),                                  # seed
        st.tuples(st.floats(300.0, 2400.0), st.floats(0.0, 900.0)),  # inflows
        st.sampled_from(sorted(MODEL_CLASSES)),                     # background family
        st.floats(20.0, 110.0),                                     # subject km/h
        st.booleans(),                                              # crawling
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=8, deadline=None)
@given(lanes=st.lists(st.integers(1, 3), min_size=5, max_size=5),
       dt=st.sampled_from([0.2, 0.5]), total=st.just(60.0), cases=_CASES)
@example(  # one case loses its subject early, one gridlocks
    lanes=[2, 2, 1, 2, 2], dt=0.5, total=340.0,
    cases=[(1, (900.0, 300.0), "idm", 5.0, False), (2, (600.0, 0.0), "gipps", 110.0, False),
           (3, (900.0, 300.0), "idm", 40.0, True)],
)
def test_batch_cases_match_their_single_runs(lanes, dt, total, cases):
    configs = []
    for seed, inflows, model, subject_kmh, crawling in cases:
        cfg = leader_corridor(seed, lanes, inflows, model, dt)
        behavior = dict(cfg.behavior)
        behavior["subject"] = BehaviorSpec(IdmParams(v0=subject_kmh * KMH), LaneChangeParams())
        cfg = replace(cfg, behavior=behavior, total_time=total)
        configs.append(_crawling(cfg) if crawling else cfg)
    alone = _recorded(configs, batch=False)
    assert _recorded(configs, batch=True) == alone
    if total > 300.0:  # the example: two batch-mates stop early, as they do alone
        feasible = [stats[6] for *_rest, stats, _stopped_by, _records in alone]
        stopped_by = [stopped_by for *_rest, stopped_by, _records in alone]
        assert feasible == [True, True, False]
        assert stopped_by[0] == stopped_by[2] == "None"
        assert stopped_by[1].startswith("MissingSubjectError")


def test_batch_rejects_cases_of_different_runs():
    cfg = corridor()
    for other in (replace(cfg, time_step=0.2), replace(cfg, warmup_time=5.0),
                  replace(cfg, total_time=90.0), replace(cfg, vehicle_length=5.0),
                  corridor(lanes=2)):
        with pytest.raises(ValueError, match="share"):
            run_batch([cfg, other])


def test_a_sink_fault_propagates_out_of_the_batch():
    # only MissingSubjectError drops a case out of its batch; a fault in a
    # sink is not a property of the case and must surface with its traceback
    def broken(case):
        raise TypeError("broken sink")

    with pytest.raises(TypeError, match="broken sink"):
        run_batch([corridor(), corridor()], [lambda case: None, broken])
