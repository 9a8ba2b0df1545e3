from dataclasses import fields, replace

import pytest

from avcalib.demo import showcase_scenario
from avcalib.roadsim import (
    LaneChangeParams,
    Link,
    RoadNetwork,
    ScenarioConfig,
    scenario_from_dict,
    scenario_to_dict,
)


DROP = object()


@pytest.mark.parametrize(
    "path, key, value",
    [
        ((), "time_stp", 0.2),
        (("links", 1), "lanes", DROP),
        (("links", 0), "lane_count", 3),
        (("entrances", 0), "speed", 40.0),
        (("behavior", "background"), "lc", {}),
        (("behavior", "background", "car_following"), "v_0", 20.0),
        (("behavior", "subject", "lane_change"), "politeness", 0.1),
        ((), "subject_route", DROP),
        ((), "subject_desired_speed", 50.0),
    ],
)
def test_scenario_key_errors_are_rejected_at_load(path, key, value):
    d = scenario_to_dict(showcase_scenario())
    block = d
    for step in path:
        block = block[step]
    if value is DROP:
        del block[key]
    else:
        block[key] = value
    with pytest.raises(ValueError, match=repr(key)):
        scenario_from_dict(d)


def test_missing_scenario_settings_take_the_defaults():
    sc = showcase_scenario(3)
    d = scenario_to_dict(sc)
    for f in fields(ScenarioConfig):
        if f.name not in ("network", "entrance_inputs", "behavior"):
            del d[f.name]
    bare = ScenarioConfig(network=sc.network, entrance_inputs=sc.entrance_inputs,
                          behavior=sc.behavior)
    assert scenario_from_dict(d) == bare


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("vehicle_length", 0.0, "vehicle_length must be > 0"),
        ("vehicle_length", -4.5, "vehicle_length must be > 0"),
        ("warmup_time", -1.0, "warmup_time must be >= 0"),
    ],
)
def test_impossible_scenario_values_are_rejected_at_load(key, value, message):
    d = scenario_to_dict(showcase_scenario())
    d[key] = value
    with pytest.raises(ValueError, match=message):
        scenario_from_dict(d)


def test_an_entrance_off_the_subject_route_is_rejected_at_load():
    # the simulator only places vehicles on the subject route; a ramp that
    # feeds no route link is refused when the network is built
    net = showcase_scenario().network
    ramp = Link(id="R1", length=200.0, lane_count=1, speed_limit=60.0)
    entrances = (replace(net.entrances[0], link="R1"),) + net.entrances[1:]
    message = "entrance E1 must attach to a subject-route link; got R1"
    with pytest.raises(ValueError, match=message):
        RoadNetwork(links=net.links + (ramp,), entrances=entrances,
                    subject_route=net.subject_route)
    d = scenario_to_dict(showcase_scenario())
    d["links"].append({"id": "R1", "length": 200.0, "lanes": 1, "speed_limit": 60.0})
    d["entrances"][0]["link"] = "R1"
    with pytest.raises(ValueError, match=message):
        scenario_from_dict(d)


def test_only_parameter_fields_are_written():
    # a plain attribute on a params object, like the car-following
    # families' ``terms``, is not a parameter and must not reach the JSON
    lc = LaneChangeParams(advantage_threshold=0.3)
    object.__setattr__(lc, "derived", 1.0)
    sc = showcase_scenario(3)
    sc = replace(sc, behavior={
        **sc.behavior, "background": replace(sc.behavior["background"], lane_change=lc),
    })
    d = scenario_to_dict(sc)
    assert list(d["behavior"]["background"]["lane_change"]) == [f.name for f in fields(lc)]
    assert "terms" not in d["behavior"]["background"]["car_following"]
    assert scenario_from_dict(d) == sc
