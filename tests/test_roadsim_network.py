from dataclasses import fields

import pytest

from avcalib.demo import showcase_scenario
from avcalib.roadsim import ScenarioConfig, scenario_from_dict, scenario_to_dict


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
