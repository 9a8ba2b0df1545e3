import json
import re

from click.testing import CliRunner

from avcalib.cli import main
from avcalib.demo import recovery_scenario
from avcalib.pipeline import generate_field_data
from avcalib.fielddata import export_detection_csv
from avcalib.roadsim import save_scenario


def small_scenario():
    from dataclasses import replace

    sc = recovery_scenario()
    return replace(sc, total_time=140.0, warmup_time=60.0)


def test_simulate_writes_logs(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(small_scenario(), path)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["simulate", "--scenario", str(path), "--out", str(out), "--seed", "5"]
    )
    assert result.exit_code == 0, result.output
    assert (out / "trajectory.csv").exists()
    assert (out / "detection.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feasible"] is True
    assert summary["frames"] > 0


def test_simulate_stops_where_the_subject_leaves(tmp_path, micro_scenario):
    # at 60 km/h the subject clears the 900 m link before the horizon
    from dataclasses import replace

    path = tmp_path / "scenario.json"
    save_scenario(replace(micro_scenario, subject_desired_speed=60.0), path)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["simulate", "--scenario", str(path), "--out", str(out)])
    assert result.exit_code == 1
    assert "no subject vehicle in frame at t=" in result.output
    rows = (out / "trajectory.csv").read_text().splitlines()
    last_time = float(rows[-1].split(",")[0])
    assert micro_scenario.warmup_time < last_time < micro_scenario.total_time
    assert not (out / "detection.csv").exists()


def test_extract_and_evaluate(tmp_path):
    sc = small_scenario()
    field = generate_field_data(sc, 0)
    field_csv = tmp_path / "field.csv"
    export_detection_csv(field, field_csv)

    out = tmp_path / "events"
    result = CliRunner().invoke(
        main, ["extract", "--data", str(field_csv), "--out", str(out),
               "--smoothing-window", "0"]
    )
    assert result.exit_code == 0, result.output
    mops = json.loads((out / "mops.json").read_text())
    assert "avg_subject_speed" in mops["traffic"]

    sim = generate_field_data(sc, 1)
    sim_csv = tmp_path / "sim.csv"
    export_detection_csv(sim, sim_csv)
    result = CliRunner().invoke(
        main, ["evaluate", "--field", str(field_csv), "--sim", str(sim_csv)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert "e_dynamics" in report


def test_doe_gen(tmp_path):
    out = tmp_path / "oa.csv"
    result = CliRunner().invoke(
        main, ["doe", "gen", "--levels", "4", "--factors", "12", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 64
    assert lines[0].split(",")[0] == "case_id"


def test_report_renders_run_directory(tmp_path):
    import warnings
    from avcalib.pipeline import calibrate
    from test_pipeline import micro_calibration
    from avcalib.roadsim import (
        BehaviorSpec, Entrance, IdmParams, LaneChangeParams, Link, RoadNetwork,
        ScenarioConfig,
    )

    net = RoadNetwork(
        links=(Link(id="A", length=900.0, lane_count=1, speed_limit=60.0),),
        entrances=(Entrance(id="E1", link="A", entry_speed=45.0),),
        subject_route=("A",),
    )
    scenario = ScenarioConfig(
        network=net,
        entrance_inputs={"E1": 700.0},
        behavior={
            "background": BehaviorSpec(IdmParams(v0=15.0), LaneChangeParams()),
            "subject": BehaviorSpec(IdmParams(), LaneChangeParams()),
        },
        subject_desired_speed=30.0,
        total_time=90.0,
        warmup_time=20.0,
        time_step=0.5,
        speed_variation=0.05,
        seed=0,
    )
    out = tmp_path / "run"
    cfg = micro_calibration(scenario, output_dir=str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        calibrate(cfg, field_dataset=generate_field_data(scenario, 0))
    result = CliRunner().invoke(main, ["report", "--run", str(out)])
    assert result.exit_code == 0, result.output
    assert "stage 2 best accuracy" in result.output
    assert re.search(r"\d+ simulations for \d+ cases scored \(budget \d+\)", result.output)
    assert (out / "report.txt").exists()
    assert (out / "saga_series.csv").exists()


def test_calibrate_command(tmp_path):
    import warnings
    from avcalib.pipeline import config_to_dict
    from test_pipeline import micro_calibration
    from avcalib.roadsim import (
        BehaviorSpec, Entrance, IdmParams, LaneChangeParams, Link, RoadNetwork,
        ScenarioConfig,
    )

    net = RoadNetwork(
        links=(Link(id="A", length=900.0, lane_count=1, speed_limit=60.0),),
        entrances=(Entrance(id="E1", link="A", entry_speed=45.0),),
        subject_route=("A",),
    )
    scenario = ScenarioConfig(
        network=net,
        entrance_inputs={"E1": 700.0},
        behavior={
            "background": BehaviorSpec(IdmParams(v0=15.0), LaneChangeParams()),
            "subject": BehaviorSpec(IdmParams(), LaneChangeParams()),
        },
        subject_desired_speed=30.0,
        total_time=90.0,
        warmup_time=20.0,
        time_step=0.5,
        speed_variation=0.05,
        seed=0,
    )
    field = generate_field_data(scenario, 0)
    field_csv = tmp_path / "field.csv"
    export_detection_csv(field, field_csv)
    out = tmp_path / "run"
    cfg = micro_calibration(scenario, field_data=str(field_csv), output_dir=str(out))
    cfg_path = tmp_path / "calibration.json"
    d = config_to_dict(cfg)
    d["output_dir"] = str(out)
    cfg_path.write_text(json.dumps(d))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = CliRunner().invoke(main, ["calibrate", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    assert "stage 2 best accuracy" in result.output
    assert re.search(r"\d+ simulations for \d+ cases scored \(budget \d+\)", result.output)
    assert (out / "report.json").exists()
