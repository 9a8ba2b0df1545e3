"""Command-line interface."""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click

from . import __version__
from .doe import build_orthogonal_array
from .fielddata import export_detection_csv, export_events_csv, extract_events, parse_field_data, preprocess
from .metrics import CutinErrorParams, compute_traffic_mops, compute_vehicle_mops, evaluate_moes
from .pipeline import calibrate as run_calibration
from .pipeline import load_calibration_config
from .roadsim import (
    MissingSubjectError,
    VirtualDetector,
    load_scenario,
    record_frame,
    run_scenario,
    virtual_detector_sample,
)


@click.group()
@click.version_option(version=__version__)
def main():
    """Calibrate an embedded microscopic traffic simulator against AV
    detection data."""


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
def simulate(scenario_path, out_dir, seed):
    """Run one scenario; write trajectory and detection CSVs. A run whose
    subject leaves the route stops there: its trajectory so far is written
    and the command fails."""
    cfg = load_scenario(scenario_path)
    if seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=seed)
    detector = VirtualDetector(cfg)

    def record_and_detect(sim):
        record_frame(sim)
        detector(sim)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        log = run_scenario(cfg, record_and_detect)
    except MissingSubjectError as exc:
        exc.log.to_csv(out / "trajectory.csv")
        raise click.ClickException(str(exc)) from exc
    log.to_csv(out / "trajectory.csv")
    export_detection_csv(virtual_detector_sample(detector), out / "detection.csv")
    summary = {
        "feasible": log.feasible,
        "gridlock_at": log.gridlock_at,
        "collisions": log.collision_count,
        "spawned": len(log.spawns),
        "lane_changes": len(log.lane_changes),
        "frames": log.steps,
        "mean_density_veh_km_lane": log.mean_density(),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--smoothing-window", type=float, default=0.5, show_default=True)
@click.option("--max-speed-jump", type=float, default=15.0, show_default=True)
@click.option("--per-road-density", is_flag=True, default=False)
def extract(data_path, out_dir, smoothing_window, max_speed_jump, per_road_density):
    """Preprocess detection data and extract events and MoPs."""
    dataset = parse_field_data(data_path)
    dataset = preprocess(dataset, smoothing_window, max_speed_jump)
    events = extract_events(dataset)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_events_csv(events, out)
    mops = {
        "traffic": compute_traffic_mops(dataset, per_road=per_road_density).to_dict(),
        "vehicle": compute_vehicle_mops(events).to_dict(),
    }
    (out / "mops.json").write_text(json.dumps(mops, indent=2, sort_keys=True) + "\n")
    click.echo(
        f"{len(events.lane_changes)} lane changes, {len(events.cut_ins)} cut-ins, "
        f"{len(events.episodes)} car-following episodes -> {out}"
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def calibrate(config_path):
    """Run the full two-stage calibration described by a config file."""
    cfg = load_calibration_config(config_path)
    report = run_calibration(cfg)
    click.echo(f"stage 1 best accuracy: {report.stage1.best_accuracy:.4f}")
    click.echo(f"critical parameters:   {', '.join(report.stage2.critical_set)}")
    click.echo(f"stage 2 best accuracy: {report.stage2.best_accuracy:.4f}")
    click.echo(
        f"calibration cost:      {report.optimization_simulations} simulations for "
        f"{report.cases_scored} cases scored (budget {report.simulation_budget})"
    )
    if cfg.output_dir:
        click.echo(f"artifacts in {cfg.output_dir}")


@main.command()
@click.option("--field", "field_path", required=True, type=click.Path(exists=True))
@click.option("--sim", "sim_path", required=True, type=click.Path(exists=True))
@click.option("--delta-lb", type=float, default=0.0, show_default=True)
@click.option("--delta-ub", type=float, default=1.0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def evaluate(field_path, sim_path, delta_lb, delta_ub, out_path):
    """Evaluation measures between a field and a simulated dataset."""
    field = parse_field_data(field_path)
    sim = parse_field_data(sim_path, source_kind="simulation")
    report = evaluate_moes(
        field,
        extract_events(field),
        sim,
        extract_events(sim),
        CutinErrorParams(delta_lb=delta_lb, delta_ub=delta_ub),
    )
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
    click.echo(text)


@main.group()
def doe():
    """Design-of-experiments utilities."""


@doe.command("gen")
@click.option("--levels", type=int, required=True)
@click.option("--factors", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def doe_gen(levels, factors, out_path):
    """Emit an orthogonal array as CSV (level indices, one row per case)."""
    oa = build_orthogonal_array(levels, factors)
    text = oa.to_csv()
    if out_path:
        Path(out_path).write_text(text)
        click.echo(f"L{oa.runs}({levels}^{factors}) -> {out_path}")
    else:
        sys.stdout.write(text)


@main.command()
@click.option("--run", "run_dir", required=True, type=click.Path(exists=True))
def report(run_dir):
    """Render a calibration run directory to text and plot-ready CSV."""
    run = Path(run_dir)
    rep = json.loads((run / "report.json").read_text())
    lines = [
        f"master seed:            {rep['master_seed']}",
        f"stage 1 cases:          {rep['stage1']['n_evaluated']} of {rep['stage1']['oa_runs']}",
        f"stage 1 best accuracy:  {rep['stage1']['best_accuracy']:.4f}",
        "stage 1 best inputs:    "
        + ", ".join(f"{k}={v:.1f}" for k, v in sorted(rep["stage1"]["best_values"].items())),
        f"critical parameters:    {', '.join(rep['stage2']['critical_set'])}",
        f"stage 2 best accuracy:  {rep['stage2']['best_accuracy']:.4f}",
        f"generations run:        {rep['stage2']['saga_generations']}",
        f"calibration cost:       {rep['optimization_simulations']} simulations for "
        f"{rep['cases_scored']} cases scored (budget {rep['simulation_budget']})",
        "final evaluation measures:",
    ]
    for name, value in sorted(rep["final_moes"].items()):
        if name == "errors":
            continue
        lines.append(f"  {name:12s} {'n/a' if value is None else f'{100 * value:.2f}%'}")
    for name, why in sorted(rep["final_moes"].get("errors", {}).items()):
        lines.append(f"  {name:12s} unavailable: {why}")
    text = "\n".join(lines)
    (run / "report.txt").write_text(text + "\n")
    click.echo(text)

    history = json.loads((run / "saga_history.json").read_text())
    with open(run / "saga_series.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["generation", "f_max_cur", "f_avg_cur", "best_accuracy_so_far"])
        for rec in history:
            w.writerow(
                [rec["generation"], rec["f_max_cur"], rec["f_avg_cur"],
                 rec["best_accuracy_so_far"]]
            )
    click.echo(f"plot series -> {run / 'saga_series.csv'}")


if __name__ == "__main__":
    main()
