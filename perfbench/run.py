"""Calibration benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload ga-search-2w --seed 3 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports avcalib from the
checkout's `src/`. Each run

1. sets the workload up three times (once when traced), each in a fresh
   interpreter, and reports the median as `setup_s`; then runs the
   workload's untimed check pass, if it has one;
2. times passes of the workload until `--seconds` have gone by (at least
   one pass) and reports the median pass, its wall and its CPU time each on
   their own. A pass is a few seconds of work, so a run holds several;
3. checks the outputs, including that every deterministic value equals the
   one an earlier run of the same code and seed recorded;
4. prints the machine it ran on, then, as the last line, one JSON object
   with the end-to-end metrics (`--trace 0`) or the per-layer metrics
   (`--trace 1`).

A traced run times one untraced pass and then one pass with spans recorded
around every layer (see `spans.py`); the difference of the two is the
tracing overhead. The tracer adds a few hundred spans per pass, so on a host
whose speed drifts between passes that difference is mostly drift. The
metric names, units and bounds are read from `BENCHMARK.json` at the
checkout's root. The run exits with 1 when a check
fails and with 2 when the checkout cannot be run.

Outputs go to `.perfbench-out/` at the checkout's root: the set-up files,
the calibration artifacts, worker span files, one JSON record per run and
the deterministic values each seed produced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


def code_fingerprint() -> str:
    """Hash of every Python file of the package and of the benchmark, so that
    recorded deterministic values are only compared within one version."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any process it has
    reaped: set-up interpreters and pool workers (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_setups(workload: str, seed: int, out: Path, repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "workloads.py"), "setup", workload, str(seed), str(out)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def timed_pass(workload, inputs) -> dict:
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    result = workload.run_pass(inputs)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": cpu_seconds() - cpu0, "result": result}


def compare_with_earlier(path: Path, fingerprint: str, values: dict) -> list[str]:
    """Names of the deterministic values that differ from those an earlier
    run of the same code and seed recorded; records the new ones."""
    earlier = {}
    if path.exists():
        saved = json.loads(path.read_text())
        if saved.get("fingerprint") == fingerprint:
            earlier = saved["values"]
    differ = [k for k, v in values.items() if k in earlier and earlier[k] != v]
    path.write_text(json.dumps({"fingerprint": fingerprint, "values": {**earlier, **values}}, indent=2))
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "avcalib" / "__init__.py").is_file():
        print(f"no avcalib package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    import spans
    from avcalib import pipeline
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    machine = machine_info()
    run_dir = OUT / f"{workload.name}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)

    # set-up time is an end-to-end metric, so a traced run sets up only once
    setup_times = run_setups(workload.name, seed, run_dir, 1 if args.trace else SETUP_REPEATS)
    inputs = workload.load(seed, run_dir)
    checked = [workload.check_pass(inputs)] if workload.check_pass else []

    passes = []
    layers = {}
    if args.trace:
        passes.append(timed_pass(workload, inputs))
        tracer = spans.Tracer(run_dir / "spans")
        tracer.install(pipeline)
        try:
            passes.append(timed_pass(workload, inputs))
        finally:
            tracer.uninstall()
        traced = passes[-1]
        layers = spans.layer_metrics(tracer.collect(), workload.workers, traced["wall_s"])
        layers["trace.run_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
    else:
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(timed_pass(workload, inputs))

    results = [p["result"] for p in passes]
    first = results[0]
    checks = {}
    for r in checked + results:
        for name, ok in r.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks["same_outputs_every_pass"] = all(r.digest == first.digest for r in results)
    accuracy = max(r.accuracy for r in checked + [first])
    deterministic = {
        "digest": first.digest,
        "check_digests": [r.digest for r in checked],
        "simulations": first.simulations,
        "accuracy": repr(accuracy),
    }
    for name in ("roadsim.vehicle_steps", "roadsim.lane_changes", "saga.repeat_evaluations"):
        if name in layers:
            deterministic[name] = layers[name]
    differ = compare_with_earlier(run_dir / "deterministic.json", code_fingerprint(), deterministic)
    checks["same_outputs_as_earlier_runs"] = not differ

    run_s = statistics.median(p["wall_s"] for p in passes)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "sims_per_s": first.simulations / run_s,
        "simulations": first.simulations,
        "accuracy": accuracy,
        "scored_case_ratio": (first.attempted - first.failed) / first.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = all(checks.values())
    line = {
        "correct": correct,
        "attempted": sum(r.attempted for r in checked + results),
        "failed": sum(r.failed for r in checked + results),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_s": setup_times,
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"]} for p in passes],
        "checks": checks,
        "differs_from_earlier": differ,
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
    (OUT / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    failed_checks = [name for name, ok in checks.items() if not ok]
    if failed_checks:
        print(f"failed checks: {failed_checks}", file=sys.stderr)
    print("machine " + json.dumps(machine))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
