#!/usr/bin/env python3
"""anbeam benchmark: throughput of the headline sweeps and the validate
suites, with per-module layer timings from a separate traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload power-sweep --seed 0 --seconds 25 --trace 0

--trace 0 repeats the workload for --seconds and reports the end-to-end
metrics; --trace 1 alternates untraced and traced repetitions for --seconds
and reports the per-layer metrics.  The metric names and units are those of
BENCHMARK.json.  The last line of standard output is the JSON result.  The
first line records the environment and the workload's inputs; with --trace 0
the line before the result gives the unscaled times (see workloads.calibrate).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LayerStats, Tracer

SETUP_PROBES = 6
CALIBRATION_SHARE = 0.05
RELAY_COUNTS = (4, 10, 64, 256)  # every M the workloads solve at
RESAMPLE_CLASSES = ("InfeasibleThreshold", "InfeasibleBudget", "DegenerateAlpha",
                    "NoFeasibleRoot")
GRID_POINT_ONLY = (("experiments", "solve_grid_point", None, None),)


def probe_setup(name, seed):
    """(set-up seconds, calibration seconds) measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    setup_s, calibration_s = map(float, done.stdout.split()[-2:])
    return setup_s, calibration_s


def peak_rss_mib():
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024.0


def tally(reps, errors):
    attempted = sum(r.ops + r.failed for r in reps)
    failed = attempted if errors else sum(r.failed for r in reps)
    return attempted, failed


def calibration(previous_wall):
    """Mean kernel time over back-to-back runs of the kernel that take about
    CALIBRATION_SHARE of the previous repetition's time (at least one run)."""
    times = [workloads.calibrate()]
    start = perf_counter()
    while perf_counter() - start < CALIBRATION_SHARE * previous_wall:
        times.append(workloads.calibrate())
    return statistics.mean(times)


def end_to_end(workload, seconds, setup_s):
    """Repeat the workload for `seconds`.  Each repetition is bracketed by
    calibrations, and its rate is scaled by their mean.  The set-up probes run
    between repetitions, spread over the run, so that they sample the machine
    at several moments."""
    setups, reps = [(setup_s, workloads.calibrate())], []
    calibrations = [calibration(0.0)]
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        reps.append(workload.run(len(reps)))
        calibrations.append(calibration(reps[-1].wall))
        due = seconds * len(setups) / (SETUP_PROBES + 1)
        if len(setups) <= SETUP_PROBES and perf_counter() - start >= due:
            setups.append(probe_setup(workload.name, workload.seed))
    setups += [probe_setup(workload.name, workload.seed)
               for _ in range(SETUP_PROBES + 1 - len(setups))]
    errors = [e for r in reps for e in r.errors] + workload.final_checks(reps)
    attempted, failed = tally(reps, errors)
    slowdowns = [(before + after) / 2 / workloads.CALIBRATION_REF_S
                 for before, after in zip(calibrations, calibrations[1:])]
    print(json.dumps({"unscaled": {"ops_per_s": statistics.median(r.ops / r.wall for r in reps),
                                   "setup_s": statistics.median(s for s, _ in setups)},
                      "slowdown": statistics.median(slowdowns),
                      "resampled_slots": sum(sum(r.resamples.values()) for r in reps),
                      "statistical_fails": sum(r.flagged for r in reps)}))
    metrics = {
        "ops_per_s": statistics.median(r.ops / r.wall * slowdown
                                       for r, slowdown in zip(reps, slowdowns)),
        "peak_rss_mib": peak_rss_mib(),
        "success_share": (attempted - failed) / attempted,
        "setup_s": statistics.median(
            s * workloads.CALIBRATION_REF_S / c for s, c in setups),
    }
    return errors, attempted, failed, metrics


def latency(durations):
    """(p50, tail, tail percentile) of span durations in seconds.  The tail is
    the highest percentile with at least 10 samples beyond it; it reads 0
    below 20 samples, where that percentile would fall under the median."""
    n = len(durations)
    if n == 0:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)
    if n < 20:
        return statistics.median(ordered), 0.0, 0.0
    return statistics.median(ordered), ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(stats, reps, resamples, checks_failed, overheads, grid_points, speedups):
    """Per-layer metrics; counts and times are per traced repetition."""
    def get(name):
        return stats.get(name) or LayerStats()

    metrics = {}
    for layer in ("individual_solver.solve_individual", "total_solver.solve_total"):
        s = get(layer)
        metrics[f"{layer}.calls"] = s.calls / reps
        metrics[f"{layer}.busy_s"] = s.busy / reps
        metrics[f"{layer}.self_s"] = s.self_time / reps
        for m in RELAY_COUNTS:
            samples = s.by_tag.get(m, [])
            p50, tail, pct = latency(samples)
            metrics[f"{layer}.p50_us.m{m}"] = p50 * 1e6
            metrics[f"{layer}.tail_us.m{m}"] = tail * 1e6
            metrics[f"{layer}.tail_pct.m{m}"] = pct
            metrics[f"{layer}.samples.m{m}"] = len(samples)
    solve_ind = get("individual_solver.solve_individual")
    roots = get("individual_solver.select_root")
    metrics["individual_solver.select_root.calls"] = roots.calls / reps
    metrics["individual_solver.select_root.busy_s"] = roots.busy / reps
    metrics["individual_solver.clamps_per_solve"] = solve_ind.count / max(solve_ind.calls, 1)
    metrics["individual_solver.root_candidates_per_call"] = roots.count / max(roots.calls, 1)
    metrics["total_solver.build_d_tilde.busy_s"] = get("total_solver.build_d_tilde").busy / reps

    for layer in ("experiments.instance_stream", "experiments.sample_instance",
                  "model.derive_model", "model.resolve_alpha", "model.capacity_dest",
                  "model.second_phase_power", "experiments.emit_csv",
                  "oracles.oracle_total", "oracles.power_iteration_rank1",
                  "oracles.oracle_individual_grid", "oracles.empirical_snr"):
        s = get(layer)
        metrics[f"{layer}.calls"] = s.calls / reps
        metrics[f"{layer}.busy_s"] = s.busy / reps
        metrics[f"{layer}.p50_us"] = latency(s.by_tag.get(None, []))[0] * 1e6
        metrics[f"{layer}.evals"] = s.count / reps
    snr = get("oracles.empirical_snr")
    metrics["oracles.empirical_snr.symbols_per_s"] = snr.count / snr.busy if snr.busy else 0.0
    metrics["experiments.run_sweep.self_s"] = get("experiments.run_sweep").self_time / reps

    durations = grid_points.by_tag.get(None, [])
    metrics["experiments.solve_grid_point.p50_ms"] = latency(durations)[0] * 1e3
    metrics["experiments.solve_grid_point.max_ms"] = max(durations, default=0.0) * 1e3
    metrics["experiments.pool.speedup"] = statistics.median(speedups) if speedups else 0.0
    for name in RESAMPLE_CLASSES:
        metrics[f"experiments.resamples.{name}"] = resamples.get(name, 0) / reps
    metrics["experiments.resamples.all"] = sum(resamples.values()) / reps

    suites = get("cli.main").by_tag
    for suite in ("total", "individual", "signals"):
        metrics[f"cli.validate.{suite}.busy_s"] = sum(suites.get(suite, [])) / reps
    metrics["cli.validate.checks_failed"] = checks_failed / reps
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics


def traced(workload, seconds):
    """Pairs of an untraced and a traced repetition on the same input.  For a
    pooled sweep the pool workers' spans are out of reach, so each pair also
    runs the sweep in-process with only solve_grid_point traced."""
    tracer, grid_tracer = Tracer(), Tracer(GRID_POINT_ONLY)
    pooled = workload.workers > 1
    reps, errors, overheads, speedups = [], [], [], []
    resamples = {}
    deadline = perf_counter() + seconds
    while not reps or perf_counter() < deadline:
        rep = len(reps) // 2
        plain = workload.run(rep)
        with tracer:
            traced_rep = workload.run(rep)
        reps += [plain, traced_rep]
        overheads.append(traced_rep.wall - plain.wall)
        if traced_rep.output != plain.output:
            errors.append(f"traced output of repetition {rep} differs from untraced")
        for name, n in traced_rep.resamples.items():
            resamples[name] = resamples.get(name, 0) + n
        if pooled:
            with grid_tracer:
                start = len(grid_tracer.spans)
                in_process = workload.run(rep, workers=1)
            busy = sum(end - begin for _, begin, end, _, _ in grid_tracer.spans[start:])
            speedups.append(busy / plain.wall)
            if in_process.output != plain.output:
                errors.append(f"workers=1 output of repetition {rep} differs")
    n_traced = len(reps) // 2
    stats = tracer.stats()
    if isinstance(workload, workloads.Sweep) and not pooled:
        sampled = stats.get("experiments.sample_instance", LayerStats()).calls
        expected = sum(workload.slots(workload.spec(r)) for r in range(n_traced))
        expected += sum(resamples.values())
        if sampled != expected:
            errors.append(f"{sampled} sample_instance calls, expected {expected}")
    grid_points = (grid_tracer if pooled else tracer).stats().get(
        "experiments.solve_grid_point", LayerStats())
    validating = isinstance(workload, workloads.Validate)
    checks_failed = sum(r.failed + r.flagged for r in reps[1::2]) if validating else 0
    errors += [e for r in reps for e in r.errors]
    metrics = layer_metrics(stats, n_traced, resamples, checks_failed, overheads,
                            grid_points, speedups)
    tracer.write(workloads.OUT / f"spans-{workload.name}-{workload.seed}.csv",
                 tracer.spans[0][1] if tracer.spans else 0.0)
    attempted, failed = tally(reps, errors)
    return errors, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    workloads.pin_environment()
    try:
        setup_s, workload = workloads.setup(args.workload, args.seed)
    except ImportError as err:
        print(f"error: cannot import anbeam from this checkout: {err}", file=sys.stderr)
        return 1
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"environment": workloads.environment(),
                      "workload": args.workload, "seed": args.seed,
                      "rep_seed_stride": workloads.REP_STRIDE,
                      "inputs": workload.describe()}))
    workloads.OUT.mkdir(exist_ok=True)

    if args.trace:
        errors, attempted, failed, metrics = traced(workload, args.seconds)
    else:
        errors, attempted, failed, metrics = end_to_end(workload, args.seconds, setup_s)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
