#!/usr/bin/env python3
"""Benchmark of hvqm: one workload per process, metrics as a JSON last line.

    python3 perfbench/run.py --workload {mc_logs,kernels,scan} --seed N \
        --seconds S --trace {0,1}

The program is imported from the `src` directory beside this one.  A run
starts five fresh child processes, one after another; each sets up (import,
inputs, one warm-up round), reports ready, then repeats whole rounds of the
workload's operations for a fifth of S seconds (at least one round) and
checks the outputs of its last round.  With --trace 0 the last stdout line
carries the end-to-end metrics, whose timings describe the best round: each
operation at its fastest over the rounds of all five children.  With
--trace 1 it carries the per-layer metrics of a traced run in this process,
whose rounds alternate untraced and traced so the trace can report its own
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("mc_logs", "kernels", "scan")
CHILDREN = 5
READY = "perfbench-setup-ready "
RESULT = "perfbench-result "


def run_dir(workload: str) -> Path:
    return ROOT / ".perfbench_runs" / f"{workload}-{os.getpid()}"


def child(workload: str, seed: int, seconds: float) -> int:
    """Child process: import hvqm, make the inputs, warm up and report
    ready; then, if `seconds` > 0, run rounds for that long, check the last
    one and report the operations, their latencies and any problems."""
    start = time.perf_counter()
    import hvqm.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS
    workdir = run_dir(workload)
    try:
        load = WORKLOADS[workload](seed, workdir)
        load.warm_up()
        print(READY + json.dumps({"import_s": import_s}), flush=True)
        if seconds > 0:
            ops = load.ops()
            rounds, errors = run_rounds(ops, seconds)
            problems = check_outputs(ops, rounds[-1])
            print(RESULT + json.dumps({
                "ops": [[op.label, op.kind, op.work] for op in ops],
                "walls": [r.wall for r in rounds],
                "latencies": [r.latencies for r in rounds],
                "failed": [r.failed for r in rounds],
                "errors": errors,
                "problems": problems,
                "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_children(workload: str, seed: int, seconds: float) -> tuple[list, list, list]:
    """Fresh child processes, one after another: their spawn-to-ready times,
    their import times of hvqm, and their reports when they measured."""
    setups, imports, reports = [], [], []
    for _ in range(CHILDREN):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
             "--seed", str(seed), "--seconds", repr(seconds)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        ready = report = None
        with proc.stdout:
            for line in proc.stdout:
                if line.startswith(READY):
                    setups.append(time.perf_counter() - start)
                    ready = json.loads(line[len(READY):])
                elif line.startswith(RESULT):
                    report = json.loads(line[len(RESULT):])
        if proc.wait() != 0 or ready is None or (seconds > 0 and report is None):
            raise RuntimeError(f"{workload} child exited with {proc.returncode}")
        imports.append(ready["import_s"])
        if report is not None:
            reports.append(report)
    return setups, imports, reports


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.latencies: list[float] = []
        self.results: list[object] = []
        self.failed: list[bool] = []


def run_round(ops, traced: bool, errors: dict) -> Round:
    rnd = Round(traced)
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.fn()
        except Exception as exc:   # a failed operation is counted, and the run goes on
            result = exc
            errors.setdefault(op.label, traceback.format_exc())
        rnd.latencies.append(time.perf_counter() - t0)
        rnd.results.append(result)
        rnd.failed.append(isinstance(result, Exception)
                          or (op.failed is not None and op.failed(result)))
    rnd.wall = time.perf_counter() - start
    return rnd


def run_rounds(ops, seconds: float, tracer=None) -> tuple[list[Round], dict]:
    """Whole rounds until the next would end past `seconds`; traced runs
    alternate untraced and traced rounds and end on a traced one."""
    rounds: list[Round] = []
    errors: dict[str, str] = {}
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        if rounds:
            # only the last round's outputs are checked; holding every
            # round's arrays would count in peak_rss_mb
            rounds[-1].results = []
        rounds.append(run_round(ops, traced, errors))
        elapsed = time.perf_counter() - begin
        if tracer is not None and (len(rounds) % 2 == 1):
            continue
        if elapsed + elapsed / len(rounds) > seconds:
            break
    if tracer is not None:
        tracer.enabled = False
    return rounds, errors


def tail_percentile(latencies: list[float]) -> tuple[float, str]:
    """The highest of p99.9, p99, p95, p90, p75 with at least ten samples
    beyond it (nearest rank); below forty samples there is no tail and the
    maximum is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 40:
        return ordered[-1], "max"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p:g}"
    raise AssertionError("unreachable for n >= 40")


def best_latencies(rounds: list[Round]) -> list[float]:
    """Each operation's fastest time over the run's rounds.

    A process on a shared machine can run 1.3-1.6x slower in spells of
    milliseconds to minutes; a median over rounds moves with the share of
    slow spells in the run, while an operation's fastest time is the one it
    takes when the machine lets it run."""
    return [min(times) for times in zip(*(r.latencies for r in rounds))]


def throughput(ops, best: list[float], failed: list[bool], kind: str) -> float:
    """Work of one kind per second spent in the operations doing it."""
    done = [(op.work, t) for op, t, f in zip(ops, best, failed) if op.kind == kind and not f]
    return sum(w for w, _ in done) / sum(t for _, t in done)


def end_to_end(ops, rounds: list[Round], setup_s: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """Metrics of the best round: every operation at its fastest in the run."""
    best = best_latencies(rounds)
    failed = [any(f) for f in zip(*(r.failed for r in rounds))]
    wall = sum(best)
    tail, tail_name = tail_percentile(best)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "trials_per_s": (throughput(ops, best, failed, "write"), "trials/s"),
        "records_verified_per_s": (throughput(ops, best, failed, "read"), "records/s"),
        "ops_per_s": (len(ops) / wall, "ops/s"),
        "op_p50_ms": (1000.0 * statistics.median(best), "ms"),
        "op_tail_ms": (1000.0 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    info = {"rounds": len(rounds), "ops_per_round": len(ops), "tail": tail_name,
            "median_round_wall_s": statistics.median(r.wall for r in rounds)}
    return metrics, info


SPAN_TIMES = {
    "config.parse_s": ("config.parse_config",),
    "config.hash_s": ("config.config_hash",),
    "runner.validate_s": ("runner.validate_experiment",),
    "rng.uniforms_s": ("rng.uniforms",),
    "epr.sample_trials_s": ("epr.sample_trials",),
    "beamline.mc_sequence_s": ("beamline.monte_carlo_sequence",),
    "quasiprob.solve_weights_s": ("quasiprob.solve_weights",),
    "quasiprob.born_table_s": ("quasiprob.born_table",),
    "quasiprob.marginal_s": ("quasiprob.marginal",),
    "spin.marginal_amplitude_s": ("spin.marginal_amplitude",),
    "pathint.screen_pattern_s": ("pathint.screen_pattern",),
    "pathint.four_hole_table_s": ("pathint.four_hole_table",),
    "phasespace.lift_s": ("phasespace.lift",),
    "phasespace.project_s": ("phasespace.project_r", "phasespace.project_p"),
}
SELF_TIMES = {"runner.run_self_s": "runner.run_experiment",
              "runner.replay_self_s": "runner.replay_run"}
COUNTS = {
    "runner.validate_calls": "validate_calls", "rng.draws": "draws",
    "epr.trials_sampled": "trials_sampled", "beamline.events": "events",
    "runner.log_bytes_written": "log_bytes_written", "runner.records_read": "records_read",
    "runner.log_bytes_read": "log_bytes_read", "quasiprob.solve_calls": "solve_calls",
    "quasiprob.solve_bytes": "solve_bytes", "spin.completions": "completions",
    "pathint.phase_evals": "phase_evals", "phasespace.grid_bytes": "grid_bytes",
}
COUNT_UNITS = {"runner.log_bytes_written": "bytes", "runner.log_bytes_read": "bytes",
               "quasiprob.solve_bytes": "bytes", "phasespace.grid_bytes": "bytes"}


def per_layer(tracer, rounds: list[Round], import_s: float) -> dict:
    """Per traced round: busy time per layer function, self time of run and
    replay, per-record encoders in aggregate, and work counts."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    k = len(traced)
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    children: dict[int, list[int]] = {}
    for index, (name, start, end, parent, work) in enumerate(tracer.spans):
        busy[name] = busy.get(name, 0.0) + (end - start)
        for key, value in work.items():
            counts[key] = counts.get(key, 0) + value
        if parent is not None:
            children.setdefault(parent, []).append(index)
    selfs: dict[str, float] = {}
    for index, span in enumerate(tracer.spans):
        selfs[span[0]] = selfs.get(span[0], 0.0) + tracer.self_time(index, children)
    agg = tracer.aggregates
    metrics = {name: (sum(busy.get(f, 0.0) for f in fns) / k, "s")
               for name, fns in SPAN_TIMES.items()}
    metrics.update({name: (selfs.get(fn, 0.0) / k, "s") for name, fn in SELF_TIMES.items()})
    metrics.update({name: (counts.get(key, 0) / k, COUNT_UNITS.get(name, "count"))
                    for name, key in COUNTS.items()})
    metrics["epr.encode_s"] = (agg["epr.trial_record_json"][1] / k, "s")
    metrics["epr.records_encoded"] = (agg["epr.trial_record_json"][0] / k, "count")
    metrics["beamline.encode_s"] = (agg["beamline.event_json"][1] / k, "s")
    metrics["cli.import_s"] = (import_s, "s")
    # the layer times are means over traced rounds, so their base is the
    # mean traced round; the overhead compares best rounds, which hold still
    metrics["trace.wall_s"] = (sum(r.wall for r in traced) / k, "s")
    metrics["trace.overhead_s"] = (
        sum(best_latencies(traced)) - sum(best_latencies(untraced)), "s")
    return metrics


def check_outputs(ops, last: Round) -> list[str]:
    from checks import CheckError
    problems = []
    for op, result, failed in zip(ops, last.results, last.failed):
        if failed or op.check is None:
            continue
        try:
            op.check(result)
        except CheckError as exc:
            problems.append(f"{op.label}: {exc}")
    return problems


def measure_in_children(workload: str, seed: int, seconds: float):
    """End-to-end metrics from CHILDREN fresh processes that each measure a
    share of `seconds`; the best round is taken over all their rounds."""
    from workloads import Op
    setups, _, reports = run_children(workload, seed, seconds / CHILDREN)
    ops = [Op(label, None, kind, work) for label, kind, work in reports[0]["ops"]]
    rounds = []
    for report in reports:
        for wall, latencies, failed in zip(report["walls"], report["latencies"],
                                           report["failed"]):
            rnd = Round(traced=False)
            rnd.wall, rnd.latencies, rnd.failed = wall, latencies, failed
            rounds.append(rnd)
    errors = {k: v for report in reports for k, v in report["errors"].items()}
    problems = [p for report in reports for p in report["problems"]]
    # the median child's peak: on kernels, now and then one child of five
    # peaks some 40 MiB above the others
    peaks = [report["maxrss_kib"] / 1024.0 for report in reports]
    peak_rss_mb = statistics.median(peaks)
    metrics, info = end_to_end(ops, rounds, statistics.median(setups), peak_rss_mb)
    info["rounds_per_child"] = [len(report["latencies"]) for report in reports]
    info["peak_rss_mb_per_child"] = peaks
    return ops, rounds, metrics, info, errors, problems


def measure_traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics of a traced run in this process."""
    from workloads import WORKLOADS
    from tracing import Tracer
    _, imports, _ = run_children(workload, seed, 0.0)
    workdir = run_dir(workload)
    try:
        load = WORKLOADS[workload](seed, workdir)
        load.warm_up()
        ops = load.ops()
        tracer = Tracer()
        tracer.install()
        try:
            rounds, errors = run_rounds(ops, seconds, tracer)
        finally:
            tracer.uninstall()
        problems = check_outputs(ops, rounds[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(tracer, rounds, statistics.median(imports))
    trace_file = ROOT / ".perfbench_runs" / f"trace-{workload}-seed{seed}.json"
    tracer.write(trace_file)
    info = {"rounds": len(rounds), "trace_file": str(trace_file.relative_to(ROOT))}
    return ops, rounds, metrics, info, errors, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hvqm" / "__init__.py").is_file():
        print(f"perfbench: no hvqm sources at {ROOT / 'src' / 'hvqm'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.child:
        return child(args.workload, args.seed, args.seconds)

    measure = measure_traced if args.trace else measure_in_children
    ops, rounds, metrics, info, errors, problems = measure(args.workload, args.seed,
                                                           args.seconds)
    for label, tb in errors.items():
        print(f"perfbench: operation {label!r} raised:\n{tb}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    info["failed_ops"] = sorted({op.label for r in rounds
                                 for op, f in zip(ops, r.failed) if f})
    print("perfbench: " + json.dumps(info), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r.failed) for r in rounds),
        "failed": sum(sum(r.failed) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
