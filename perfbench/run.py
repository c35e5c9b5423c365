"""The repository benchmark: one workload, several sub-runs, one verdict.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kv-closed --seed 7 --seconds 30 --trace 0

Each invocation runs the workload as several sub-runs (``subrun.py``, one
fresh interpreter each, one after the other) with seeds derived from
``--seed``, checks every sub-run's outputs, and prints a readable report
followed by one JSON line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: medians of the
sub-runs' values (CPU per command: their lower quartile), latency
percentiles over all sub-runs' samples.  With
``--trace 1`` every sub-run is run twice with the same seed, untraced and
with the per-layer timers of ``layers.py`` installed, and the metrics are
the per-layer ones (medians across the traced sub-runs) plus
``overhead.<metric>``: traced minus untraced for each end-to-end metric.

Exit status: 0 when every check passed, 1 when a safety check failed (the
JSON line is still printed, with ``"correct": false``), 2 when the
checkout has no program sources or a sub-run could not finish (no JSON
line).  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
#: Workloads on the virtual clock: deterministic for a seed.
VIRTUAL = ("log-virtual-crash",)
#: Sub-runs per invocation, each measuring ``--seconds / SUBRUNS`` wall
#: seconds.  Short sub-runs keep every sub-run's heap, and so its GC
#: pauses, alike; on the virtual workload each sub-run crashes the leader
#: once, so ``unavailable_s`` is a median over that many crashes.
SUBRUNS = {"kv-closed": 13, "log-open": 6, "log-virtual-crash": 25}
#: Virtual seconds of schedule one wall second of a virtual sub-run buys
#: (run overhead included).
VIRTUAL_PER_WALL = {"log-virtual-crash": 0.3}
SUBRUN_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_cmds_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_cmd", "ms"),
    ("rss_growth_mb", "MiB"),
    ("unavailable_s", "s"),
)

#: Per-layer metrics and their units (the traced run prints all of them;
#: a layer a workload bypasses reads 0).
PER_LAYER = (
    ("asyncio.loop_lag_p99_ms", "ms"),
    ("gc.pause_max_ms", "ms"),
    ("gc.pause_total_s", "s"),
    ("gc.gen2_count", "count"),
    ("load.late_p99_ms", "ms"),
    ("load.backlog_cmds", "count"),
    ("svc.frame_us_per_cmd", "us"),
    ("svc.apply_us_per_cmd", "us"),
    ("svc.redirects", "count"),
    ("svc.retries", "count"),
    ("span.queue_p50_ms", "ms"),
    ("span.propose_p50_ms", "ms"),
    ("span.decide_p50_ms", "ms"),
    ("span.apply_p50_ms", "ms"),
    ("span.reply_p50_ms", "ms"),
    ("net.codec_us_per_cmd", "us"),
    ("net.tagwalk_us_per_cmd", "us"),
    ("net.msgs_per_cmd", "count"),
    ("net.bytes_per_cmd", "B"),
    ("rsm.mean_batch", "count"),
    ("rsm.slots_per_cmd", "count"),
    ("rsm.pending_max", "count"),
    ("rsm.on_message_us_per_cmd", "us"),
    ("rsm.apply_us_per_cmd", "us"),
    ("consensus.deliver_us_per_cmd", "us"),
    ("consensus.msgs_per_slot", "count"),
    ("fd.deliver_us_per_cmd", "us"),
    ("fd.msgs_per_period", "count"),
    ("fd.wrongful_suspicions", "count"),
    ("fd.leader_changes", "count"),
    ("fd.detection_s", "s"),
    ("obs.record_us_per_cmd", "us"),
    ("obs.metrics_us_per_cmd", "us"),
    ("obs.events_per_cmd", "count"),
    ("sim.events_per_cmd", "count"),
    ("failed_ratio", "ratio"),
    ("verdict_violations", "count"),
) + tuple((f"overhead.{name}", unit) for name, unit in END_TO_END)


class SubrunFailed(Exception):
    """A sub-run exited abnormally or printed no result."""


def run_subrun(
    workload: str, seed: int, length: float, phase: float, trace: int
) -> Dict:
    command = [
        sys.executable, str(HERE / "subrun.py"), "--workload", workload,
        "--seed", str(seed), "--length", repr(length),
        "--phase", repr(phase), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=SUBRUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SubrunFailed(f"sub-run seed {seed} timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SubrunFailed(
            f"sub-run seed {seed} exited {done.returncode}"
        )
    return json.loads(lines[-1])


def median(runs: List[Dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def pooled(runs: List[Dict], key: str) -> List[float]:
    return [x for run in runs for x in run[key]]


def lower_quartile(runs: List[Dict], key: str) -> float:
    return statistics.quantiles([run[key] for run in runs], n=4)[0]


def end_to_end(runs: List[Dict]) -> Dict[str, float]:
    """End-to-end metrics: medians of the sub-runs' values, latency
    percentiles over the pooled samples of every sub-run.  CPU time per
    command is the sub-runs' lower quartile: other load on the host only
    ever adds to it."""
    from workloads import percentile_ms

    latencies = pooled(runs, "latencies")
    return {
        "setup_s": median(runs, "setup_s"),
        "throughput_cmds_per_s": median(runs, "throughput"),
        "latency_p50_ms": percentile_ms(latencies, 0.50),
        "latency_p99_ms": percentile_ms(latencies, 0.99),
        "cpu_ms_per_cmd": lower_quartile(runs, "cpu_ms_per_cmd"),
        "rss_growth_mb": median(runs, "rss_growth_mb"),
        "unavailable_s": median(runs, "unavailable_s"),
    }


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, float]:
    from workloads import percentile_ms

    out: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        values = [run["layers"][name] for run in traced if name in run["layers"]]
        if values:
            out[name] = statistics.median(values)
    out["load.late_p99_ms"] = percentile_ms(pooled(traced, "late"), 0.99)
    out["load.backlog_cmds"] = median(traced, "backlog")
    attempted = sum(r["attempted"] for r in traced)
    out["failed_ratio"] = sum(r["failed"] for r in traced) / attempted
    out["verdict_violations"] = float(
        sum(len(r["violations"]) for r in traced)
    )
    base, with_layers = end_to_end(untraced), end_to_end(traced)
    for name, _ in END_TO_END:
        out[f"overhead.{name}"] = with_layers[name] - base[name]
    for name, _ in PER_LAYER:
        out.setdefault(name, 0.0)
    return out


def determinism_problems(pairs: List[List[Dict]]) -> List[str]:
    """Same-seed virtual sub-runs must agree on every count, exactly."""
    problems = []
    for same_seed in pairs:
        prints = [run["fingerprint"] for run in same_seed]
        if any(p != prints[0] for p in prints[1:]):
            problems.append(f"same-seed virtual runs differ: {prints}")
    schedules = [same_seed[0]["fingerprint"]["schedule"] for same_seed in pairs]
    if len(set(schedules)) != len(schedules):
        problems.append("different seeds generated the same schedule")
    return problems


def report(workload: str, runs: List[Dict], length: float) -> List[str]:
    """Readable summary of the untraced sub-runs."""
    from workloads import percentile_ms

    metrics = end_to_end(runs)
    samples = len(pooled(runs, "latencies"))
    beyond = samples - -(-samples * 99 // 100)
    late = pooled(runs, "late")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    violations = [name for r in runs for name in r["violations"]]
    unit = "virtual s" if workload in VIRTUAL else "s"
    lines = [
        f"workload {workload}: {len(runs)} sub-runs of {length:.3g} {unit}",
        f"  setup_s                {metrics['setup_s']:.6f} s "
        f"(median of {len(runs)})",
        f"  throughput_cmds_per_s  {metrics['throughput_cmds_per_s']:.2f} 1/s",
        f"  latency_p50_ms         {metrics['latency_p50_ms']:.3f} ms "
        f"(n={samples})",
        f"  latency_p99_ms         {metrics['latency_p99_ms']:.3f} ms "
        f"(n={samples}, {beyond} beyond)",
        f"  cpu_ms_per_cmd         {metrics['cpu_ms_per_cmd']:.4f} ms "
        f"(lower quartile of {len(runs)})",
        f"  rss_growth_mb          {metrics['rss_growth_mb']:.2f} MiB",
        f"  unavailable_s          {metrics['unavailable_s']:.6f} s",
        f"  failed_ratio           {failed / attempted:.6f} "
        f"({failed}/{attempted})",
        f"  verdict_violations     {len(violations)} "
        f"({', '.join(sorted(set(violations))) or 'none'})",
    ]
    if workload == "log-open":
        lines += [
            f"  load.late_p99_ms       {percentile_ms(late, 0.99):.3f} ms "
            f"(n={len(late)})",
            "  load.backlog_cmds      "
            + " ".join(str(r["backlog"]) for r in runs)
            + " (unapplied at each window's end)",
        ]
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    count = SUBRUNS[args.workload]
    length = args.seconds / count * VIRTUAL_PER_WALL.get(args.workload, 1.0)
    seeds = [args.seed * 1000 + i for i in range(count)]
    # Crash phases spread evenly over the detector period (virtual runs).
    phases = [(i + 0.5) / count for i in range(count)]
    virtual = args.workload in VIRTUAL

    untraced: List[Dict] = []
    traced: List[Dict] = []
    same_seed: List[List[Dict]] = []
    try:
        for seed, phase in zip(seeds, phases):
            untraced.append(run_subrun(args.workload, seed, length, phase, 0))
            if args.trace:
                traced.append(
                    run_subrun(args.workload, seed, length, phase, 1)
                )
                same_seed.append([untraced[-1], traced[-1]])
        if virtual and not args.trace:
            repeat = run_subrun(args.workload, seeds[0], length, phases[0], 0)
            same_seed = [[untraced[0], repeat]] + [[r] for r in untraced[1:]]
    except SubrunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = untraced + traced
    problems = [p for run in runs for p in run["safety"]]
    if virtual:
        problems += determinism_problems(same_seed)
    for line in report(args.workload, untraced, length):
        print(line)
    for problem in problems:
        print(f"  SAFETY: {problem}")
    if args.trace:
        values = per_layer(traced, untraced)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(untraced)
        units = dict(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
