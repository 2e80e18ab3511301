#!/usr/bin/env python3
"""Repository benchmark: `lintime serve` and the streaming checker.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` worker package, then
runs the workload in fresh worker processes, one measured run each, until
`--seconds` have passed, and reports medians over those runs. `--trace 0`
reports the end-to-end metrics of untraced runs; `--trace 1` reports the
per-layer ledger of traced runs. Every metric is printed with its unit, and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only if every run's output was correct (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ["serve-queue-backlog", "serve-register-reads", "check-stream-queue"]

# Seeds recorded for later claims: develop on the first, confirm on the second.
DEV_SEED = 1
HELD_OUT_SEED = 20261017

# Fewest measured runs a workload gets, however short --seconds is.
MIN_RUNS = 3

# Host times are reported at a reference host speed: the speed at which the
# worker's frozen reference kernel (src/calib.rs) takes this many seconds.
# Each run times the kernel right before and after its work, and its rates
# are scaled by kernel time / KERNEL_REF_S (its durations by the inverse),
# which cancels the minute-scale speed swings of a shared host.
KERNEL_REF_S = 0.030

END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "service_p50_ticks": "ticks",
    "service_p999_ticks": "ticks",
    "total_p99_ticks": "ticks",
}

# Simulated-time figures and counts: a given seed must repeat them exactly.
EXACT_END_TO_END = ["service_p50_ticks", "service_p999_ticks", "total_p99_ticks"]
EXACT_PER_LAYER = [
    "serve.peak_in_flight",
    "engine.events_per_op",
    "core.invoke_calls_per_op",
    "core.deliver_calls_per_op",
    "core.timer_calls_per_op",
    "core.msgs_per_op",
    "core.bytes_per_op",
    "core.batch.announcements_per_flush",
    "adt.apply_calls_per_op",
    "sink.events_per_op",
    "check.flushes",
    "check.fallbacks_per_flush",
    "check.gc_reclaimed_share",
    "check.peak_resident_ops",
    "obs.observe_calls_per_op",
]

PER_LAYER = {
    "serve.generate_ms": "ms",
    "serve.rollup_ms": "ms",
    "serve.reconcile_ns_per_op": "ns/op",
    "serve.join_wait_ms": "ms",
    "serve.unattributed_share": "ratio",
    "serve.peak_in_flight": "ops",
    "engine.events_per_op": "events/op",
    "engine.self_ns_per_event": "ns/event",
    "engine.events_per_s": "events/s",
    "core.invoke_calls_per_op": "calls/op",
    "core.deliver_calls_per_op": "calls/op",
    "core.timer_calls_per_op": "calls/op",
    "core.invoke_ns": "ns/call",
    "core.deliver_ns": "ns/call",
    "core.timer_ns": "ns/call",
    "core.msgs_per_op": "msgs/op",
    "core.bytes_per_op": "bytes/op",
    "core.batch.announcements_per_flush": "anns/flush",
    "adt.apply_calls_per_op": "calls/op",
    "adt.apply_ns": "ns/call",
    "sink.events_per_op": "events/op",
    "sink.recv_wait_share": "ratio",
    "check.feed_ns_per_event": "ns/event",
    "check.finish_ms": "ms",
    "check.flushes": "count",
    "check.fallbacks_per_flush": "ratio",
    "check.gc_reclaimed_share": "ratio",
    "check.peak_resident_ops": "ops",
    "check.busy_share": "ratio",
    "obs.observe_calls_per_op": "calls/op",
    "obs.observe_ns": "ns/call",
    "trace.overhead_share": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the worker; return its path, or None if the build failed."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("building the benchmark failed")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def one_run(exe, mode, workload, seed, spans=None):
    """Run the worker once in a fresh process: (result dict, peak RSS in MB)."""
    cmd = [exe, mode, "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 gives this child's own resource usage: its peak RSS cannot mix
    # with any other run's.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def repeat(exe, mode, workload, seed, seconds, spans=None):
    """Measured runs until `seconds` have passed (at least MIN_RUNS)."""
    runs, start = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        runs.append(one_run(exe, mode, workload, seed, spans))
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed + last > seconds:
            return runs


def identical(values):
    return all(v == values[0] for v in values)


def untraced(exe, workload, seed, seconds):
    runs = repeat(exe, "rep", workload, seed, seconds)
    results = [r for r, _ in runs]
    problems = []
    for key in EXACT_END_TO_END + ["verdict", "ops", "events", "shards", "stats"]:
        if not identical([r.get(key) for r in results]):
            problems.append(f"{key} differs between runs of one seed")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    speed = [r["kernel_s"] / KERNEL_REF_S for r in results]
    log(f"{workload}: raw medians: ops_per_s "
        f"{statistics.median(r['ops_per_s'] for r in results):.6g}, setup_s "
        f"{statistics.median(r['setup_s'] for r in results):.6g}, kernel_s "
        f"{statistics.median(r['kernel_s'] for r in results):.6g}")
    metrics = {
        "ops_per_s": statistics.median(r["ops_per_s"] * k for r, k in zip(results, speed)),
        "setup_s": statistics.median(r["setup_s"] / k for r, k in zip(results, speed)),
        "peak_rss_mb": statistics.median(rss for _, rss in runs),
        "ok_frac": 1.0 - failed / attempted,
    }
    for key in EXACT_END_TO_END:
        metrics[key] = results[0][key]
    correct = all(r["correct"] for r in results) and not problems
    return correct, attempted, failed, metrics, problems, len(runs)


def traced(exe, workload, seed, seconds):
    spans = os.path.join(HERE, "out", f"spans-{workload}.jsonl")
    runs = repeat(exe, "trace", workload, seed, seconds, spans)
    results = [r for r, _ in runs]
    problems = [r["mismatch"] for r in results if not r["equivalent"]][:1]
    for key in EXACT_PER_LAYER:
        if not identical([r["metrics"][key] for r in results]):
            problems.append(f"{key} differs between runs of one seed")
    med = {
        key: statistics.median(r["metrics"][key] for r in results)
        for key in results[0]["metrics"]
    }
    untraced_rate = med.pop("trace.untraced_ops_per_s")
    traced_rate = med.pop("trace.traced_ops_per_s")
    med["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    metrics = {key: med[key] for key in PER_LAYER}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results) and not problems
    return correct, attempted, failed, metrics, problems, len(runs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEV_SEED,
                    help=f"workload seed (development {DEV_SEED}, held out {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    measure = traced if args.trace else untraced
    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, att, fail, values, problems, runs = measure(exe, name, args.seed, args.seconds)
        except (RuntimeError, KeyError, ValueError) as e:
            log(f"{name}: {e}")
            return 2
        for p in problems:
            log(f"{name}: {p}")
        print(f"{name}: {runs} runs, seed {args.seed}, output {'correct' if ok else 'WRONG'}")
        for key, value in values.items():
            print(f"  {key:<36} {value:>16.6g} {units[key]}")
        correct = correct and ok
        attempted += att
        failed += fail
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
