#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload geo7-reads --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` makes the traced run that reports the per-layer metrics and
runs the offline correctness checks.  Every run checks its outputs and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("geo7-reads", "geo7-writes", "social-1m", "wire-loopback")

#: end-to-end metrics and their units (BENCHMARK.json holds the bounds)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "host_ops_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "vis_p50_ms": "ms",
    "goodput_frac": "frac",
}

#: per-layer metrics of the traced run and their units; the two tail
#: latencies are end-to-end quantities reported here, without a bound,
#: because on wire-loopback host noise moves them more than any bound
PER_LAYER = {
    "latency.op_p99_ms": "ms",
    "latency.vis_p99_ms": "ms",
    "sim.events": "count",
    "sim.events_per_op": "count",
    "sim.kernel_self_s": "s",
    "sim.network.messages": "count",
    "sim.network.bytes": "B",
    "sim.network.send_s": "s",
    "sim.network.deliver_s": "s",
    "sim.cpu.busy_frac": "frac",
    "config.solve_s": "s",
    "config.trees_solved": "count",
    "core.serializer.self_s": "s",
    "core.serializer.batches": "count",
    "core.serializer.labels_forwarded": "count",
    "core.serializer.labels_per_batch": "count",
    "datacenter.datacenter.self_s": "s",
    "datacenter.frontend.self_s": "s",
    "datacenter.gear.self_s": "s",
    "datacenter.storage.self_s": "s",
    "datacenter.client.self_s": "s",
    "datacenter.label_sink.self_s": "s",
    "datacenter.label_sink.labels_per_batch": "count",
    "datacenter.label_sink.deferred_labels": "count",
    "datacenter.remote_proxy.self_s": "s",
    "datacenter.remote_proxy.wait_p99_sim_ms": "ms",
    "datacenter.overload.self_s": "s",
    "datacenter.overload.admitted": "count",
    "datacenter.overload.rejected": "count",
    "datacenter.overload.reject_frac": "frac",
    "datacenter.overload.peak_inflight": "count",
    "workloads.streaming.self_s": "s",
    "workloads.streaming.users_touched": "count",
    "workloads.synthetic.self_s": "s",
    "workloads.openloop.self_s": "s",
    "workloads.openloop.queue_p99_sim_ms": "ms",
    "workloads.openloop.peak_backlog": "count",
    "workloads.openloop.peak_pool": "count",
    "workloads.arrivals.self_s": "s",
    "metrics.record_s": "s",
    "net.codec.encode_s": "s",
    "net.codec.decode_s": "s",
    "net.codec.bytes_per_label": "B",
    "net.tcp.send_s": "s",
    "net.tcp.frames": "count",
    "net.tcp.labels_per_frame": "count",
    "net.kernel.callbacks": "count",
    "net.kernel.loop_lag_p99_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_frac": "frac",
}

#: simulated runs pooled into one measurement, each with its own seed
#: derived from --seed; more runs repeat them until --seconds have passed
SIM_RUNS = {"geo7-reads": 6, "geo7-writes": 6, "social-1m": 1}
#: set-ups per measurement as (batches, set-ups per batch): each batch is
#: timed as a whole and the median time per set-up over batches reported.
#: A geo7 set-up solves Algorithm 3 (seconds); a social-1m one only builds
#: the lazily generated cluster (~0.2 ms, too short to time one by one)
SETUPS = {"geo7-reads": (3, 1), "geo7-writes": (3, 1), "social-1m": (9, 100)}
#: a percentile is reported only with at least this many samples above it
MIN_TAIL_SAMPLES = 10


def percentile(samples, p: float) -> float:
    """Linear-interpolated percentile (0..100) of a non-empty sequence."""
    ordered = sorted(samples)
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def tail_problems(name: str, samples) -> list:
    """Print the sample count, p50 and p99; fail if p99 has too few
    samples above it."""
    if not samples:
        return [f"{name}: no samples"]
    p99 = percentile(samples, 99)
    above = sum(1 for x in samples if x > p99)
    print(f"samples {name}: n={len(samples)} above_p99={above} "
          f"p50={percentile(samples, 50):.4g} ms p99={p99:.4g} ms")
    if above < MIN_TAIL_SAMPLES:
        return [f"{name}: only {above} samples above p99 "
                f"(need {MIN_TAIL_SAMPLES})"]
    return []


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- simulated workloads ----------------------------------------------------------

def sim_seeds(workload: str, seed: int) -> list:
    """The seeds of the simulated runs one measurement pools."""
    return [seed * 10 + i for i in range(SIM_RUNS[workload])]


def sim_e2e(workload: str, seed: int, seconds: float) -> tuple:
    import gc
    import time

    import calib
    import simloads

    seeds = sim_seeds(workload, seed)
    batches, size = SETUPS[workload]

    def setup_batch():
        for _ in range(size):
            built = simloads.setup(workload, seeds[0])
        return built

    setups, raw_setups = [], []
    for _ in range(batches):
        clock = calib.SlicedClock()
        _, topology, _ = clock.run(setup_batch)
        raw_setups.append(clock.raw_s / size)
        setups.append(clock.reference_s / size)
    reps = []
    t0 = time.perf_counter()
    while True:
        rep = simloads.run_rep(workload, seeds[len(reps) % len(seeds)],
                               topology=topology, calibrated=True)
        rep.stats = {}
        if len(reps) >= len(seeds):
            # a repeat is kept for its host time and digest only
            rep.op_latencies = rep.vis_latencies = []
        reps.append(rep)
        gc.collect()
        if len(reps) == len(seeds):
            # how many repeats fit in --seconds depends on the host's speed
            rss_mib = peak_rss_mib()
        elapsed = time.perf_counter() - t0
        # stop at the run whose end is nearest to --seconds
        if (len(reps) >= len(seeds)
                and elapsed + elapsed / len(reps) / 2.0 >= seconds):
            break
    problems = []
    for index, rep in enumerate(reps):
        first = reps[index % len(seeds)]
        print(f"digest {workload} seed={rep.seed} {rep.digest}")
        if rep.digest != first.digest:
            problems.append(f"simulated digest of seed {rep.seed} differs "
                            "between runs")
        problems.extend(rep.problems)
    print(f"runs={len(reps)} host_run_s={[round(r.run_s, 3) for r in reps]}"
          f" reference_s={[round(r.reference_s, 3) for r in reps]}")
    print(f"setups={batches}x{size} host s min/max={min(raw_setups):.4g}/"
          f"{max(raw_setups):.4g} reference s min/max={min(setups):.4g}/"
          f"{max(setups):.4g}")
    print(f"host ops/s without calibration: median "
          f"{statistics.median(r.host_ops_per_s for r in reps):.6g}")
    pooled = reps[:len(seeds)]
    vis = [x for rep in pooled for x in rep.vis_latencies]
    if pooled[0].open_loop is not None:
        ol = {key: sum(rep.open_loop[key] for rep in pooled)
              for key in ("offered", "completed", "refused", "unfinished")}
        print(f"open loop (due in window): offered={ol['offered']} "
              f"completed={ol['completed']} refused={ol['refused']} "
              f"unfinished={ol['unfinished']}")
        op = [x for rep in pooled for x in rep.op_latencies
              if not math.isinf(x)]
        goodput = ol["completed"] / ol["offered"]
    else:
        op = [x for rep in pooled for x in rep.op_latencies]
        goodput = (sum(rep.ops_completed for rep in pooled)
                   / sum(rep.ops_issued for rep in pooled))
    attempted = sum(rep.ops_issued for rep in pooled)
    problems += tail_problems("op", op) + tail_problems("vis", vis)
    if not op or not vis:
        return problems, attempted, {}
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss_mib,
        "host_ops_per_s": statistics.median(r.reference_ops_per_s
                                            for r in reps),
        "ops_per_s": statistics.fmean(rep.ops_per_s for rep in pooled),
        "op_p50_ms": percentile(op, 50),
        "vis_p50_ms": percentile(vis, 50),
        "goodput_frac": goodput,
    }
    return problems, attempted, metrics


def sim_traced(workload: str, seed: int, out_dir: Path) -> tuple:
    import checks
    import simloads
    import spans
    from tracing import Tracer

    seed = sim_seeds(workload, seed)[0]
    reference = simloads.run_rep(workload, seed, calibrated=True)
    tracer, hooks = Tracer(), spans.Hooks()
    spans.install_sim(tracer, hooks)
    try:
        traced = simloads.run_rep(workload, seed, keep_cluster=True)
    finally:
        tracer.uninstall()
    logs = []

    def execution_log(cluster):
        logs.append(checks.ExecutionLog(cluster.replication))
        return logs[-1]

    checked = simloads.run_rep(workload, seed, topology=reference.topology,
                               execution_log_factory=execution_log,
                               keep_cluster=True)
    problems = []
    for label, rep in (("untraced", reference), ("traced", traced),
                       ("checked", checked)):
        print(f"digest {workload} seed={seed} {rep.digest} ({label})")
        if rep.digest != reference.digest:
            problems.append(f"simulated digest of the {label} run differs "
                            "from the untraced run")
        problems.extend(rep.problems)
    causal = checks.causal_violations(
        logs[0], checked.cluster.replication, simloads.DURATION[workload],
        simloads.VISIBILITY_BOUND[workload])
    print(f"causal check (ExecutionLog): {len(causal)} violations")
    problems.extend(causal)

    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.tsv"
    tracer.write(span_file)

    cluster = traced.cluster
    stats = traced.stats
    self_s = tracer.self_times()
    run_total = tracer.total("sim.engine")
    in_run = tracer.self_times(within="sim.engine")
    print(f"trace: {len(tracer)} spans -> {span_file.relative_to(ROOT)}")
    print(f"trace accounting: Simulator.run {run_total:.4f} s = layer self "
          f"times {sum(v for k, v in in_run.items() if k != 'sim.engine'):.4f}"
          f" s + kernel self {in_run.get('sim.engine', 0.0):.4f} s")
    for name, value in sorted(in_run.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {value:9.4f} s  {value / run_total:6.1%}")

    dcs = list(cluster.datacenters.values())
    serializers = list(cluster.service.serializers().values())
    admissions = [dc.admission for dc in dcs if dc.admission is not None]
    admitted = sum(a.admitted for a in admissions)
    rejected = sum(a.rejected for a in admissions)
    sink_batches = sum(dc.sink.batches_flushed for dc in dcs)
    open_loop = traced.open_loop
    op = [x for x in traced.op_latencies if not math.isinf(x)]
    problems += tail_problems("op", op)
    problems += tail_problems("vis", traced.vis_latencies)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "latency.op_p99_ms": percentile(op, 99),
        "latency.vis_p99_ms": percentile(traced.vis_latencies, 99),
        "sim.events": stats["sim.events"],
        "sim.events_per_op": stats["sim.events"] / traced.ops_completed,
        "sim.kernel_self_s": self_s.get("sim.engine", 0.0),
        "sim.network.messages": stats["network.messages"],
        "sim.network.bytes": stats["network.bytes"],
        "sim.network.send_s": self_s.get("sim.network.send", 0.0),
        "sim.network.deliver_s": self_s.get("sim.network.deliver", 0.0),
        "sim.cpu.busy_frac": simloads.cpu_busy_frac(
            cluster, simloads.DURATION[workload]),
        "config.solve_s": (self_s.get("config", 0.0)
                           + self_s.get("config.tree", 0.0)),
        "config.trees_solved": tracer.count("config.tree"),
        "core.serializer.self_s": self_s.get("core.serializer", 0.0),
        "core.serializer.batches": hooks.serializer_batches,
        "core.serializer.labels_forwarded": sum(
            s.labels_forwarded + s.labels_delivered for s in serializers),
        "core.serializer.labels_per_batch": (
            hooks.serializer_labels_in / hooks.serializer_batches),
        "datacenter.label_sink.labels_per_batch": (
            sum(dc.sink.labels_flushed for dc in dcs) / sink_batches),
        "datacenter.label_sink.deferred_labels": sum(
            dc.sink.deferred_labels for dc in dcs),
        "datacenter.remote_proxy.wait_p99_sim_ms": (
            percentile(hooks.proxy_waits, 99) if hooks.proxy_waits else 0.0),
        "datacenter.overload.admitted": admitted,
        "datacenter.overload.rejected": rejected,
        "datacenter.overload.reject_frac": (
            rejected / (admitted + rejected) if admissions else 0.0),
        "datacenter.overload.peak_inflight": max(
            (a.peak_inflight for a in admissions), default=0),
        "metrics.record_s": self_s.get("metrics", 0.0),
        "trace.overhead_frac": (
            1.0 - traced.host_ops_per_s / reference.host_ops_per_s),
    })
    for layer in ("datacenter", "frontend", "gear", "storage", "client",
                  "label_sink", "remote_proxy", "overload"):
        metrics[f"datacenter.{layer}.self_s"] = self_s.get(
            f"datacenter.{layer}", 0.0)
    for layer in ("streaming", "synthetic", "openloop", "arrivals"):
        metrics[f"workloads.{layer}.self_s"] = self_s.get(
            f"workloads.{layer}", 0.0)
    if open_loop is not None:
        metrics["workloads.streaming.users_touched"] = (
            cluster.workload.graph.touched_users())
        metrics["workloads.openloop.queue_p99_sim_ms"] = percentile(
            open_loop["queueing"], 99)
        metrics["workloads.openloop.peak_backlog"] = max(
            s.peak_backlog for s in cluster.sources)
        metrics["workloads.openloop.peak_pool"] = sum(
            s.peak_pool for s in cluster.sources)
    return problems, traced.ops_issued, metrics


# -- wire-loopback -----------------------------------------------------------------

def wire_run(seed: int, seconds: float, traced: bool, out_dir: Path) -> tuple:
    import wire

    if not traced:
        result = wire.run_wire(seed, seconds)
        problems = list(result.violations)
        problems += tail_problems("op", result.op_ms)
        problems += tail_problems("vis", result.vis_ms)
        print(f"window slices (labels/s): "
              f"{[round(r) for r in result.window_rates]}")
        print(f"set-ups: host s min/max={min(result.setup_raw_s):.4g}/"
              f"{max(result.setup_raw_s):.4g}")
        print(f"rate: {result.rate_delivered} of {result.rate_offered} "
              f"labels; generator late p99 "
              f"{percentile(result.late_ms, 99):.3f} ms")
        metrics = {
            "setup_s": statistics.median(result.setup_s),
            "peak_rss_mib": peak_rss_mib(),
            "host_ops_per_s": result.window_reference_rate,
            "ops_per_s": result.rate_delivered / result.rate_s,
            "op_p50_ms": percentile(result.op_ms, 50),
            "vis_p50_ms": percentile(result.vis_ms, 50),
            "goodput_frac": result.rate_delivered / result.rate_offered,
        }
        return problems, result.injected, metrics, len(result.violations)

    import spans
    from tracing import Tracer

    reference = wire.run_wire(seed, seconds)
    tracer, hooks = Tracer(), spans.Hooks()
    spans.install_wire(tracer, hooks)
    try:
        result = wire.run_wire(seed, seconds, probe=True)
    finally:
        tracer.uninstall()
    problems = list(reference.violations) + list(result.violations)
    problems += tail_problems("op", result.op_ms)
    problems += tail_problems("vis", result.vis_ms)
    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-wire-loopback-seed{seed}.tsv"
    tracer.write(span_file)
    print(f"trace: {len(tracer)} spans -> {span_file.relative_to(ROOT)}")
    self_s = tracer.self_times()
    frames = tracer.count("net.codec.encode")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "latency.op_p99_ms": percentile(result.op_ms, 99),
        "latency.vis_p99_ms": percentile(result.vis_ms, 99),
        "core.serializer.self_s": self_s.get("core.serializer", 0.0),
        "core.serializer.batches": hooks.serializer_batches,
        "core.serializer.labels_forwarded": result.serializer_forwarded,
        "core.serializer.labels_per_batch": (
            hooks.serializer_labels_in / hooks.serializer_batches),
        "net.codec.encode_s": self_s.get("net.codec.encode", 0.0),
        "net.codec.decode_s": self_s.get("net.codec.decode", 0.0),
        "net.codec.bytes_per_label": (
            result.bytes_sent / result.labels_over_tcp),
        "net.tcp.send_s": self_s.get("net.tcp.send", 0.0),
        "net.tcp.frames": frames,
        "net.tcp.labels_per_frame": result.labels_over_tcp / frames,
        "net.kernel.callbacks": result.kernel_callbacks,
        "net.kernel.loop_lag_p99_ms": percentile(result.loop_lag_ms, 99),
        "loadgen.late_p99_ms": percentile(result.late_ms, 99),
        "trace.overhead_frac": 1.0 - (result.window_reference_rate
                                      / reference.window_reference_rate),
    })
    return problems, result.injected, metrics, len(result.violations)


# -- entry point --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"error: no program source at {source}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro
    if Path(repro.__file__).resolve().parent != source.resolve():
        print(f"error: imported repro from {repro.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    failed = 0
    if args.workload == "wire-loopback":
        problems, attempted, metrics, failed = wire_run(
            args.seed, args.seconds, bool(args.trace), out_dir)
    elif args.trace:
        problems, attempted, metrics = sim_traced(args.workload, args.seed,
                                                  out_dir)
    else:
        problems, attempted, metrics = sim_e2e(args.workload, args.seed,
                                               args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("verdict:", "correct" if not problems else "INCORRECT")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
