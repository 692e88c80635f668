"""The three simulated workloads: build, run, measure, digest.

``geo7-reads``  closed loop on the 7 EC2 regions, Algorithm-3 M-configuration
                solved during set-up, SyntheticWorkload paper defaults.
``geo7-writes`` the same cluster at 1:9 R:W with full replication.
``social-1m``   open loop on the I-F-T serializer chain: 10**6-user
                StreamingFacebookWorkload, Poisson arrivals at 8000 ops/s
                per datacenter, backpressure chain as in ``overload()``.

Every simulated number is a pure function of (workload, seed); host time
is measured around :meth:`Cluster.run` only.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import placement
from repro.config.latencies import EC2_REGIONS, ec2_latency
from repro.core.tree import TreeTopology
from repro.datacenter.overload import OverloadConfig
from repro.harness.runner import Cluster, ClusterConfig
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.openloop import OpenLoopClient, OpenLoopSource
from repro.workloads.streaming import StreamingFacebookWorkload
from repro.workloads.synthetic import SyntheticWorkload

from calib import SlicedClock
from tracing import Patches

__all__ = ["DURATION", "WARMUP", "VISIBILITY_BOUND",
           "SimRep", "OpenLoopTimer", "setup", "run_rep", "solve_topology",
           "build_cluster", "simulated_stats", "digest", "cpu_busy_frac",
           "accounting_violations"]

#: simulated run length and warm-up window (ms)
DURATION = {"geo7-reads": 800.0, "geo7-writes": 800.0, "social-1m": 800.0}
WARMUP = {"geo7-reads": 200.0, "geo7-writes": 200.0, "social-1m": 100.0}
#: open-loop ops are timed if due in [warmup, duration - OPEN_HORIZON];
#: one not finished by the end of the run counts as a miss
OPEN_HORIZON = 300.0
#: the completeness check covers updates created before
#: duration - VISIBILITY_BOUND (runs stop without draining)
VISIBILITY_BOUND = {"geo7-reads": 400.0, "geo7-writes": 400.0,
                    "social-1m": 550.0}

SOCIAL_SITES = ("I", "F", "T")
SOCIAL_RATE_OPS_S = 8000.0
#: Algorithm-3 beam width of the paper's M-configuration (Scale default)
BEAM_WIDTH = 6


def _social_topology() -> TreeTopology:
    """Serializer chain co-located with the datacenters (as ``overload()``)."""
    names = [f"s{site}" for site in SOCIAL_SITES]
    return TreeTopology(
        serializer_sites=dict(zip(names, SOCIAL_SITES)),
        edges=list(zip(names, names[1:])),
        attachments={site: f"s{site}" for site in SOCIAL_SITES})


def solve_topology(workload: str) -> TreeTopology:
    """The tree the workload runs on; Algorithm 3 for ``geo7-*``.

    Called through the ``placement`` module so a traced run sees it."""
    if workload == "social-1m":
        return _social_topology()
    sites = list(EC2_REGIONS)
    return placement.find_configuration(
        sites, {s: s for s in sites}, ec2_latency,
        beam_width=BEAM_WIDTH).topology


def build_cluster(workload: str, seed: int,
                  topology: TreeTopology) -> Cluster:
    if workload == "social-1m":
        config = ClusterConfig(
            system="saturn", sites=SOCIAL_SITES, num_partitions=2, seed=seed,
            saturn_topology=topology,
            arrivals=PoissonArrivals(rate_ops_s=SOCIAL_RATE_OPS_S),
            overload=OverloadConfig(sink_buffer_cap=50, sink_credits=20,
                                    serializer_service_rate=2.0))
        load = StreamingFacebookWorkload(num_users=10**6, min_replicas=2,
                                         max_replicas=3)
    else:
        config = ClusterConfig(
            system="saturn", sites=tuple(EC2_REGIONS), num_partitions=2,
            clients_per_dc=8, seed=seed, saturn_topology=topology)
        load = (SyntheticWorkload() if workload == "geo7-reads" else
                SyntheticWorkload(read_ratio=0.1, correlation="full"))
    return Cluster(config, load)


# -- open-loop due-time timing -------------------------------------------------

class OpenLoopTimer(Patches):
    """Times every open-loop op from its due time.

    Wraps the public ``PoissonArrivals.next_interarrival`` (due times),
    ``OpenLoopClient.issue_one`` (dispatch) and
    ``OpenLoopSource.client_available`` (completion or refusal) and pairs
    the k-th arrival of a source with its k-th dispatch: the backlog is
    FIFO, so the pairing is exact.  Simulated times only; the wrappers
    schedule nothing, so the simulated execution is unchanged."""

    def __init__(self) -> None:
        super().__init__()
        #: per arrival stream: due times, dispatch times, completions
        self.due: Dict[int, List[float]] = {}
        self.dispatch: Dict[int, List[float]] = {}
        self.done: Dict[int, Dict[int, tuple]] = {}
        self._outstanding: Dict[str, tuple] = {}

    def install(self) -> None:
        timer = self
        next_gap = PoissonArrivals.next_interarrival
        issue_one = OpenLoopClient.issue_one
        available = OpenLoopSource.client_available

        def next_interarrival(arrivals, stream, now_ms):
            gap = next_gap(arrivals, stream, now_ms)
            timer.due.setdefault(id(stream), []).append(now_ms + gap)
            return gap

        def timed_issue_one(client):
            sid = id(client.source.stream)
            dispatched = timer.dispatch.setdefault(sid, [])
            timer._outstanding[client.name] = (sid, len(dispatched),
                                               client.ops_rejected)
            dispatched.append(client.sim.now)
            return issue_one(client)

        def timed_client_available(source, client):
            pending = timer._outstanding.pop(client.name, None)
            if pending is not None:
                sid, k, rejected_before = pending
                timer.done.setdefault(sid, {})[k] = (
                    client.sim.now, client.ops_rejected > rejected_before)
            return available(source, client)

        self.replace(PoissonArrivals, "next_interarrival", next_interarrival)
        self.replace(OpenLoopClient, "issue_one", timed_issue_one)
        self.replace(OpenLoopSource, "client_available",
                     timed_client_available)

    def summarize(self, sources: List[OpenLoopSource], start: float,
                  stop: float) -> dict:
        """Latencies (due -> done, refusals and unfinished ops as misses)
        and queueing (due -> dispatch) of ops due in [start, stop)."""
        latencies: List[float] = []
        queueing: List[float] = []
        offered = completed = refused = unfinished = 0
        for source in sources:
            sid = id(source.stream)
            due = self.due.get(sid, [])[:source.offered]
            dispatch = self.dispatch.get(sid, [])
            done = self.done.get(sid, {})
            for k, due_at in enumerate(due):
                if not start <= due_at < stop:
                    continue
                offered += 1
                if k < len(dispatch):
                    queueing.append(dispatch[k] - due_at)
                finished = done.get(k)
                if finished is None:
                    unfinished += 1
                    latencies.append(math.inf)
                elif finished[1]:
                    refused += 1
                    latencies.append(math.inf)
                else:
                    completed += 1
                    latencies.append(finished[0] - due_at)
        return {"latencies": latencies, "queueing": queueing,
                "offered": offered, "completed": completed,
                "refused": refused, "unfinished": unfinished}


class _CountingGenerator:
    """Counts the ops a closed-loop client's workload generator issues."""

    __slots__ = ("inner", "issued")

    def __init__(self, inner) -> None:
        self.inner = inner
        self.issued = 0

    def __call__(self, client):
        op = self.inner(client)
        if op is not None:
            self.issued += 1
        return op


# -- one simulated run -----------------------------------------------------------

@dataclass
class SimRep:
    """Outcome of one simulated run."""

    workload: str
    seed: int
    #: host seconds of Cluster.run (calibration loops left out)
    run_s: float
    cluster: Optional[Cluster]
    ops_completed: int
    #: ops issued (closed loop) or arrivals offered (open loop)
    ops_issued: int
    op_latencies: List[float]
    vis_latencies: List[float]
    ops_per_s: float
    topology: Optional[TreeTopology] = None
    open_loop: Optional[dict] = None
    stats: dict = field(default_factory=dict)
    digest: str = ""
    #: open-loop accounting identities that did not hold
    problems: List[str] = field(default_factory=list)
    #: Cluster.run on the reference CPU (calib.py), if run with a clock
    reference_s: Optional[float] = None

    @property
    def host_ops_per_s(self) -> float:
        return self.ops_completed / self.run_s

    @property
    def reference_ops_per_s(self) -> float:
        return self.ops_completed / self.reference_s


def setup(workload: str, seed: int, topology: Optional[TreeTopology] = None):
    """Solve (unless *topology* is given) and build; returns the cluster,
    the topology and the host seconds it took."""
    t0 = time.perf_counter()
    if topology is None:
        topology = solve_topology(workload)
    cluster = build_cluster(workload, seed, topology)
    return cluster, topology, time.perf_counter() - t0


def run_rep(workload: str, seed: int, topology: Optional[TreeTopology] = None,
            execution_log_factory=None, keep_cluster: bool = False,
            calibrated: bool = False) -> SimRep:
    """Set up and run one simulated execution of *workload*; the cluster
    is dropped from the result unless *keep_cluster*.  *calibrated* runs
    it in calibrated slices and sets ``reference_s``."""
    timer = OpenLoopTimer() if workload == "social-1m" else None
    cluster, topology, _ = setup(workload, seed, topology)
    counters = []
    for client in cluster.clients:
        client.workload = _CountingGenerator(client.workload)
        counters.append(client.workload)
    if execution_log_factory is not None:
        cluster.attach_execution_log(execution_log_factory(cluster))
    duration, warmup = DURATION[workload], WARMUP[workload]
    clock = SlicedClock() if calibrated else None
    if timer is not None:
        timer.install()
    try:
        t0 = time.perf_counter()
        if clock is not None:
            results = clock.run(
                lambda: cluster.run(duration=duration, warmup=warmup))
            run_s = clock.raw_s
        else:
            results = cluster.run(duration=duration, warmup=warmup)
            run_s = time.perf_counter() - t0
    finally:
        if timer is not None:
            timer.uninstall()
    ops = results.ops
    open_loop = None
    if timer is not None:
        open_loop = timer.summarize(cluster.sources, warmup,
                                    duration - OPEN_HORIZON)
        open_loop["outstanding"] = [
            len(timer.dispatch.get(id(s.stream), []))
            - len(timer.done.get(id(s.stream), {})) for s in cluster.sources]
        op_latencies = open_loop["latencies"]
        issued = sum(s.offered for s in cluster.sources)
    else:
        op_latencies = ops.latencies(start=warmup)
        issued = sum(c.issued for c in counters)
    rep = SimRep(workload=workload, seed=seed, run_s=run_s,
                 cluster=cluster, ops_completed=ops.total_ops(),
                 ops_issued=issued, op_latencies=op_latencies,
                 vis_latencies=results.visibility.samples(),
                 ops_per_s=results.throughput, topology=topology,
                 open_loop=open_loop)
    if clock is not None:
        rep.reference_s = clock.reference_s
    rep.stats = simulated_stats(rep)
    rep.digest = digest(rep.stats)
    if open_loop is not None:
        rep.problems = accounting_violations(cluster, open_loop["outstanding"])
    if not keep_cluster:
        rep.cluster = None
    return rep


# -- simulated statistics -------------------------------------------------------

def simulated_stats(rep: SimRep) -> dict:
    """Every simulated statistic of a run (no host times)."""
    cluster = rep.cluster
    stats: dict = {
        "sim.events": cluster.sim.events_executed,
        "sim.now": cluster.sim.now,
        "network.messages": cluster.network.messages_sent,
        "network.bytes": cluster.network.bytes_sent,
        "ops.counts": sorted(cluster.metrics.ops.counts().items()),
        "ops.latencies": cluster.metrics.ops.latencies(),
        "ops.issued": rep.ops_issued,
        "visibility": [[o, d, cluster.metrics.visibility.samples(o, d)]
                       for o, d in sorted(cluster.metrics.visibility.pairs())],
    }
    dcs = {}
    for name, dc in sorted(cluster.datacenters.items()):
        entry = {
            "cpu": [[p.cpu.busy_time, p.cpu.ops_executed]
                    for p in dc.store.partitions],
            "keys": dc.store.total_keys(),
            "proxy": [dc.proxy.labels_processed, dc.proxy.updates_applied],
            "sink": [dc.sink.labels_flushed, dc.sink.batches_flushed,
                     dc.sink.deferred_labels, dc.sink.coalesced_flushes,
                     dc.sink.peak_buffered],
        }
        if dc.admission is not None:
            entry["admission"] = [dc.admission.admitted,
                                  dc.admission.rejected,
                                  dc.admission.peak_inflight]
        dcs[name] = entry
    stats["datacenters"] = dcs
    stats["serializers"] = {
        name: [s.labels_forwarded, s.labels_delivered, s.batches_serviced,
               s.peak_ingress_depth, s.credits_returned]
        for name, s in sorted(cluster.service.serializers().items())}
    stats["sources"] = [s.accounting() for s in cluster.sources]
    if rep.open_loop is not None:
        stats["open_loop"] = {k: v for k, v in rep.open_loop.items()}
        stats["open_loop"]["latencies"] = [
            None if math.isinf(x) else x for x in rep.open_loop["latencies"]]
    return stats


def digest(stats: dict) -> str:
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cpu_busy_frac(cluster: Cluster, duration: float) -> float:
    """Simulated share of partition-server CPU time spent busy."""
    cpus = [p.cpu for dc in cluster.datacenters.values()
            for p in dc.store.partitions]
    return sum(cpu.busy_time for cpu in cpus) / (len(cpus) * duration)


def accounting_violations(cluster: Cluster,
                          outstanding_ops: List[int]) -> List[str]:
    """Open-loop identities every source must satisfy exactly; in_flight
    is also checked against the ops the due-time timer saw outstanding."""
    problems = []
    for source, outstanding in zip(cluster.sources, outstanding_ops):
        a = source.accounting()
        if a["offered"] != a["dispatched"] + a["backlog"]:
            problems.append(f"{source.dc_name}: offered {a['offered']} != "
                            f"dispatched {a['dispatched']} + backlog "
                            f"{a['backlog']}")
        if a["dispatched"] != a["completed"] + a["rejected"] + a["in_flight"]:
            problems.append(f"{source.dc_name}: dispatched {a['dispatched']}"
                            f" != completed + rejected + in_flight {a}")
        if a["in_flight"] != outstanding:
            problems.append(f"{source.dc_name}: in_flight {a['in_flight']}"
                            f" but {outstanding} ops outstanding")
    return problems
