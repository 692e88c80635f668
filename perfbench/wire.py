"""``wire-loopback``: the label path over real loopback TCP.

Two nodes run inside this one process on one asyncio loop: each is a
:class:`TcpTransport` on a shared :class:`RealtimeKernel`, hosting its
Saturn serializer and a datacenter-side label receiver.  The serializers
form a two-node tree (``sA -- sB``), every key is replicated at both
datacenters, so each injected label crosses exactly one TCP connection
(A->B or B->A: two loopback connections in total).

A generator plays each datacenter's label sink: it injects 24-label
``LabelBatch``es into the local serializer, in two phases:

* **window** (half the run): a fixed number of batches outstanding
  per origin; a new batch goes in when one is delivered at the remote
  datacenter.  Labels delivered per second is the capacity of the path.
* **rate** (the other half): batches due at a constant total label rate,
  origins alternating, timed from each batch's due time: ``op`` = due ->
  routed by the local serializer (the sink's batch is accepted), ``vis``
  = due -> delivered at the remote datacenter.

The window phase's throughput is labels delivered per second of the
phase on the reference CPU (calib.py), so the host's speed drifts do not
move it; its raw rate in 0.5 s slices is printed.

The receivers check that every label arrives exactly once and in
per-origin FIFO order.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.label import Label, LabelType
from repro.core.naming import dc_process_name
from repro.core.replication import ReplicationMap
from repro.core.serializer import Serializer
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.datacenter.messages import LabelBatch
from repro.net.kernel import RealtimeKernel
from repro.net.tcp import TcpTransport
from repro.sim.process import Process

from calib import SlicedClock

__all__ = ["run_wire", "WireResult", "SITES", "BATCH_LABELS",
           "WINDOW_BATCHES", "RATE_LABELS_S", "SETUPS"]

SITES = ("A", "B")
BATCH_LABELS = 24
#: batches outstanding per origin in the window phase
WINDOW_BATCHES = 8
#: offered load of the rate phase, labels per second over both origins
RATE_LABELS_S = 12000.0
#: slice width of the window phase, s
WINDOW_SLICE_S = 0.5
#: pause between the window phase's drain and the first arrival, ms
RATE_START_MS = 100.0
#: set-ups per run (the median is reported)
SETUPS = 15
#: period of the event-loop lag probe (traced run), ms
PROBE_PERIOD_MS = 5.0
#: longest wait for in-flight labels to drain after a phase, s
DRAIN_TIMEOUT_S = 10.0


def _serializer_name(site: str) -> str:
    return SaturnService.serializer_process_name(0, f"s{site}")


class _AcceptingSerializer(Serializer):
    """A serializer that reports when it has routed a locally injected
    batch (the sink's batch is accepted by Saturn)."""

    on_accepted: Optional[Callable[[LabelBatch], None]] = None
    local_dc = ""

    def receive(self, sender: str, message) -> None:
        super().receive(sender, message)
        if self.on_accepted is not None and sender == self.local_dc:
            self.on_accepted(message)


class _Receiver(Process):
    """Datacenter-side end of the label path: records every delivery and
    checks exactly-once, per-origin FIFO order."""

    def __init__(self, kernel: RealtimeKernel, site: str,
                 on_delivered: Callable[[str, int, int, float], None]) -> None:
        super().__init__(kernel, dc_process_name(site))
        self.next_seq: Dict[str, int] = {}
        self.violations: List[str] = []
        self._on_delivered = on_delivered

    def receive(self, sender: str, message) -> None:
        if not isinstance(message, LabelBatch):
            self.violations.append(f"{self.name}: unexpected {message!r}")
            return
        now = self.sim.now
        for label in message.labels:
            origin = label.origin_dc
            seq = int(label.ts)
            expected = self.next_seq.get(origin, 0)
            if seq != expected:
                self.violations.append(
                    f"{self.name}: label {seq} from {origin}, expected "
                    f"{expected} (lost, duplicated or reordered)")
            self.next_seq[origin] = max(expected, seq + 1)
        last = message.labels[-1]
        self._on_delivered(last.origin_dc, int(last.ts),
                           len(message.labels), now)


@dataclass
class WireResult:
    #: set-up times on the reference CPU (calib.py), s
    setup_s: List[float]
    #: raw host set-up times, s
    setup_raw_s: List[float] = field(default_factory=list)
    #: labels delivered per second in each window-phase slice
    window_rates: List[float] = field(default_factory=list)
    #: labels delivered in the window phase per second of it on the
    #: reference CPU
    window_reference_rate: float = 0.0
    rate_offered: int = 0
    rate_delivered: int = 0
    rate_s: float = 0.0
    #: rate-phase latencies from each batch's due time, ms
    op_ms: List[float] = field(default_factory=list)
    vis_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    loop_lag_ms: List[float] = field(default_factory=list)
    injected: int = 0
    violations: List[str] = field(default_factory=list)
    bytes_sent: int = 0
    labels_over_tcp: int = 0
    kernel_callbacks: int = 0
    serializer_forwarded: int = 0


class _Cluster:
    """Two nodes, their serializers and receivers, and the injector."""

    def __init__(self, kernel: RealtimeKernel, rng: random.Random) -> None:
        self.kernel = kernel
        self.rng = rng
        self.transports: Dict[str, TcpTransport] = {}
        self.serializers: Dict[str, _AcceptingSerializer] = {}
        self.receivers: Dict[str, _Receiver] = {}
        self.next_seq = {site: 0 for site in SITES}
        #: per origin: last label seq of each timed batch -> due time
        self.due: Dict[str, Dict[int, float]] = {site: {} for site in SITES}
        #: (kernel time, labels) of every batch delivered
        self.deliveries: List[tuple] = []
        self.delivered_total = 0
        self.injected = 0
        self._drained = asyncio.Event()
        self.on_batch_delivered: Optional[Callable[[str], None]] = None
        #: latency samples of the rate phase, ms
        self.op_ms: List[float] = []
        self.vis_ms: List[float] = []
        self.timing = False

    async def start(self) -> None:
        topology = TreeTopology(
            serializer_sites={f"s{site}": site for site in SITES},
            edges=[("sA", "sB")],
            attachments={site: f"s{site}" for site in SITES})
        replication = ReplicationMap.full(list(SITES))
        addresses = {}
        for site in SITES:
            transport = TcpTransport(self.kernel, f"node-{site}")
            addresses[transport.node_name] = await transport.start()
            self.transports[site] = transport
        routes = {name: f"node-{site}" for site in SITES
                  for name in (_serializer_name(site), dc_process_name(site))}
        for site, transport in self.transports.items():
            transport.set_routes(routes, addresses)
            serializer = _AcceptingSerializer(
                self.kernel, name=_serializer_name(site),
                tree_name=f"s{site}", topology=topology,
                replication=replication, delivery_name=dc_process_name,
                peer_process_name=lambda t: SaturnService.
                serializer_process_name(0, t),
                local_hop_latency=0.0)
            serializer.local_dc = dc_process_name(site)
            serializer.on_accepted = self._accepted
            serializer.attach_network(transport)
            receiver = _Receiver(self.kernel, site, self._delivered)
            receiver.attach_network(transport)
            self.serializers[site] = serializer
            self.receivers[site] = receiver

    async def stop(self) -> None:
        # both at once: each side closes its outbound connection before
        # the other cancels the inbound handler reading from it
        await asyncio.gather(*(t.stop() for t in self.transports.values()))

    # -- injection ----------------------------------------------------------

    def inject(self, origin: str, due: Optional[float] = None) -> None:
        first = self.next_seq[origin]
        self.next_seq[origin] = first + BATCH_LABELS
        rng = self.rng
        labels = tuple(
            Label(LabelType.UPDATE, src=f"{origin}/sink", ts=float(seq),
                  target=f"k{rng.randrange(1024)}", origin_dc=origin)
            for seq in range(first, first + BATCH_LABELS))
        if due is not None:
            self.due[origin][first + BATCH_LABELS - 1] = due
        self.injected += BATCH_LABELS
        self.transports[origin].send(dc_process_name(origin),
                                     _serializer_name(origin),
                                     LabelBatch(labels))

    def _accepted(self, batch: LabelBatch) -> None:
        if self.timing:
            last = batch.labels[-1]
            due = self.due[last.origin_dc].get(int(last.ts))
            if due is not None:
                self.op_ms.append(self.kernel.now - due)

    def _delivered(self, origin: str, last_seq: int, count: int,
                   at: float) -> None:
        self.deliveries.append((at, count))
        self.delivered_total += count
        if self.delivered_total >= self.injected:
            self._drained.set()
        due = self.due[origin].pop(last_seq, None)
        if due is not None:
            self.vis_ms.append(at - due)
        if self.on_batch_delivered is not None:
            self.on_batch_delivered(origin)

    async def drain(self) -> bool:
        """Wait until every injected label is delivered; False on timeout."""
        if self.delivered_total >= self.injected:
            return True
        self._drained.clear()
        try:
            await asyncio.wait_for(self._drained.wait(), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            return False
        return True

    def violations(self) -> List[str]:
        problems = []
        for receiver in self.receivers.values():
            problems.extend(receiver.violations)
        for site, receiver in self.receivers.items():
            for origin in SITES:
                if origin == site:
                    continue
                got = receiver.next_seq.get(origin, 0)
                if got != self.next_seq[origin]:
                    problems.append(f"{receiver.name}: {got} labels from "
                                    f"{origin}, {self.next_seq[origin]} "
                                    "injected")
        return problems


async def _setup(kernel: RealtimeKernel, rng: random.Random):
    """Bind, wire and connect both nodes: one batch each way delivered."""
    clock = SlicedClock("mixed")
    clock.start()
    try:
        cluster = _Cluster(kernel, rng)
        await cluster.start()
        for site in SITES:
            cluster.inject(site)
        drained = await cluster.drain()
    finally:
        clock.stop()
    return cluster, clock, drained


async def _window_phase(cluster: _Cluster, seconds: float) -> tuple:
    """Closed window; returns labels/s of each whole slice, labels/s on
    the reference CPU, and whether everything was delivered after it."""
    running = True

    def refill(origin: str) -> None:
        if running:
            cluster.inject(origin)

    cluster.on_batch_delivered = refill
    cluster.deliveries = []
    clock = SlicedClock("mixed")
    clock.start()
    try:
        start = cluster.kernel.now
        for _ in range(WINDOW_BATCHES):
            for site in SITES:
                cluster.inject(site)
        await asyncio.sleep(seconds)
        running = False
        end = cluster.kernel.now
    finally:
        clock.stop()
    cluster.on_batch_delivered = None
    labels = [0] * max(1, int(seconds // WINDOW_SLICE_S))
    for at, count in cluster.deliveries:
        index = int((at - start) // (WINDOW_SLICE_S * 1000.0))
        if 0 <= index < len(labels):
            labels[index] += count
    rates = [n / WINDOW_SLICE_S for n in labels]
    total = sum(count for at, count in cluster.deliveries if at <= end)
    drained = await cluster.drain()
    return rates, total / clock.reference_s, drained


async def _rate_phase(cluster: _Cluster, seconds: float,
                      late_ms: List[float]) -> tuple:
    """Open loop at a constant RATE_LABELS_S, origins alternating; each
    arrival arms the next, so a late loop shows as generator lateness
    instead of a burst of due timers."""
    kernel = cluster.kernel
    gap_ms = BATCH_LABELS / RATE_LABELS_S * 1000.0
    start = kernel.now + RATE_START_MS
    count = int(seconds * 1000.0 / gap_ms)
    arrivals = [(start + k * gap_ms, SITES[k % len(SITES)])
                for k in range(count)]
    cluster.timing = True
    cluster.op_ms, cluster.vis_ms, cluster.deliveries = [], [], []
    done = asyncio.Event()

    def fire(index: int) -> None:
        at, origin = arrivals[index]
        late_ms.append(kernel.now - at)
        cluster.inject(origin, due=at)
        if index + 1 < len(arrivals):
            kernel.schedule_at(arrivals[index + 1][0],
                               lambda: fire(index + 1))
        else:
            done.set()

    kernel.schedule_at(arrivals[0][0], lambda: fire(0))
    await done.wait()
    drained = await cluster.drain()
    cluster.timing = False
    delivered = sum(labels for _, labels in cluster.deliveries)
    return len(arrivals) * BATCH_LABELS, delivered, drained


async def _probe(kernel: RealtimeKernel, lags: List[float],
                 stop: asyncio.Event) -> None:
    """Event-loop lag: how late a periodic kernel callback fires."""
    def tick(expected: float) -> None:
        lags.append(kernel.now - expected)
        if not stop.is_set():
            arm()

    def arm() -> None:
        expected = kernel.now + PROBE_PERIOD_MS
        kernel.schedule(PROBE_PERIOD_MS, lambda: tick(expected))

    arm()
    await stop.wait()


async def _run(seed: int, seconds: float, probe: bool) -> WireResult:
    kernel = RealtimeKernel(asyncio.get_running_loop())
    rng = random.Random(seed)
    setups: List[float] = []
    raw_setups: List[float] = []
    problems: List[str] = []
    cluster = None
    for index in range(SETUPS):
        cluster, clock, drained = await _setup(kernel, rng)
        setups.append(clock.reference_s)
        raw_setups.append(clock.raw_s)
        if not drained:
            problems.append("set-up: warm-up labels never delivered")
        if index < SETUPS - 1:
            problems.extend(cluster.violations())
            await cluster.stop()
    result = WireResult(setup_s=setups, setup_raw_s=raw_setups)
    stop_probe = asyncio.Event()
    probe_task = (kernel.create_task(_probe(kernel, result.loop_lag_ms,
                                            stop_probe))
                  if probe else None)
    callbacks0 = kernel.events_executed
    try:
        (result.window_rates, result.window_reference_rate,
         drained) = await _window_phase(cluster, seconds / 2.0)
        if not drained:
            problems.append("window phase: labels still in flight after "
                            f"{DRAIN_TIMEOUT_S} s")
        result.rate_s = seconds / 2.0
        result.rate_offered, result.rate_delivered, drained = (
            await _rate_phase(cluster, result.rate_s, result.late_ms))
        result.op_ms, result.vis_ms = cluster.op_ms, cluster.vis_ms
        if not drained:
            problems.append("rate phase: labels still in flight after "
                            f"{DRAIN_TIMEOUT_S} s")
        result.kernel_callbacks = kernel.events_executed - callbacks0
        problems.extend(cluster.violations())
        result.injected = cluster.injected
        result.bytes_sent = sum(t.bytes_sent
                                for t in cluster.transports.values())
        result.labels_over_tcp = sum(s.labels_forwarded
                                     for s in cluster.serializers.values())
        result.serializer_forwarded = sum(
            s.labels_forwarded + s.labels_delivered
            for s in cluster.serializers.values())
    finally:
        stop_probe.set()
        if probe_task is not None:
            await probe_task
        await cluster.stop()
    result.violations = problems
    return result


def run_wire(seed: int, seconds: float, probe: bool = False) -> WireResult:
    """One full wire-loopback run (set-ups, window phase, rate phase)."""
    return asyncio.run(_run(seed, seconds, probe))
