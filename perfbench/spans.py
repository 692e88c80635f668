"""Which entry points the traced run wraps, and under which layer name.

Direct calls are traced at each layer's public entry points.  Work the
simulator runs later as a scheduled callback (a CPU completion, a timer,
a network delivery) is traced by wrapping the callback where it is
handed to ``Simulator.schedule``/``schedule_at``, ``Process.set_timer``
or ``RepeatingTimer``, and attributed by the module that defined it.
What no span covers inside ``Simulator.run`` is the kernel's own time.
"""

from __future__ import annotations

from typing import Dict

from repro.config import placement
from repro.core.serializer import Serializer
from repro.datacenter.client import ClientProcess
from repro.datacenter.datacenter import SaturnDatacenter
from repro.datacenter.frontend import Frontend
from repro.datacenter.gear import Gear
from repro.datacenter.label_sink import LabelSink
from repro.datacenter.messages import LabelBatch
from repro.datacenter.overload import AdmissionController
from repro.datacenter.remote_proxy import RemoteProxy
from repro.datacenter.storage import Partition
from repro.metrics.throughput import OpRecorder
from repro.metrics.visibility import VisibilityRecorder
from repro.net import codec
from repro.net.tcp import TcpTransport
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import Process, RepeatingTimer
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.openloop import OpenLoopClient, OpenLoopSource
from repro.workloads.streaming import (StreamingFacebookWorkload,
                                       StreamingReplicationMap)
from repro.workloads.synthetic import SyntheticWorkload

from tracing import Tracer

__all__ = ["install_sim", "install_wire", "Hooks", "CALLBACK_LAYER"]

#: layer of a scheduled callback, by the module that defined it; callbacks
#: from other modules stay unwrapped and count as kernel time
CALLBACK_LAYER: Dict[str, str] = {
    "repro.sim.network": "sim.network.deliver",
    "repro.core.serializer": "core.serializer",
    "repro.datacenter.datacenter": "datacenter.datacenter",
    "repro.datacenter.frontend": "datacenter.frontend",
    "repro.datacenter.gear": "datacenter.gear",
    "repro.datacenter.storage": "datacenter.storage",
    "repro.datacenter.label_sink": "datacenter.label_sink",
    "repro.datacenter.remote_proxy": "datacenter.remote_proxy",
    "repro.datacenter.client": "datacenter.client",
    "repro.workloads.openloop": "workloads.openloop",
}


def _batch_id(_self, _sender, message):
    if isinstance(message, LabelBatch) and message.labels:
        return message.labels[0]
    return type(message).__name__


def _first_label(_self, batch):
    return batch.labels[0] if batch.labels else None


def _arg1(_self, first, *_args, **_kwargs):
    return first


def _label_of_payload(_self, payload):
    return payload.label


class Hooks:
    """What the traced run records beyond spans: labels delivered into
    serializers, and (simulated) label arrival at a remote proxy until
    the update is visible."""

    def __init__(self) -> None:
        self.arrived: Dict[tuple, float] = {}
        self.proxy_waits = []
        self.serializer_batches = 0
        self.serializer_labels_in = 0


def install_sim(tracer: Tracer, hooks: Hooks) -> None:
    """Wrap the simulated layers' entry points."""
    wrap = tracer.wrap

    # sim: engine, network (cpu has no host-time entry point of its own)
    wrap(Simulator, "run", "sim.engine")
    wrap(Network, "send", "sim.network.send", _arg1)

    def attributed(callback):
        module = getattr(callback, "__module__", None)
        layer = CALLBACK_LAYER.get(module)
        if layer is None:
            return callback
        return tracer.span(callback, layer)

    schedule, schedule_at = Simulator.schedule, Simulator.schedule_at
    set_timer, timer_init = Process.set_timer, RepeatingTimer.__init__

    def traced_schedule(sim, delay, callback):
        return schedule(sim, delay, attributed(callback))

    def traced_schedule_at(sim, time, callback):
        return schedule_at(sim, time, attributed(callback))

    def traced_set_timer(process, delay, callback):
        return set_timer(process, delay, attributed(callback))

    def traced_timer_init(timer, process, period, callback):
        timer_init(timer, process, period, attributed(callback))

    tracer.replace(Simulator, "schedule", traced_schedule)
    tracer.replace(Simulator, "schedule_at", traced_schedule_at)
    tracer.replace(Process, "set_timer", traced_set_timer)
    tracer.replace(RepeatingTimer, "__init__", traced_timer_init)

    # config: Algorithm 3 and the per-tree solver it calls
    wrap(placement, "find_configuration", "config")
    wrap(placement, "solve_tree", "config.tree")

    _wrap_serializer(tracer, hooks)

    # datacenter
    for attr in ("read", "update", "attach", "migrate"):
        wrap(Frontend, attr, "datacenter.frontend", _arg1)
    for attr in ("update", "migration", "read"):
        wrap(Gear, attr, "datacenter.gear", _arg1)
    for attr in ("get", "put"):
        wrap(Partition, attr, "datacenter.storage", _arg1)
    wrap(LabelSink, "add", "datacenter.label_sink", _arg1)
    wrap(LabelSink, "flush", "datacenter.label_sink")
    wrap(AdmissionController, "try_admit", "datacenter.overload")
    for attr in ("receive", "start"):
        tracer.wrap(ClientProcess, attr, "datacenter.client")

    on_labels = RemoteProxy.on_labels

    def proxy_on_labels(proxy, batch):
        now = proxy.dc.sim.now
        dc = proxy.dc.dc_name
        for label in batch.labels:
            hooks.arrived.setdefault((dc, label.ts, label.src), now)
        return on_labels(proxy, batch)

    tracer.replace(RemoteProxy, "on_labels",
                   tracer.span(proxy_on_labels, "datacenter.remote_proxy",
                               _first_label))
    wrap(RemoteProxy, "on_payload", "datacenter.remote_proxy",
         _label_of_payload)
    wrap(RemoteProxy, "on_heartbeat", "datacenter.remote_proxy")

    on_visible = SaturnDatacenter.on_remote_visible

    def remote_visible(dc, payload):
        label = payload.label
        arrived = hooks.arrived.pop((dc.dc_name, label.ts, label.src), None)
        if arrived is not None:
            hooks.proxy_waits.append(dc.sim.now - arrived)
        return on_visible(dc, payload)

    tracer.replace(SaturnDatacenter, "on_remote_visible", remote_visible)

    # workloads: generators (and the op closures they return), arrivals
    for cls, layer in ((SyntheticWorkload, "workloads.synthetic"),
                       (StreamingFacebookWorkload, "workloads.streaming")):
        make = cls.client_generator

        def client_generator(workload, *args, _make=make, _layer=layer,
                             **kwargs):
            return tracer.span(_make(workload, *args, **kwargs), _layer)

        tracer.replace(cls, "client_generator",
                       tracer.span(client_generator, layer))
    wrap(StreamingReplicationMap, "replicas_of_group", "workloads.streaming",
         _arg1)
    wrap(PoissonArrivals, "next_interarrival", "workloads.arrivals")
    wrap(OpenLoopClient, "issue_one", "workloads.openloop")
    wrap(OpenLoopSource, "client_available", "workloads.openloop")

    # metrics
    wrap(OpRecorder, "record_op", "metrics", _arg1)
    wrap(VisibilityRecorder, "record_visibility", "metrics", _arg1)


def install_wire(tracer: Tracer, hooks: Hooks) -> None:
    """Wrap the wire path: codec, TCP transport, serializer."""
    tracer.wrap(codec, "encode_frame", "net.codec.encode", _frame_dst)
    tracer.wrap(codec, "decode_frame_body", "net.codec.decode")
    tracer.wrap(TcpTransport, "send", "net.tcp.send", _arg1)
    _wrap_serializer(tracer, hooks)


def _wrap_serializer(tracer: Tracer, hooks: Hooks) -> None:
    """Serializer input, counted as it is delivered."""
    deliver = Serializer.deliver

    def serializer_deliver(serializer, sender, message):
        if isinstance(message, LabelBatch):
            hooks.serializer_batches += 1
            hooks.serializer_labels_in += len(message.labels)
        return deliver(serializer, sender, message)

    tracer.replace(Serializer, "deliver",
                   tracer.span(serializer_deliver, "core.serializer",
                               _batch_id))


def _frame_dst(_src, dst, message):
    return message.labels[0] if isinstance(message, LabelBatch) else dst
