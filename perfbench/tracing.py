"""Span recorder and the layer instrumentation of the traced run.

Everything here patches the program from the outside: the benchmark
wraps public entry points of each layer (transport verbs, the handler
callbacks handed to ``register_handler``/``register_overhear``,
``Simulator.run``, ``LinkSecurity.seal/open``, the share kernels the
exchange phase calls, ``Packet`` sizing, protocol construction and
``AggregationService.serve_batch``). Nothing under ``src/`` changes.

A span's self time is its duration minus the time its child spans
cover. Fine-grained spans (handlers, packets, link crypto, share
kernels) are folded into per-name totals as they close, so a 20k round
with millions of handler calls costs no memory per call; coarse spans
(kernel runs, transport verbs, phases, served epochs) are also kept as
``(name, start, end, parent)`` records and written out when the run
ends.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional

#: Span names whose individual records are kept (the rest only count).
RECORDED = frozenset(
    {
        "protocol.init",
        "kernel.run",
        "transport.send_many",
        "transport.flush",
        "service.serve",
        "localization.probe",
    }
)


class Tracer:
    """In-memory span recorder with per-name count/total/self totals.

    Each thread keeps its own stack of open spans (the service serves
    epochs on an executor thread while the gateway's loop runs on the
    main thread).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self, name: str, fn: Callable, passthrough: frozenset = frozenset()
    ) -> Callable:
        """``fn`` timed as span ``name``. A call made directly inside a
        span of the same name (an overriding method calling its base) or
        of a name in ``passthrough`` is not a span of its own, so each
        call into the layer is counted once."""
        recorded = name in RECORDED
        skip = passthrough | {name}
        totals = self.totals
        spans = self.spans
        perf_counter = time.perf_counter
        stack_of = self._stack
        lock = self._lock

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack and stack[-1][2] in skip:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0, name, -1]
            if recorded:
                parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                with lock:
                    frame[3] = len(spans)
                    spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                with lock:
                    cell = totals.get(name)
                    if cell is None:
                        cell = totals[name] = [0, 0.0, 0.0]
                    cell[0] += 1
                    cell[1] += duration
                    cell[2] += duration - frame[1]
                    if recorded:
                        record = spans[frame[3]]
                        record[1] = frame[0]
                        record[2] = end

        traced.__wrapped__ = fn
        traced._perfbench_traced = True
        return traced

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def write(self, path) -> None:
        """Write every recorded span, then the per-name totals, as JSON
        lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )
            for name, (calls, total, self_time) in sorted(self.totals.items()):
                out.write(
                    json.dumps(
                        {"layer": name, "calls": calls, "total_s": total,
                         "self_s": self_time}
                    )
                    + "\n"
                )


def _patch(owner, attribute: str, replacement: Callable, undo: list) -> None:
    undo.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, replacement)


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary the per-layer metrics read; returns a
    function that removes the wrappers again."""
    from repro.core import intracluster
    from repro.core.protocol import IcpdaProtocol
    from repro.crypto.linksec import LinkSecurity
    from repro.net.fluid import BulkFluidTransport, FluidTransport
    from repro.net.packet import Packet
    from repro.net.stack import NetworkStack
    from repro.service.service import AggregationService
    from repro.sim.kernel import Simulator

    undo: list = []

    verbs = frozenset({"transport.send", "transport.send_many", "transport.flush"})

    def wrap_method(owner, attribute: str, name: str, passthrough=frozenset()):
        if attribute in owner.__dict__:
            traced = tracer.wrap(name, owner.__dict__[attribute], passthrough)
            _patch(owner, attribute, traced, undo)

    def traced_callback(callback: Callable) -> Callable:
        if getattr(callback, "_perfbench_traced", False):
            return callback
        return tracer.wrap("handlers", callback)

    def wrap_registration(owner) -> None:
        handler_impl = owner.__dict__["register_handler"]
        overhear_impl = owner.__dict__["register_overhear"]

        def register_handler(self, node_id, kind, handler):
            return handler_impl(self, node_id, kind, traced_callback(handler))

        def register_overhear(self, node_id, listener, kinds=None):
            return overhear_impl(self, node_id, traced_callback(listener), kinds)

        _patch(owner, "register_handler", register_handler, undo)
        _patch(owner, "register_overhear", register_overhear, undo)

    def wrap_send_many(owner) -> None:
        impl = owner.__dict__.get("send_many")
        if impl is None:
            return

        def send_many(self, kind, src, dst, size_bytes):
            tracer.count("transport.send_many_frames", len(src))
            return impl(self, kind, src, dst, size_bytes)

        # The frame count sits inside the span, so a base-class call
        # made from an override passes through both.
        _patch(owner, "send_many", tracer.wrap("transport.send_many", send_many), undo)

    for transport in (NetworkStack, FluidTransport, BulkFluidTransport):
        wrap_registration(transport)
        wrap_method(transport, "send", "transport.send", verbs)
        wrap_method(transport, "broadcast", "transport.send", verbs)
        wrap_method(transport, "flush", "transport.flush", verbs)
        wrap_send_many(transport)

    wrap_method(Simulator, "run", "kernel.run")
    wrap_method(LinkSecurity, "seal", "linksec")
    wrap_method(LinkSecurity, "open", "linksec")
    wrap_method(Packet, "__post_init__", "packet.size")
    wrap_method(IcpdaProtocol, "__init__", "protocol.init")
    wrap_method(AggregationService, "serve_batch", "service.serve")
    for kernel in (
        "batched_cluster_shares",
        "generate_share_bundles",
        "recover_cluster_sums",
        "sum_share_values",
    ):
        _patch(intracluster, kernel, tracer.wrap("shares", getattr(intracluster, kernel)), undo)

    def remove() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
        undo.clear()

    return remove


def span(tracer: Optional[Tracer], name: str, fn: Callable, *args, **kwargs):
    """Call ``fn`` inside span ``name`` when tracing, plainly otherwise."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.wrap(name, fn)(*args, **kwargs)
