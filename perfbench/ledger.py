"""Span ledger for traced benchmark runs, applied from outside the simulator.

Nothing under ``src/`` knows about this module. :func:`install` patches
the simulator's classes before a rig is built and records a span at each
layer boundary:

- every generator handed to ``Simulator.spawn`` is wrapped in a
  ``send``/``throw`` proxy, so each process resume is a span attributed to
  the module that defines the generator function;
- the public generator methods listed in ``GENERATOR_METHODS`` are wrapped
  the same way, so time delegated to them through ``yield from`` becomes a
  child span of the resume that delegates;
- the synchronous methods listed in ``SYNC_METHODS`` are timed directly;
- the kernel's run loops are spans whose self time is the dispatch loop
  plus process-resume bookkeeping.

A span records its name, start, end, the span that was active when it
began, and the ``rpc_id`` of the packet among the call's arguments (-1
when there is none). Spans stay in memory and :meth:`Ledger.dump` writes
them out when the run ends. Self time (span time minus the time its child
spans cover) and call counts are folded online, so a snapshot never has to
walk the span arrays.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array

perf = time.perf_counter

#: Module prefix -> layer, first match wins (so longer prefixes first).
LAYER_BY_MODULE = (
    ("repro.sim.kernel", "kernel"),
    ("repro.sim.process", "kernel"),
    ("repro.sim.resources", "resources"),
    ("repro.sim.sharded", "sharded"),
    ("repro.hw.nic", "nic"),
    ("repro.hw.switch", "switch"),
    ("repro.hw.interconnect", "interconnect"),
    ("repro.hw.cpu", "cpu"),
    ("repro.rpc.transport", "transport"),
    ("repro.rpc.congestion", "congestion"),
    ("repro.rpc", "rpc"),
    ("repro.workloads.sessions", "sessions"),
    ("repro.apps", "apps"),
    ("repro.harness", "harness"),
    ("repro.chaos.rig", "harness"),
)

LAYERS = ("kernel", "resources", "nic", "switch", "interconnect", "cpu",
          "rpc", "transport", "congestion", "sharded", "cluster_lb",
          "sessions", "apps", "harness", "other")

#: (module, class, method) of generator methods wrapped as child spans.
GENERATOR_METHODS = (
    ("repro.hw.nic.dagger_nic", "DaggerNic", "send_from_host"),
    ("repro.hw.cpu", "Core", "execute"),
    ("repro.hw.cpu", "SoftwareThread", "exec"),
    ("repro.rpc.client", "RpcClient", "call_async"),
    ("repro.rpc.congestion", "CreditFlowControl", "acquire"),
    ("repro.workloads.sessions", "SessionWorkload", "arrivals"),
)

#: (module, class, method) of synchronous methods timed directly.
SYNC_METHODS = (
    ("repro.hw.switch", "ToRSwitch", "send"),
    ("repro.hw.switch", "ShardBoundary", "send"),
    ("repro.hw.nic.dagger_nic", "DaggerNic", "ingress"),
    ("repro.hw.nic.dagger_nic", "DaggerNic", "enqueue_egress"),
    ("repro.hw.cpu", "SoftwareThread", "begin_exec"),
    ("repro.sim.resources", "Resource", "request"),
    ("repro.sim.resources", "Resource", "release"),
    ("repro.sim.resources", "Store", "put"),
    ("repro.sim.resources", "Store", "get"),
    ("repro.rpc.transport", "ReliableTransport", "on_egress"),
    ("repro.rpc.transport", "ReliableTransport", "on_delivered"),
    ("repro.rpc.transport", "ReliableTransport", "on_receiver_drop"),
    ("repro.rpc.transport", "ReliableTransport", "on_control"),
    ("repro.rpc.congestion", "CreditFlowControl", "available_credits"),
    ("repro.rpc.congestion", "CreditFlowControl", "try_acquire"),
    ("repro.rpc.congestion", "CreditFlowControl", "on_host_dequeue"),
    ("repro.rpc.congestion", "CreditFlowControl", "on_control"),
    ("repro.harness.cluster", "LoadBalancer", "pick"),
    ("repro.sim.sharded", "_ShardRuntime", "window"),
)

#: Zero-yield fast paths: timed like SYNC_METHODS, plus a success count
#: (``try_get`` succeeds when it returns an item, the others return True).
FAST_PATHS = (
    ("repro.sim.resources", "Resource", "try_acquire"),
    ("repro.sim.resources", "Store", "try_put"),
    ("repro.sim.resources", "Store", "try_get"),
)

#: Evented resource operations (each costs a kernel round-trip).
EVENTED = {"Resource.request", "Store.put", "Store.get"}

#: Span-name layer overrides for methods whose module maps elsewhere.
LAYER_OVERRIDES = {"LoadBalancer.pick": "cluster_lb"}

KERNEL_LOOPS = ("run", "run_until_done", "run_horizon")


def layer_of(module: str) -> str:
    for prefix, layer in LAYER_BY_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Ledger:
    """In-memory spans plus online self-time and count folding."""

    def __init__(self):
        self.names: list = []
        self.name_layer: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_rpc = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self.self_s: list = []
        self.calls: list = []
        self.spawns = dict.fromkeys(LAYERS, 0)
        self.resumes = dict.fromkeys(LAYERS, 0)
        self.timed_waits = 0
        self.fast_ok = 0
        self.nics: list = []
        self.switches: list = []
        #: Snapshots shipped back by shard worker processes.
        self.children: list = []

    def name_id(self, name: str, layer: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return ident

    def open(self, name: int, rpc_id: int = -1) -> None:
        stack = self._stack
        index = len(self.span_name)
        self.span_name.append(name)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_rpc.append(rpc_id)
        self.span_end.append(0.0)
        start = perf()
        self.span_start.append(start)
        stack.append([index, start, name, 0.0])

    def close(self) -> None:
        end = perf()
        stack = self._stack
        index, start, name, child = stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[name] += duration - child
        if stack:
            stack[-1][3] += duration

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent outside the simulator (the speed probe)
        out of the self time of the innermost open span."""
        if self._stack:
            self._stack[-1][3] += seconds

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data totals: self time per layer and exact counts."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = {}
        evented = 0
        for name, layer, seconds, count in zip(
                self.names, self.name_layer, self.self_s, self.calls):
            self_s[layer] += seconds
            label = name.split("/", 1)[1]
            if count:
                calls[label] = calls.get(label, 0) + count
            if label in EVENTED:
                evented += count
        nic = {"cache_hits": 0, "cache_misses": 0, "ring_drops": 0}
        transport = {"retransmissions": 0, "duplicates_dropped": 0}
        congestion = {"grants_sent": 0, "credit_repairs": 0}
        for dagger in self.nics:
            cache = dagger.connection_manager.cache
            nic["cache_hits"] += cache.hits
            nic["cache_misses"] += cache.misses
            nic["ring_drops"] += dagger.monitor.drops
            if dagger.transport is not None:
                stats = dagger.transport.stats
                transport["retransmissions"] += stats.retransmissions
                transport["duplicates_dropped"] += stats.duplicates_dropped
            if dagger.flow_control is not None:
                stats = dagger.flow_control.stats
                congestion["grants_sent"] += stats.grants_sent
                congestion["credit_repairs"] += stats.credit_repairs
        switch = {
            "packets": sum(s.packets_forwarded for s in self.switches),
            "dropped": sum(s.packets_dropped for s in self.switches),
        }
        data = {
            "self_s": self_s,
            "counts": {
                "calls": calls,
                "spawns": dict(self.spawns),
                "resumes": dict(self.resumes),
                "timed_waits": self.timed_waits,
                "fast_ok": self.fast_ok,
                "evented": evented,
                "spans": len(self.span_name),
                "nic": nic,
                "switch": switch,
                "transport": transport,
                "congestion": congestion,
            },
        }
        for child in self.children:
            data = merge(data, child)
        return data

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays.

        Read back with :func:`load_spans`.
        """
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [["name", "i"], ["parent", "q"], ["rpc_id", "q"],
                       ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_rpc,
                           self.span_start, self.span_end):
                column.tofile(out)


def load_spans(path: str) -> dict:
    """Read a :meth:`Ledger.dump` file into ``{column: array}`` plus names."""
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        columns = {"names": header["names"]}
        for column, code in header["arrays"]:
            values = array(code)
            values.fromfile(source, header["count"])
            columns[column] = values
    return columns


def merge(a, b):
    """Sum two snapshots leaf by leaf (dicts of numbers, any depth)."""
    if isinstance(a, dict):
        out = dict(a)
        for key, value in b.items():
            out[key] = merge(out[key], value) if key in out else value
        return out
    return a + b


# -- proxies ---------------------------------------------------------------------


class _Resume:
    """``send``/``throw`` proxy for a spawned generator: one span per resume.

    Yields pass through unchanged (an int yield is still the kernel's
    timed-wait fast path); numeric yields are counted as timed waits.
    """

    __slots__ = ("_send", "_throw", "__name__", "_name", "_layer", "_ledger")

    def __init__(self, ledger, generator, name, layer):
        self._send = generator.send
        self._throw = generator.throw
        self.__name__ = generator.__name__
        self._name = name
        self._layer = layer
        self._ledger = ledger

    def send(self, value):
        ledger = self._ledger
        ledger.resumes[self._layer] += 1
        ledger.open(self._name)
        try:
            target = self._send(value)
        finally:
            ledger.close()
        if type(target) is int or type(target) is float:
            ledger.timed_waits += 1
        return target

    def throw(self, *exc):
        ledger = self._ledger
        ledger.resumes[self._layer] += 1
        ledger.open(self._name)
        try:
            target = self._throw(*exc)
        finally:
            ledger.close()
        if type(target) is int or type(target) is float:
            ledger.timed_waits += 1
        return target


class _Delegate:
    """Iterator proxy for a wrapped generator method.

    Works under ``yield from`` (``send``/``throw``/``close``), under a
    ``for`` loop and as a spawned process; every step is a span.
    """

    __slots__ = ("_gen", "__name__", "_name", "_layer", "_rpc", "_ledger")

    def __init__(self, ledger, generator, name, layer, rpc_id):
        self._gen = generator
        self.__name__ = generator.__name__
        self._name = name
        self._layer = layer
        self._rpc = rpc_id
        self._ledger = ledger

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        ledger = self._ledger
        ledger.open(self._name, self._rpc)
        try:
            return self._gen.send(value)
        finally:
            ledger.close()

    def throw(self, *exc):
        ledger = self._ledger
        ledger.open(self._name, self._rpc)
        try:
            return self._gen.throw(*exc)
        finally:
            ledger.close()

    def close(self):
        self._gen.close()


def _packet_index(function) -> int:
    """Positional index of a ``packet`` parameter, or -1."""
    names = list(inspect.signature(function).parameters)
    return names.index("packet") if "packet" in names else -1


def _rpc_id(args, index) -> int:
    if 0 <= index < len(args):
        rpc_id = getattr(args[index], "rpc_id", None)
        if rpc_id is not None:
            return rpc_id
    return -1


def _resolve(module: str, cls: str):
    return getattr(__import__(module, fromlist=[cls]), cls)


def _span_name(ledger, module: str, label: str):
    layer = LAYER_OVERRIDES.get(label) or layer_of(module)
    return ledger.name_id(f"{layer}/{label}", layer), layer


def _wrap_sync(ledger, function, name, counter=None):
    index = _packet_index(function)
    calls = ledger.calls

    def timed(*args, **kwargs):
        calls[name] += 1
        ledger.open(name, _rpc_id(args, index))
        try:
            result = function(*args, **kwargs)
        finally:
            ledger.close()
        if counter is not None and counter(result):
            ledger.fast_ok += 1
        return result

    return timed


def _wrap_generator(ledger, function, name, layer):
    if not inspect.isgeneratorfunction(function):
        raise TypeError(f"{function.__qualname__} is not a generator function")
    index = _packet_index(function)
    calls = ledger.calls

    def delegating(*args, **kwargs):
        calls[name] += 1
        return _Delegate(ledger, function(*args, **kwargs), name, layer,
                         _rpc_id(args, index))

    return delegating


def install(ledger: Ledger) -> None:
    """Patch the simulator's classes so every later rig is traced."""
    from repro.rpc.server import RpcThreadedServer
    from repro.sim.kernel import Simulator

    code_names: dict = {}
    spawn = Simulator.spawn

    def traced_spawn(self, generator, name=""):
        if isinstance(generator, _Delegate):
            layer, span = generator._layer, generator._name
        else:
            code = generator.gi_code
            entry = code_names.get(code)
            if entry is None:
                module = generator.gi_frame.f_globals.get("__name__", "")
                layer = layer_of(module)
                entry = code_names[code] = (layer, ledger.name_id(
                    f"{layer}/resume {code.co_qualname}", layer))
            layer, span = entry
        ledger.spawns[layer] += 1
        return spawn(self, _Resume(ledger, generator, span, layer), name)

    Simulator.spawn = traced_spawn

    timeout = Simulator.timeout

    def counted_timeout(self, delay, value=None):
        ledger.timed_waits += 1
        return timeout(self, delay, value)

    Simulator.timeout = counted_timeout

    for loop in KERNEL_LOOPS:
        name = ledger.name_id(f"kernel/Simulator.{loop}", "kernel")
        setattr(Simulator, loop,
                _wrap_sync(ledger, getattr(Simulator, loop), name))

    for module, cls_name, method in SYNC_METHODS + FAST_PATHS:
        cls = _resolve(module, cls_name)
        name, _ = _span_name(ledger, module, f"{cls_name}.{method}")
        counter = None
        if (module, cls_name, method) in FAST_PATHS:
            counter = _is_item if method == "try_get" else _is_true
        setattr(cls, method,
                _wrap_sync(ledger, cls.__dict__[method], name, counter))

    for module, cls_name, method in GENERATOR_METHODS:
        cls = _resolve(module, cls_name)
        name, layer = _span_name(ledger, module, f"{cls_name}.{method}")
        setattr(cls, method,
                _wrap_generator(ledger, cls.__dict__[method], name, layer))

    # Every CpuNicInterface subclass defines its own transfer generators.
    from repro.hw.interconnect import base as interconnect_base
    import repro.hw.interconnect.pcie  # noqa: F401  (register subclasses)
    import repro.hw.interconnect.upi  # noqa: F401

    pending = [interconnect_base.CpuNicInterface]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method in ("host_to_nic", "nic_to_host"):
            # The abstract base only raises NotImplementedError.
            if inspect.isgeneratorfunction(cls.__dict__.get(method)):
                name, layer = _span_name(
                    ledger, cls.__module__, f"{cls.__name__}.{method}")
                setattr(cls, method, _wrap_generator(
                    ledger, cls.__dict__[method], name, layer))

    # RPC handlers are the application: their bodies are the apps layer.
    handler_for = RpcThreadedServer.handler_for
    handler_names: dict = {}

    def traced_handler_for(self, method):
        handler = handler_for(self, method)
        key = getattr(handler, "__code__", handler)
        name = handler_names.get(key)
        if name is None:
            label = getattr(handler, "__qualname__", method)
            name = handler_names[key] = ledger.name_id(
                f"apps/handler {label}", "apps")

        def traced(ctx, payload):
            ledger.calls[name] += 1
            return _Delegate(ledger, handler(ctx, payload), name, "apps", -1)

        return traced

    RpcThreadedServer.handler_for = traced_handler_for

    # Instance registries for the counters the models already keep.
    from repro.hw.nic.dagger_nic import DaggerNic
    from repro.hw.switch import ToRSwitch

    _register(DaggerNic, ledger.nics)
    _register(ToRSwitch, ledger.switches)


def _is_item(result) -> bool:
    return result is not None


def _is_true(result) -> bool:
    return result is True


def _register(cls, registry: list) -> None:
    init = cls.__init__

    def registering(self, *args, **kwargs):
        init(self, *args, **kwargs)
        registry.append(self)

    cls.__init__ = registering
