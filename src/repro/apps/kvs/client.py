"""KVS-over-RPC glue: generated IDL stubs, servicer bindings, and the
section 5.6 workload driver.

``kvs_idl(key_bytes, value_bytes)`` generates the wire schema for a dataset
shape (tiny = 8/8, small = 16/32, as in MICA's evaluation);
``run_kvs_workload`` builds the full rig — machine, switch, stacks, KVS
server, zipfian load — and measures what Fig 12 reports.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.kvs.memcached import MemcachedServer
from repro.apps.kvs.mica import MicaServer, mica_key_hash
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.platform import Machine, MachineConfig
from repro.hw.switch import ToRSwitch
from repro.rpc import RpcClient, RpcThreadedServer, ThreadingModel
from repro.rpc.idl import load_idl
from repro.sim import Exponential, LatencyRecorder, Simulator, Zipfian
from repro.sim.distributions import make_rng
from repro.stacks import DaggerStack, connect, make_stack

_KVS_IDL_TEMPLATE = """
Message GetRequest {{
    char[{key}] key;
}}
Message GetResponse {{
    uint8 hit;
    char[{value}] value;
}}
Message SetRequest {{
    char[{key}] key;
    char[{value}] value;
}}
Message SetResponse {{
    uint8 ok;
}}
Service KeyValueStore {{
    rpc get(GetRequest) returns(GetResponse);
    rpc set(SetRequest) returns(SetResponse);
}}
"""


@lru_cache(maxsize=None)
def kvs_idl(key_bytes: int, value_bytes: int) -> Dict[str, Any]:
    """Generated message/stub namespace for a dataset shape."""
    if key_bytes < 8:
        raise ValueError("key_bytes must be >= 8 (keys carry a 64-bit index)")
    return load_idl(_KVS_IDL_TEMPLATE.format(key=key_bytes, value=value_bytes))


def encode_key(index: int, key_bytes: int) -> bytes:
    """Stable, unique key encoding for a dataset index."""
    return struct.pack("<Q", index).ljust(key_bytes, b"k")


def make_value(index: int, value_bytes: int) -> bytes:
    return (b"v%d" % (index % 1000)).ljust(value_bytes, b".")[:value_bytes]


def make_kvs_servicer(namespace: Dict[str, Any], backend,
                      value_bytes: int,
                      partition_of_thread: Optional[Dict] = None,
                      seed: int = 29):
    """Bind a MemcachedServer or MicaServer to the generated servicer."""
    is_mica = isinstance(backend, MicaServer)
    rng = make_rng(seed)

    class KvsServicer(namespace["KeyValueStoreServicer"]):
        def _partition(self, ctx) -> Optional[int]:
            if not is_mica or partition_of_thread is None:
                return None
            return partition_of_thread.get(ctx.thread)

        def get(self, ctx, request):
            key = request.key
            partition = self._partition(ctx)
            cost = backend.costs.get_cost(len(key), value_bytes, rng)
            if is_mica:
                cost += backend.cross_partition_penalty_ns(key, partition)
                value = backend.do_get(key, partition)
            else:
                value = backend.do_get(key)
            yield from ctx.exec(cost)
            if value is None:
                return namespace["GetResponse"](hit=0, value=b"")
            return namespace["GetResponse"](hit=1, value=value)

        def set(self, ctx, request):
            key = request.key
            partition = self._partition(ctx)
            inline, deferred = backend.costs.set_split(
                len(key), len(request.value), rng
            )
            if is_mica:
                inline += backend.cross_partition_penalty_ns(key, partition)
                backend.do_set(key, request.value, partition)
            else:
                backend.do_set(key, request.value)
            yield from ctx.exec(inline)
            if deferred:
                ctx.defer(deferred)
            return namespace["SetResponse"](ok=1)

    return KvsServicer()


class KvsClient:
    """Typed client over the generated stub."""

    def __init__(self, namespace: Dict[str, Any], rpc_client: RpcClient,
                 key_bytes: int, value_bytes: int, use_lb_key: bool = False):
        self.namespace = namespace
        self.stub = namespace["KeyValueStoreClient"](rpc_client)
        self.rpc_client = rpc_client
        self.key_bytes = key_bytes
        self.value_bytes = value_bytes
        self.use_lb_key = use_lb_key

    def _lb_key(self, key: bytes) -> Optional[int]:
        return mica_key_hash(key) if self.use_lb_key else None

    def get(self, index: int):
        key = encode_key(index, self.key_bytes)
        request = self.namespace["GetRequest"](key=key)
        response = yield from self.stub.get(request, lb_key=self._lb_key(key))
        return response

    def set(self, index: int):
        key = encode_key(index, self.key_bytes)
        request = self.namespace["SetRequest"](
            key=key, value=make_value(index, self.value_bytes)
        )
        response = yield from self.stub.set(request, lb_key=self._lb_key(key))
        return response

    def issue(self, op: Tuple[str, int], on_response):
        """Issue one ``(op, index)`` trace entry (the load driver's hook)."""
        kind, index = op
        if kind == "get":
            return self.get_async(index, on_response=on_response)
        return self.set_async(index, on_response=on_response)

    def get_async(self, index: int, on_response=None):
        key = encode_key(index, self.key_bytes)
        request = self.namespace["GetRequest"](key=key)
        call = yield from self.stub.get_async(
            request, lb_key=self._lb_key(key), on_response=on_response
        )
        return call

    def set_async(self, index: int, on_response=None):
        key = encode_key(index, self.key_bytes)
        request = self.namespace["SetRequest"](
            key=key, value=make_value(index, self.value_bytes)
        )
        call = yield from self.stub.set_async(
            request, lb_key=self._lb_key(key), on_response=on_response
        )
        return call


@dataclass
class KvsWorkloadResult:
    """What Fig 12 reports for one (system, dataset, mix) cell."""

    throughput_mrps: float
    p50_us: float
    p99_us: float
    hit_rate: float
    drops: int
    drop_rate: float
    misrouted: int = 0


def generate_ops(nreq: int, num_keys: int, get_fraction: float,
                 skew: float = 0.99, seed: int = 11) -> List[Tuple[str, int]]:
    """Pre-generate the (op, key_index) trace for a zipfian workload."""
    if not 0.0 <= get_fraction <= 1.0:
        raise ValueError(f"get_fraction must be in [0, 1], got {get_fraction}")
    rng = make_rng(seed)
    zipf = Zipfian(num_keys, theta=skew, rng=rng)
    ops = []
    for _ in range(nreq):
        op = "get" if rng.random() < get_fraction else "set"
        ops.append((op, zipf.sample()))
    return ops


def run_kvs_workload(
    system: str = "mica",  # "mica" | "memcached"
    stack_name: str = "dagger",
    key_bytes: int = 8,
    value_bytes: int = 8,
    num_keys: int = 200_000_000,
    get_fraction: float = 0.5,
    skew: float = 0.99,
    load_mrps: Optional[float] = None,
    load_factor: float = 0.7,
    closed_loop_window: Optional[int] = None,
    nreq: int = 20000,
    num_threads: int = 1,
    batch_size: int = 4,
    load_balancer: Optional[str] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    warmup_ns: int = 300_000,
    model_llc_contention: bool = False,
    seed: int = 11,
) -> KvsWorkloadResult:
    """Run one Fig 12 cell and return its measurements.

    Two driving modes: open loop (Poisson at ``load_mrps``, defaulting to
    ``load_factor`` of the analytic capacity) for latency-vs-load studies,
    or closed loop (``closed_loop_window`` outstanding requests) for the
    peak-throughput and access-latency cells, like the paper's generator.
    """
    # local: the harness package imports the apps
    from repro.harness.load import LoadDriver, poisson_arrivals

    sim = Simulator()
    machine = Machine(sim, MachineConfig(), calibration, seed=seed)
    switch = ToRSwitch(sim, calibration, loopback=True)
    namespace = kvs_idl(key_bytes, value_bytes)

    if system == "mica":
        backend = MicaServer(num_partitions=num_threads)
        default_lb = "object-level"
    elif system == "memcached":
        backend = MemcachedServer()
        default_lb = "round-robin"
    else:
        raise ValueError(f"unknown KVS system {system!r}")
    lb = load_balancer or default_lb

    if stack_name == "dagger":
        hard = NicHardConfig(num_flows=num_threads)
        client_stack = DaggerStack(
            machine, switch, "kvs-client", hard=hard,
            soft=NicSoftConfig(batch_size=batch_size, auto_batch=True),
        )
        server_stack = DaggerStack(
            machine, switch, "kvs-server", hard=hard,
            soft=NicSoftConfig(batch_size=batch_size, auto_batch=True,
                               load_balancer=lb),
        )
    else:
        client_stack = make_stack(stack_name, machine, switch, "kvs-client")
        server_stack = make_stack(
            stack_name, machine, switch, "kvs-server", load_balancer=lb
        )

    server = RpcThreadedServer(sim, calibration, name=system)
    server_threads = machine.threads(num_threads, start_core=6)
    partition_of_thread = {
        thread: i for i, thread in enumerate(server_threads)
    }
    servicer = make_kvs_servicer(
        namespace, backend, value_bytes, partition_of_thread
    )
    servicer.register(server)
    for i, thread in enumerate(server_threads):
        server.add_server_thread(server_stack.port(i), thread,
                                 model=ThreadingModel.DISPATCH)
    server.start()

    client_threads = machine.threads(num_threads, start_core=0)
    if model_llc_contention:
        # §5.6: the co-located workload generator trashes the shared LLC
        # ("reads 1.49 GB of data at a very high rate"), slowing the
        # server threads it shares the chip with.
        for thread in client_threads:
            thread.mark_llc_heavy()
    clients = []
    for i in range(num_threads):
        conn = connect(client_stack, i, server_stack, i, load_balancer=lb)
        rpc_client = RpcClient(client_stack.port(i), client_threads[i], conn)
        clients.append(KvsClient(namespace, rpc_client, key_bytes,
                                 value_bytes, use_lb_key=(system == "mica")))

    # Pre-generate the trace and populate exactly the keys it touches.
    ops = generate_ops(nreq, num_keys, get_fraction, skew, seed)
    distinct = sorted({index for _, index in ops})
    backend.populate(
        (encode_key(i, key_bytes), make_value(i, value_bytes))
        for i in distinct
    )

    # Analytic single-thread capacity: backend service time + the RPC
    # framework's per-request CPU share (rx + dispatch + tx + jitter).
    rpc_overhead_ns = (calibration.cpu_rx_ns + calibration.cpu_dispatch_ns
                       + calibration.cpu_tx_ns
                       + 3 * calibration.cpu_jitter_mean_ns)
    mean_cost = (get_fraction * backend.costs.get_cost(key_bytes, value_bytes)
                 + (1 - get_fraction)
                 * backend.costs.set_cost(key_bytes, value_bytes)
                 + rpc_overhead_ns)
    if load_mrps is None:
        load_mrps = num_threads * load_factor * 1000.0 / mean_cost

    recorder = LatencyRecorder(warmup_ns=warmup_ns)
    load = LoadDriver(sim, recorder.record, len(ops),
                      [client.rpc_client for client in clients])
    interarrival = Exponential(mean=1000.0 / load_mrps * len(clients),
                               rng=seed + 1)
    for i, client in enumerate(clients):
        trace = ops[i::len(clients)]
        if closed_loop_window is not None:
            load.closed(client.rpc_client, trace, closed_loop_window,
                        client.issue)
        else:
            load.open(poisson_arrivals(sim, interarrival, trace),
                      client.issue)
    load.run()

    dropped = client_stack.drops + server_stack.drops
    total = recorder.count + recorder.discarded
    misrouted = backend.misrouted if isinstance(backend, MicaServer) else 0
    return KvsWorkloadResult(
        throughput_mrps=recorder.throughput_mrps(),
        p50_us=recorder.summary().p50_us,
        p99_us=recorder.summary().p99_us,
        hit_rate=backend.hit_rate,
        drops=dropped,
        drop_rate=dropped / max(1, total + dropped),
        misrouted=misrouted,
    )
