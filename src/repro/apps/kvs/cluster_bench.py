"""Multi-core KVS scaling over a distributed cluster.

The measurement section 5.6 explicitly could not take: "we do not show
results of multi-core scalability for MICA, since the extensive amount of
LLC contention [from running client and server on the same CPU] introduces
considerable instability... we plan to deploy Dagger to a cluster
environment with physically distributed FPGAs". This module takes it:
the MICA server runs alone on one machine; load comes from separate client
machines over a real ToR switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.apps.kvs.client import (
    KvsClient,
    encode_key,
    generate_ops,
    kvs_idl,
    make_kvs_servicer,
    make_value,
)
from repro.apps.kvs.memcached import MemcachedServer
from repro.apps.kvs.mica import MicaServer
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.cluster import Cluster
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.rpc import RpcClient, RpcThreadedServer, ThreadingModel
from repro.sim import LatencyRecorder, Simulator
from repro.stacks import DaggerStack, connect

#: Client threads one 12-core machine contributes (2 SMT threads per core
#: on 8 of its cores; the rest absorb OS noise, as the paper's setup does).
CLIENT_THREADS_PER_MACHINE = 16


@dataclass
class ClusterKvsResult:
    """Multi-core scaling measurement."""

    server_threads: int
    client_machines: int
    throughput_mrps: float
    p50_us: float
    p99_us: float
    drop_rate: float


def run_kvs_multicore(
    system: str = "mica",
    server_threads: int = 4,
    key_bytes: int = 8,
    value_bytes: int = 8,
    num_keys: int = 1_000_000,
    get_fraction: float = 0.95,
    window_per_client: int = 24,
    nreq_per_thread: int = 4000,
    batch_size: int = 4,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 13,
) -> ClusterKvsResult:
    """Closed-loop saturation of a multi-threaded KVS server."""
    # local: the harness package imports the apps
    from repro.harness.load import LoadDriver

    sim = Simulator()
    # Enough client machines to saturate the server threads.
    clients_needed = max(server_threads, 2)
    num_client_machines = max(
        1, math.ceil(clients_needed / CLIENT_THREADS_PER_MACHINE)
    )
    cluster = Cluster(sim, 1 + num_client_machines, calibration, seed=seed)
    server_machine = cluster.machine(0)
    namespace = kvs_idl(key_bytes, value_bytes)

    if system == "mica":
        backend = MicaServer(num_partitions=server_threads)
        balancer = "object-level"
    elif system == "memcached":
        backend = MemcachedServer()
        balancer = "round-robin"
    else:
        raise ValueError(f"unknown KVS system {system!r}")

    server_stack = DaggerStack(
        server_machine, cluster.switch, "kvs-server",
        hard=NicHardConfig(num_flows=server_threads, rx_ring_entries=256),
        soft=NicSoftConfig(batch_size=batch_size, auto_batch=True,
                           load_balancer=balancer),
    )
    server = RpcThreadedServer(sim, calibration, name=system)
    server_thread_objs = server_machine.threads(server_threads, start_core=0)
    partition_of_thread = {t: i for i, t in enumerate(server_thread_objs)}
    make_kvs_servicer(namespace, backend, value_bytes,
                      partition_of_thread).register(server)
    for i, thread in enumerate(server_thread_objs):
        server.add_server_thread(server_stack.port(i), thread,
                                 model=ThreadingModel.DISPATCH)
    server.start()

    # Client fleet: one thread per server thread, spread across machines.
    clients: List[KvsClient] = []
    for index in range(clients_needed):
        machine = cluster.machine(1 + index % num_client_machines)
        stack_name = f"kvs-client{index}"
        client_stack = DaggerStack(
            machine, cluster.switch, stack_name,
            hard=NicHardConfig(num_flows=1),
            soft=NicSoftConfig(batch_size=batch_size, auto_batch=True),
        )
        thread = machine.thread(
            (index // num_client_machines) % machine.config.cores,
            name=stack_name,
        )
        conn = connect(client_stack, 0, server_stack,
                       index % server_threads, load_balancer=balancer)
        clients.append(KvsClient(namespace, RpcClient(client_stack.port(0),
                                                      thread, conn),
                                 key_bytes, value_bytes,
                                 use_lb_key=(system == "mica")))

    nreq = nreq_per_thread * server_threads
    ops = generate_ops(nreq, num_keys, get_fraction, seed=seed)
    backend.populate(
        (encode_key(i, key_bytes), make_value(i, value_bytes))
        for i in sorted({index for _, index in ops})
    )

    recorder = LatencyRecorder(warmup_ns=150_000)
    load = LoadDriver(sim, recorder.record, len(ops),
                      [client.rpc_client for client in clients])
    for i, client in enumerate(clients):
        trace = ops[i::len(clients)]
        load.closed(client.rpc_client, trace, window_per_client,
                    client.issue)
    load.run()

    total = recorder.count + recorder.discarded
    drops = server_stack.drops
    return ClusterKvsResult(
        server_threads=server_threads,
        client_machines=num_client_machines,
        throughput_mrps=recorder.throughput_mrps(),
        p50_us=recorder.summary().p50_us,
        p99_us=recorder.summary().p99_us,
        drop_rate=drops / max(1, total + drops),
    )
