"""The benchmark's four workloads, driven through the public entry points.

Each ``run_*`` function takes a seed, runs one measurement point and
returns an :class:`Outcome`: the simulated outputs the benchmark checks
and reports. Latency samples are taken from the recorder the entry point
already fills, through a hook that runs once per point, never per event.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List

#: Simulated latency deadline for ``slo_attainment`` (the cluster's SLO).
DEADLINE_NS = 500_000

ECHO_NREQ = 4000
CLUSTER_NREQ = 2000
LOSSY_NREQ = 8000
MESH_HOSTS = 4
MESH_NREQ_PER_HOST = 4000
MESH_SHARDS = 2


@dataclass
class Outcome:
    """Simulated outputs of one point (all deterministic for a seed)."""

    attempted: int  # simulated RPCs (user requests for the cluster)
    completed: int
    failed: int  # lost, dropped or failed-pending
    samples: List[int]  # post-warmup simulated latencies, ns
    sim_throughput_rps: float
    signature: str  # sha256 of the entry point's canonical result
    checks: Dict[str, bool]
    extras: Dict[str, float] = field(default_factory=dict)


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_echo(seed: int) -> Outcome:
    from repro.harness.runner import EchoRig

    rig = EchoRig(batch_size=4, seed=seed)
    recorders = []
    traced_result = rig._traced_result

    def keep_recorder(recorder, *args, **kwargs):
        recorders.append(recorder)
        return traced_result(recorder, *args, **kwargs)

    rig._traced_result = keep_recorder
    result = rig.closed_loop(window=64, nreq=ECHO_NREQ)
    completed = sum(client.calls_completed for client in rig.clients)
    failed = ECHO_NREQ - completed
    return Outcome(
        attempted=ECHO_NREQ,
        completed=completed,
        failed=failed,
        samples=list(recorders[0].samples),
        sim_throughput_rps=result.throughput_mrps * 1e6,
        signature=_digest(result.to_dict()),
        checks={"every request completed": failed == 0,
                "zero drops": result.drops == 0},
    )


def run_cluster(seed: int) -> Outcome:
    from repro.harness import cluster
    from repro.sim.stats import LatencyRecorder

    recorders = []

    class KeptRecorder(LatencyRecorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorders.append(self)

    cluster.LatencyRecorder = KeptRecorder
    try:
        result = cluster.run_cluster_point(
            app="social_network", machines=8, policy="p2c",
            modulation="bursty", nreq=CLUSTER_NREQ, seed=seed)
    finally:
        cluster.LatencyRecorder = LatencyRecorder
    samples = list(recorders[0].samples)
    met = sum(1 for latency in samples if latency <= DEADLINE_NS)
    failed = result["lost"]
    return Outcome(
        attempted=CLUSTER_NREQ,
        completed=result["completed"],
        failed=failed,
        samples=samples,
        sim_throughput_rps=result["throughput_krps"] * 1e3,
        signature=_digest(result),
        checks={"every request completed": failed == 0,
                "zero drops": result["drops"] == 0,
                "SLO count matches the samples":
                    (met, len(samples)) == (result["slo_met"],
                                            result["slo_total"])},
        extras={"autoscale_events": len(result["scaling_events"])},
    )


def run_lossy(seed: int) -> Outcome:
    from repro.chaos import rig as chaos_rig
    from repro.sim.kernel import Simulator

    sorted_latencies = []
    percentile = chaos_rig.percentile

    def keep_samples(data, *args, **kwargs):
        if not sorted_latencies:
            sorted_latencies.extend(data)
        return percentile(data, *args, **kwargs)

    sims = []
    run_until_done = Simulator.run_until_done

    def keep_sim(self, process):
        sims.append(self)
        return run_until_done(self, process)

    chaos_rig.percentile = keep_samples
    Simulator.run_until_done = keep_sim
    try:
        result = chaos_rig.run_chaos_point("loss", nreq=LOSSY_NREQ, seed=seed)
    finally:
        chaos_rig.percentile = percentile
        Simulator.run_until_done = run_until_done
    transport = result["transport"]
    retransmissions = sum(side["retransmissions"]
                          for side in transport.values())
    duplicates = sum(side["duplicates_dropped"]
                     for side in transport.values())
    failed = result["lost_rpcs"]
    # The point returns at its last completion: the clock is the span.
    sim_seconds = sims[0].now / 1e9
    return Outcome(
        attempted=LOSSY_NREQ,
        completed=result["completed"],
        failed=failed,
        samples=sorted_latencies,
        sim_throughput_rps=result["completed"] / sim_seconds,
        signature=_digest(result),
        checks={"lost_rpcs == 0": failed == 0,
                "duplicate_host_deliveries == 0":
                    result["duplicate_host_deliveries"] == 0},
        extras={"retransmissions": retransmissions,
                "duplicates_dropped": duplicates,
                "wire_dropped": result["wire"]["dropped"]},
    )


def run_mesh(seed: int, shards: int = MESH_SHARDS) -> Outcome:
    from repro.harness import mesh

    results = []
    run_sharded = mesh.run_sharded

    def keep_result(*args, **kwargs):
        results.append(run_sharded(*args, **kwargs))
        return results[-1]

    mesh.run_sharded = keep_result
    try:
        result = mesh.run_echo_mesh(hosts=MESH_HOSTS, shards=shards,
                                    nreq_per_host=MESH_NREQ_PER_HOST,
                                    seed=seed)
    finally:
        mesh.run_sharded = run_sharded
    samples = [latency for host in results[0].per_host
               for latency in host["samples"]]
    attempted = MESH_HOSTS * MESH_NREQ_PER_HOST
    completed = sum(host["completed"] for host in result.per_host)
    failed = attempted - completed
    return Outcome(
        attempted=attempted,
        completed=completed,
        failed=failed,
        samples=samples,
        sim_throughput_rps=result.throughput_mrps * 1e6,
        # The engine fields (windows, shard count) are outside the parity
        # signature by design; the simulated results are inside it.
        signature=hashlib.sha256(
            mesh.mesh_signature(result).encode()).hexdigest(),
        checks={"every request completed": failed == 0,
                "zero drops": result.drops == 0},
        extras={"windows": result.windows,
                "events": result.events_total,
                "boundary_bytes": result.boundary_bytes},
    )


@dataclass(frozen=True)
class Workload:
    run: Callable[[int], Outcome]
    rpcs: int  # the unit of rpcs_per_host_s and of every *_per_rpc count
    loop: str
    load: str
    #: Distinct seeds one benchmark run simulates (see README: cluster).
    seeds_per_run: int = 1


WORKLOADS = {
    "echo": Workload(run_echo, ECHO_NREQ, "closed",
                     "1 client thread, window 64, 48 B RPCs, loopback"),
    "cluster": Workload(run_cluster, CLUSTER_NREQ, "open",
                        "60 krps peak, bursty, Zipf(0.99) sessions, "
                        "social_network on 8 machines, p2c",
                        seeds_per_run=8),
    "lossy": Workload(run_lossy, LOSSY_NREQ, "open",
                      "1 Mrps Poisson, 2% wire loss, reliable transport "
                      "+ credits"),
    "mesh": Workload(run_mesh, MESH_HOSTS * MESH_NREQ_PER_HOST, "closed",
                     "4 hosts full mesh, window 64 per client, "
                     "2 shard workers"),
}
