"""Golden outputs: every rig's simulated result, pinned byte-for-byte.

The full-size echo and mesh signatures are pinned in ``BENCH_kernel.json``;
this module pins the rest — cluster, chaos, multi-tenant, KVS, the service
graphs, the Flight app, a small 4-host mesh and the push-mode (PCIe MMIO)
echo — as canonical JSON in ``golden_outputs.json``,
so a change to any load loop or deployer that moves a simulated number
fails tier-1 instead of passing unseen. A deliberate re-baseline
regenerates the fixture::

    PYTHONPATH=src python tests/harness/test_golden_outputs.py --record
"""

import hashlib
import json
import os
import sys
from dataclasses import asdict

import pytest

from repro.sim.sharded import canonical_json

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_outputs.json")


def _cluster():
    from repro.harness.cluster import run_cluster_point

    return run_cluster_point(app="social_network", machines=8, policy="p2c",
                             modulation="bursty", nreq=500)


def _chaos(fault_class):
    from repro.chaos.rig import run_chaos_point

    return run_chaos_point(fault_class)


def _multi_tenant():
    from repro.harness.runner import run_multi_tenant

    return run_multi_tenant(2.0, nreq_total=1500).to_dict()


def _kvs(closed_loop_window):
    from repro.apps.kvs.client import run_kvs_workload

    return asdict(run_kvs_workload(nreq=1500,
                                   closed_loop_window=closed_loop_window))


def _kvs_multicore():
    from repro.apps.kvs.cluster_bench import run_kvs_multicore

    return asdict(run_kvs_multicore(server_threads=2, nreq_per_thread=1200))


def _digest(value):
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def _graph_result(result):
    """A GraphResult as plain data, its per-tier trace pinned by digest."""
    tracer = result.tracer
    data = asdict(result)
    del data["tracer"]
    # The per-tier trace is pinned by digest: it holds every call latency.
    data["trace_sha256"] = _digest({
        "calls": tracer.call_latencies,
        "computes": tracer.computes,
        "nested": {tier: sorted(nested.values())
                   for tier, nested in tracer.nested.items()},
        "e2e": tracer.e2e_latencies,
    })
    return data


def _graph():
    from repro.apps.microservices import (
        CallSpec,
        MethodSpec,
        ServiceGraph,
        TierSpec,
    )
    from repro.sim.distributions import Constant

    # The two-tier graph of tests/apps/test_microservices.py.
    graph = ServiceGraph(stack_name="dagger", seed=3)
    graph.add_tier(TierSpec(
        name="backend",
        methods={"handle": MethodSpec(compute=Constant(2000),
                                      response_bytes=32)},
    ))
    graph.add_tier(TierSpec(
        name="frontend",
        methods={"serve": MethodSpec(
            compute=Constant(1000),
            stages=[[CallSpec("backend", payload_bytes=64)]],
            response_bytes=48,
        )},
        num_dispatch_threads=2,
    ))
    return _graph_result(graph.run_load("frontend", {"serve": 1.0},
                                        load_krps=20, nreq=400,
                                        warmup_ns=100_000))


def _social_graph(pinned):
    from repro.apps.microservices.social_network import (
        DEFAULT_MIX,
        social_network_graph,
        social_network_tiers,
    )

    # Fig 3 over a software stack; pinned: Fig 5's shared-core cell, every
    # tier and the IRQ work on cores 0-3.
    cores = None
    if pinned:
        cores = {spec.name: [0, 1, 2, 3] for spec in social_network_tiers()}
    graph = social_network_graph("linux-tcp", cores=cores)
    if pinned:
        irq_threads = [graph.machine.thread(core, name=f"irq{core}")
                       for core in range(4)]
        for tier in graph.tiers.values():
            tier.stack.irq_threads = irq_threads
    return _graph_result(graph.run_load("nginx", DEFAULT_MIX, load_krps=8,
                                        nreq=400))


def _flight(optimized):
    from repro.apps.microservices.flight import build_flight_app

    # Optimized: MICA custom handlers, WORKER threading, object-level
    # balancing. Simple: dispatch-thread post-work, measured from issue.
    app = build_flight_app(optimized=optimized)
    return _graph_result(app.run(20, nreq=200, warmup_ns=200_000,
                                 measure_from_issue=not optimized))


def _cluster_flight():
    from repro.harness.cluster import run_cluster_point

    return run_cluster_point(app="flight", nreq=300)


def _mesh():
    from repro.harness.mesh import run_echo_mesh

    return run_echo_mesh(hosts=4, nreq_per_host=500).signature()


def _echo_pcie_mmio():
    from repro.harness.runner import run_closed_loop

    # Push mode: the host writes each packet to the NIC over MMIO.
    return run_closed_loop(interface="pcie-mmio", nreq=1000).to_dict()


POINTS = {
    "cluster_social_p2c_bursty_500": _cluster,
    "chaos_loss": lambda: _chaos("loss"),
    "chaos_reorder": lambda: _chaos("reorder"),
    "multi_tenant_2mrps_1500": _multi_tenant,
    "kvs_open_1500": lambda: _kvs(None),
    "kvs_closed_1500": lambda: _kvs(16),
    "kvs_multicore_2x1200": _kvs_multicore,
    "graph_two_tier_400": _graph,
    "graph_social_linux_tcp_400": lambda: _social_graph(False),
    "graph_social_pinned_400": lambda: _social_graph(True),
    "flight_optimized_200": lambda: _flight(True),
    "flight_simple_200": lambda: _flight(False),
    "cluster_flight_300": _cluster_flight,
    "mesh_4x500": _mesh,
    "echo_pcie_mmio_1000": _echo_pcie_mmio,
}


def _load_fixture():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_output_matches_golden(name):
    expected = _load_fixture()[name]
    assert canonical_json(POINTS[name]()) == canonical_json(expected)


def test_fixture_covers_every_point():
    assert sorted(_load_fixture()) == sorted(POINTS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_outputs.py --record")
    outputs = {name: POINTS[name]() for name in sorted(POINTS)}
    with open(FIXTURE, "w") as handle:
        json.dump(outputs, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"wrote {len(outputs)} golden outputs to {FIXTURE}")
