"""Golden outputs: every rig's simulated result, pinned byte-for-byte.

The echo and mesh signatures are pinned in ``BENCH_kernel.json``; this
module pins the rest — cluster, chaos, multi-tenant, KVS and the service
graph — as canonical JSON in ``golden_outputs.json``, so a change to any
load loop that moves a simulated number fails tier-1 instead of passing
unseen. A deliberate re-baseline regenerates the fixture::

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
    result = graph.run_load("frontend", {"serve": 1.0}, load_krps=20,
                            nreq=400, warmup_ns=100_000)
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


POINTS = {
    "cluster_social_p2c_bursty_500": _cluster,
    "chaos_loss": lambda: _chaos("loss"),
    "chaos_reorder": lambda: _chaos("reorder"),
    "multi_tenant_2mrps_1500": _multi_tenant,
    "kvs_open_1500": lambda: _kvs(None),
    "kvs_closed_1500": lambda: _kvs(16),
    "kvs_multicore_2x1200": _kvs_multicore,
    "graph_two_tier_400": _graph,
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
