"""Regression tests: closed/open loops issue every requested RPC even when
``nreq`` does not divide the client count, and validate ``nreq``.

Before the fix, ``nreq // len(clients)`` silently dropped the remainder,
and ``nreq < num_threads`` produced target == 0 (an instant, empty run at
best, a hang in loops that waited for completions that never came).
"""

import pytest

from repro.harness.runner import EchoRig


def rig(num_threads=2):
    return EchoRig(stack_name="dagger", interface="upi",
                   num_threads=num_threads)


def test_closed_loop_non_divisible_nreq_completes_everything():
    result = rig(num_threads=2).closed_loop(window=4, nreq=5, warmup_ns=0)
    assert result.count == 5
    assert result.drops == 0


def test_closed_loop_nreq_smaller_than_clients_does_not_hang():
    result = rig(num_threads=2).closed_loop(window=4, nreq=1, warmup_ns=0)
    assert result.count == 1


def test_closed_loop_rejects_zero_nreq():
    with pytest.raises(ValueError, match="nreq"):
        rig().closed_loop(nreq=0)


def test_open_loop_non_divisible_nreq_completes_everything():
    result = rig(num_threads=2).open_loop(0.5, nreq=5, warmup_ns=0)
    assert result.count == 5
    assert result.offered_mrps == 0.5


def test_open_loop_rejects_zero_nreq():
    with pytest.raises(ValueError, match="nreq"):
        rig().open_loop(1.0, nreq=0)


def test_quota_split_covers_exactly_nreq():
    r = rig(num_threads=3)
    assert r._client_quotas(10) == [4, 3, 3]
    assert r._client_quotas(3) == [1, 1, 1]
    assert r._client_quotas(2) == [1, 1, 0]


def two_tier_graph():
    from repro.apps.microservices import (
        CallSpec,
        MethodSpec,
        ServiceGraph,
        TierSpec,
    )
    from repro.sim.distributions import Constant

    graph = ServiceGraph(seed=3)
    graph.add_tier(TierSpec(name="backend", methods={
        "handle": MethodSpec(compute=Constant(2000), response_bytes=32)}))
    graph.add_tier(TierSpec(name="frontend", methods={
        "serve": MethodSpec(compute=Constant(1000),
                            stages=[[CallSpec("backend", payload_bytes=64)]],
                            response_bytes=48)}))
    return graph


def test_graph_run_load_issues_the_remainder():
    # Two load threads used to issue 401 // 2 * 2 == 400 requests.
    result = two_tier_graph().run_load("frontend", {"serve": 1.0},
                                       load_krps=20, nreq=401, warmup_ns=0)
    assert result.count == 401


def test_graph_run_load_single_request():
    # nreq // 2 == 0 used to issue nothing and fail in summary().
    result = two_tier_graph().run_load("frontend", {"serve": 1.0},
                                       load_krps=20, nreq=1, warmup_ns=0)
    assert result.count == 1
    assert result.throughput_krps == 0.0


def test_graph_run_load_rejects_zero_nreq():
    with pytest.raises(ValueError, match="nreq"):
        two_tier_graph().run_load("frontend", {"serve": 1.0},
                                  load_krps=20, nreq=0)
