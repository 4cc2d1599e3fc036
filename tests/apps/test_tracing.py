"""Unit tests for the request tracer / latency decomposition."""

import pytest

from repro.apps.microservices.tracing import Tracer


def test_breakdown_fractions_sum_to_one():
    tracer = Tracer(transport_oneway_ns=1000, transport_cpu_ns=200)
    for latency in (10_000, 12_000, 11_000):
        tracer.record_call("tier", latency)
    tracer.record_compute("tier", 4_000)
    breakdown = tracer.breakdown("tier")
    total = (breakdown.app_fraction + breakdown.rpc_fraction
             + breakdown.transport_fraction)
    assert total == pytest.approx(1.0)
    assert breakdown.network_fraction == pytest.approx(
        breakdown.rpc_fraction + breakdown.transport_fraction
    )
    assert breakdown.count == 3


def test_breakdown_app_share():
    tracer = Tracer(transport_oneway_ns=0, transport_cpu_ns=0)
    tracer.record_call("tier", 10_000)
    tracer.record_compute("tier", 4_000)
    breakdown = tracer.breakdown("tier")
    assert breakdown.app_fraction == pytest.approx(0.4)
    assert breakdown.rpc_fraction == pytest.approx(0.6)
    assert breakdown.transport_fraction == 0.0


def test_transport_capped_by_networking():
    # Huge configured transport cannot exceed the observed networking time.
    tracer = Tracer(transport_oneway_ns=100_000, transport_cpu_ns=0)
    tracer.record_call("tier", 10_000)
    tracer.record_compute("tier", 5_000)
    breakdown = tracer.breakdown("tier")
    assert breakdown.transport_fraction == pytest.approx(0.5)
    assert breakdown.rpc_fraction == pytest.approx(0.0)


def test_nested_time_subtracted():
    tracer = Tracer()
    tracer.record_call("tier", 50_000, rpc_id=1)
    tracer.record_nested("tier", 1, 30_000)
    assert tracer.local_latencies("tier") == [20_000]
    tracer.record_call("tier", 10_000, rpc_id=2)  # no nested record
    assert tracer.local_latencies("tier") == [20_000, 10_000]


def test_nested_never_negative():
    tracer = Tracer()
    tracer.record_call("tier", 5_000, rpc_id=1)
    tracer.record_nested("tier", 1, 9_000)
    assert tracer.local_latencies("tier") == [0]


def test_unknown_tier_raises():
    with pytest.raises(KeyError):
        Tracer().breakdown("ghost")


def test_e2e_breakdown():
    tracer = Tracer()
    with pytest.raises(KeyError):
        tracer.e2e_breakdown()
    tracer.record_e2e(100_000)
    tracer.record_e2e(120_000)
    breakdown = tracer.e2e_breakdown()
    assert breakdown.tier == "e2e"
    assert breakdown.count == 2
    assert breakdown.p50_us == pytest.approx(110.0)


def test_e2e_breakdown_ignores_a_tier_named_e2e():
    tracer = Tracer()
    tracer.record_e2e(100_000)
    tracer.record_compute("e2e", 90_000)
    assert tracer.e2e_breakdown().app_fraction == 0.0


def test_tiers_listing():
    tracer = Tracer()
    tracer.record_call("b", 1)
    tracer.record_call("a", 1)
    assert tracer.tiers() == ["a", "b"]
