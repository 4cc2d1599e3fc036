"""Request tracing: the "lightweight request tracing system" of section 5.7.

Collects two sample streams per tier:

- the RPC-level latency of every call *into* the tier, measured at the
  caller (includes both directions of the network, RPC processing, and all
  queueing);
- the tier's own application compute time per request, reported by the
  handler.

From these it derives the Fig 3 breakdown: per-tier median/tail latency
split into application processing, RPC processing, and transport (TCP/IP
for the software baseline). Unattributed time — queueing — is folded into
the RPC share, matching the paper's observation that at high load "most of
this time corresponds to queueing" in the RPC layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.stats import percentile


@dataclass
class TierBreakdown:
    """Fig 3, one bar: a tier's latency and its decomposition."""

    tier: str
    count: int
    p50_us: float
    p99_us: float
    app_p50_us: float
    # decomposition of the median (fractions sum to 1)
    app_fraction: float
    rpc_fraction: float
    transport_fraction: float

    @property
    def network_fraction(self) -> float:
        return self.rpc_fraction + self.transport_fraction


class Tracer:
    """Per-tier call-latency and compute collector."""

    def __init__(self, transport_oneway_ns: int = 0,
                 transport_cpu_ns: int = 0):
        # Unloaded transport cost of one round trip over the active stack;
        # used to split "networking" into transport vs RPC layers.
        self.transport_rtt_ns = 2 * (transport_oneway_ns + transport_cpu_ns)
        self.call_latencies: Dict[str, List[int]] = {}
        self._call_ids: Dict[str, List[Optional[int]]] = {}
        self.computes: Dict[str, List[int]] = {}
        self.nested: Dict[str, Dict[int, int]] = {}
        self.e2e_latencies: List[int] = []

    def record_call(self, tier: str, latency_ns: int,
                    rpc_id: Optional[int] = None) -> None:
        self.call_latencies.setdefault(tier, []).append(latency_ns)
        self._call_ids.setdefault(tier, []).append(rpc_id)

    def record_nested(self, tier: str, rpc_id: int, nested_ns: int) -> None:
        """Time a tier's handler spent blocked on downstream calls."""
        self.nested.setdefault(tier, {})[rpc_id] = nested_ns

    def local_latencies(self, tier: str) -> List[int]:
        """Call latencies minus the tier's own downstream wait — i.e. time
        attributable to this tier (its compute + its RPC/transport work)."""
        latencies = self.call_latencies.get(tier, [])
        ids = self._call_ids.get(tier, [])
        nested = self.nested.get(tier, {})
        out = []
        for latency, rpc_id in zip(latencies, ids):
            downstream = nested.get(rpc_id, 0) if rpc_id is not None else 0
            out.append(max(0, latency - downstream))
        return out

    def record_compute(self, tier: str, compute_ns: int) -> None:
        self.computes.setdefault(tier, []).append(compute_ns)

    def record_e2e(self, latency_ns: int) -> None:
        self.e2e_latencies.append(latency_ns)

    def tiers(self) -> List[str]:
        return sorted(self.call_latencies)

    def breakdown(self, tier: str) -> TierBreakdown:
        latencies = self.local_latencies(tier)
        if not latencies:
            raise KeyError(f"no calls recorded for tier {tier!r}")
        computes = self.computes.get(tier, [0])
        p50 = percentile(latencies, 50)
        p99 = percentile(latencies, 99)
        app_p50 = percentile(computes, 50)
        return self._decompose(tier, len(latencies), p50, p99, app_p50)

    def e2e_breakdown(self) -> TierBreakdown:
        """End-to-end bar: median and tail of the request latency.

        The application share is 0: the sum of tier computes on a
        request's critical path is not observable from per-tier streams,
        so the whole median splits into transport and RPC.
        """
        if not self.e2e_latencies:
            raise KeyError("no end-to-end latencies recorded")
        p50 = percentile(self.e2e_latencies, 50)
        p99 = percentile(self.e2e_latencies, 99)
        return self._decompose("e2e", len(self.e2e_latencies), p50, p99, 0)

    def _decompose(self, tier: str, count: int, p50: float, p99: float,
                   app_p50: float) -> TierBreakdown:
        total = max(p50, 1.0)
        app = min(app_p50, total)
        networking = total - app
        transport = min(float(self.transport_rtt_ns), networking)
        rpc = networking - transport  # RPC processing + queueing
        return TierBreakdown(
            tier=tier,
            count=count,
            p50_us=p50 / 1000.0,
            p99_us=p99 / 1000.0,
            app_p50_us=app / 1000.0,
            app_fraction=app / total,
            rpc_fraction=rpc / total,
            transport_fraction=transport / total,
        )
