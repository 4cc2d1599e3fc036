"""Multi-tier microservice applications.

- :mod:`repro.apps.microservices.tier` / :mod:`deploy` / :mod:`graph` — a
  declarative framework: tiers are specs (threads, threading model,
  per-method compute and fanout); the deployer builds each tier as a
  replica pool with its own NIC instance per replica and wires the
  connections; the single-machine graph deploys one replica per tier on
  the shared FPGA (Fig 14).
- :mod:`repro.apps.microservices.social_network` / :mod:`media` — the
  DeathStarBench Social Network and Media Serving topologies (Figs 1-2)
  used for the section 3 characterization.
- :mod:`repro.apps.microservices.flight` — the 8-tier Flight Registration
  service (Fig 13) with real MICA-backed storage tiers.
- :mod:`repro.apps.microservices.tracing` — the lightweight request-tracing
  system of section 5.7, producing the Fig 3 latency breakdowns.
"""

from repro.apps.microservices.tier import CallSpec, MethodSpec, TierSpec
from repro.apps.microservices.deploy import Replica
from repro.apps.microservices.graph import GraphResult, ServiceGraph
from repro.apps.microservices.tracing import Tracer, TierBreakdown

__all__ = [
    "CallSpec",
    "MethodSpec",
    "TierSpec",
    "Replica",
    "ServiceGraph",
    "GraphResult",
    "Tracer",
    "TierBreakdown",
]
