"""Declarative microservice tiers.

A :class:`TierSpec` describes one tier: its methods (compute + downstream
fanout), its threading model, and its placement. The deployer
(:mod:`repro.apps.microservices.deploy`) turns a spec into replicas: an RPC
server over each replica's own NIC instance plus per-thread RPC clients to
every downstream tier (each handler thread owns its own client flows, which
keeps ring access lock-free, as in the paper's threading model, Fig 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.rpc import ThreadingModel
from repro.sim.distributions import Constant, Distribution

SizeLike = Union[int, Distribution]


def sample_size(size: SizeLike) -> int:
    if isinstance(size, Distribution):
        return max(1, size.sample_ns())
    if size < 1:
        raise ValueError(f"payload size must be >= 1, got {size}")
    return size


@dataclass
class CallSpec:
    """One downstream call a handler makes.

    ``use_key``: pass the request's key (see ``MethodSpec.request_key``) as
    the call's load-balancing key — what routes KVS calls to the owning
    MICA partition through the object-level balancer.
    """

    target: str
    method: str = "handle"
    payload_bytes: SizeLike = 64
    use_key: bool = False


@dataclass
class MethodSpec:
    """Behaviour of one method of a tier.

    ``stages`` is a list of fanout stages executed in order; the calls
    inside one stage are issued concurrently (non-blocking) and joined
    before the next stage starts — which expresses every dependency shape
    of Fig 13 (chains, fanouts, one-to-many).
    """

    compute: Distribution = field(default_factory=lambda: Constant(0))
    stages: List[List[CallSpec]] = field(default_factory=list)
    response_bytes: SizeLike = 64
    post_compute_ns: int = 0  # deferred (post-response) work
    request_key: bool = False  # draw one key per request (for use_key calls)


@dataclass
class TierSpec:
    """Static description of one tier."""

    name: str
    #: method name -> MethodSpec, or a custom handler generator function
    #: ``handler(ctx, payload) -> (payload, bytes)`` for tiers whose logic
    #: the declarative spec cannot express (e.g. MICA-backed storage).
    methods: Dict[str, object]
    num_dispatch_threads: int = 1
    threading: ThreadingModel = ThreadingModel.DISPATCH
    num_workers: int = 0
    cores: Optional[Sequence[int]] = None  # explicit pinning (Fig 5)
    batch_size: int = 1
    auto_batch: bool = True
    load_balancer: str = "round-robin"  # NIC steering scheme for this tier

    def __post_init__(self):
        if not self.methods:
            raise ValueError(f"tier {self.name}: needs at least one method")
        if self.num_dispatch_threads < 1:
            raise ValueError(f"tier {self.name}: needs a dispatch thread")
        if self.threading is ThreadingModel.WORKER and self.num_workers < 1:
            raise ValueError(
                f"tier {self.name}: worker model needs num_workers >= 1"
            )

    @property
    def downstream_targets(self) -> List[str]:
        targets = []
        for method in self.methods.values():
            if not isinstance(method, MethodSpec):
                continue  # custom handlers declare no static fanout
            for stage in method.stages:
                for call in stage:
                    if call.target not in targets:
                        targets.append(call.target)
        return targets
