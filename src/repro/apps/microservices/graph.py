"""Single-machine service graph: every tier on one virtualized-NIC box.

Deploys each tier as a one-replica pool of
:class:`~repro.apps.microservices.deploy.Deployment` on one machine — each
tier with its own NIC instance on the shared FPGA, connected through the
static-table ToR switch, exactly the virtualized deployment of Fig 14 —
with threads placed round-robin over shared cores (or pinned by
``TierSpec.cores``). ``run_load`` drives an open-loop Poisson request mix
at the entry tiers and collects end-to-end latency plus the Fig 3
per-tier traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.apps.microservices.deploy import Deployment, Replica
from repro.apps.microservices.tier import TierSpec
from repro.apps.microservices.tracing import Tracer
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.platform import Machine, MachineConfig
from repro.hw.switch import ToRSwitch
from repro.sim import Exponential, LatencyRecorder, Simulator
from repro.sim.distributions import make_rng


@dataclass
class GraphResult:
    """Outcome of one load run against a service graph."""

    throughput_krps: float
    p50_us: float
    p90_us: float
    p99_us: float
    count: int
    drops: int
    drop_rate: float
    tracer: Tracer


class ServiceGraph:
    """A set of tiers + the fabric between them, on one machine."""

    def __init__(
        self,
        stack_name: str = "dagger",
        calibration: Calibration = DEFAULT_CALIBRATION,
        machine_config: Optional[MachineConfig] = None,
        loopback: bool = True,
        seed: int = 5,
    ):
        self.sim = Simulator()
        self.calibration = calibration
        self.stack_name = stack_name
        self.machine = Machine(
            self.sim, machine_config or MachineConfig(), calibration, seed=seed
        )
        self.switch = ToRSwitch(self.sim, calibration, loopback=loopback)
        #: tier name -> its one replica
        self.tiers: Dict[str, Replica] = {}
        self.tracer = Tracer(*self._transport_profile(stack_name))
        self.rng = make_rng(seed)
        self.deployment = Deployment(self.sim, calibration, self.switch,
                                     self.rng, stack_name=stack_name,
                                     tracer=self.tracer)
        self._next_core = 0

    def _transport_profile(self, stack_name: str) -> Tuple[int, int]:
        """(oneway_ns, cpu_ns) of the *transport* (TCP/IP) layer only.

        For software stacks roughly half the stack cost is the transport
        layer and the rest is RPC processing (Thrift-style marshalling,
        dispatch); Fig 3 shows the two shares are comparable, with RPC
        growing under load because queueing happens in the RPC layer.
        """
        if stack_name == "dagger":
            # Transport is on the NIC; the CPU-visible transport share is 0.
            return (self.calibration.upi_oneway_ns
                    + self.calibration.loopback_delay_ns, 0)
        from repro.stacks.registry import STACKS

        params = STACKS[stack_name].params
        return (int(params.oneway_ns * 0.53),
                int((params.cpu_tx_ns + params.cpu_rx_ns) * 0.48))

    # -- construction -----------------------------------------------------------

    def add_tier(self, spec: TierSpec) -> Replica:
        replica = self.deployment.add(spec).replicas[0]
        self.tiers[spec.name] = replica
        return replica

    def _core(self, pinned=None, index: int = 0) -> int:
        """Core ``index`` of a pinned set, else the next core round-robin."""
        if pinned is not None:
            return pinned[index % len(pinned)]
        core = self._next_core % len(self.machine.cores)
        self._next_core += 1
        return core

    def _place(self, replica: Replica):
        pinned = replica.spec.cores
        return self.machine, [self._core(pinned, i)
                              for i in range(replica.num_threads)]

    def build(self) -> None:
        """Instantiate stacks, servers, threads, clients, connections."""
        self.deployment.build(self.deployment.pools.values(), self._place)

    @property
    def drops(self) -> int:
        return self.deployment.drops

    # -- load driving -------------------------------------------------------------

    def run_load(
        self,
        entry_tier: Optional[str],
        method_mix: Dict[str, float],
        load_krps: float,
        nreq: int = 5000,
        entry_payload_bytes: Union[int, Dict[str, int]] = 64,
        num_load_threads: int = 2,
        warmup_ns: int = 2_000_000,
        seed: int = 17,
        measure_from_issue: bool = False,
    ) -> GraphResult:
        """Drive a Poisson request mix.

        ``method_mix`` keys are method names on ``entry_tier``, or
        ``"tier.method"`` keys to spread load over several entry tiers
        (the Flight app drives both front-ends at once).
        """
        # local: the harness package imports the apps
        from repro.harness.load import LoadDriver, poisson_arrivals, split

        if not self.deployment.built:
            self.build()
        if load_krps <= 0:
            raise ValueError(f"load must be positive, got {load_krps}")
        if nreq < 1:
            raise ValueError(f"nreq must be >= 1, got {nreq}")
        entries, entry_tiers = self.deployment.resolve_mix(method_mix,
                                                           entry_tier)
        methods = list(method_mix)
        weights = [method_mix[m] for m in methods]
        if sum(weights) <= 0:
            raise ValueError("method mix weights must sum to > 0")

        sim = self.sim
        rng = make_rng(seed)
        # External load generator: its own NIC + threads (the "Client" box).
        loadgen_stack, clients = self.deployment.wire_loadgen(
            self.machine, num_load_threads, lambda i: self._core(),
            entry_tiers,
        )
        recorder = LatencyRecorder(warmup_ns=warmup_ns)
        interarrival = Exponential(
            mean=1e6 / load_krps * len(clients), rng=seed + 1
        )

        def payload_size(method: str) -> int:
            if isinstance(entry_payload_bytes, dict):
                return entry_payload_bytes.get(method, 64)
            return entry_payload_bytes

        def record(start, finish):
            recorder.record(start, finish)
            self.tracer.record_e2e(finish - start)

        def issue_for(per_tier):
            def issue(_item, callback):
                # The mix is drawn after the arrival's sleep, in issue order.
                mix_key = rng.choices(methods, weights=weights)[0]
                tier_name, method = entries[mix_key]
                client, _ = per_tier[tier_name]
                return client.call_async(
                    method, b"", payload_size(mix_key), callback=callback
                )

            return issue

        load = LoadDriver(sim, record, nreq,
                          [client for per_tier in clients
                           for client, _ in per_tier.values()])
        # Past saturation the generator falls behind its schedule;
        # measuring from issue time (as the paper's generator does) keeps
        # the median meaningful while the tail soars (Fig 15).
        for per_tier, count in zip(clients, split(nreq, len(clients))):
            load.open(poisson_arrivals(sim, interarrival, range(count)),
                      issue_for(per_tier),
                      measure_from_issue=measure_from_issue)
        load.run()

        drops = self.drops + loadgen_stack.drops
        total = recorder.count + recorder.discarded
        stats = recorder.summary()
        return GraphResult(
            # A single sample has no measurement window for throughput.
            throughput_krps=(recorder.throughput_rps() / 1e3
                             if recorder.count >= 2 else 0.0),
            p50_us=stats.p50_us,
            p90_us=stats.p90_us,
            p99_us=stats.p99_us,
            count=recorder.count,
            drops=drops,
            drop_rate=drops / max(1, total + drops),
            tracer=self.tracer,
        )
