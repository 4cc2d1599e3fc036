"""The tier deployer: declarative tiers as wired replica pools.

Both microservice rigs deploy their :class:`TierSpec` lists through one
:class:`Deployment` and differ only in where replicas go:
:class:`~repro.apps.microservices.graph.ServiceGraph` puts one replica
per tier on one machine's shared cores, over any stack, with the Fig 3
:class:`Tracer`; :class:`~repro.harness.cluster.ClusterRig` puts replica
pools on dedicated cores across N machines. Each replica gets its own
stack, RPC server and threads; each handler thread gets one client per
downstream tier carrying one connection per target replica (the SRQ
model of section 4.2), and a :class:`LoadBalancer` picks the replica of
every call — without an RNG draw when a pool has one active replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.apps.microservices.tier import MethodSpec, TierSpec, sample_size
from repro.apps.microservices.tracing import Tracer
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.rpc import RpcClient, RpcThreadedServer, ThreadingModel
from repro.sim.distributions import make_rng
from repro.stacks import DaggerStack, connect, make_stack

#: Base for explicit connection ids. Far above anything
#: ``next_connection_id()`` hands out in-process (and above the mesh
#: harness's 1M block), so a deployment never consumes — and never
#: depends on — the process-global connection counter. That counter is
#: never reset, so depending on it would make two in-process runs differ
#: (connection-cache indexing is id-dependent).
CONNECTION_BASE = 2_000_000

#: Replica-selection policies, in documentation order.
LB_POLICIES = ("round-robin", "least-outstanding", "p2c")

#: (client, connection id per target replica) of one wired client.
Wired = Tuple[RpcClient, List[int]]


@dataclass(frozen=True)
class TierDeployment:
    """Replica bounds for one tier."""

    initial: int = 1
    min_replicas: int = 1
    max_replicas: int = 3

    def __post_init__(self):
        if not (1 <= self.min_replicas <= self.initial
                <= self.max_replicas):
            raise ValueError(
                f"need 1 <= min <= initial <= max, got "
                f"{self.min_replicas}/{self.initial}/{self.max_replicas}"
            )


#: The single-machine graph's deployment of every tier.
ONE_REPLICA = TierDeployment(initial=1, min_replicas=1, max_replicas=1)


class Replica:
    """One deployed copy of a tier: stack + server + threads on one machine."""

    def __init__(self, spec: TierSpec, index: int):
        self.spec = spec
        self.address = f"{spec.name}.{index}"
        self.machine_id = 0
        self.stack = None
        self.server: Optional[RpcThreadedServer] = None
        self.cores: List = []  # dedicated cores (cluster placement only)
        self.dispatch_threads: List = []
        self.worker_threads: List = []
        #: thread -> target tier -> (RpcClient, conn id per target replica)
        self.clients: Dict[object, Dict[str, Wired]] = {}

    @property
    def num_threads(self) -> int:
        return self.spec.num_dispatch_threads + self.spec.num_workers

    @property
    def handler_threads(self) -> List:
        """Threads that can run handlers (and thus issue nested calls)."""
        if self.spec.threading is ThreadingModel.WORKER:
            return list(self.worker_threads)
        return list(self.dispatch_threads)

    def client_for(self, thread, target: str) -> RpcClient:
        try:
            return self.clients[thread][target][0]
        except KeyError:
            raise KeyError(
                f"tier {self.spec.name}: thread "
                f"{getattr(thread, 'name', thread)} has no client for "
                f"target {target!r}"
            ) from None

    def busy_ns(self, now: int) -> float:
        """Exact slot-busy integral of this replica's dedicated cores."""
        return sum(core.slots.usage.busy_integral(now, core.slots._in_use)
                   for core in self.cores)


class ReplicaPool:
    """All replicas of one tier plus the balancer's per-replica state."""

    def __init__(self, spec: TierSpec, deployment: TierDeployment):
        self.spec = spec
        self.deployment = deployment
        self.replicas = [Replica(spec, index)
                         for index in range(deployment.max_replicas)]
        self.active: List[int] = list(range(deployment.initial))
        self.outstanding: List[int] = [0] * deployment.max_replicas
        self.issued: List[int] = [0] * deployment.max_replicas
        self.scale_ups = 0
        self.scale_downs = 0
        self.peak_active = deployment.initial
        self._rr = -1

    @property
    def name(self) -> str:
        return self.spec.name

    def note_issue(self, index: int) -> None:
        self.outstanding[index] += 1
        self.issued[index] += 1

    def activate_next(self) -> Optional[int]:
        """Activate the lowest-index inactive replica, if any."""
        active = set(self.active)
        for index in range(len(self.replicas)):
            if index not in active:
                self.active.append(index)
                self.active.sort()
                self.scale_ups += 1
                self.peak_active = max(self.peak_active, len(self.active))
                return index
        return None

    def drain_last(self) -> Optional[int]:
        """Drain the highest-index active replica (in-flight calls finish)."""
        if len(self.active) <= self.deployment.min_replicas:
            return None
        index = self.active.pop()
        self.scale_downs += 1
        return index

    def requests_handled(self) -> int:
        return sum(replica.server.requests_handled
                   for replica in self.replicas)


class LoadBalancer:
    """Seeded replica selection over a pool's active set."""

    def __init__(self, policy: str, seed=0):
        if policy not in LB_POLICIES:
            raise ValueError(
                f"policy must be one of {LB_POLICIES}, got {policy!r}"
            )
        self.policy = policy
        self.rng = make_rng(seed)

    def pick(self, pool: ReplicaPool) -> int:
        active = pool.active
        if len(active) == 1:
            return active[0]
        if self.policy == "round-robin":
            pool._rr += 1
            return active[pool._rr % len(active)]
        outstanding = pool.outstanding
        if self.policy == "least-outstanding":
            return min(active, key=lambda i: (outstanding[i], i))
        # p2c: two uniform picks without replacement, keep the shorter
        # queue (ties break to the lower index — deterministic).
        first, second = self.rng.sample(active, 2)
        if (outstanding[second], second) < (outstanding[first], first):
            return second
        return first


class Deployment:
    """Replica pools of declarative tiers, built onto one fabric.

    ``rng`` draws the request keys of ``MethodSpec.request_key`` methods
    that received none; ``tracer`` (optional) records the Fig 3 per-tier
    compute, call and nested-wait streams.
    """

    def __init__(self, sim, calibration, switch, rng,
                 stack_name: str = "dagger",
                 balancer: Optional[LoadBalancer] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.calibration = calibration
        self.switch = switch
        self.rng = rng
        self.stack_name = stack_name
        self.balancer = balancer or LoadBalancer("round-robin")
        self.tracer = tracer
        self.pools: Dict[str, ReplicaPool] = {}
        self.built = False
        self._next_connection = CONNECTION_BASE

    def add(self, spec: TierSpec,
            deployment: TierDeployment = ONE_REPLICA) -> ReplicaPool:
        if self.built:
            raise RuntimeError("deployment already built")
        if spec.name in self.pools:
            raise ValueError(f"duplicate tier name {spec.name!r}")
        self.pools[spec.name] = pool = ReplicaPool(spec, deployment)
        return pool

    @property
    def drops(self) -> int:
        return sum(replica.stack.drops for pool in self.pools.values()
                   for replica in pool.replicas)

    # -- construction -----------------------------------------------------------

    def build(self, order: Iterable[ReplicaPool], place: Callable) -> None:
        """Stacks, servers and threads of every replica, then the clients.

        Replicas are built pool by pool in ``order``; ``place(replica)``
        returns its ``(machine, core id per thread)``, workers first.
        Clients are wired and servers started in declaration order.
        """
        if self.built:
            raise RuntimeError("deployment already built")
        self.built = True
        for pool in self.pools.values():
            for target in pool.spec.downstream_targets:
                if target not in self.pools:
                    raise ValueError(
                        f"tier {pool.name}: unknown downstream tier "
                        f"{target!r}"
                    )
        for pool in order:
            for replica in pool.replicas:
                self._build_replica(replica, *place(replica))
        for pool in self.pools.values():
            for replica in pool.replicas:
                threads = replica.handler_threads
                replica.clients.update(zip(threads, self._wire(
                    replica.stack, replica.spec.num_dispatch_threads,
                    threads, replica.spec.downstream_targets,
                )))
        for pool in self.pools.values():
            for replica in pool.replicas:
                replica.server.start()

    def _build_replica(self, replica: Replica, machine,
                       cores: List[int]) -> None:
        spec = replica.spec
        worker_model = spec.threading is ThreadingModel.WORKER
        # One flow per dispatch thread + one per (handler thread, target).
        handlers = (spec.num_workers if worker_model
                    else spec.num_dispatch_threads)
        replica.stack = self._stack(
            machine, replica.address,
            spec.num_dispatch_threads
            + handlers * len(spec.downstream_targets),
            spec,
        )
        server = replica.server = RpcThreadedServer(
            self.sim, self.calibration, name=replica.address
        )
        for method_name, method in spec.methods.items():
            if isinstance(method, MethodSpec):
                method = self._handler(replica, method)
            server.register_handler(method_name, method)
        threads = [machine.thread(core, name=f"{replica.address}-t{i}")
                   for i, core in enumerate(cores)]
        replica.worker_threads = threads[:spec.num_workers]
        replica.dispatch_threads = threads[spec.num_workers:]
        for i, thread in enumerate(replica.dispatch_threads):
            server.add_server_thread(
                replica.stack.port(i), thread, model=spec.threading,
                workers=replica.worker_threads if worker_model else None,
            )

    def _stack(self, machine, address: str, num_flows: int,
               spec: Optional[TierSpec] = None):
        """A tier replica's stack, or the load generator's (no ``spec``)."""
        num_flows = max(1, num_flows)
        if self.stack_name != "dagger":
            stack = make_stack(
                self.stack_name, machine, self.switch, address,
                num_ports=num_flows,
                load_balancer=spec.load_balancer if spec else "round-robin",
            )
            if spec is not None:
                stack.server_ports = list(range(spec.num_dispatch_threads))
            return stack
        if spec is None:
            hard = NicHardConfig(num_flows=num_flows, rx_ring_entries=512)
            soft = NicSoftConfig(batch_size=1, auto_batch=True)
        else:
            hard = NicHardConfig(num_flows=num_flows, rx_ring_entries=256)
            soft = NicSoftConfig(
                batch_size=spec.batch_size,
                auto_batch=spec.auto_batch,
                active_flows=spec.num_dispatch_threads,
                load_balancer=spec.load_balancer,
            )
        return DaggerStack(machine, self.switch, address, hard=hard,
                           soft=soft)

    def _wire(self, stack, first_flow: int, threads: List,
              targets: List[str]) -> List[Dict[str, Wired]]:
        """Per thread, one client per target tier on its own flow, each
        with a connection to every replica of the target."""
        wired = []
        flow = first_flow
        for thread in threads:
            per_target: Dict[str, Wired] = {}
            for target in targets:
                conn_ids = []
                for target_replica in self.pools[target].replicas:
                    conn_ids.append(connect(
                        stack, flow, target_replica.stack, 0,
                        connection_id=self._next_connection,
                    ))
                    self._next_connection += 1
                client = RpcClient(stack.port(flow), thread, conn_ids[0],
                                   name=f"{thread.name}->{target}")
                for connection_id in conn_ids[1:]:
                    client.add_connection(connection_id)
                per_target[target] = (client, conn_ids)
                flow += 1
            wired.append(per_target)
        return wired

    def route(self, tier: str, wired: Wired, then=None):
        """``(client, connection id, done callback)`` of one call into
        ``tier``: a balancer-picked replica, counted as issued until the
        callback runs; the callback then calls ``then(call)``, if given."""
        pool = self.pools[tier]
        client, conn_ids = wired
        target = self.balancer.pick(pool)
        pool.note_issue(target)
        outstanding = pool.outstanding

        def on_done(call):
            outstanding[target] -= 1
            if then is not None:
                then(call)

        return client, conn_ids[target], on_done

    def _handler(self, replica: Replica, method: MethodSpec):
        """The handler of one declarative method: compute, then each fanout
        stage's calls — issued concurrently, each to a balancer-picked
        replica of its target pool — joined before the next stage."""
        route = self.route
        rng = self.rng
        tracer = self.tracer
        name = replica.spec.name
        clients = replica.clients

        def handler(ctx, payload):
            compute = method.compute.sample_ns()
            if compute:
                yield from ctx.exec(compute)
            if tracer is not None:
                tracer.record_compute(name, compute)
            request_key = None
            if method.request_key:
                # One key per request: inherited from the caller when it
                # forwarded one, else freshly drawn.
                request_key = ctx.packet.lb_key
                if request_key is None:
                    request_key = rng.getrandbits(32)
            nested_wait = 0
            for stage in method.stages:
                stage_start = ctx.sim.now
                pending = []
                for call_spec in stage:
                    client, connection_id, on_done = route(
                        call_spec.target,
                        clients[ctx.thread][call_spec.target],
                    )
                    call = yield from client.call_async(
                        call_spec.method,
                        b"",
                        sample_size(call_spec.payload_bytes),
                        lb_key=request_key if call_spec.use_key else None,
                        connection_id=connection_id,
                        callback=on_done,
                    )
                    pending.append((call_spec.target, call))
                for target_name, call in pending:
                    yield call.event
                    if tracer is not None:
                        tracer.record_call(target_name, call.latency_ns,
                                           rpc_id=call.rpc_id)
                nested_wait += ctx.sim.now - stage_start
            if tracer is not None and method.stages:
                tracer.record_nested(name, ctx.packet.rpc_id, nested_wait)
            if method.post_compute_ns:
                ctx.defer(method.post_compute_ns)
            return b"", sample_size(method.response_bytes)

        return handler

    # -- load generation --------------------------------------------------------

    def resolve_mix(self, keys: Iterable[str], entry_tier: Optional[str]
                    ) -> Tuple[Dict[str, Tuple[str, str]], List[str]]:
        """Mix keys -> ``(tier, method)``, plus the sorted entry tiers.

        A ``"tier.method"`` key names its tier; a bare key is a method on
        ``entry_tier``.
        """
        entries: Dict[str, Tuple[str, str]] = {}
        for key in keys:
            if "." in key:
                tier_name, method = key.split(".", 1)
            elif entry_tier is None:
                raise ValueError(
                    f"mix key {key!r} has no tier and no entry_tier given"
                )
            else:
                tier_name, method = entry_tier, key
            if tier_name not in self.pools:
                raise ValueError(f"unknown entry tier {tier_name!r}")
            if method not in self.pools[tier_name].spec.methods:
                raise ValueError(
                    f"entry tier {tier_name} has no method {method!r}"
                )
            entries[key] = (tier_name, method)
        return entries, sorted({tier for tier, _ in entries.values()})

    def wire_loadgen(self, machine, num_load_threads: int,
                     core_of: Callable[[int], int], entry_tiers: List[str]
                     ) -> Tuple[object, List[Dict[str, Wired]]]:
        """The load generator's stack plus one client per (load thread,
        entry tier), each with a connection to every replica of its tier.

        Load thread ``i`` runs on core ``core_of(i)``.
        """
        if num_load_threads < 1:
            raise ValueError(
                f"num_load_threads must be >= 1, got {num_load_threads}"
            )
        stack = self._stack(machine, "loadgen",
                            num_load_threads * len(entry_tiers))
        threads = [machine.thread(core_of(i), name=f"loadgen{i}")
                   for i in range(num_load_threads)]
        return stack, self._wire(stack, 0, threads, entry_tiers)
