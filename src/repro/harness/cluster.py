"""Rack-scale cluster harness: replica pools, load balancing, autoscaling.

Every experiment so far ran 1-2 hosts behind one ToR. This module deploys
the DeathStarBench-style service graphs (:mod:`repro.apps.microservices`)
at rack scale:

- a :class:`ClusterRig` instantiates N service machines (plus one
  dedicated load-generator machine) from :class:`repro.hw.cluster.Cluster`
  behind the ToR fabric, and builds each tier as a **replica pool**: up to
  ``max_replicas`` fully-wired replicas per tier, spread round-robin
  across machines, each with its own NIC instance, RPC server, and
  dedicated cores (so per-replica ``Usage`` integrals are clean signals);
- a seeded :class:`LoadBalancer` picks a replica per call — policies
  ``round-robin``, ``least-outstanding`` and ``p2c``
  (power-of-two-choices);
- a reactive :class:`Autoscaler` watches per-tier busy integrals over a
  sliding window and activates / drains replicas against per-tier
  min/max bounds, with a cooldown that gives scale actions time to take
  effect before the next decision (hysteresis);
- traffic comes from the session-based open-loop generator
  (:mod:`repro.workloads.sessions`): non-homogeneous Poisson arrivals
  (bursty / diurnal), Zipf-skewed session keys over millions of modeled
  sessions;
- the result is an end-to-end **SLO attainment** measurement: the
  fraction of requests completing within a deadline, measured from the
  *intended* arrival time (open-loop semantics), in exact or sketch
  latency-recording mode.

Determinism: replica connections use explicit connection ids allocated
from :data:`_CLUSTER_CONNECTION_BASE` (a pure function of build order,
never the process-global counter), every RNG is seeded, and the whole
topology lives in one :class:`~repro.sim.kernel.Simulator` — two runs
with the same parameters are bit-identical, including back-to-back runs
in one process. That is the contract ``benchmarks/perf/bench_cluster.py``
gates in CI.

The rig deliberately does **not** accept ``--shards``: replica routing is
a per-call dynamic decision (the balancer reads live outstanding counts),
which the conservative-window sharded engine cannot partition without
breaking its fixed-topology lookahead contract. ``run_cluster_point``
therefore takes no ``shards`` parameter, and ``run_sweep``'s opt-in
injection leaves sharded execution to the harnesses that support it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.microservices.tier import MethodSpec, TierSpec, sample_size
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.cluster import Cluster
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.platform import MachineConfig
from repro.rpc import RpcClient, RpcThreadedServer, ThreadingModel
from repro.harness.load import IDLE_LIMIT_NS, LoadDriver
from repro.sim import LatencyRecorder, Simulator
from repro.sim.distributions import make_rng
from repro.sim.sharded import canonical_json
from repro.sim.stats import _check_mode
from repro.stacks import DaggerStack, connect
from repro.workloads.sessions import (
    MODULATIONS,
    SessionWorkload,
    make_modulation,
)

#: Base for explicit cluster connection ids. Far above anything
#: ``next_connection_id()`` hands out in-process (and above the mesh
#: harness's 1M block), so cluster wiring never consumes — and never
#: depends on — the process-global connection counter. That counter is
#: never reset, so depending on it would make two in-process runs differ
#: (connection-cache indexing is id-dependent).
_CLUSTER_CONNECTION_BASE = 2_000_000

#: Replica-selection policies, in documentation order.
LB_POLICIES = ("round-robin", "least-outstanding", "p2c")


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


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the reactive horizontal autoscaler.

    Every ``interval_ns`` the autoscaler computes each tier's busy
    fraction (the delta of the active replicas' exact ``Usage`` busy
    integrals over the interval, normalized by their thread capacity) and
    averages it over the last ``window`` intervals. A tier whose mean
    exceeds ``high_watermark`` gains a replica; a tier whose *every*
    sample over the longer ``down_window`` sits below ``low_watermark``
    loses one. The up/down asymmetry (fast up, slow down) keeps a bursty
    on/off load from draining a replica in every lull; after any action
    the tier's history restarts and it sits out ``cooldown`` intervals,
    so a scale action is observed before the next decision (no flapping
    on a plateau).
    """

    enabled: bool = True
    interval_ns: int = 1_000_000
    window: int = 3
    down_window: int = 8
    high_watermark: float = 0.70
    low_watermark: float = 0.25
    cooldown: int = 2

    def __post_init__(self):
        if self.interval_ns <= 0:
            raise ValueError("interval must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.down_window < self.window:
            raise ValueError(
                f"down_window must be >= window, got {self.down_window} "
                f"< {self.window}"
            )
        if not 0.0 <= self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                f"need 0 <= low < high <= 1, got "
                f"{self.low_watermark}/{self.high_watermark}"
            )
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")


class Replica:
    """One deployed copy of a tier: stack + server + threads on one machine."""

    def __init__(self, spec: TierSpec, index: int, machine_id: int):
        self.spec = spec
        self.index = index
        self.machine_id = machine_id
        self.address = f"{spec.name}.{index}"
        self.stack: Optional[DaggerStack] = None
        self.server: Optional[RpcThreadedServer] = None
        self.cores: List = []
        self.dispatch_threads: List = []
        self.worker_threads: List = []
        #: thread -> target tier -> (RpcClient, conn id per target replica)
        self.clients: Dict[object, Dict[str, Tuple[RpcClient, List[int]]]] = {}
        self._usages: List[Tuple[object, object]] = []  # (usage, core)
        self._next_client_flow = spec.num_dispatch_threads

    @property
    def num_threads(self) -> int:
        return self.spec.num_dispatch_threads + self.spec.num_workers

    @property
    def handler_threads(self) -> List:
        if self.spec.threading is ThreadingModel.WORKER:
            return list(self.worker_threads)
        return list(self.dispatch_threads)

    def alloc_client_flow(self) -> int:
        flow = self._next_client_flow
        self._next_client_flow += 1
        return flow

    def busy_ns(self, now: int) -> float:
        """Exact slot-busy integral of this replica's dedicated cores."""
        return sum(usage.busy_integral(now, core.slots._in_use)
                   for usage, core in self._usages)


class ReplicaPool:
    """All replicas of one tier plus the balancer's per-replica state."""

    def __init__(self, spec: TierSpec, deployment: TierDeployment):
        self.spec = spec
        self.deployment = deployment
        self.replicas: List[Replica] = []
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

    def make_done_callback(self, index: int):
        def on_done(call):
            self.outstanding[index] -= 1

        return on_done

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


@dataclass
class ClusterResult:
    """Outcome of one cluster run; plain data, canonical-JSON friendly."""

    app: str
    machines: int
    policy: str
    modulation: str
    load_krps: float  # peak offered rate (the thinning envelope)
    deadline_us: float
    nreq: int
    seed: int
    count: int
    discarded: int
    completed: int
    lost: int
    drops: int
    throughput_krps: float
    mean_us: float
    p50_us: float
    p90_us: float
    p99_us: float
    slo_met: int
    slo_total: int
    slo_attainment: float
    tiers: Dict[str, dict]
    scaling_events: List[dict]
    mode: str = "exact"
    #: Timeline dump when the rig ran with telemetry; excluded from the
    #: signature (sampling cadence is observability, not a result).
    timeline: Optional[dict] = field(default=None, repr=False)

    def signature(self) -> dict:
        data = asdict(self)
        del data["timeline"]
        return data

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterResult":
        return cls(**data)


def cluster_signature(result) -> str:
    """Canonical-JSON byte string the CI determinism gates compare."""
    if isinstance(result, ClusterResult):
        data = result.signature()
    else:
        data = {key: value for key, value in result.items()
                if key != "timeline"}
    return canonical_json(data)


class ClusterRig:
    """N machines, replica pools, a balancer, and an autoscaler.

    ``tiers`` are declarative :class:`TierSpec` lists (e.g.
    :func:`repro.apps.microservices.social_network.social_network_tiers`
    or :func:`repro.apps.microservices.flight.flight_cluster_tiers`).
    Custom-handler tiers are rejected: a replica pool re-instantiates
    every tier per replica, which a stateful handler closure (the
    functional-MICA path) cannot express.

    Machine ``machines`` (the last one) is the dedicated load-generator
    host, so loadgen CPU never pollutes the service tiers' Usage signals.
    """

    def __init__(
        self,
        tiers: List[TierSpec],
        machines: int = 8,
        policy: str = "p2c",
        deployment: TierDeployment = TierDeployment(),
        deployments: Optional[Dict[str, TierDeployment]] = None,
        autoscaler: AutoscalerConfig = AutoscalerConfig(),
        calibration: Calibration = DEFAULT_CALIBRATION,
        machine_config: Optional[MachineConfig] = None,
        seed: int = 11,
        telemetry: bool = False,
        telemetry_interval_ns: int = 200_000,
    ):
        if machines < 1:
            raise ValueError(f"need at least one machine, got {machines}")
        if not tiers:
            raise ValueError("need at least one tier")
        self.machines = machines
        self.policy = policy
        self.autoscaler_config = autoscaler
        self.calibration = calibration
        self.seed = seed
        self.sim = Simulator()
        # +1: the dedicated loadgen machine.
        self.cluster = Cluster(self.sim, machines + 1, calibration,
                               machine_config, seed=seed)
        self.switch = self.cluster.switch
        self.rng = make_rng(seed)
        self.balancer = LoadBalancer(policy, seed=seed + 1)
        self.pools: Dict[str, ReplicaPool] = {}
        self.scaling_events: List[dict] = []
        self.collector = None
        self._next_connection = _CLUSTER_CONNECTION_BASE
        self._next_core = [0] * machines
        self._machine_cursor = 0
        self._ran = False

        deployments = deployments or {}
        names = set()
        for spec in tiers:
            if spec.name in names:
                raise ValueError(f"duplicate tier name {spec.name!r}")
            names.add(spec.name)
            for method_name, method in spec.methods.items():
                if not isinstance(method, MethodSpec):
                    raise ValueError(
                        f"tier {spec.name}: method {method_name!r} is a "
                        "custom handler — the cluster rig deploys "
                        "declarative MethodSpec tiers only"
                    )
            for target in spec.downstream_targets:
                if target not in names:
                    raise ValueError(
                        f"tier {spec.name}: downstream tier {target!r} "
                        "must be declared before its callers"
                    )
        for spec in tiers:
            self.pools[spec.name] = ReplicaPool(
                spec, deployments.get(spec.name, deployment)
            )
        self._build()
        if telemetry:
            self._enable_telemetry(telemetry_interval_ns)

    # -- construction -----------------------------------------------------------

    def _alloc_connection(self) -> int:
        connection_id = self._next_connection
        self._next_connection += 1
        return connection_id

    def _place(self, num_threads: int, smt: int,
               cores_per_machine: int) -> Tuple[int, int]:
        """(machine, first core) of a dedicated core block, round-robin."""
        cores_needed = -(-num_threads // smt)  # ceil
        if cores_needed > cores_per_machine:
            raise ValueError(
                f"a replica needs {cores_needed} cores but machines have "
                f"{cores_per_machine}"
            )
        for probe in range(self.machines):
            machine_id = (self._machine_cursor + probe) % self.machines
            start = self._next_core[machine_id]
            if start + cores_needed <= cores_per_machine:
                self._next_core[machine_id] = start + cores_needed
                self._machine_cursor = (machine_id + 1) % self.machines
                return machine_id, start
        demand = sum(
            -(-pool.replicas[0].num_threads // smt
              ) * len(pool.replicas) if pool.replicas else 0
            for pool in self.pools.values()
        )
        raise ValueError(
            f"cluster out of cores: {self.machines} machines x "
            f"{cores_per_machine} cores cannot host ~{demand} more "
            "replica cores — add machines or lower max_replicas"
        )

    def _build(self) -> None:
        smt = self.cluster.machines[0].config.smt
        cores_per_machine = len(self.cluster.machines[0].cores)
        # Pass 1: replicas — stack, server, threads on dedicated cores.
        # Big-first placement (stable within equal sizes): a 12-core
        # replica must find a contiguous block, so it claims machines
        # before the one-core leaves fragment them. Connection wiring
        # (pass 2) stays in declaration order, so ids are unaffected.
        def _cores_needed(pool):
            spec = pool.spec
            return -(-(spec.num_dispatch_threads + spec.num_workers) // smt)

        placement_order = sorted(
            self.pools.values(),
            key=lambda pool: -_cores_needed(pool),
        )
        for pool in placement_order:
            spec = pool.spec
            handler_count = (spec.num_workers
                             if spec.threading is ThreadingModel.WORKER
                             else spec.num_dispatch_threads)
            num_flows = (spec.num_dispatch_threads
                         + handler_count * len(spec.downstream_targets))
            for index in range(pool.deployment.max_replicas):
                replica = Replica(spec, index, 0)
                machine_id, start_core = self._place(
                    replica.num_threads, smt, cores_per_machine
                )
                replica.machine_id = machine_id
                machine = self.cluster.machines[machine_id]
                cores_needed = -(-replica.num_threads // smt)
                replica.cores = [machine.core(start_core + i)
                                 for i in range(cores_needed)]
                replica._usages = [(core.enable_usage(), core)
                                   for core in replica.cores]
                replica.stack = DaggerStack(
                    machine, self.switch, replica.address,
                    hard=NicHardConfig(num_flows=max(1, num_flows),
                                       rx_ring_entries=256),
                    soft=NicSoftConfig(
                        batch_size=spec.batch_size,
                        auto_batch=spec.auto_batch,
                        active_flows=spec.num_dispatch_threads,
                        load_balancer=spec.load_balancer,
                    ),
                )
                server = RpcThreadedServer(self.sim, self.calibration,
                                           name=replica.address)
                replica.server = server
                for method_name, method in spec.methods.items():
                    server.register_handler(
                        method_name, self._make_handler(replica, method)
                    )
                threads = []
                for i in range(replica.num_threads):
                    core = replica.cores[i // smt]
                    threads.append(machine.thread(
                        core.core_id, name=f"{replica.address}-t{i}"
                    ))
                replica.worker_threads = threads[:spec.num_workers]
                replica.dispatch_threads = threads[spec.num_workers:]
                for i, thread in enumerate(replica.dispatch_threads):
                    server.add_server_thread(
                        replica.stack.port(i), thread,
                        model=spec.threading,
                        workers=(replica.worker_threads
                                 if spec.threading is ThreadingModel.WORKER
                                 else None),
                    )
                pool.replicas.append(replica)
        # Pass 2: downstream clients — one client per (handler thread,
        # target tier), carrying one connection per target replica over
        # the same ring pair (the SRQ model of section 4.2).
        for pool in self.pools.values():
            for replica in pool.replicas:
                for thread in replica.handler_threads:
                    per_target: Dict[str, Tuple[RpcClient, List[int]]] = {}
                    for target in replica.spec.downstream_targets:
                        flow = replica.alloc_client_flow()
                        per_target[target] = self._wire_client(
                            replica.stack, flow, thread,
                            self.pools[target],
                            name=f"{replica.address}->{target}",
                        )
                    replica.clients[thread] = per_target
        for pool in self.pools.values():
            for replica in pool.replicas:
                replica.server.start()

    def _wire_client(self, stack: DaggerStack, flow: int, thread,
                     target_pool: ReplicaPool,
                     name: str) -> Tuple[RpcClient, List[int]]:
        """One client on ``flow`` with a connection to every target replica."""
        conn_ids = []
        for target_replica in target_pool.replicas:
            connection_id = self._alloc_connection()
            connect(stack, flow, target_replica.stack, 0,
                    connection_id=connection_id)
            conn_ids.append(connection_id)
        client = RpcClient(stack.port(flow), thread, conn_ids[0], name=name)
        for connection_id in conn_ids[1:]:
            client.add_connection(connection_id)
        return client, conn_ids

    def _make_handler(self, replica: Replica, method: MethodSpec):
        """Replica-aware version of ``Microservice.make_handler``: every
        downstream call is routed to a balancer-picked replica of the
        target pool over the matching SRQ connection."""
        rig = self

        def handler(ctx, payload):
            compute = method.compute.sample_ns()
            if compute:
                yield from ctx.exec(compute)
            request_key = None
            if method.request_key:
                request_key = ctx.packet.lb_key
                if request_key is None:
                    request_key = rig.rng.getrandbits(32)
            for stage in method.stages:
                pending = []
                for call_spec in stage:
                    pool = rig.pools[call_spec.target]
                    client, conn_ids = (
                        replica.clients[ctx.thread][call_spec.target]
                    )
                    target = rig.balancer.pick(pool)
                    pool.note_issue(target)
                    call = yield from client.call_async(
                        call_spec.method,
                        b"",
                        sample_size(call_spec.payload_bytes),
                        lb_key=(request_key if call_spec.use_key else None),
                        connection_id=conn_ids[target],
                        callback=pool.make_done_callback(target),
                    )
                    pending.append(call)
                for call in pending:
                    yield call.event
            if method.post_compute_ns:
                ctx.defer(method.post_compute_ns)
            return b"", sample_size(method.response_bytes)

        return handler

    # -- telemetry --------------------------------------------------------------

    def _enable_telemetry(self, interval_ns: int) -> None:
        from repro.obs.timeline import TimelineCollector

        collector = TimelineCollector(self.sim, interval_ns=interval_ns)
        sim = self.sim
        for name, pool in self.pools.items():
            component = f"cluster.{name}"
            collector.add_probe(
                component, "active_replicas",
                lambda p=pool: len(p.active), mode="gauge",
            )
            collector.add_probe(
                component, "outstanding",
                lambda p=pool: sum(p.outstanding), mode="gauge",
            )
            # Sum over ALL replicas (not just active) keeps the counter
            # monotonic across scale-downs.
            collector.add_probe(
                component, "busy_ns",
                lambda p=pool: sum(r.busy_ns(sim.now) for r in p.replicas),
                mode="counter",
            )
        self.collector = collector

    # -- autoscaling ------------------------------------------------------------

    def _autoscale(self, done):
        cfg = self.autoscaler_config
        pools = self.pools
        now = self.sim.now
        prev = {name: [r.busy_ns(now) for r in pool.replicas]
                for name, pool in pools.items()}
        windows = {name: deque(maxlen=cfg.down_window) for name in pools}
        cooldowns = {name: 0 for name in pools}
        while not done.triggered:
            yield cfg.interval_ns
            now = self.sim.now
            for name, pool in pools.items():
                current = [r.busy_ns(now) for r in pool.replicas]
                active = pool.active
                capacity = sum(pool.replicas[i].num_threads
                               for i in active) * cfg.interval_ns
                delta = sum(current[i] - prev[name][i] for i in active)
                prev[name] = current
                utilization = delta / capacity if capacity else 0.0
                windows[name].append(utilization)
                if cooldowns[name] > 0:
                    cooldowns[name] -= 1
                    continue
                window = windows[name]
                if len(window) < cfg.window:
                    continue
                recent = list(window)[-cfg.window:]
                smoothed = sum(recent) / len(recent)
                action = None
                if (smoothed > cfg.high_watermark
                        and len(active) < pool.deployment.max_replicas):
                    pool.activate_next()
                    action = "up"
                elif (len(window) >= cfg.down_window
                        and all(u < cfg.low_watermark for u in window)
                        and len(active) > pool.deployment.min_replicas):
                    pool.drain_last()
                    action = "down"
                if action is not None:
                    cooldowns[name] = cfg.cooldown
                    window.clear()
                    self.scaling_events.append({
                        "t_ns": now,
                        "tier": name,
                        "action": action,
                        "active": len(pool.active),
                        "utilization": round(smoothed, 4),
                    })

    # -- load driving -----------------------------------------------------------

    def run_sessions(
        self,
        workload: SessionWorkload,
        nreq: int,
        entry_tier: Optional[str] = None,
        entry_payload_bytes: int = 64,
        deadline_us: float = 500.0,
        warmup_ns: int = 2_000_000,
        num_load_threads: int = 2,
        mode: str = "exact",
        idle_limit_ns: int = IDLE_LIMIT_NS,
    ) -> ClusterResult:
        """Drive ``nreq`` session arrivals and report SLO attainment.

        The workload's mix keys name methods on ``entry_tier`` (or
        ``"tier.method"`` pairs). Latency is measured from each arrival's
        *intended* time, so queueing behind a saturated entry NIC counts
        against the SLO — open-loop semantics. ``idle_limit_ns`` bounds
        how long the run waits after the last completion before declaring
        the remainder lost (dropped requests never complete).
        """
        if self._ran:
            raise RuntimeError("rig already ran (build a fresh one)")
        self._ran = True
        _check_mode(mode)
        if nreq < 1:
            raise ValueError(f"nreq must be >= 1, got {nreq}")
        if deadline_us <= 0:
            raise ValueError(f"deadline must be positive, got {deadline_us}")

        entries: Dict[str, Tuple[str, str]] = {}
        for key in workload.methods:
            if "." in key:
                tier_name, method = key.split(".", 1)
            else:
                if entry_tier is None:
                    raise ValueError(
                        f"mix key {key!r} has no tier and no entry_tier "
                        "given"
                    )
                tier_name, method = entry_tier, key
            if tier_name not in self.pools:
                raise ValueError(f"unknown entry tier {tier_name!r}")
            if method not in self.pools[tier_name].spec.methods:
                raise ValueError(
                    f"entry tier {tier_name} has no method {method!r}"
                )
            entries[key] = (tier_name, method)
        entry_tiers = sorted({tier for tier, _ in entries.values()})

        sim = self.sim
        loadgen_machine = self.cluster.machines[-1]
        flows = num_load_threads * len(entry_tiers)
        loadgen_stack = DaggerStack(
            loadgen_machine, self.switch, "loadgen",
            hard=NicHardConfig(num_flows=max(1, flows),
                               rx_ring_entries=512),
            soft=NicSoftConfig(batch_size=1, auto_batch=True),
        )
        clients: List[Dict[str, Tuple[RpcClient, List[int]]]] = []
        threads = loadgen_machine.threads(num_load_threads, start_core=0)
        next_flow = 0
        for i in range(num_load_threads):
            per_tier: Dict[str, Tuple[RpcClient, List[int]]] = {}
            for tier_name in entry_tiers:
                per_tier[tier_name] = self._wire_client(
                    loadgen_stack, next_flow, threads[i],
                    self.pools[tier_name], name=f"loadgen{i}->{tier_name}",
                )
                next_flow += 1
            clients.append(per_tier)

        recorder = LatencyRecorder(warmup_ns=warmup_ns, mode=mode)
        deadline_ns = int(deadline_us * 1000)
        slo_met = 0

        def record(intended, finish):
            # Post-warmup completions are exactly the recorder's samples.
            nonlocal slo_met
            recorder.record(intended, finish)
            if finish >= warmup_ns and finish - intended <= deadline_ns:
                slo_met += 1

        load = LoadDriver(sim, record, nreq,
                          [client for per_tier in clients
                           for client, _ in per_tier.values()])
        done = load.done

        def issue_for(per_tier):
            def issue(arrival, callback):
                tier_name, method = entries[arrival.method]
                pool = self.pools[tier_name]
                client, conn_ids = per_tier[tier_name]
                target = self.balancer.pick(pool)
                pool.note_issue(target)
                done_cb = pool.make_done_callback(target)

                def on_complete(call):
                    done_cb(call)
                    callback(call)

                return client.call_async(
                    method, b"", entry_payload_bytes,
                    lb_key=arrival.key,
                    connection_id=conn_ids[target],
                    callback=on_complete,
                )

            return issue

        def watchdog():
            # Declares the run over when completions stall (dropped
            # requests never complete): without this the scaler's periodic
            # timeouts would keep the simulation alive forever. Progress of
            # any kind resets the idle clock, so only a genuinely wedged or
            # fully-drained run trips it.
            interval = self.autoscaler_config.interval_ns
            idle_limit = max(1, idle_limit_ns // interval)
            last, idle = -1, 0
            while not done.triggered:
                yield interval
                if load.completed == last:
                    idle += 1
                    if idle >= idle_limit:
                        done.succeed()
                        return
                else:
                    idle, last = 0, load.completed

        # Every driver draws from the one shared arrival stream.
        arrivals = ((arrival.t_ns, arrival)
                    for arrival in workload.arrivals(nreq))
        for per_tier in clients:
            load.open(arrivals, issue_for(per_tier))
        sim.spawn(watchdog())
        if self.autoscaler_config.enabled:
            sim.spawn(self._autoscale(done))
        if self.collector is not None:
            self.collector.start()
        load.run()
        if self.collector is not None:
            self.collector.stop()

        drops = loadgen_stack.drops + sum(
            replica.stack.drops
            for pool in self.pools.values() for replica in pool.replicas
        )
        if recorder.count >= 2:
            throughput_krps = recorder.throughput_rps() / 1e3
        else:
            throughput_krps = 0.0
        if recorder.count:
            stats = recorder.summary()
            mean_us = stats.mean_ns / 1000.0
            p50_us, p90_us, p99_us = (stats.p50_us, stats.p90_us,
                                      stats.p99_us)
        else:
            mean_us = p50_us = p90_us = p99_us = 0.0
        slo_total = recorder.count
        tiers = {
            name: {
                "initial": pool.deployment.initial,
                "min": pool.deployment.min_replicas,
                "max": pool.deployment.max_replicas,
                "final": len(pool.active),
                "peak": pool.peak_active,
                "scale_ups": pool.scale_ups,
                "scale_downs": pool.scale_downs,
                "requests_handled": pool.requests_handled(),
                "issued_per_replica": list(pool.issued),
            }
            for name, pool in self.pools.items()
        }
        return ClusterResult(
            app="",
            machines=self.machines,
            policy=self.policy,
            modulation=type(workload.modulation).__name__,
            load_krps=workload.peak_rate_krps,
            deadline_us=deadline_us,
            nreq=nreq,
            seed=self.seed,
            count=recorder.count,
            discarded=recorder.discarded,
            completed=load.completed,
            lost=nreq - load.completed,
            drops=drops,
            throughput_krps=round(throughput_krps, 3),
            mean_us=round(mean_us, 3),
            p50_us=round(p50_us, 3),
            p90_us=round(p90_us, 3),
            p99_us=round(p99_us, 3),
            slo_met=slo_met,
            slo_total=slo_total,
            slo_attainment=(round(slo_met / slo_total, 4)
                            if slo_total else 0.0),
            tiers=tiers,
            scaling_events=list(self.scaling_events),
            mode=mode,
            timeline=(self.collector.to_dict()
                      if self.collector is not None else None),
        )


#: Cluster-deployable applications: name -> builder returning (tiers,
#: entry tier, default mix, entry payload bytes, provisioned replicas).
#:
#: The provisioned dict pins ``initial == min`` replicas for tiers whose
#: bottleneck is dispatch-thread *occupancy* (threads parked on nested
#: calls release their core, so the CPU-busy signal under-reads them —
#: the scaler must neither be expected to grow them nor allowed to drain
#: them). The compute-bound tiers (post_storage's 40 us/request is the
#: hottest) are left at one replica for the autoscaler to manage.
def _social_app():
    from repro.apps.microservices.social_network import (
        DEFAULT_MIX,
        social_network_tiers,
    )

    provisioned = {"nginx": 2, "home_timeline": 2, "user_timeline": 2,
                   "compose_post": 2}
    return (social_network_tiers(), "nginx", dict(DEFAULT_MIX), 64,
            provisioned)


def _flight_app():
    from repro.apps.microservices.flight import (
        DEFAULT_MIX,
        flight_cluster_tiers,
    )

    provisioned = {"passenger_frontend": 2}
    return flight_cluster_tiers(), None, dict(DEFAULT_MIX), 96, provisioned


CLUSTER_APPS = {
    "social_network": _social_app,
    "flight": _flight_app,
}


def run_cluster_point(
    app: str = "social_network",
    machines: int = 8,
    load_krps: float = 60.0,
    nreq: int = 2000,
    policy: str = "p2c",
    modulation: str = "bursty",
    num_sessions: int = 1_000_000,
    skew_theta: float = 0.99,
    deadline_us: float = 500.0,
    seed: int = 11,
    mode: str = "exact",
    initial_replicas: int = 1,
    min_replicas: int = 1,
    max_replicas: int = 3,
    autoscale: bool = True,
    num_load_threads: int = 2,
    warmup_ns: int = 2_000_000,
    telemetry: bool = False,
) -> dict:
    """One cluster SLO measurement point; returns a plain JSON-able dict.

    This is the ``run_sweep`` entry point (cache-friendly: everything in
    the return value is reproducible plain data). Deliberately takes no
    ``shards`` parameter — see the module docstring.
    """
    if app not in CLUSTER_APPS:
        raise ValueError(
            f"unknown app {app!r} (expected one of {sorted(CLUSTER_APPS)})"
        )
    if modulation not in MODULATIONS:
        raise ValueError(
            f"unknown modulation {modulation!r} (expected one of "
            f"{MODULATIONS})"
        )
    tiers, entry_tier, mix, payload_bytes, provisioned = CLUSTER_APPS[app]()
    deployments = {
        name: TierDeployment(initial=count, min_replicas=count,
                             max_replicas=max(count, max_replicas))
        for name, count in provisioned.items()
    }
    rig = ClusterRig(
        tiers,
        machines=machines,
        policy=policy,
        deployment=TierDeployment(initial=initial_replicas,
                                  min_replicas=min_replicas,
                                  max_replicas=max_replicas),
        deployments=deployments,
        autoscaler=AutoscalerConfig(enabled=autoscale),
        seed=seed,
        telemetry=telemetry,
    )
    workload = SessionWorkload(
        num_sessions=num_sessions,
        peak_rate_krps=load_krps,
        method_mix=mix,
        skew_theta=skew_theta,
        modulation=make_modulation(modulation, seed=seed + 2),
        seed=seed + 3,
    )
    result = rig.run_sessions(
        workload, nreq,
        entry_tier=entry_tier,
        entry_payload_bytes=payload_bytes,
        deadline_us=deadline_us,
        warmup_ns=warmup_ns,
        num_load_threads=num_load_threads,
        mode=mode,
    )
    result.app = app
    result.modulation = modulation
    data = result.to_dict()
    if not telemetry:
        del data["timeline"]
    return data
