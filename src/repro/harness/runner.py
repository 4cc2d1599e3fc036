"""Rigs and load generators for the echo-RPC experiments.

The paper's section 5.2-5.5 experiments all share one setup: a client and a
server on the same CPU, two NIC instances on one FPGA connected through a
loopback network, 48-64 B echo RPCs. :class:`EchoRig` builds that setup for
any stack; the module-level ``run_*`` helpers wrap the common measurement
loops:

- ``run_closed_loop`` — asynchronous clients with a fixed request window;
  measures saturated throughput (the Mrps numbers of Fig 10 / Table 3);
- ``run_open_loop`` — Poisson arrivals at a target load; measures the
  latency-vs-load curves of Fig 11 (left);
- ``run_thread_scaling`` / ``run_raw_reads`` — Fig 11 (right).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Dict, List, Optional, Sequence

from repro.harness.load import LoadDriver, poisson_arrivals, split
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.cpu import SoftwareThread
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.nic.virtualization import VirtualizedFpga
from repro.hw.platform import Machine, MachineConfig
from repro.hw.switch import ToRSwitch
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    TimelineCollector,
    attach_tracer,
    breakdown,
    export_chrome_trace,
    register_dagger_nic,
    utilization_summary,
    utilization_tenants,
)
from repro.obs.timeline import DEFAULT_INTERVAL_NS
from repro.rpc import RpcClient, RpcThreadedServer, ThreadingModel
from repro.sim import Exponential, LatencyRecorder, Simulator
from repro.sim.stats import _check_mode
from repro.stacks import DaggerStack, connect, make_stack

#: Core layout: clients fill the first half of the chip, servers the second.
SERVER_CORE_BASE = 6


@dataclass
class BenchResult:
    """Outcome of one measurement run."""

    throughput_mrps: float
    p50_us: float
    p90_us: float
    p99_us: float
    mean_us: float
    count: int
    drops: int
    offered_mrps: Optional[float] = None
    #: Per-stage latency breakdown (repro.obs.Breakdown) when the rig ran
    #: with tracing enabled; None otherwise.
    breakdown: Optional[object] = None
    #: Metrics-registry snapshot dict when tracing was enabled.
    metrics: Optional[dict] = None
    #: Exact per-component busy fractions over the sampled window
    #: (repro.obs.utilization_summary) when the rig ran with telemetry
    #: enabled; None otherwise.
    utilization: Optional[dict] = None
    #: Timeline-collector dump (TimelineCollector.to_dict) when telemetry
    #: was enabled: one ring-buffered time series per registered probe.
    timeline: Optional[dict] = None

    @classmethod
    def from_recorder(cls, recorder: LatencyRecorder, drops: int,
                      offered_mrps: Optional[float] = None,
                      breakdown: Optional[object] = None,
                      metrics: Optional[dict] = None,
                      utilization: Optional[dict] = None,
                      timeline: Optional[dict] = None) -> "BenchResult":
        stats = recorder.summary()
        # Throughput needs a measurement window; a single-sample run (e.g.
        # nreq=1 smoke tests) reports latency only.
        throughput = (recorder.throughput_mrps() if recorder.count >= 2
                      else 0.0)
        return cls(
            throughput_mrps=throughput,
            p50_us=stats.p50_us,
            p90_us=stats.p90_us,
            p99_us=stats.p99_us,
            mean_us=stats.mean_ns / 1000.0,
            count=recorder.count,
            drops=drops,
            offered_mrps=offered_mrps,
            breakdown=breakdown,
            metrics=metrics,
            utilization=utilization,
            timeline=timeline,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (used by the sweep result cache).

        A dataclass breakdown (repro.obs.Breakdown) is flattened to nested
        dicts; reconstruction via :meth:`from_dict` keeps it as plain data.
        """
        if self.breakdown is not None and not is_dataclass(self.breakdown):
            raise TypeError(
                f"breakdown {type(self.breakdown).__name__} is not "
                "JSON-serializable"
            )
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BenchResult":
        return cls(**data)


def _echo_handler(service_ns: int = 0, response_bytes: int = 48):
    """Build an echo handler with optional per-request compute."""

    def echo(ctx, payload):
        if service_ns > 0:
            yield from ctx.exec(service_ns)
        return payload, response_bytes

    # Handlers must be generator functions even when service_ns == 0.
    def echo_fast(ctx, payload):
        return payload, response_bytes
        yield  # pragma: no cover - makes this a generator function

    return echo if service_ns > 0 else echo_fast


def _echo_call(client: RpcClient, rpc_bytes: int):
    """The echo rigs' issue call: one echo RPC on ``client``."""
    payload = b"x" * min(rpc_bytes, 8)

    def issue(_item, callback):
        return client.call_async("echo", payload, rpc_bytes,
                                 callback=callback)

    return issue


class EchoRig:
    """Client+server echo setup over a chosen stack, on one machine."""

    def __init__(
        self,
        stack_name: str = "dagger",
        interface: str = "upi",
        batch_size: int = 1,
        auto_batch: bool = False,
        num_threads: int = 1,
        calibration: Calibration = DEFAULT_CALIBRATION,
        rpc_bytes: int = 48,
        server_service_ns: int = 0,
        loopback: bool = True,
        tor_delay_ns: Optional[int] = None,
        rx_ring_entries: int = 256,
        hard_overrides: Optional[dict] = None,
        seed: int = 1,
        trace: bool = False,
        trace_max_spans: Optional[int] = None,
        telemetry: bool = False,
        telemetry_interval_ns: int = DEFAULT_INTERVAL_NS,
        telemetry_adaptive: bool = False,
        chaos=None,
        shards: int = 1,
        mode: str = "exact",
    ):
        if shards != 1:
            # A loopback rig has exactly one host, so there is no shard
            # boundary to cut along; point callers at the topology that has
            # one instead of silently ignoring the request.
            raise ValueError(
                "EchoRig is a single-machine rig and only supports "
                "shards=1; for sharded execution use the multi-host mesh "
                "(repro.harness.mesh.run_echo_mesh / EchoMeshRig)"
            )
        # Latency-recording mode (ISSUE 8): "exact" keeps raw samples (the
        # signature-gated default); "sketch" streams them into O(1)-memory
        # quantile sketches so million-request runs don't grow a list.
        self.mode = _check_mode(mode)
        self.sim = Simulator()
        self.machine = Machine(self.sim, MachineConfig(), calibration, seed=seed)
        self.calibration = calibration
        self.rpc_bytes = rpc_bytes
        self.num_threads = num_threads
        self.switch = ToRSwitch(
            self.sim, calibration, loopback=loopback, delay_ns=tor_delay_ns
        )

        if stack_name == "dagger":
            hard = NicHardConfig(
                num_flows=num_threads,
                interface=interface,
                rx_ring_entries=rx_ring_entries,
                **(hard_overrides or {}),
            )
            soft = NicSoftConfig(batch_size=batch_size, auto_batch=auto_batch)
            self.client_stack = DaggerStack(
                self.machine, self.switch, "client", hard=hard, soft=soft
            )
            server_soft = NicSoftConfig(
                batch_size=batch_size, auto_batch=auto_batch
            )
            self.server_stack = DaggerStack(
                self.machine, self.switch, "server",
                hard=hard, soft=server_soft,
            )
        else:
            self.client_stack = make_stack(
                stack_name, self.machine, self.switch, "client"
            )
            self.server_stack = make_stack(
                stack_name, self.machine, self.switch, "server"
            )

        self.server = RpcThreadedServer(self.sim, calibration, name="echo")
        self.server.register_handler(
            "echo", _echo_handler(server_service_ns, response_bytes=rpc_bytes)
        )
        self.clients: List[RpcClient] = []
        # Pack threads two-per-core like the paper's SMT experiment.
        client_threads = self.machine.threads(num_threads, start_core=0)
        server_threads = self.machine.threads(
            num_threads, start_core=SERVER_CORE_BASE
        )
        for t in range(num_threads):
            self.server.add_server_thread(
                self.server_stack.port(t), server_threads[t],
                model=ThreadingModel.DISPATCH,
            )
            conn = connect(self.client_stack, t, self.server_stack, t)
            self.clients.append(
                RpcClient(self.client_stack.port(t), client_threads[t], conn)
            )
        self.server.start()

        # Observability: the registry always absorbs the NIC stats (reading
        # it is snapshot-time work); the span tracer only exists when asked
        # for, so untraced runs keep every hook at `tracer is None`.
        self.registry = MetricsRegistry()
        self.tracer: Optional[SpanTracer] = None
        nics = [stack.nic for stack in (self.client_stack, self.server_stack)
                if isinstance(stack, DaggerStack)]
        for nic, role in zip(nics, ("client", "server")):
            register_dagger_nic(self.registry, nic, component=f"nic.{role}")

        # Fault injection (repro.chaos): accepts a ChaosConfig or its dict
        # form. None (the default) installs nothing — the switch keeps its
        # zero-overhead perfect-wire path and no fault processes exist.
        self.chaos = None
        if chaos is not None:
            from repro.chaos import ChaosConfig, ChaosInjector

            config = (chaos if isinstance(chaos, ChaosConfig)
                      else ChaosConfig.from_dict(chaos))
            rig_cores = {}
            for thread in client_threads + server_threads:
                rig_cores.setdefault(thread.core.core_id, thread.core)
            self.chaos = ChaosInjector(self.sim, config)
            self.chaos.attach(self.switch,
                              cores=[core for _, core
                                     in sorted(rig_cores.items())],
                              nics=nics)
        if trace:
            self.tracer = SpanTracer(max_spans=trace_max_spans)
            attach_tracer(self.tracer, self.clients)
            attach_tracer(self.tracer, self.server.server_threads)
            attach_tracer(self.tracer, nics)
            attach_tracer(self.tracer, [nic.interface for nic in nics])

        # Time-series telemetry (ISSUE 3): a TimelineCollector sampling every
        # instrumented component. Building it also turns on exact busy-time
        # accounting (enable_usage) on the sampled resources; untelemetered
        # runs keep every accounting site at `usage is None`.
        self.timeline: Optional[TimelineCollector] = None
        if telemetry:
            collector = TimelineCollector(
                self.sim, interval_ns=telemetry_interval_ns,
                adaptive=telemetry_adaptive,
            )
            for nic, role in zip(nics, ("client", "server")):
                nic.enable_usage()
                collector.add_source(f"nic.{role}", nic)
            # The FPGA's shared CCI-P endpoints are one source: both NICs
            # arbitrate for them, so they live under a single component.
            collector.add_source("interconnect", self.machine.fpga)
            used_cores = {}
            for thread in client_threads + server_threads:
                used_cores.setdefault(thread.core.core_id, thread.core)
            for core_id, core in sorted(used_cores.items()):
                collector.add_source(f"cpu.core{core_id}", core)
            for i, client in enumerate(self.clients):
                collector.add_source(f"client{i}", client)
            collector.add_source("server.rpc", self.server)
            if self.chaos is not None:
                collector.add_source("chaos", self.chaos)
            self.timeline = collector

    @property
    def drops(self) -> int:
        return self.client_stack.drops + self.server_stack.drops

    def _client_quotas(self, nreq: int) -> List[int]:
        """Split ``nreq`` across the clients without dropping the remainder."""
        return split(nreq, len(self.clients))

    def _traced_result(self, recorder: LatencyRecorder, warmup_ns: int,
                       offered_mrps: Optional[float] = None) -> BenchResult:
        """Build a BenchResult, attaching breakdown/metrics/telemetry."""
        bd = snap = util = timeline = None
        if self.tracer is not None:
            bd = breakdown(self.tracer, warmup_ns=warmup_ns)
            snap = self.registry.snapshot()
        if self.timeline is not None:
            util = utilization_summary(self.timeline)
            timeline = self.timeline.to_dict()
        return BenchResult.from_recorder(
            recorder, self.drops, offered_mrps=offered_mrps,
            breakdown=bd, metrics=snap,
            utilization=util, timeline=timeline,
        )

    def export_chrome_trace(self, target, max_spans: Optional[int] = None) -> int:
        """Write this run's Chrome trace-event / Perfetto JSON to ``target``
        (a path or a text stream); returns the event count. Needs the rig to
        have run with ``trace=True`` and/or ``telemetry=True``."""
        return export_chrome_trace(target, tracer=self.tracer,
                                   collector=self.timeline,
                                   max_spans=max_spans)

    # -- measurement loops -----------------------------------------------------

    def closed_loop(self, window: int = 64, nreq: int = 20000,
                    warmup_ns: int = 100_000) -> BenchResult:
        """Each client keeps ``window`` async RPCs in flight."""
        recorder = LatencyRecorder(warmup_ns=warmup_ns, mode=self.mode)
        quotas = self._client_quotas(nreq)
        if self.timeline is not None:
            self.timeline.start()
        load = LoadDriver(self.sim, recorder.record, nreq, self.clients)
        for client, quota in zip(self.clients, quotas):
            load.closed(client, range(quota), window,
                        _echo_call(client, self.rpc_bytes))
        load.run()
        if self.timeline is not None:
            self.timeline.stop()
        return self._traced_result(recorder, warmup_ns)

    def open_loop(self, load_mrps: float, nreq: int = 20000,
                  warmup_ns: int = 200_000, seed: int = 7) -> BenchResult:
        """Poisson arrivals at ``load_mrps``, split across the clients.

        Latency is measured from the *intended arrival time*, so client-side
        queueing above saturation shows up in the tail, as it should.
        """
        if load_mrps <= 0:
            raise ValueError(f"load must be positive, got {load_mrps}")
        recorder = LatencyRecorder(warmup_ns=warmup_ns, mode=self.mode)
        quotas = self._client_quotas(nreq)
        if self.timeline is not None:
            self.timeline.start()
        load = LoadDriver(self.sim, recorder.record, nreq, self.clients)
        interarrival = Exponential(
            mean=len(self.clients) * 1000.0 / load_mrps, rng=seed
        )
        for client, quota in zip(self.clients, quotas):
            load.open(poisson_arrivals(self.sim, interarrival, range(quota)),
                      _echo_call(client, self.rpc_bytes))
        load.run(drain=False)
        if self.timeline is not None:
            self.timeline.stop()
        return self._traced_result(recorder, warmup_ns,
                                   offered_mrps=load_mrps)


def run_closed_loop(stack_name: str = "dagger", interface: str = "upi",
                    batch_size: int = 1, auto_batch: bool = False,
                    num_threads: int = 1, window: int = 64,
                    nreq: int = 20000, rpc_bytes: int = 48,
                    loopback: bool = True,
                    tor_delay_ns: Optional[int] = None,
                    telemetry: bool = False,
                    telemetry_interval_ns: int = DEFAULT_INTERVAL_NS,
                    mode: str = "exact",
                    calibration: Calibration = DEFAULT_CALIBRATION) -> BenchResult:
    rig = EchoRig(
        stack_name=stack_name, interface=interface, batch_size=batch_size,
        auto_batch=auto_batch, num_threads=num_threads, rpc_bytes=rpc_bytes,
        loopback=loopback, tor_delay_ns=tor_delay_ns, calibration=calibration,
        telemetry=telemetry, telemetry_interval_ns=telemetry_interval_ns,
        mode=mode,
    )
    return rig.closed_loop(window=window, nreq=nreq)


def run_open_loop(load_mrps: float, stack_name: str = "dagger",
                  interface: str = "upi", batch_size: int = 1,
                  auto_batch: bool = False, num_threads: int = 1,
                  nreq: int = 20000, rpc_bytes: int = 48,
                  loopback: bool = True,
                  telemetry: bool = False,
                  telemetry_interval_ns: int = DEFAULT_INTERVAL_NS,
                  mode: str = "exact",
                  calibration: Calibration = DEFAULT_CALIBRATION) -> BenchResult:
    rig = EchoRig(
        stack_name=stack_name, interface=interface, batch_size=batch_size,
        auto_batch=auto_batch, num_threads=num_threads, rpc_bytes=rpc_bytes,
        loopback=loopback, calibration=calibration,
        telemetry=telemetry, telemetry_interval_ns=telemetry_interval_ns,
        mode=mode,
    )
    return rig.open_loop(load_mrps, nreq=nreq)


def run_thread_scaling(num_threads: int, batch_size: int = 4,
                       nreq_per_thread: int = 8000,
                       calibration: Calibration = DEFAULT_CALIBRATION) -> BenchResult:
    """End-to-end multi-thread throughput (Fig 11 right, black line)."""
    rig = EchoRig(
        stack_name="dagger", interface="upi", batch_size=batch_size,
        auto_batch=True, num_threads=num_threads, calibration=calibration,
    )
    return rig.closed_loop(window=64, nreq=nreq_per_thread * num_threads)


def run_raw_reads(num_threads: int, nreads_per_thread: int = 20000,
                  calibration: Calibration = DEFAULT_CALIBRATION) -> float:
    """Raw idle UPI reads (Fig 11 right, red line); returns Mrps."""
    sim = Simulator()
    machine = Machine(sim, MachineConfig(), calibration, seed=3)
    from repro.hw.interconnect.ccip import make_interface

    interface = make_interface("upi", sim, calibration, machine.fpga)
    threads = machine.threads(num_threads, start_core=0)
    recorder = LatencyRecorder()
    issue_cost = calibration.cpu_tx_ns + calibration.cpu_rx_ns

    def reader(thread: SoftwareThread):
        for _ in range(nreads_per_thread):
            start = sim.now
            yield from thread.exec(issue_cost)
            sim.spawn(_read_once(start))

    def _read_once(start):
        yield from interface.raw_read()
        recorder.record(start, sim.now)

    handles = [sim.spawn(reader(thread)) for thread in threads]

    def waiter(handles):
        for handle in handles:
            yield handle

    sim.run_until_done(sim.spawn(waiter(handles)))
    sim.run()
    return recorder.throughput_mrps()


# -- multi-tenant rig (Fig 14) -------------------------------------------------


@dataclass
class MultiTenantResult:
    """Outcome of one multi-tenant measurement run.

    One :class:`BenchResult` per tenant plus the rig-level per-tenant
    telemetry: ``utilization`` keys look like ``nic.<tenant>.fetch`` and
    ``tenant_map`` says which tenant owns which key (shared components —
    the blue-region interconnect endpoints — are absent from the map).
    """

    tenants: List[str]
    per_tenant: Dict[str, BenchResult]
    utilization: Optional[dict] = None
    #: utilization-summary key -> owning tenant (repro.obs.utilization_tenants).
    tenant_map: Optional[Dict[str, str]] = None
    timeline: Optional[dict] = None
    offered_mrps: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["per_tenant"] = {
            tenant: result.to_dict()
            for tenant, result in self.per_tenant.items()
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MultiTenantResult":
        data = dict(data)
        data["per_tenant"] = {
            tenant: BenchResult.from_dict(result)
            for tenant, result in data["per_tenant"].items()
        }
        return cls(**data)


class MultiTenantEchoRig:
    """N co-located echo tenants on one FPGA (:class:`VirtualizedFpga`).

    Each tenant gets its own client NIC + server NIC pair (both tagged
    with the tenant's name), its own RPC server, and its own CPU threads;
    the only cross-tenant coupling is the FPGA's shared CCI-P endpoints —
    exactly the paper's Fig 14 setup. With ``telemetry=True`` the rig
    samples the virtualized FPGA's per-tenant probes, so
    ``result.utilization`` carries one ``nic.<tenant>.*`` namespace per
    tenant and :func:`repro.obs.attribute_bottleneck` can blame a noisy
    neighbour by name.
    """

    def __init__(
        self,
        tenants: Sequence[str] = ("t0", "t1", "t2"),
        interface: str = "upi",
        batch_size: int = 1,
        calibration: Calibration = DEFAULT_CALIBRATION,
        rpc_bytes: int = 48,
        rx_ring_entries: int = 256,
        max_utilization: float = 0.9,
        seed: int = 1,
        telemetry: bool = False,
        telemetry_interval_ns: int = DEFAULT_INTERVAL_NS,
        mode: str = "exact",
    ):
        if len(tenants) < 2:
            raise ValueError(f"need at least 2 tenants, got {list(tenants)}")
        if len(set(tenants)) != len(tenants):
            raise ValueError(f"duplicate tenant names in {list(tenants)}")
        self.mode = _check_mode(mode)
        self.tenants = list(tenants)
        self.sim = Simulator()
        self.machine = Machine(self.sim, MachineConfig(), calibration, seed=seed)
        self.calibration = calibration
        self.rpc_bytes = rpc_bytes
        self.switch = ToRSwitch(self.sim, calibration, loopback=True)
        self.vfpga = VirtualizedFpga(
            self.machine, self.switch, max_utilization=max_utilization
        )

        # Per-tenant stacks: a client NIC and a server NIC per tenant, all
        # resident on the one FPGA. num_flows=1 keeps 2N instances inside
        # the utilization budget.
        hard = NicHardConfig(
            num_flows=1, interface=interface, rx_ring_entries=rx_ring_entries
        )
        soft = NicSoftConfig(batch_size=batch_size)
        client_threads = self.machine.threads(len(self.tenants), start_core=0)
        server_threads = self.machine.threads(
            len(self.tenants), start_core=SERVER_CORE_BASE
        )
        self.client_stacks: Dict[str, DaggerStack] = {}
        self.server_stacks: Dict[str, DaggerStack] = {}
        self.servers: Dict[str, RpcThreadedServer] = {}
        self.clients: Dict[str, RpcClient] = {}
        for index, tenant in enumerate(self.tenants):
            client_nic = self.vfpga.add_nic(
                f"{tenant}-c", hard=hard, soft=soft, tenant=tenant
            )
            server_nic = self.vfpga.add_nic(
                f"{tenant}-s", hard=hard, soft=soft, tenant=tenant
            )
            client_stack = DaggerStack.from_nic(self.machine, client_nic)
            server_stack = DaggerStack.from_nic(self.machine, server_nic)
            server = RpcThreadedServer(
                self.sim, calibration, name=f"echo-{tenant}"
            )
            server.register_handler(
                "echo", _echo_handler(0, response_bytes=rpc_bytes)
            )
            server.add_server_thread(
                server_stack.port(0), server_threads[index],
                model=ThreadingModel.DISPATCH,
            )
            conn = connect(client_stack, 0, server_stack, 0)
            server.start()
            self.client_stacks[tenant] = client_stack
            self.server_stacks[tenant] = server_stack
            self.servers[tenant] = server
            self.clients[tenant] = RpcClient(
                client_stack.port(0), client_threads[index], conn
            )

        # Per-tenant telemetry: the virtualized FPGA's probe source yields
        # (tenant, name, mode, fn) 4-tuples, so one add_source call fans
        # out into a nic.<tenant>.* namespace per tenant. Client/server
        # probes are tagged per tenant too; the shared blue-region
        # endpoints stay untenanted (they are the coupling under test).
        self.timeline: Optional[TimelineCollector] = None
        if telemetry:
            collector = TimelineCollector(
                self.sim, interval_ns=telemetry_interval_ns
            )
            self.vfpga.enable_usage()
            collector.add_source("nic", self.vfpga)
            collector.add_source("interconnect", self.machine.fpga)
            used_cores = {}
            for thread in client_threads + server_threads:
                used_cores.setdefault(thread.core.core_id, thread.core)
            for core_id, core in sorted(used_cores.items()):
                collector.add_source(f"cpu.core{core_id}", core)
            for tenant in self.tenants:
                collector.add_source(
                    f"client.{tenant}", self.clients[tenant], tenant=tenant
                )
                collector.add_source(
                    f"server.{tenant}", self.servers[tenant], tenant=tenant
                )
            self.timeline = collector

    def tenant_drops(self, tenant: str) -> int:
        return (self.client_stacks[tenant].drops
                + self.server_stacks[tenant].drops)

    @property
    def drops(self) -> int:
        return sum(self.tenant_drops(tenant) for tenant in self.tenants)

    def export_chrome_trace(self, target, max_spans: Optional[int] = None) -> int:
        """Write this run's Perfetto JSON (per-tenant counter processes)."""
        return export_chrome_trace(target, collector=self.timeline,
                                   max_spans=max_spans)

    def open_loop(self, loads_mrps: Dict[str, float],
                  nreq_total: int = 6000,
                  warmup_ns: Optional[int] = None,
                  seed: int = 7) -> MultiTenantResult:
        """Poisson arrivals per tenant at each tenant's own target load.

        Request quotas are split proportionally to the offered loads so
        every tenant keeps issuing for (approximately) the same stretch of
        simulated time — a steady tenant must still be observing while the
        noisy one saturates, or its p99 would miss the interference window.
        The default warmup discards the first tenth of that stretch (a
        fixed cutoff would swallow a short run's slow tenants whole).
        """
        if set(loads_mrps) != set(self.tenants):
            raise ValueError(
                f"loads {sorted(loads_mrps)} do not match tenants "
                f"{sorted(self.tenants)}"
            )
        for tenant, load in loads_mrps.items():
            if load <= 0:
                raise ValueError(
                    f"load must be positive, got {load} for {tenant!r}"
                )
        if nreq_total < len(self.tenants):
            raise ValueError(
                f"nreq_total must be >= {len(self.tenants)}, got {nreq_total}"
            )
        total_load = sum(loads_mrps.values())
        if warmup_ns is None:
            # Expected issuing stretch: nreq_total arrivals at total_load
            # requests/us across all tenants.
            warmup_ns = int(nreq_total * 1000 / total_load) // 10
        quotas = {
            tenant: max(1, round(nreq_total * load / total_load))
            for tenant, load in loads_mrps.items()
        }
        recorders = {
            tenant: LatencyRecorder(warmup_ns=warmup_ns, mode=self.mode)
            for tenant in self.tenants
        }
        if self.timeline is not None:
            self.timeline.start()
        load = LoadDriver(self.sim, None, sum(quotas.values()),
                          self.clients.values())
        for index, tenant in enumerate(self.tenants):
            interarrival = Exponential(
                mean=1000.0 / loads_mrps[tenant], rng=seed + index
            )
            client = self.clients[tenant]
            load.open(poisson_arrivals(self.sim, interarrival,
                                       range(quotas[tenant])),
                      _echo_call(client, self.rpc_bytes),
                      record=recorders[tenant].record)
        load.run(drain=False)
        if self.timeline is not None:
            self.timeline.stop()
        util = tenant_map = timeline = None
        if self.timeline is not None:
            util = utilization_summary(self.timeline)
            tenant_map = utilization_tenants(self.timeline)
            timeline = self.timeline.to_dict()
        per_tenant = {
            tenant: BenchResult.from_recorder(
                recorders[tenant], self.tenant_drops(tenant),
                offered_mrps=loads_mrps[tenant],
            )
            for tenant in self.tenants
        }
        return MultiTenantResult(
            tenants=list(self.tenants),
            per_tenant=per_tenant,
            utilization=util,
            tenant_map=tenant_map,
            timeline=timeline,
            offered_mrps=dict(loads_mrps),
        )


def run_multi_tenant(noisy_mrps: float, steady_mrps: float = 0.5,
                     tenants: int = 3, noisy: str = "t0",
                     nreq_total: int = 6000, interface: str = "upi",
                     batch_size: int = 1, telemetry: bool = False,
                     telemetry_interval_ns: int = DEFAULT_INTERVAL_NS,
                     mode: str = "exact",
                     calibration: Calibration = DEFAULT_CALIBRATION) -> MultiTenantResult:
    """One noisy tenant at ``noisy_mrps``, the rest steady (Fig 14 point)."""
    names = [f"t{i}" for i in range(tenants)]
    if noisy not in names:
        raise ValueError(f"noisy tenant {noisy!r} not in {names}")
    rig = MultiTenantEchoRig(
        tenants=names, interface=interface, batch_size=batch_size,
        calibration=calibration, telemetry=telemetry,
        telemetry_interval_ns=telemetry_interval_ns, mode=mode,
    )
    loads = {name: (noisy_mrps if name == noisy else steady_mrps)
             for name in names}
    return rig.open_loop(loads, nreq_total=nreq_total)
