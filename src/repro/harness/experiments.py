"""One entry point per table/figure of the paper's evaluation.

Every function returns plain data (lists of dicts) with the paper's
reference numbers attached under ``paper_*`` keys, so benchmarks can print
paper-vs-measured tables and tests can assert on the reproduced *shape*.

Figure functions whose sub-runs are independent simulations take ``jobs``
and ``cache`` keyword arguments and evaluate their grid through
:func:`repro.harness.sweep.run_sweep`, so ``python -m repro run fig10
--jobs 4`` fans the cells across worker processes and repeated runs hit
the content-addressed result cache. The module-level ``_*_point`` helpers
exist so sweep points can name them by dotted path; they must return
JSON-able data (see the sweep module's determinism contract).

Experiment index (see DESIGN.md section 4):

- :func:`table1_resources` — Table 1 (NIC implementation specs)
- :func:`table3_rpc_platforms` — Table 3 (RTT + per-core Mrps across stacks)
- :func:`table4_flight` — Table 4 (Flight Registration threading models)
- :func:`fig3_breakdown` — Fig 3 (networking share of tier latency)
- :func:`fig4_rpc_sizes` — Fig 4 (RPC size distributions)
- :func:`fig5_interference` — Fig 5 (CPU contention networking vs logic)
- :func:`fig10_interfaces` — Fig 10 (CPU-NIC interface comparison)
- :func:`fig11_latency_load` / :func:`fig11_scalability` — Fig 11
- :func:`fig11_bottleneck` — Fig 11 (left) + first-saturating component
- :func:`fig14_isolation` — Fig 14 (noisy neighbour on a virtualized FPGA)
- :func:`fig12_kvs` — Fig 12 (memcached + MICA over Dagger)
- :func:`fig15_flight_curves` — Fig 15 (Flight latency/load curves)
- :func:`sec53_raw_access` — section 5.3's raw UPI-vs-PCIe read latency
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional

from repro.apps.kvs import run_kvs_workload
from repro.apps.microservices.flight import build_flight_app
from repro.apps.microservices.social_network import (
    DEFAULT_MIX as SOCIAL_MIX,
    PROFILED_TIERS,
    social_network_graph,
    social_network_tiers,
)
from repro.harness.sweep import SweepPoint, run_sweep
from repro.obs import attribute_bottleneck
from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.nic.config import NicHardConfig
from repro.hw.nic.resources import estimate_resources, max_nic_instances
from repro.workloads.kv_datasets import DATASETS, WORKLOAD_MIXES
from repro.workloads.rpc_sizes import (
    MEDIA_SIZES,
    SOCIAL_NETWORK_SIZES,
    request_size_cdf,
    sample_sizes,
)

#: Dotted paths for sweep points (resolvable inside worker processes).
_CLOSED_LOOP = "repro.harness.runner:run_closed_loop"
_OPEN_LOOP = "repro.harness.runner:run_open_loop"
_THREAD_SCALING = "repro.harness.runner:run_thread_scaling"
_RAW_READS = "repro.harness.runner:run_raw_reads"
_KVS_POINT = "repro.harness.experiments:_kvs_point"
_FLIGHT_POINT = "repro.harness.experiments:_flight_point"
_FIG3_POINT = "repro.harness.experiments:_fig3_point"
_FIG5_POINT = "repro.harness.experiments:_fig5_point"
_FIG14_POINT = "repro.harness.experiments:_fig14_point"


def _kvs_point(**kwargs) -> Dict:
    """Sweep wrapper: one Fig 12 KVS cell as a plain dict."""
    return asdict(run_kvs_workload(**kwargs))


def _flight_point(optimized: bool, load_krps: float, nreq: int,
                  measure_from_issue: bool = False) -> Dict:
    """Sweep wrapper: one Flight Registration run as a plain dict."""
    app = build_flight_app(optimized=optimized)
    result = app.run(load_krps, nreq=nreq,
                     measure_from_issue=measure_from_issue)
    return {
        "throughput_krps": result.throughput_krps,
        "p50_us": result.p50_us,
        "p90_us": result.p90_us,
        "p99_us": result.p99_us,
        "drop_rate": result.drop_rate,
    }


def _fig3_point(load_krps: float, nreq: int) -> List[Dict]:
    """Sweep wrapper: Fig 3 per-tier rows for one offered load."""
    graph = social_network_graph("linux-tcp")
    result = graph.run_load("nginx", SOCIAL_MIX, load_krps=load_krps,
                            nreq=nreq)
    rows = []
    for label, tier in PROFILED_TIERS.items():
        breakdown = result.tracer.breakdown(tier)
        rows.append({
            "load_krps": load_krps,
            "tier": f"{label}:{tier}",
            "p50_us": breakdown.p50_us,
            "p99_us": breakdown.p99_us,
            "app_fraction": breakdown.app_fraction,
            "rpc_fraction": breakdown.rpc_fraction,
            "transport_fraction": breakdown.transport_fraction,
            "network_fraction": breakdown.network_fraction,
        })
    e2e = result.tracer.e2e_breakdown()
    rows.append({
        "load_krps": load_krps,
        "tier": "e2e",
        "p50_us": e2e.p50_us,
        "p99_us": e2e.p99_us,
        "app_fraction": None,
        "rpc_fraction": None,
        "transport_fraction": None,
        "network_fraction": None,
    })
    return rows


def _fig5_point(load_krps: float, shared: bool, nreq: int) -> Dict:
    """Sweep wrapper: one Fig 5 (load, core-placement) cell."""
    irq_cores = [0, 1, 2, 3]
    cores = irq_cores if shared else [4, 5, 6, 7, 8, 9, 10, 11]
    pins = {spec.name: cores for spec in social_network_tiers()}
    graph = social_network_graph("linux-tcp", cores=pins)
    irq_threads = [graph.machine.thread(core, name=f"irq{core}")
                   for core in irq_cores]
    for replica in graph.tiers.values():
        replica.stack.irq_threads = irq_threads
    result = graph.run_load("nginx", SOCIAL_MIX, load_krps=load_krps,
                            nreq=nreq)
    return {
        "load_krps": load_krps,
        "shared_cores": shared,
        "p50_us": result.p50_us,
        "p99_us": result.p99_us,
        "drop_rate": result.drop_rate,
    }


# --------------------------------------------------------------------- T1


def table1_resources() -> List[Dict]:
    """Table 1: FPGA resource usage of the reference NIC configuration."""
    reference = NicHardConfig(num_flows=64, connection_cache_entries=65_536)
    footprint = estimate_resources(reference)
    max_flows_config = NicHardConfig(
        num_flows=512, connection_cache_entries=65_536
    )
    big = estimate_resources(max_flows_config)
    return [
        {
            "parameter": "FPGA resource usage, LUT (K)",
            "paper": 87.1,
            "measured": footprint.luts / 1000.0,
            "utilization": footprint.lut_utilization,
            "paper_utilization": 0.20,
        },
        {
            "parameter": "FPGA resource usage, BRAM blocks (M20K)",
            "paper": 555,
            "measured": footprint.m20k_blocks,
            "utilization": footprint.bram_utilization,
            "paper_utilization": 0.20,
        },
        {
            "parameter": "FPGA resource usage, registers (K)",
            "paper": 120.8,
            "measured": footprint.registers / 1000.0,
            "utilization": footprint.register_utilization,
            "paper_utilization": None,
        },
        {
            "parameter": "Max number of NIC flows (<=50% util)",
            "paper": 512,
            "measured": 512 if big.fits(0.5) else 0,
            "utilization": big.lut_utilization,
            "paper_utilization": 0.50,
        },
        {
            "parameter": "NIC instances fitting one FPGA (default config)",
            "paper": 8,  # the Fig 14 deployment instantiates 8
            "measured": min(8, max_nic_instances(NicHardConfig())),
            "utilization": None,
            "paper_utilization": None,
        },
    ]


# --------------------------------------------------------------------- T3

#: Table 3 rows: (stack, rpc bytes, paper RTT us, paper Mrps).
TABLE3_PAPER = {
    "ix": {"bytes": 64, "rtt_us": 11.4, "mrps": 1.5},
    "fasst-rdma": {"bytes": 48, "rtt_us": 2.8, "mrps": 4.8},
    "erpc": {"bytes": 32, "rtt_us": 2.3, "mrps": 4.96},
    "netdimm": {"bytes": 64, "rtt_us": 2.2, "mrps": None},
    "dagger": {"bytes": 64, "rtt_us": 2.1, "mrps": 12.4},
}


def table3_rpc_platforms(nreq: int = 12000, jobs: int = 1,
                         cache: bool = True) -> List[Dict]:
    """Table 3: median RTT and single-core throughput per platform."""
    points = []
    layout = []
    for stack, paper in TABLE3_PAPER.items():
        # Table 3's object sizes are wire sizes; the 16 B RPC header is
        # part of them (a "64 B RPC" fits one cache line).
        payload = max(16, paper["bytes"] - 16)
        # Unloaded RTT: a single outstanding request over a 0.3 us TOR.
        points.append(SweepPoint(_CLOSED_LOOP, dict(
            stack_name=stack, batch_size=1, window=1, nreq=min(nreq, 3000),
            rpc_bytes=payload, loopback=False,
        )))
        has_throughput = paper["mrps"] is not None
        if has_throughput:
            points.append(SweepPoint(_CLOSED_LOOP, dict(
                stack_name=stack,
                batch_size=4 if stack == "dagger" else 1,
                auto_batch=(stack == "dagger"),
                window=64, nreq=nreq, rpc_bytes=payload,
            )))
        layout.append((stack, paper, has_throughput))
    results = iter(run_sweep(points, jobs=jobs, cache=cache))
    rows = []
    for stack, paper, has_throughput in layout:
        latency = next(results)
        throughput = next(results).throughput_mrps if has_throughput else None
        rows.append({
            "stack": stack,
            "rpc_bytes": paper["bytes"],
            "paper_rtt_us": paper["rtt_us"],
            "rtt_us": latency.p50_us,
            "paper_mrps": paper["mrps"],
            "mrps": throughput,
        })
    return rows


# --------------------------------------------------------------------- F10

#: Fig 10 bars: (interface, batch, paper Mrps, paper p50 us, paper p99 us).
FIG10_PAPER = [
    ("pcie-mmio", 1, 4.2, 3.8, 5.2),
    ("pcie-doorbell", 1, 4.3, 4.4, 5.1),
    ("pcie-doorbell", 3, 7.9, 4.4, 5.8),
    ("pcie-doorbell", 7, 9.9, 4.6, 7.0),
    ("pcie-doorbell", 11, 10.8, 5.5, 9.1),
    ("upi", 1, 8.1, 1.8, 2.0),
    ("upi", 4, 12.4, 2.4, 3.1),
]


def fig10_interfaces(nreq: int = 12000,
                     latency_load_fraction: float = 0.75,
                     jobs: int = 1, cache: bool = True) -> List[Dict]:
    """Fig 10: single-core throughput + latency per CPU-NIC interface.

    Two sweep phases: the open-loop load of each latency run is derived
    from the measured saturated throughput of the same configuration, so
    the saturation sweep must complete first.
    """
    saturated = run_sweep(
        [SweepPoint(_CLOSED_LOOP, dict(
            stack_name="dagger", interface=interface, batch_size=batch,
            window=64, nreq=nreq,
        )) for interface, batch, *_ in FIG10_PAPER],
        jobs=jobs, cache=cache,
    )
    loaded = run_sweep(
        [SweepPoint(_OPEN_LOOP, dict(
            load_mrps=max(0.5, result.throughput_mrps
                          * latency_load_fraction),
            stack_name="dagger", interface=interface, batch_size=batch,
            nreq=nreq,
        )) for (interface, batch, *_), result in zip(FIG10_PAPER, saturated)],
        jobs=jobs, cache=cache,
    )
    rows = []
    for (interface, batch, paper_mrps, paper_p50, paper_p99), sat, load \
            in zip(FIG10_PAPER, saturated, loaded):
        rows.append({
            "interface": interface,
            "batch": batch,
            "paper_mrps": paper_mrps,
            "mrps": sat.throughput_mrps,
            "paper_p50_us": paper_p50,
            "p50_us": load.p50_us,
            "paper_p99_us": paper_p99,
            "p99_us": load.p99_us,
        })
    return rows


# --------------------------------------------------------------------- F11


def fig11_latency_load(loads_mrps: Optional[List[float]] = None,
                       nreq: int = 10000, jobs: int = 1,
                       cache: bool = True) -> List[Dict]:
    """Fig 11 (left): latency vs load for B=1, B=2, B=4 and auto."""
    configs = [("B=1", 1, False), ("B=2", 2, False), ("B=4", 4, False),
               ("auto", 4, True)]
    grid = []
    for label, batch, auto in configs:
        # Batch-1 saturates ~8.1 Mrps; larger batches go to ~12.4.
        loads = loads_mrps or ([1, 2, 4, 6, 7] if batch == 1 and not auto
                               else [1, 2, 4, 6, 8, 10, 12])
        for load in loads:
            grid.append((label, batch, auto, load))
    results = run_sweep(
        [SweepPoint(_OPEN_LOOP, dict(
            load_mrps=load, batch_size=batch, auto_batch=auto, nreq=nreq,
        )) for _, batch, auto, load in grid],
        jobs=jobs, cache=cache,
    )
    return [{
        "config": label,
        "offered_mrps": load,
        "p50_us": result.p50_us,
        "p99_us": result.p99_us,
        "throughput_mrps": result.throughput_mrps,
    } for (label, _, _, load), result in zip(grid, results)]


def fig11_bottleneck(loads_mrps: Optional[List[float]] = None,
                     batch_size: int = 1, nreq: int = 6000, jobs: int = 1,
                     cache: bool = True) -> Dict:
    """Fig 11 (left) with bottleneck attribution (ISSUE 3 tentpole).

    Re-runs the latency/load sweep with time-series telemetry enabled, so
    every load point carries the exact per-component busy fractions, then
    names the first-saturating component at the latency knee. This turns
    the paper's section 5.4 narrative ("B=1 is paced by the fetch FSM;
    larger batches move the bound to the flow scheduler / UPI") into a
    measured attribution instead of prose.
    """
    loads = loads_mrps or ([1, 2, 4, 6, 7, 7.8] if batch_size == 1
                           else [1, 2, 4, 6, 8, 10, 12])
    results = run_sweep(
        [SweepPoint(_OPEN_LOOP, dict(
            load_mrps=load, batch_size=batch_size, nreq=nreq,
            telemetry=True,
        )) for load in loads],
        jobs=jobs, cache=cache,
    )
    points = [{
        "offered_mrps": load,
        "p50_us": result.p50_us,
        "p99_us": result.p99_us,
        "throughput_mrps": result.throughput_mrps,
        "utilization": result.utilization,
    } for load, result in zip(loads, results)]
    report = attribute_bottleneck(points)
    return {"batch_size": batch_size, "points": points,
            "report": report.as_dict()}


def _fig14_point(noisy_mrps: float, steady_mrps: float, tenants: int,
                 nreq_total: int, noisy: str = "t0") -> Dict:
    """Sweep wrapper: one Fig 14 noisy-neighbour cell as a plain dict."""
    from repro.harness.runner import run_multi_tenant

    result = run_multi_tenant(
        noisy_mrps=noisy_mrps, steady_mrps=steady_mrps, tenants=tenants,
        noisy=noisy, nreq_total=nreq_total, telemetry=True,
    )
    data = result.to_dict()
    # The ring-buffered samples are bulky and attribution only needs the
    # summaries; drop them from the cached sweep payload.
    data["timeline"] = None
    return data


#: Fig 14 anchor: the paper reports tenant medians "barely distinguishable"
#: as neighbours are added — steady tenants must not follow the noisy one
#: into saturation.
FIG14_PAPER = {"max_steady_p99_drift": 0.10}


def fig14_isolation(noisy_loads_mrps: Optional[List[float]] = None,
                    steady_mrps: float = 0.5, tenants: int = 3,
                    nreq_total: int = 6000, jobs: int = 1,
                    cache: bool = True) -> Dict:
    """Fig 14: tenant isolation on a virtualized FPGA (ISSUE 4 tentpole).

    Ramps one tenant ("t0") to saturation while the other tenants hold a
    steady trickle, with per-tenant telemetry enabled throughout. The
    returned report names the *tenant* that owns the saturating component
    (``nic.t0.fetch``-class, per section 5.4's batch-1 bound), and the
    ``isolation`` rows quantify how far each steady tenant's p99 moved
    between the lightest and heaviest noisy load — the paper's claim is
    that it barely moves at all.
    """
    loads = noisy_loads_mrps or [1, 2, 4, 6, 7, 7.8]
    noisy = "t0"
    results = run_sweep(
        [SweepPoint(_FIG14_POINT, dict(
            noisy_mrps=load, steady_mrps=steady_mrps, tenants=tenants,
            nreq_total=nreq_total, noisy=noisy,
        )) for load in loads],
        jobs=jobs, cache=cache,
    )
    points = []
    for load, result in zip(loads, results):
        noisy_stats = result["per_tenant"][noisy]
        points.append({
            "offered_mrps": load,
            "p50_us": noisy_stats["p50_us"],
            "p99_us": noisy_stats["p99_us"],
            "throughput_mrps": noisy_stats["throughput_mrps"],
            "utilization": result["utilization"],
            "tenants": result["tenant_map"],
            "per_tenant": {
                tenant: {"p99_us": stats["p99_us"],
                         "throughput_mrps": stats["throughput_mrps"],
                         "drops": stats["drops"]}
                for tenant, stats in result["per_tenant"].items()
            },
        })
    report = attribute_bottleneck(points)
    steady = [t for t in results[0]["tenants"] if t != noisy]
    isolation = []
    for tenant in steady:
        p99_low = points[0]["per_tenant"][tenant]["p99_us"]
        p99_high = points[-1]["per_tenant"][tenant]["p99_us"]
        drift = (p99_high - p99_low) / p99_low if p99_low > 0 else 0.0
        isolation.append({
            "tenant": tenant,
            "p99_us_at_min_noise": p99_low,
            "p99_us_at_max_noise": p99_high,
            "p99_drift": drift,
            "isolated": abs(drift) <= FIG14_PAPER["max_steady_p99_drift"],
        })
    return {
        "noisy": noisy,
        "steady_mrps": steady_mrps,
        "points": points,
        "report": report.as_dict(),
        "isolation": isolation,
        "paper": FIG14_PAPER,
    }


_CHAOS_POINT = "repro.chaos.rig:run_chaos_point"

#: §4.5 leaves reliable transport as future work, so there are no published
#: fault numbers to anchor on; the gate asserts recovery *invariants*:
#: nothing lost beyond this fraction, and zero duplicate host executions.
CHAOS_PAPER = {"max_lost_fraction": 0.01}


def figx_chaos(fault_classes: Optional[List[str]] = None,
               load_mrps: float = 1.0, nreq: int = 2000, seed: int = 1,
               hedge_ns: Optional[int] = None,
               jobs: int = 1, cache: bool = True) -> Dict:
    """Chaos: tail latency + recovery accounting per fault class (ISSUE 6).

    Runs one seeded open-loop echo workload per fault class (see
    :data:`repro.chaos.rig.FAULT_CLASSES`) over the reliable transport +
    credit flow control, and reports p50/p99/p99.9 alongside the recovery
    counters. ``recovered`` is the per-class invariant: bounded loss and
    zero duplicate host deliveries.
    """
    from repro.chaos.rig import FAULT_CLASSES

    classes = list(fault_classes or FAULT_CLASSES)
    results = run_sweep(
        [SweepPoint(_CHAOS_POINT, dict(
            fault_class=fault_class, load_mrps=load_mrps, nreq=nreq,
            seed=seed, hedge_ns=hedge_ns,
        )) for fault_class in classes],
        jobs=jobs, cache=cache,
    )
    baseline = next(
        (r for c, r in zip(classes, results) if c == "none"), results[0]
    )
    max_lost = nreq * CHAOS_PAPER["max_lost_fraction"]
    points = []
    for fault_class, result in zip(classes, results):
        transport = result["transport"]
        flow = result["flow_control"]

        def both(section, field):
            return section["client"][field] + section["server"][field]

        points.append({
            "fault_class": fault_class,
            "completed": result["completed"],
            "lost_rpcs": result["lost_rpcs"],
            "p50_us": result["p50_us"],
            "p99_us": result["p99_us"],
            "p999_us": result["p999_us"],
            "p99_vs_fault_free": (
                round(result["p99_us"] / baseline["p99_us"], 3)
                if baseline["p99_us"] else 0.0
            ),
            "duplicate_host_deliveries":
                result["duplicate_host_deliveries"],
            "retransmissions": both(transport, "retransmissions"),
            "timeout_retransmissions":
                both(transport, "timeout_retransmissions"),
            "duplicates_dropped": both(transport, "duplicates_dropped"),
            "lost_unrecoverable": both(transport, "lost_unrecoverable"),
            "credit_repairs": both(flow, "credit_repairs"),
            "hedges_sent": result["hedges_sent"],
            "faults_injected": result["chaos"],
            "recovered": (result["lost_rpcs"] <= max_lost
                          and result["duplicate_host_deliveries"] == 0),
        })
    return {
        "points": points,
        "seed": seed,
        "nreq": nreq,
        "load_mrps": load_mrps,
        "paper": CHAOS_PAPER,
    }


#: Fig 11 (right) anchors: ~42 Mrps end-to-end plateau, ~80 Mrps raw reads.
FIG11_PAPER = {"e2e_plateau_mrps": 42.0, "raw_plateau_mrps": 80.0}


def fig11_scalability(threads: Optional[List[int]] = None,
                      nreq_per_thread: int = 5000, jobs: int = 1,
                      cache: bool = True) -> List[Dict]:
    """Fig 11 (right): thread scaling, end-to-end vs raw UPI reads."""
    counts = threads or [1, 2, 3, 4, 6, 8]
    points = []
    for count in counts:
        points.append(SweepPoint(_THREAD_SCALING, dict(
            num_threads=count, nreq_per_thread=nreq_per_thread,
        )))
        points.append(SweepPoint(_RAW_READS, dict(
            num_threads=count, nreads_per_thread=nreq_per_thread,
        )))
    results = run_sweep(points, jobs=jobs, cache=cache)
    return [{
        "threads": count,
        "e2e_mrps": results[2 * i].throughput_mrps,
        "raw_mrps": results[2 * i + 1],
    } for i, count in enumerate(counts)]


# --------------------------------------------------------------------- F12

#: Fig 12 paper anchors: latency under the write-intensive mix, peak
#: single-core throughput per mix.
FIG12_PAPER = {
    ("memcached", "tiny"): {"p50_us": 2.8, "p99_us": 6.9,
                            "thr_50": 0.6, "thr_95": 1.5, "window": 2},
    ("memcached", "small"): {"p50_us": 3.2, "p99_us": 7.8,
                             "thr_50": 0.6, "thr_95": 1.5, "window": 2},
    ("mica", "tiny"): {"p50_us": 3.4, "p99_us": 5.4,
                       "thr_50": 4.7, "thr_95": 5.2, "window": 16},
    ("mica", "small"): {"p50_us": 3.5, "p99_us": 5.7,
                        "thr_50": 4.3, "thr_95": 5.0, "window": 16},
}


def fig12_kvs(nreq: int = 8000, jobs: int = 1,
              cache: bool = True) -> List[Dict]:
    """Fig 12: memcached and MICA over Dagger (latency + throughput)."""
    points = []
    for (system, dataset_name), paper in FIG12_PAPER.items():
        dataset = DATASETS[dataset_name]
        common = dict(
            system=system,
            key_bytes=dataset.key_bytes,
            value_bytes=dataset.value_bytes,
            num_keys=dataset.num_keys(system),
            nreq=nreq,
        )
        points.append(SweepPoint(_KVS_POINT, dict(
            get_fraction=WORKLOAD_MIXES["write-intensive"],
            closed_loop_window=paper["window"], **common,
        )))
        points.append(SweepPoint(_KVS_POINT, dict(
            get_fraction=WORKLOAD_MIXES["write-intensive"],
            closed_loop_window=32, **common,
        )))
        points.append(SweepPoint(_KVS_POINT, dict(
            get_fraction=WORKLOAD_MIXES["read-intensive"],
            closed_loop_window=32, **common,
        )))
    results = iter(run_sweep(points, jobs=jobs, cache=cache))
    rows = []
    for (system, dataset_name), paper in FIG12_PAPER.items():
        latency, thr50, thr95 = next(results), next(results), next(results)
        rows.append({
            "system": system,
            "dataset": dataset_name,
            "paper_p50_us": paper["p50_us"], "p50_us": latency["p50_us"],
            "paper_p99_us": paper["p99_us"], "p99_us": latency["p99_us"],
            "paper_thr_50get": paper["thr_50"],
            "thr_50get": thr50["throughput_mrps"],
            "paper_thr_95get": paper["thr_95"],
            "thr_95get": thr95["throughput_mrps"],
            "drop_rate": max(latency["drop_rate"], thr50["drop_rate"],
                             thr95["drop_rate"]),
        })
    return rows


def sec56_mica_high_skew(nreq: int = 8000, jobs: int = 1,
                         cache: bool = True) -> Dict:
    """Section 5.6: MICA under zipf 0.9999 (paper: 10.2/9.8 Mrps with two
    partitions' worth of locality; single-core here, so the anchor is the
    ratio to the 0.99-skew run)."""
    base, hot = run_sweep(
        [SweepPoint(_KVS_POINT, dict(system="mica", skew=0.99, nreq=nreq,
                                     closed_loop_window=32)),
         SweepPoint(_KVS_POINT, dict(system="mica", skew=0.9999, nreq=nreq,
                                     closed_loop_window=32))],
        jobs=jobs, cache=cache,
    )
    return {
        "thr_skew_099": base["throughput_mrps"],
        "thr_skew_09999": hot["throughput_mrps"],
        "hit_rate_099": base["hit_rate"],
        "hit_rate_09999": hot["hit_rate"],
    }


# --------------------------------------------------------------------- F3

#: Paper anchors: networking is ~40% of tier latency on average and up to
#: ~80% for User/UniqueID; it grows with load.
FIG3_PAPER = {"mean_network_fraction": 0.40, "max_network_fraction": 0.80}


def fig3_breakdown(loads_krps: Optional[List[float]] = None,
                   nreq: int = 4000, jobs: int = 1,
                   cache: bool = True) -> List[Dict]:
    """Fig 3: networking share of per-tier median/tail latency vs load."""
    loads = loads_krps or [8, 16, 21]
    per_load = run_sweep(
        [SweepPoint(_FIG3_POINT, dict(load_krps=load, nreq=nreq))
         for load in loads],
        jobs=jobs, cache=cache,
    )
    return [row for rows in per_load for row in rows]


# --------------------------------------------------------------------- F4

#: Paper anchors: 75% of requests < 512 B; >90% of responses < 64 B;
#: Text's median request ~580 B; Media/User/UniqueID never exceed 64 B.
FIG4_PAPER = {
    "requests_under_512": 0.75,
    "responses_under_64": 0.90,
    "text_median_request": 580,
}


def fig4_rpc_sizes(samples_per_tier: int = 2000) -> Dict:
    """Fig 4: RPC size CDF + per-tier medians for both applications."""
    social_req, social_resp = sample_sizes(
        SOCIAL_NETWORK_SIZES, samples_per_tier
    )
    media_req, media_resp = sample_sizes(MEDIA_SIZES, samples_per_tier)
    per_tier_medians = {
        tier: sizes.median_request()
        for tier, sizes in SOCIAL_NETWORK_SIZES.items()
    }
    return {
        "social_requests_under_512": request_size_cdf(social_req, 512),
        "social_responses_under_64": request_size_cdf(social_resp, 64),
        "media_requests_under_512": request_size_cdf(media_req, 512),
        "media_responses_under_64": request_size_cdf(media_resp, 64),
        "per_tier_median_request": per_tier_medians,
        "paper": FIG4_PAPER,
    }


# --------------------------------------------------------------------- F5


def fig5_interference(loads_krps: Optional[List[float]] = None,
                      nreq: int = 3000, jobs: int = 1,
                      cache: bool = True) -> List[Dict]:
    """Fig 5: end-to-end latency, networking on separate vs shared cores.

    Network interrupt routines are bound to 4 cores (N=4 as in the paper);
    the application tiers run either on the other cores (isolated) or on
    the same 4 cores (shared). See :func:`_fig5_point` for one cell.
    """
    grid = [(load, shared)
            for load in (loads_krps or [5, 10, 15])
            for shared in (False, True)]
    return run_sweep(
        [SweepPoint(_FIG5_POINT, dict(load_krps=load, shared=shared,
                                      nreq=nreq))
         for load, shared in grid],
        jobs=jobs, cache=cache,
    )


# ---------------------------------------------------------------- T4, F15

#: Table 4 anchors.
TABLE4_PAPER = {
    "simple": {"max_krps": 2.7, "p50_us": 13.3, "p90_us": 20.2,
               "p99_us": 23.8},
    "optimized": {"max_krps": 48.0, "p50_us": 23.4, "p90_us": 27.3,
                  "p99_us": 33.6},
}


def table4_flight(nreq: int = 4000, jobs: int = 1,
                  cache: bool = True) -> List[Dict]:
    """Table 4: highest sustainable load + lowest latency per model."""
    models = (
        ("simple", 0.025, [2.4, 2.8, 3.2]),
        ("optimized", 5.0, [30, 36, 40]),
    )
    points = []
    for model, latency_load, capacity_loads in models:
        optimized = model == "optimized"
        points.append(SweepPoint(_FLIGHT_POINT, dict(
            optimized=optimized, load_krps=latency_load,
            nreq=min(nreq, 2000),
        )))
        for load in capacity_loads:
            points.append(SweepPoint(_FLIGHT_POINT, dict(
                optimized=optimized, load_krps=load, nreq=nreq,
                measure_from_issue=True,
            )))
    results = iter(run_sweep(points, jobs=jobs, cache=cache))
    rows = []
    for model, latency_load, capacity_loads in models:
        latency = next(results)
        max_krps = 0.0
        for _ in capacity_loads:
            result = next(results)
            if result["drop_rate"] <= 0.01:
                max_krps = max(max_krps, result["throughput_krps"])
        paper = TABLE4_PAPER[model]
        rows.append({
            "model": model,
            "paper_max_krps": paper["max_krps"], "max_krps": max_krps,
            "paper_p50_us": paper["p50_us"], "p50_us": latency["p50_us"],
            "paper_p90_us": paper["p90_us"], "p90_us": latency["p90_us"],
            "paper_p99_us": paper["p99_us"], "p99_us": latency["p99_us"],
        })
    return rows


def fig15_flight_curves(loads_krps: Optional[List[float]] = None,
                        nreq: int = 4000, jobs: int = 1,
                        cache: bool = True) -> List[Dict]:
    """Fig 15: latency/load curves, Optimized threading model."""
    loads = loads_krps or [15, 20, 25, 30, 36, 42]
    results = run_sweep(
        [SweepPoint(_FLIGHT_POINT, dict(
            optimized=True, load_krps=load, nreq=nreq,
            measure_from_issue=True,
        )) for load in loads],
        jobs=jobs, cache=cache,
    )
    return [{"load_krps": load, **result}
            for load, result in zip(loads, results)]


# --------------------------------------------------------------------- §5.3


def sec53_raw_access() -> Dict:
    """Section 5.3: raw one-way shared-memory access, UPI vs PCIe DMA.

    Paper: ~400 ns over UPI, ~450 ns over PCIe.
    """
    from repro.hw.interconnect.ccip import make_interface
    from repro.hw.platform import Machine
    from repro.sim import Simulator

    results = {}
    for kind, key in (("upi", "upi_ns"), ("pcie-doorbell", "pcie_ns")):
        sim = Simulator()
        machine = Machine(sim, calibration=DEFAULT_CALIBRATION)
        interface = make_interface(kind, sim, DEFAULT_CALIBRATION,
                                   machine.fpga)

        def once():
            start = sim.now
            yield from interface.raw_read()
            return sim.now - start

        results[key] = sim.run_until_done(sim.spawn(once()))
    results["paper_upi_ns"] = 400
    results["paper_pcie_ns"] = 450
    return results


# ------------------------------------------------------------- sharded mesh


def mesh_scaling(shard_counts: Optional[List[int]] = None, hosts: int = 4,
                 nreq_per_host: int = 2000, jobs: int = 1,
                 cache: bool = True,
                 window_mode: str = "adaptive") -> List[Dict]:
    """Sharded-engine parity over the multi-host echo mesh (ISSUE 7).

    Runs the full-mesh closed-loop echo at each shard count through
    ``run_sweep`` and reports the *simulated* metrics plus a ``parity``
    flag: every row's result signature (everything except the shard count
    and window accounting) must be byte-identical to the serial row's.
    ``window_mode`` selects the horizon policy (``"adaptive"`` stretches
    conservative windows past hosts' declared egress bounds, ``"fixed"``
    is the classic one-lookahead grant); both must produce the same
    signature. Wall-clock scaling is deliberately not measured here — it
    belongs to ``benchmarks/perf/bench_kernel.py --scenario mesh``,
    outside the deterministic cache.
    """
    from repro.harness.mesh import mesh_signature

    counts = list(shard_counts or [1, 2, 4])
    if 1 not in counts:
        counts = [1] + counts
    results = run_sweep(
        [SweepPoint("repro.harness.mesh:run_echo_mesh", dict(
            hosts=hosts, shards=shards, nreq_per_host=nreq_per_host,
            window_mode=window_mode,
        )) for shards in counts],
        jobs=jobs, cache=cache,
    )
    serial = mesh_signature(results[counts.index(1)])
    return [{
        "shards": shards,
        "window_mode": result["window_mode"],
        "throughput_mrps": result["throughput_mrps"],
        "p50_us": result["p50_us"],
        "p99_us": result["p99_us"],
        "count": result["count"],
        "windows": result["windows"],
        "stretched_windows": result["stretched_windows"],
        "skipped_shard_rounds": result["skipped_shard_rounds"],
        "events_total": result["events_total"],
        "parity": mesh_signature(result) == serial,
    } for shards, result in zip(counts, results)]


# ------------------------------------------------------- rack-scale cluster


_CLUSTER_POINT = "repro.harness.cluster:run_cluster_point"


def cluster_slo(loads_krps: Optional[List[float]] = None,
                app: str = "social_network", machines: int = 8,
                policy: str = "p2c", modulation: str = "bursty",
                nreq: int = 2000, deadline_us: float = 500.0,
                seed: int = 11, mode: str = "exact", jobs: int = 1,
                cache: bool = True) -> List[Dict]:
    """End-to-end SLO attainment vs offered load at rack scale (ISSUE 9).

    Each point deploys the app as replica pools across ``machines``
    machines behind the ToR (``repro.harness.cluster``), drives it with
    Zipf-skewed session traffic at the given peak rate under the chosen
    arrival modulation, and reports the fraction of requests completing
    within ``deadline_us`` — measured from each request's *intended*
    arrival time, so entry-queueing counts against the SLO. The
    autoscaler is on: the per-tier replica counts in the result show
    which tier it had to grow.

    Deliberately serial-only (no ``shards``): replica selection is a
    dynamic per-call decision the conservative-window sharded engine
    cannot partition (see the ``repro.harness.cluster`` docstring).
    """
    loads = list(loads_krps or [30.0, 50.0, 70.0, 90.0])
    return run_sweep(
        [SweepPoint(_CLUSTER_POINT, dict(
            app=app, machines=machines, load_krps=load, nreq=nreq,
            policy=policy, modulation=modulation, deadline_us=deadline_us,
            seed=seed, mode=mode,
        )) for load in loads],
        jobs=jobs, cache=cache,
    )
