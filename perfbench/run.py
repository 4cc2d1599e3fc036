"""The simulator benchmark: host RPC rate and simulated outputs, one command.

    python3 perfbench/run.py --workload echo --seed 1 --seconds 20 --trace 0

Workloads: ``echo``, ``cluster``, ``lossy``, ``mesh`` (see README.md).
Every repetition runs in a fresh interpreter (``rep.py``), back to back
until ``--seconds`` have passed. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer ledger. Host times are scaled to a reference machine
by a speed probe sampled during each repetition (see ``reference_s``). The
last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``. The exit code is non-zero when any
output check fails or a repetition crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REP = os.path.join(HERE, "rep.py")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from workloads import DEADLINE_NS, WORKLOADS  # noqa: E402

#: A run never outlives this, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0

#: Never used while the benchmark was built; gain claims must hold on it.
HELD_OUT_SEED = 104729

#: Seconds one speed probe (``rep.probe``) takes on the reference machine,
#: a 2-core x86-64 VM under Python 3.11. Host times are scaled by
#: ``PROBE_REFERENCE_S / measured`` (see ``reference_s``).
PROBE_REFERENCE_S = 0.0008


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, deadline: float, *, trace=False,
            spans="", shards=None) -> dict:
    command = [sys.executable, REP, "--workload", workload,
               "--seed", str(seed)]
    if trace:
        command += ["--trace", "--spans", spans]
    if shards is not None:
        command += ["--shards", str(shards)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepFailed("out of time before a repetition could start")
    t0 = time.monotonic()
    # A session of its own, so a repetition that overruns is stopped with
    # the shard workers it forked.
    child = subprocess.Popen(command + ["--t0", repr(t0)], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RepFailed(f"{workload} seed {seed} ran past the time limit")
    if child.returncode != 0:
        raise RepFailed(f"{workload} seed {seed} exited {child.returncode}:\n"
                        + stderr[-3000:])
    return json.loads(stdout.strip().splitlines()[-1])


def warm_up() -> None:
    """Import every entry point once so ``.pyc`` files exist (untimed)."""
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {SRC!r}); import repro.harness."
         "cluster, repro.harness.mesh, repro.chaos.rig"],
        cwd=ROOT, check=True, timeout=120)


def commit() -> str:
    """The checked-out commit, read without running git (may be absent)."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as head:
            ref = head.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as target:
                return target.read().strip()
        return ref
    except OSError:
        return "unknown"


def reference_s(rep, phase="run"):
    """A repetition's host seconds in ``phase`` ("run" or "setup"), scaled
    to the reference machine by the speed probe's mean in that phase.

    The machine is shared and its speed swings by tens of percent within
    seconds; the simulator and the probe interleaved with it slow down
    together, so the scaled time stays put while the raw time moves.
    """
    return rep[f"{phase}_s"] * PROBE_REFERENCE_S / rep[f"{phase}_probe_s"]


# -- end-to-end ------------------------------------------------------------------


def end_to_end(workload, reps, distinct):
    """``distinct``: the first repetition of each seed the run simulated."""
    from repro.sim.stats import percentile

    outcomes = [rep["outcome"] for rep in distinct]
    per_seed = [sorted(o["samples"]) for o in outcomes]
    samples = sum(len(data) for data in per_seed)
    failed = sum(o["failed"] for o in outcomes)
    met = sum(1 for data in per_seed for latency in data
              if latency <= DEADLINE_NS)

    def mean_percentile(pct):
        """Each seed's percentile, averaged over the seeds simulated."""
        return fmean(percentile(data, pct, presorted=True)
                                for data in per_seed) / 1e3

    return {
        "rpcs_per_host_s": (median(workload.rpcs / reference_s(r)
                                   for r in reps), "1/s"),
        "setup_s": (median(reference_s(r, "setup") for r in reps), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in reps), "MB"),
        "sim_p50_us": (mean_percentile(50), "us"),
        "sim_p99_us": (mean_percentile(99), "us"),
        "sim_samples": (samples, "count"),
        "sim_throughput_rps": (
            fmean(o["sim_throughput_rps"] for o in outcomes),
            "1/s"),
        "completed_frac": (sum(o["completed"] for o in outcomes)
                           / sum(o["attempted"] for o in outcomes), "ratio"),
        "slo_attainment": (met / (samples + failed), "ratio"),
    }


# -- per layer -------------------------------------------------------------------


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(workload, untraced, traced):
    ledger = traced[0]["ledger"]
    counts = ledger["counts"]
    calls = counts["calls"]
    extras = traced[0]["outcome"]["extras"]
    rpcs = workload.rpcs

    def self_s(layer):
        return (median(rep["ledger"]["self_s"][layer] * PROBE_REFERENCE_S
                       / rep["run_probe_s"] for rep in traced), "s")

    def per_rpc(value):
        return (value / rpcs, "1/rpc")

    def calls_of(*suffixes):
        return sum(count for label, count in calls.items()
                   if label.endswith(suffixes))

    spawns, resumes = counts["spawns"], counts["resumes"]
    nic, switch = counts["nic"], counts["switch"]
    transport, congestion = counts["transport"], counts["congestion"]
    packets = switch["packets"]
    untraced_s = median(reference_s(rep) for rep in untraced)
    return {
        "kernel.self_s": self_s("kernel"),
        "kernel.spawns_per_rpc": per_rpc(sum(spawns.values())),
        "kernel.timeouts_per_rpc": per_rpc(counts["timed_waits"]),
        "process.resumes_per_rpc": per_rpc(sum(resumes.values())),
        "resources.self_s": self_s("resources"),
        "resources.fastpath_ratio": (
            _ratio(counts["fast_ok"], calls_of(".try_acquire", ".try_put",
                                               ".try_get") + counts["evented"]),
            "ratio"),
        "resources.evented_waits_per_rpc": per_rpc(counts["evented"]),
        "nic.self_s": self_s("nic"),
        "nic.resumes_per_rpc": per_rpc(resumes["nic"]),
        "nic.spawns_per_rpc": per_rpc(spawns["nic"]),
        "nic.conn_cache_hit_ratio": (
            _ratio(nic["cache_hits"], nic["cache_hits"] + nic["cache_misses"]),
            "ratio"),
        "nic.ring_drops": (nic["ring_drops"], "count"),
        "switch.self_s": self_s("switch"),
        "switch.packets_per_rpc": per_rpc(packets),
        "switch.spawns_per_packet": (_ratio(spawns["switch"], packets),
                                     "1/packet"),
        "interconnect.self_s": self_s("interconnect"),
        "interconnect.transfers_per_rpc": per_rpc(
            calls_of(".host_to_nic", ".nic_to_host")),
        "cpu.self_s": self_s("cpu"),
        "cpu.execs_per_rpc": per_rpc(
            calls_of("Core.execute", "SoftwareThread.begin_exec")),
        "rpc.self_s": self_s("rpc"),
        "rpc.resumes_per_rpc": per_rpc(resumes["rpc"]),
        "transport.self_s": self_s("transport"),
        "transport.retx_per_wire_drop": (
            _ratio(transport["retransmissions"], switch["dropped"]),
            "1/drop"),
        "transport.useful_retx_ratio": (
            1.0 - transport["duplicates_dropped"]
            / transport["retransmissions"]
            if transport["retransmissions"] else 0.0, "ratio"),
        "congestion.self_s": self_s("congestion"),
        "congestion.grants_per_rpc": per_rpc(congestion["grants_sent"]),
        "congestion.credit_repairs": (congestion["credit_repairs"], "count"),
        "sharded.self_s": self_s("sharded"),
        "sharded.windows_per_rpc": per_rpc(extras.get("windows", 0)),
        "sharded.boundary_bytes_per_rpc": (
            extras.get("boundary_bytes", 0) / rpcs, "B/rpc"),
        "sharded.events_per_host_s": (extras.get("events", 0) / untraced_s,
                                      "1/s"),
        "cluster.lb_self_s": self_s("cluster_lb"),
        "cluster.rpcs_per_request": (calls_of("RpcClient.call_async") / rpcs,
                                     "1/request"),
        "cluster.autoscale_events": (extras.get("autoscale_events", 0),
                                     "count"),
        "sessions.self_s": self_s("sessions"),
        "apps.self_s": self_s("apps"),
        "harness.self_s": self_s("harness"),
        "other.self_s": self_s("other"),
        "trace.spans_per_rpc": per_rpc(counts["spans"]),
        "trace.overhead_ratio": (
            median(reference_s(rep) for rep in traced) / untraced_s,
            "ratio"),
    }


# -- checks ----------------------------------------------------------------------


def check_outputs(reps):
    """Every workload check of every repetition, plus same-seed identity."""
    failures = []
    signatures = {}
    for index, rep in enumerate(reps):
        outcome = rep["outcome"]
        for name, ok in outcome["checks"].items():
            if not ok:
                failures.append(f"rep {index} (seed {rep['seed']}): {name}")
        first = signatures.setdefault(rep["seed"], outcome["signature"])
        if outcome["signature"] != first:
            failures.append(f"rep {index} (seed {rep['seed']}): simulated "
                            "outputs differ from an earlier run of the seed")
    return failures


def check_traced(traced):
    failures = []
    first = traced[0]["ledger"]["counts"]
    for rep in traced[1:]:
        if rep["ledger"]["counts"] != first:
            failures.append("traced counts differ between two traced runs "
                            "of the same seed")
    extras = traced[0]["outcome"]["extras"]
    if "retransmissions" in extras:
        seen = first["transport"]["retransmissions"]
        if seen != extras["retransmissions"]:
            failures.append(f"ledger saw {seen} retransmissions, the result "
                            f"reports {extras['retransmissions']}")
    return failures


# -- driver ----------------------------------------------------------------------


def measure(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    stop = start + seconds
    seeds = [seed * workload.seeds_per_run + k
             for k in range(workload.seeds_per_run)]
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spans = os.path.join(OUT, "spans", name)
    untraced, traced = [], []
    failures = []
    if not trace:
        # Every seed once and the first half of them twice, so same-seed
        # identity is always checked.
        while (len(untraced) < len(seeds) + (len(seeds) + 1) // 2
               or time.monotonic() < stop):
            untraced.append(run_rep(name, seeds[len(untraced) % len(seeds)],
                                    deadline))
        distinct = [untraced[k] for k in range(len(seeds))]
        metrics = end_to_end(workload, untraced, distinct)
    else:
        # Two traced runs at least: their counts must repeat exactly.
        while (len(traced) < 2 or time.monotonic() < stop):
            if len(untraced) <= len(traced):
                untraced.append(run_rep(name, seeds[0], deadline))
            else:
                traced.append(run_rep(name, seeds[0], deadline, trace=True,
                                      spans=spans))
        failures += check_traced(traced)
        metrics = per_layer(workload, untraced, traced)
    if name == "mesh":
        serial = run_rep(name, seeds[0], deadline, shards=1)
        if serial["outcome"]["signature"] != untraced[0]["outcome"]["signature"]:
            failures.append("mesh differs from its shards=1 run")
    reps = untraced + traced
    failures = check_outputs(reps) + failures
    raw = {key: median(rep[key] for rep in untraced)
           for key in ("run_s", "setup_s", "run_probe_s", "setup_probe_s")}
    env = {
        "workload": name,
        "seed": seed,
        "seeds_simulated": seeds if not trace else seeds[:1],
        "loop": workload.loop,
        "load": workload.load,
        "rpcs_per_rep": workload.rpcs,
        "untraced_reps": len(untraced),
        "traced_reps": len(traced),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "wall_s": time.monotonic() - start,
        "raw_host_medians": raw,
    }
    return env, metrics, failures, reps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no simulator source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        warm_up()
        env, metrics, failures, reps = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepFailed, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    print("env: " + json.dumps(env, sort_keys=True))
    for metric, (value, unit) in metrics.items():
        print(f"{metric:34s} {value:>16.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    record = dict(env, metrics={k: v for k, (v, _) in metrics.items()},
                  failures=failures,
                  reps=[{key: value for key, value in rep.items()
                         if key != "outcome"} for rep in reps])
    with open(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    attempted = sum(rep["outcome"]["attempted"] for rep in reps)
    failed = sum(rep["outcome"]["failed"] for rep in reps)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
