"""One measured repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload echo --seed 1 --t0 <monotonic> \
        [--trace] [--spans PATH] [--shards N]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter
start, importing ``repro`` and building the rig, up to the first entry
into a simulator run loop (for the sharded mesh: the first window sent to
a shard worker). The timed region runs from there until the entry point
returns. Both are reported net of the speed probe's own time, with the
probe's mean duration in each phase. Prints one JSON object on its last
line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from heapq import heappop, heappush

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: How often the speed probe interrupts the repetition.
PROBE_INTERVAL_S = 0.05


def probe() -> None:
    """A fixed event loop that does not use ``repro``: generators resumed
    from a heap, the simulator's own pattern, about 1 ms of work."""
    heap = []
    for index in range(25):
        heappush(heap, (0, index, _probe_process(index)))
    while heap:
        now, index, process = heappop(heap)
        try:
            delay = process.send(None)
        except StopIteration:
            continue
        heappush(heap, (now + delay, index, process))


def _probe_process(index: int):
    for step in range(40):
        yield 1 + (index * 7 + step) % 13


class SpeedProbe:
    """Samples how fast the host runs Python while a repetition runs.

    An interval timer interrupts the process every ``PROBE_INTERVAL_S`` and
    times one :func:`probe`. The mean probe duration over a phase is that
    phase's machine speed; the probes' own time is subtracted from it.
    When a ledger is tracing, the probe's time is kept out of the self
    time of the span it interrupted.
    """

    def __init__(self, ledger=None):
        self.samples: list = []  # (monotonic start, seconds), this process
        #: Samples shipped back by shard worker processes, which probe
        #: themselves: that is where the sharded mesh does its work.
        self.worker_samples: list = []
        self._ledger = ledger

    def _tick(self, signum, frame) -> None:
        start = time.monotonic()
        probe()
        seconds = time.monotonic() - start
        self.samples.append((start, seconds))
        if self._ledger is not None:
            self._ledger.exclude(seconds)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def restart_in_worker(self) -> None:
        """After a fork: probe the worker from scratch (timers are not
        inherited)."""
        self.samples.clear()
        self.start()

    def phase(self, begin: float, end: float):
        """``(this process's probe seconds in [begin, end), mean probe
        seconds over every process in it)``."""
        own = [seconds for start, seconds in self.samples
               if begin <= start < end]
        every = own + [seconds for start, seconds in self.worker_samples
                       if begin <= start < end]
        if not every:
            every = [seconds for _, seconds in self.samples]
        return sum(own), sum(every) / len(every)


def relay_from_workers(payload, consume) -> None:
    """Ship ``payload(runtime)`` from each forked shard worker to
    ``consume`` in this process.

    Workers are forked, so they inherit every patch made here. The payload
    rides on the per-host results a worker already returns when it
    finishes, and is taken off before the coordinator parses them.
    """
    from repro.sim import sharded

    parent = os.getpid()
    finish = sharded._ShardRuntime.finish
    remote_finish = sharded._RemoteShard.finish

    def worker_finish(self):
        results = finish(self)
        if os.getpid() != parent:
            results["perfbench"] = payload(self)
        return results

    def coordinator_finish(self):
        results = remote_finish(self)
        consume(results.pop("perfbench"))
        return results

    sharded._ShardRuntime.finish = worker_finish
    sharded._RemoteShard.finish = coordinator_finish


class FirstEvent:
    """Marks the first entry into any simulator run loop."""

    def __init__(self):
        self.at = None

    def install(self) -> None:
        from repro.sim import sharded
        from repro.sim.kernel import Simulator

        for cls, method in ((Simulator, "run"), (Simulator, "run_until_done"),
                            (Simulator, "run_horizon"),
                            (sharded._RemoteShard, "send_window")):
            setattr(cls, method, self._marking(getattr(cls, method)))

    def _marking(self, function):
        def marking(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
            return function(*args, **kwargs)

        return marking


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="")
    parser.add_argument("--shards", type=int, default=None)
    args = parser.parse_args()

    ledger = None
    if args.trace:
        import ledger as ledger_module

        ledger = ledger_module.Ledger()
    speed = SpeedProbe(ledger)
    speed.start()
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if ledger is not None:
        ledger_module.install(ledger)
    first = FirstEvent()
    first.install()

    def worker_payload(runtime) -> dict:
        speed.stop()
        data = {"probes": speed.samples}
        if ledger is not None:
            data["ledger"] = ledger.snapshot()
            if args.spans:
                ledger.dump(f"{args.spans}.shard{min(runtime.hosts)}")
        return data

    def consume(data: dict) -> None:
        speed.worker_samples.extend(data["probes"])
        if ledger is not None:
            ledger.children.append(data["ledger"])

    # The ledger needs no reset in a worker: nothing is traced before the
    # coordinator forks.
    os.register_at_fork(after_in_child=speed.restart_in_worker)
    relay_from_workers(worker_payload, consume)

    if args.shards is not None:
        outcome = workload.run(args.seed, shards=args.shards)
    else:
        outcome = workload.run(args.seed)
    end = time.monotonic()
    speed.stop()

    setup_probe, setup_speed = speed.phase(args.t0, first.at)
    run_probe, run_speed = speed.phase(first.at, end)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "seed": args.seed,
        "setup_s": first.at - args.t0 - setup_probe,
        "setup_probe_s": setup_speed,
        "run_s": end - first.at - run_probe,
        "run_probe_s": run_speed,
        # ru_maxrss is in KiB on Linux; shard workers count separately.
        "peak_rss_mb": (usage_self + usage_children) / 1024.0,
        "outcome": vars(outcome),
    }
    if ledger is not None:
        report["ledger"] = ledger.snapshot()
        if args.spans:
            ledger.dump(args.spans)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
