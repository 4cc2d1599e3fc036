"""Common interface for CPU-NIC interconnect models.

Each interface answers four questions for the NIC and the software stack:

1. How much *extra CPU time* does transmitting one request cost, beyond the
   baseline ring store? (MMIO doorbells and MMIO payload writes are CPU
   work; coherent-bus stores are not.)
2. How long is the NIC's per-flow fetch engine *occupied* issuing the read
   for a batch? This serial pacing is the per-flow throughput bound (123 ns
   per UPI read transaction at batch 1 -> 8.1 Mrps, Fig 10).
3. How long until the data actually *arrives* at the NIC (latency), and how
   much shared endpoint bandwidth does it consume?
4. Same, for the NIC-to-host direction.

Questions 3 and 4 are one method, :meth:`CpuNicInterface.transfer_ns`; the
base class turns its answer into a :meth:`CpuNicInterface.transfer`, a
chain of timed callbacks the NIC data path hangs its next step on.

``TransferMode.FETCH`` interfaces (doorbell, UPI) have the NIC pull data out
of software rings; ``TransferMode.PUSH`` (MMIO) has the CPU write payloads
straight into the device, so there is no fetch step at all.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional, Tuple

from repro.hw.calibration import Calibration
from repro.sim.kernel import Event, Simulator
from repro.sim.resources import Resource


class TransferMode(enum.Enum):
    FETCH = "fetch"  # NIC pulls requests from host rings
    PUSH = "push"  # CPU pushes requests into the NIC over MMIO


def _release_and_land(event: Event) -> None:
    endpoint, latency_ns, callback, value = event.value
    endpoint.release()
    endpoint.sim.call_later(latency_ns, callback, value)


def _resume_waiter(event: Event) -> None:
    """Fire the waiting process's event inline, in this timer's slot.

    The process forms yield a plain event and are resumed from the final
    timer directly, the way a process's own ``yield latency`` would resume
    it, rather than one now-queue hop later.
    """
    done = event.value
    done.triggered = True
    done._run_callbacks()


class CpuNicInterface:
    """Base class for CPU-NIC interface models."""

    name: str = "base"
    mode: TransferMode = TransferMode.FETCH
    #: Optional repro.obs.SpanTracer; transfers are bulk events (a CCI-P
    #: read moves a whole batch), so they are aggregated per component.
    tracer = None

    def __init__(
        self,
        sim: Simulator,
        calibration: Calibration,
        endpoint: Resource,
        write_endpoint: Optional[Resource] = None,
    ):
        self.sim = sim
        self.calibration = calibration
        self.endpoint = endpoint
        # Reads (host->NIC fetch) and writes (NIC->host delivery) go through
        # separate engines in the blue-region IP; sharing one would halve
        # the end-to-end cap relative to the raw-read cap, which is not what
        # Fig 11 (right) shows (~80 Mrps raw vs ~84 Mmsg/s end-to-end).
        self.write_endpoint = write_endpoint or endpoint
        self.lines_transferred = 0
        self.transactions = 0
        # Per-direction split of lines_transferred (host->NIC fetches vs
        # NIC->host deliveries) for the timeline probes.
        self.lines_to_nic = 0
        self.lines_to_host = 0

    # -- CPU-side costs ------------------------------------------------------

    def tx_cpu_cost_ns(self, lines: int, batch: int) -> int:
        """Extra CPU ns per request for this interface (beyond ring store)."""
        raise NotImplementedError

    # -- NIC-side fetch pacing -------------------------------------------------

    def issue_occupancy_ns(self, lines: int) -> int:
        """Serial occupancy of a flow's fetch FSM to issue one batched read."""
        raise NotImplementedError

    # -- transfers (host -> NIC fetch, NIC -> host delivery) -----------------

    def transfer_ns(self, lines: int, to_nic: bool) -> Tuple[int, int]:
        """``(endpoint occupancy, one-way latency)`` of moving ``lines``."""
        raise NotImplementedError

    def transfer(self, lines: int, to_nic: bool,
                 callback: Callable[[Event], None], value: Any = None) -> None:
        """Move ``lines`` cache lines; ``callback(event)`` runs on arrival.

        ``event.value`` is ``value``. The transfer holds the direction's
        shared engine (read endpoint host->NIC, write endpoint NIC->host)
        for the occupancy, FIFO behind earlier transfers, then lands after
        the one-way latency. Every step is a timed callback in the slot the
        equivalent process would take (see :meth:`Simulator.call_later`),
        so no process is spawned per transfer.
        """
        self._account(lines, to_nic)
        occupancy, latency = self.transfer_ns(lines, to_nic)
        self._occupy(self.endpoint if to_nic else self.write_endpoint,
                     occupancy, latency, callback, value)

    def host_to_nic(self, lines: int) -> Generator:
        """Process form of :meth:`transfer` to the NIC; yields until arrival."""
        done = Event(self.sim)
        self.transfer(lines, True, _resume_waiter, done)
        yield done

    def nic_to_host(self, lines: int) -> Generator:
        """Process form of :meth:`transfer` into a host RX buffer."""
        done = Event(self.sim)
        self.transfer(lines, False, _resume_waiter, done)
        yield done

    # -- shared helpers --------------------------------------------------------

    def _occupy(self, endpoint: Resource, occupancy_ns: int, latency_ns: int,
                callback: Callable[[Event], None], value: Any) -> None:
        """Hold ``endpoint`` (FIFO, pipelined), release it, then land."""
        step = (endpoint, latency_ns, callback, value)
        call_later = self.sim.call_later
        if endpoint.try_acquire():
            call_later(occupancy_ns, _release_and_land, step)
        else:
            endpoint.request().callbacks.append(
                lambda _grant: call_later(occupancy_ns, _release_and_land,
                                          step))

    def _read(self, occupancy_ns: int, latency_ns: int) -> Generator:
        """Process form of one read through the shared read engine."""
        done = Event(self.sim)
        self._occupy(self.endpoint, occupancy_ns, latency_ns,
                     _resume_waiter, done)
        yield done

    def _account(self, lines: int, to_nic: bool = True) -> None:
        self.lines_transferred += lines
        self.transactions += 1
        if to_nic:
            self.lines_to_nic += lines
        else:
            self.lines_to_host += lines
        if self.tracer is not None:
            self.tracer.record_transfer(self.name, lines, self.sim.now)

    # -- telemetry -----------------------------------------------------------

    def enable_usage(self) -> None:
        """Exact endpoint-occupancy accounting on both engines (idempotent)."""
        self.endpoint.enable_usage()
        if self.write_endpoint is not self.endpoint:
            self.write_endpoint.enable_usage()

    def timeline_probes(self):
        """Timeline probe set: per-direction line counters + exact endpoint
        busy integrals (capacity-normalized, so the windowed derivative is
        the endpoint utilization)."""
        self.enable_usage()
        sim = self.sim
        probes = [
            ("lines_to_nic", "counter", lambda: self.lines_to_nic),
            ("lines_to_host", "counter", lambda: self.lines_to_host),
        ]
        engines = [("read_endpoint", self.endpoint)]
        if self.write_endpoint is not self.endpoint:
            engines.append(("write_endpoint", self.write_endpoint))
        for label, engine in engines:
            probes.append((
                f"{label}_busy_ns", "counter",
                lambda e=engine: e.usage.busy_integral(
                    sim.now, e._in_use) / e.capacity,
            ))
            probes.append((f"{label}_queue", "gauge",
                           lambda e=engine: len(e._waiters)))
        return probes
