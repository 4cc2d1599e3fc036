"""Ethernet MAC/PHY serialization model.

The NIC's transport unit hands serialized RPC packets to the MAC/PHY, which
puts them on the wire at line rate. Serialization delay is bytes / rate; the
port is a single serial resource, so back-to-back packets queue behind each
other exactly like a real egress port.
"""

from __future__ import annotations

from repro.hw.calibration import Calibration
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

ETHERNET_OVERHEAD_BYTES = 24  # preamble + FCS + min IFG equivalents
MIN_FRAME_BYTES = 64


class EthernetPort:
    """One egress port serializing frames at ``calibration.eth_bytes_per_ns``."""

    def __init__(self, sim: Simulator, calibration: Calibration, name: str = "eth"):
        self.sim = sim
        self.calibration = calibration
        self.name = name
        self._port = Resource(sim, capacity=1, name=name)
        self.frames = 0
        self.bytes = 0

    def enable_usage(self):
        """Exact port-occupancy accounting (idempotent)."""
        return self._port.enable_usage()

    def timeline_probes(self):
        """Timeline probe set: exact link-busy integral, queue, counters."""
        usage = self.enable_usage()
        port = self._port
        sim = self.sim
        return [
            ("busy_ns", "counter",
             lambda: usage.busy_integral(sim.now, port._in_use)),
            ("queue", "gauge", lambda: len(port._waiters)),
            ("tx_bytes", "counter", lambda: self.bytes),
            ("tx_frames", "counter", lambda: self.frames),
        ]

    def serialize(self, payload_bytes: int) -> int:
        """Count one frame onto the wire; return its serialization time.

        The frame is padded to the Ethernet minimum, pays the preamble/FCS/
        IFG overhead, and leaves at line rate with a 1 ns floor. The caller
        holds the port (``_port``) for the returned time.
        """
        if payload_bytes < 0:
            raise ValueError(f"negative payload {payload_bytes}")
        wire_bytes = (max(MIN_FRAME_BYTES, payload_bytes)
                      + ETHERNET_OVERHEAD_BYTES)
        self.frames += 1
        self.bytes += wire_bytes
        return max(1, int(wire_bytes / self.calibration.eth_bytes_per_ns))
