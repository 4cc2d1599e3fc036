"""UPI coherent-interconnect CPU-NIC interface — the Dagger design.

The CPU's only per-RPC work is storing the ready-to-use RPC object into a
shared ring (two AVX-256 stores for 64 B); the coherence protocol moves the
data. The NIC's per-flow RX FSM polls its Host Coherent Cache and, on
invalidation, pulls the lines from the host LLC (section 4.4.1).

Model:

- per-flow read-transaction issue occupancy ``upi_flow_read_ns`` (+
  ``upi_read_line_ns`` per extra line in a CCI-P batch) — this serial
  pacing is the 8.1 Mrps bound at batch 1;
- shared blue-region endpoint occupancy ``upi_endpoint_line_ns`` per line —
  the ~80 Mrps aggregate cap of Fig 11 (right);
- one-way data latency ``upi_oneway_ns`` (400 ns, section 4.4), pipelined
  across up to 128 outstanding transactions.
"""

from __future__ import annotations

from typing import Generator, Tuple

from repro.hw.interconnect.base import CpuNicInterface, TransferMode


class UpiInterface(CpuNicInterface):
    """Coherent-memory interface over Intel UPI via CCI-P."""

    name = "upi"
    mode = TransferMode.FETCH

    def tx_cpu_cost_ns(self, lines: int, batch: int) -> int:
        # The whole point of the design: no doorbells, no MMIO. The ring
        # store itself is already accounted as the baseline CPU tx cost.
        del lines, batch
        return 0

    def issue_occupancy_ns(self, lines: int) -> int:
        if lines < 1:
            raise ValueError(f"lines must be >= 1, got {lines}")
        return (self.calibration.upi_flow_read_ns
                + (lines - 1) * self.calibration.upi_read_line_ns)

    def transfer_ns(self, lines: int, to_nic: bool) -> Tuple[int, int]:
        calibration = self.calibration
        return (calibration.upi_endpoint_line_ns * lines,
                calibration.upi_oneway_ns if to_nic
                else calibration.upi_nic_to_host_ns)

    def raw_read(self) -> Generator:
        """One raw coherent read of a shared line (§5.3: ~400 ns)."""
        self._account(1)
        yield from self._read(self.calibration.upi_endpoint_line_ns,
                              self.calibration.upi_oneway_ns)
