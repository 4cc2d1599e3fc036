"""PCIe-based CPU-NIC interfaces: WQE-by-MMIO and (batched) doorbells.

These are the baselines of Fig 10. Their costs follow Kalia et al.'s design
guidelines as cited by the paper (section 4.4.1):

- MMIO transfer: the CPU writes each 64 B chunk of the RPC with two AVX-256
  stores into non-cacheable BAR space. One PCIe transaction per request,
  lowest PCIe latency, but the CPU pays for every byte -> ~4.2 Mrps/core.
- Doorbell: the CPU stores the request into a DMA-visible ring, then issues
  one MMIO doorbell; the NIC DMA-reads descriptor + payload. Doorbell
  batching amortizes the MMIO over B requests.
"""

from __future__ import annotations

from typing import Generator, Tuple

from repro.hw.calibration import Calibration
from repro.hw.interconnect.base import CpuNicInterface, TransferMode


def _pcie_line_ns(calibration: Calibration) -> int:
    """Shared-engine occupancy of one cache line over PCIe."""
    return max(1, int(calibration.cache_line_bytes
                      / calibration.eth_bytes_per_ns))


class PcieMmioInterface(CpuNicInterface):
    """WQE-by-MMIO: payloads pushed by the CPU over MMIO writes."""

    name = "pcie-mmio"
    mode = TransferMode.PUSH

    def tx_cpu_cost_ns(self, lines: int, batch: int) -> int:
        # Two 32 B AVX MMIO stores per cache line; batching does not help
        # because every byte still crosses as CPU-issued MMIO.
        del batch
        return 2 * self.calibration.mmio_store32_ns * lines

    def issue_occupancy_ns(self, lines: int) -> int:
        del lines
        return 0  # push mode: the NIC does not fetch

    def transfer_ns(self, lines: int, to_nic: bool) -> Tuple[int, int]:
        # The MMIO write's propagation through the PCIe fabric (to the NIC)
        # or the NIC's RX-buffer write (to the host).
        calibration = self.calibration
        return (_pcie_line_ns(calibration) * lines,
                calibration.pcie_mmio_deliver_ns if to_nic
                else calibration.pcie_nic_to_host_ns)


class PcieDoorbellInterface(CpuNicInterface):
    """Classic doorbell DMA, optionally with doorbell batching.

    ``batch`` at the call sites is the number of requests rung per doorbell
    (B in Fig 10); the MMIO cost is divided across the batch.
    """

    name = "pcie-doorbell"
    mode = TransferMode.FETCH

    def tx_cpu_cost_ns(self, lines: int, batch: int) -> int:
        del lines
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        # One doorbell MMIO per batch (amortized) + per-request descriptor
        # bookkeeping in the DMA-visible ring.
        return (self.calibration.doorbell_ring_ns
                + -(-self.calibration.mmio_doorbell_ns // batch))

    def issue_occupancy_ns(self, lines: int) -> int:
        # The DMA engine issues descriptor+payload reads; modelled as a
        # short per-transaction issue slot (DMA engines pipeline well; the
        # CPU-side doorbell is the real bottleneck for this interface).
        return 40 + 4 * lines

    def transfer_ns(self, lines: int, to_nic: bool) -> Tuple[int, int]:
        calibration = self.calibration
        return (_pcie_line_ns(calibration) * lines,
                calibration.pcie_doorbell_fetch_ns if to_nic
                else calibration.pcie_nic_to_host_ns)

    def raw_read(self) -> Generator:
        """One raw PCIe DMA read of a shared-memory line (§5.3: ~450 ns)."""
        self._account(1)
        yield from self._read(4, self.calibration.pcie_dma_oneway_ns)
