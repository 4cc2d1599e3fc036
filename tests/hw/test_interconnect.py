"""Unit tests for the PCIe/UPI interconnect models."""

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.interconnect import (
    CcipMux,
    PcieDoorbellInterface,
    PcieMmioInterface,
    TransferMode,
    UpiInterface,
    make_interface,
)
from repro.hw.platform import Machine
from repro.sim import Simulator

CAL = DEFAULT_CALIBRATION


def build(kind):
    sim = Simulator()
    machine = Machine(sim, calibration=CAL)
    return sim, make_interface(kind, sim, CAL, machine.fpga)


def run_one(sim, generator):
    start = sim.now

    def proc():
        yield from generator
        return sim.now - start

    return sim.run_until_done(sim.spawn(proc()))


# ---------------------------------------------------------------- factory


def test_make_interface_kinds():
    sim = Simulator()
    machine = Machine(sim)
    assert isinstance(make_interface("upi", sim, CAL, machine.fpga),
                      UpiInterface)
    assert isinstance(make_interface("pcie-mmio", sim, CAL, machine.fpga),
                      PcieMmioInterface)
    assert isinstance(
        make_interface("pcie-doorbell", sim, CAL, machine.fpga),
        PcieDoorbellInterface,
    )


def test_make_interface_unknown():
    sim = Simulator()
    machine = Machine(sim)
    with pytest.raises(ValueError, match="unknown interface"):
        make_interface("infiniband", sim, CAL, machine.fpga)


def test_ccip_mux_tracks_interfaces():
    sim = Simulator()
    machine = Machine(sim)
    mux = CcipMux(sim, CAL, machine.fpga)
    upi = mux.interface("upi")
    pcie = mux.interface("pcie-doorbell")
    assert len(mux.issued) == 2
    assert upi.endpoint is machine.fpga.upi_endpoint
    assert pcie.endpoint is machine.fpga.pcie_endpoint


# -------------------------------------------------------------------- UPI


def test_upi_tx_cpu_cost_is_zero():
    _, upi = build("upi")
    assert upi.tx_cpu_cost_ns(1, 1) == 0
    assert upi.tx_cpu_cost_ns(10, 16) == 0


def test_upi_issue_occupancy():
    _, upi = build("upi")
    assert upi.issue_occupancy_ns(1) == CAL.upi_flow_read_ns
    assert upi.issue_occupancy_ns(4) == (CAL.upi_flow_read_ns
                                         + 3 * CAL.upi_read_line_ns)
    with pytest.raises(ValueError):
        upi.issue_occupancy_ns(0)


def test_upi_host_to_nic_latency():
    sim, upi = build("upi")
    elapsed = run_one(sim, upi.host_to_nic(1))
    assert elapsed == CAL.upi_endpoint_line_ns + CAL.upi_oneway_ns


def test_upi_nic_to_host_latency():
    sim, upi = build("upi")
    elapsed = run_one(sim, upi.nic_to_host(1))
    assert elapsed == CAL.upi_endpoint_line_ns + CAL.upi_nic_to_host_ns


def test_upi_raw_read_near_400ns():
    sim, upi = build("upi")
    elapsed = run_one(sim, upi.raw_read())
    assert abs(elapsed - 400) < 30


def test_upi_mode_is_fetch():
    _, upi = build("upi")
    assert upi.mode is TransferMode.FETCH


def test_upi_accounting():
    sim, upi = build("upi")
    run_one(sim, upi.host_to_nic(4))
    assert upi.lines_transferred == 4
    assert upi.transactions == 1


def test_upi_endpoint_serializes_aggregate_bandwidth():
    sim, upi = build("upi")
    finishes = []

    def reader():
        yield from upi.host_to_nic(1)
        finishes.append(sim.now)

    for _ in range(3):
        sim.spawn(reader())
    sim.run()
    # Endpoint occupancy staggers arrivals by upi_endpoint_line_ns each.
    assert finishes[1] - finishes[0] == CAL.upi_endpoint_line_ns
    assert finishes[2] - finishes[1] == CAL.upi_endpoint_line_ns


# -------------------------------------------------------------------- PCIe


def test_mmio_mode_is_push():
    _, mmio = build("pcie-mmio")
    assert mmio.mode is TransferMode.PUSH
    assert mmio.issue_occupancy_ns(4) == 0


def test_mmio_tx_cpu_cost_scales_with_lines():
    _, mmio = build("pcie-mmio")
    one = mmio.tx_cpu_cost_ns(1, 1)
    two = mmio.tx_cpu_cost_ns(2, 1)
    assert one == 2 * CAL.mmio_store32_ns
    assert two == 2 * one
    # Batching does not help MMIO pushes.
    assert mmio.tx_cpu_cost_ns(1, 8) == one


def test_doorbell_batching_amortizes_mmio():
    _, doorbell = build("pcie-doorbell")
    b1 = doorbell.tx_cpu_cost_ns(1, 1)
    b4 = doorbell.tx_cpu_cost_ns(1, 4)
    b11 = doorbell.tx_cpu_cost_ns(1, 11)
    assert b1 > b4 > b11
    assert b1 == CAL.doorbell_ring_ns + CAL.mmio_doorbell_ns
    assert b1 - CAL.doorbell_ring_ns == CAL.mmio_doorbell_ns


def test_doorbell_rejects_bad_batch():
    _, doorbell = build("pcie-doorbell")
    with pytest.raises(ValueError):
        doorbell.tx_cpu_cost_ns(1, 0)


def test_pcie_fetch_slower_than_upi():
    sim_u, upi = build("upi")
    upi_ns = run_one(sim_u, upi.host_to_nic(1))
    sim_p, doorbell = build("pcie-doorbell")
    pcie_ns = run_one(sim_p, doorbell.host_to_nic(1))
    assert pcie_ns > upi_ns


def test_pcie_raw_read_near_450ns():
    sim, doorbell = build("pcie-doorbell")
    elapsed = run_one(sim, doorbell.raw_read())
    assert abs(elapsed - 450) < 30


# ------------------------------------------------ transfer vs process form

KINDS = ("upi", "pcie-mmio", "pcie-doorbell")


def _hold_endpoint(sim, endpoint, until_ns):
    """Occupy ``endpoint`` from now until ``until_ns``."""
    assert endpoint.try_acquire()
    sim.call_later(until_ns - sim.now, lambda event: endpoint.release())


def _transfer_done_at(kind, to_nic, held_until=None):
    sim, iface = build(kind)
    endpoint = iface.endpoint if to_nic else iface.write_endpoint
    if held_until is not None:
        _hold_endpoint(sim, endpoint, held_until)
    landed = []
    iface.transfer(2, to_nic, lambda event: landed.append((event.value,
                                                           sim.now)), "tag")
    sim.run()
    [(value, when)] = landed
    assert value == "tag"
    return when, iface


def _adapter_done_at(kind, to_nic, held_until=None):
    sim, iface = build(kind)
    endpoint = iface.endpoint if to_nic else iface.write_endpoint
    if held_until is not None:
        _hold_endpoint(sim, endpoint, held_until)
    generator = iface.host_to_nic(2) if to_nic else iface.nic_to_host(2)
    return run_one(sim, generator), iface


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("to_nic", [True, False])
@pytest.mark.parametrize("held_until", [None, 1000])
def test_transfer_lands_with_the_process_form(kind, to_nic, held_until):
    callback_ns, via_callback = _transfer_done_at(kind, to_nic, held_until)
    process_ns, via_process = _adapter_done_at(kind, to_nic, held_until)
    occupancy, latency = via_callback.transfer_ns(2, to_nic)
    start = 0 if held_until is None else held_until
    assert callback_ns == process_ns == start + occupancy + latency
    for iface in (via_callback, via_process):
        assert iface.transactions == 1
        assert (iface.lines_to_nic, iface.lines_to_host) == (
            (2, 0) if to_nic else (0, 2))
        assert iface.endpoint.in_use == 0
        assert iface.write_endpoint.in_use == 0


@pytest.mark.parametrize("kind", KINDS)
def test_back_to_back_transfers_queue_fifo_on_the_endpoint(kind):
    sim, iface = build(kind)
    landed = []
    for tag in range(3):
        iface.transfer(1, True, lambda event: landed.append((event.value,
                                                             sim.now)), tag)
    sim.run()
    occupancy, latency = iface.transfer_ns(1, True)
    assert landed == [(tag, (tag + 1) * occupancy + latency)
                      for tag in range(3)]
