"""Unit tests for the TX-path request table and NIC-level data paths."""

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.ethernet import EthernetPort
from repro.hw.interconnect.ccip import make_interface
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.nic.dagger_nic import DaggerNic
from repro.hw.nic.tx_path import RequestTable
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.obs import SpanTracer
from repro.rpc.messages import RpcKind, RpcPacket
from repro.sim import Simulator

CAL = DEFAULT_CALIBRATION


# ----------------------------------------------------------- RequestTable


def test_request_table_acquire_release_cycle():
    table = RequestTable(Simulator(), 2)
    pkt = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 64)
    slot = table.acquire(pkt)
    assert slot is not None
    assert table.occupancy == 1
    assert table.read_and_release(slot) is pkt
    assert table.occupancy == 0


def test_request_table_exhaustion():
    table = RequestTable(Simulator(), 2)
    pkt = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 64)
    slots = [table.acquire(pkt), table.acquire(pkt)]
    assert None not in slots
    assert table.acquire(pkt) is None  # full
    table.read_and_release(slots[0])
    assert table.acquire(pkt) is not None


def test_request_table_bad_size():
    with pytest.raises(ValueError):
        RequestTable(Simulator(), 0)


# ------------------------------------------------------- NIC-level paths


def build_pair(batch=1, auto=False, num_flows=1, flow_fifo_entries=64,
               rx_ring_entries=128, **hard_overrides):
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, CAL, loopback=True)
    nics = []
    for name in ("a", "b"):
        hard = NicHardConfig(num_flows=num_flows,
                             flow_fifo_entries=flow_fifo_entries,
                             rx_ring_entries=rx_ring_entries,
                             **hard_overrides)
        soft = NicSoftConfig(batch_size=batch, auto_batch=auto)
        interface = make_interface("upi", sim, CAL, machine.fpga)
        nics.append(DaggerNic(sim, CAL, interface, switch, name,
                              hard=hard, soft=soft))
    return sim, nics[0], nics[1]


def send(sim, nic, packet, flow=0):
    def proc():
        yield from nic.send_from_host(flow, packet)

    sim.spawn(proc())


def test_request_travels_a_to_b():
    sim, a, b = build_pair()
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    packet = RpcPacket(RpcKind.REQUEST, 1, "echo", b"hi", 48)
    send(sim, a, packet)
    sim.run()
    assert len(b.rx_ring(0)) == 1
    delivered = b.rx_ring(0).try_get()
    assert delivered is packet
    assert delivered.src_address == "a"
    assert delivered.dst_address == "b"
    assert a.monitor.tx_rpcs == 1
    assert b.monitor.rx_rpcs == 1
    assert b.monitor.delivered_rpcs == 1


def trace(*nics):
    """Hook one span tracer into ``nics``; return it."""
    tracer = SpanTracer()
    for nic in nics:
        nic.tracer = tracer
    return tracer


def test_packet_timestamps_in_order():
    sim, a, b = build_pair()
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    tracer = trace(a, b)
    packet = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    send(sim, a, packet)
    sim.run()
    stamps = tracer.span(packet.rpc_id).events
    assert (stamps["req_sw_tx"] <= stamps["req_nic_fetched"]
            <= stamps["req_wire_tx"] <= stamps["req_nic_rx"]
            <= stamps["req_host_delivered"])


def test_response_steered_to_request_flow():
    sim, a, b = build_pair(num_flows=2)
    a.open_connection(1, 1, "b")
    b.open_connection(1, 0, "a")
    request = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    send(sim, a, request, flow=1)
    sim.run()
    arrived = b.rx_ring(0).try_get() or b.rx_ring(1).try_get()
    response = arrived.make_response(b"", 48)
    send(sim, b, response)
    sim.run()
    # The response lands on flow 1, where the request originated.
    assert len(a.rx_ring(1)) == 1
    assert len(a.rx_ring(0)) == 0


def test_fixed_batch_waits_then_times_out():
    sim, a, b = build_pair(batch=4)
    a.soft.batch_timeout_ns = 2000
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    tracer = trace(a)
    packet = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    send(sim, a, packet)
    sim.run()
    # Sent alone after the batch timeout, not stuck forever.
    assert b.monitor.delivered_rpcs == 1
    assert tracer.span(packet.rpc_id).events["req_nic_fetched"] >= 2000


def test_auto_batch_takes_whats_available():
    sim, a, b = build_pair(batch=4, auto=True)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    for _ in range(3):
        send(sim, a, RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64))
    sim.run()
    assert b.monitor.delivered_rpcs == 3
    # No batch waited for a fourth member.
    assert a.monitor.batches >= 1


def test_rx_ring_overflow_drops():
    sim, a, b = build_pair(rx_ring_entries=2)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    for _ in range(8):
        send(sim, a, RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64))
    sim.run()  # nobody drains b's rx ring
    assert b.monitor.dropped_rx_ring == 6
    assert b.monitor.delivered_rpcs == 2
    assert b.monitor.drop_rate > 0


def test_multi_line_rpc_consumes_more_lines():
    sim, a, b = build_pair()
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    big = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 600)  # ~10 lines
    send(sim, a, big)
    sim.run()
    assert a.interface.lines_transferred >= 10


def test_send_to_invalid_flow_rejected():
    sim, a, _ = build_pair()

    def proc():
        yield from a.send_from_host(5, RpcPacket(RpcKind.REQUEST, 1, "m",
                                                 b"", 64))

    with pytest.raises(ValueError):
        sim.run_until_done(sim.spawn(proc()))


def test_mmio_push_mode_skips_fetch_fsm():
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, CAL, loopback=True)
    hard = NicHardConfig(num_flows=1, interface="pcie-mmio")
    a = DaggerNic(sim, CAL, make_interface("pcie-mmio", sim, CAL,
                                           machine.fpga),
                  switch, "a", hard=hard)
    b = DaggerNic(sim, CAL, make_interface("pcie-mmio", sim, CAL,
                                           machine.fpga),
                  switch, "b", hard=hard)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    packet = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    send(sim, a, packet)
    sim.run()
    assert b.monitor.delivered_rpcs == 1
    # Push mode: the TX ring was never used.
    assert a.flow_rings[0].tx_occupancy == 0


# ------------------------------------------------------- ingress chain


def _steered_at(nic, packet):
    """Feed ``packet`` to the NIC's ingress; return when it is steered."""
    sim = nic.sim
    steered = []
    enqueue = nic.tx_path.enqueue

    def record(pkt, flow_id):
        steered.append(sim.now)
        enqueue(pkt, flow_id)

    nic.tx_path.enqueue = record
    start = sim.now
    nic.ingress(packet)
    sim.run()
    del nic.tx_path.enqueue
    [when] = steered
    return when - start


def test_ingress_connection_miss_pays_dram_fetch_and_refills():
    sim, _, b = build_pair()
    b.open_connection(7, 0, "a")
    cache = b.connection_manager.cache
    hit_ns = _steered_at(b, RpcPacket(RpcKind.REQUEST, 7, "echo", b"", 48))
    assert cache.invalidate(7)
    misses = cache.misses
    miss_ns = _steered_at(b, RpcPacket(RpcKind.REQUEST, 7, "echo", b"", 48))
    assert miss_ns - hit_ns == (CAL.nic_connection_miss_ns
                                - b.connection_manager._hit_ns)
    assert cache.misses == misses + 1
    # The miss re-inserted the entry: the next packet hits again.
    assert cache.lookup(7) == (True, b.connection_manager._dram[7])
    assert _steered_at(
        b, RpcPacket(RpcKind.REQUEST, 7, "echo", b"", 48)) == hit_ns


def test_ingress_chain_stage_latencies():
    sim, _, b = build_pair()
    b.open_connection(7, 0, "a")
    steer_ns = _steered_at(b, RpcPacket(RpcKind.REQUEST, 7, "echo", b"", 48))
    assert steer_ns == (b._cycle_ns + b._rpc_unit_ns
                        + b.connection_manager._hit_ns + b._lb_ns)


# ------------------------------------------------------- egress pipeline


def _watch_egress(nic):
    """Record when each packet enters and leaves ``nic``'s egress pipeline.

    Wraps the two hand-offs around it: ``enqueue_egress`` (the fetched
    packet enters its sequencer, ``nic_fetched``) and ``switch.send`` (the
    serialized frame leaves, ``wire_tx``). Unlike a span tracer this also
    sees CONTROL packets. Install before the first ``sim.run()``: the
    sequencers bind ``switch.send`` when they start. Returns
    ``{packet: {point: t_ns}}``, first passage kept.
    """
    sim = nic.sim
    times = {}
    enqueue_egress = nic.enqueue_egress
    switch_send = nic.switch.send

    def fetched(flow_id, packet):
        times.setdefault(packet, {}).setdefault("nic_fetched", sim.now)
        enqueue_egress(flow_id, packet)

    def wire_tx(dst_address, packet):
        times.setdefault(packet, {}).setdefault("wire_tx", sim.now)
        switch_send(dst_address, packet)

    nic.enqueue_egress = fetched
    nic.switch.send = wire_tx
    return times


def _egress_ns(nic, times, packet):
    """``wire_tx - nic_fetched`` of one packet on an otherwise idle NIC."""
    if packet.kind is RpcKind.CONTROL:
        # Control packets are generated on the NIC: they enter the control
        # sequencer directly, with no fetch.
        nic.enqueue_egress(0, packet)
    else:
        send(nic.sim, nic, packet)
    nic.sim.run()
    return times[packet]["wire_tx"] - times[packet]["nic_fetched"]


def _egress_floor(nic, packet):
    """Cycle + RPC unit + hit lookup + transport + serialization."""
    # A scratch port: the rule without counting a frame on the NIC's own.
    serialization_ns = EthernetPort(nic.sim, CAL).serialize(packet.wire_bytes)
    return (nic._cycle_ns + nic._rpc_unit_ns + nic.connection_manager._hit_ns
            + nic._transport_ns + serialization_ns)


def _control_packet(connection_id, dst_address):
    return RpcPacket(RpcKind.CONTROL, connection_id, "ack", 0, 16,
                     dst_address=dst_address)


@pytest.mark.parametrize("kind,reliable", [
    (RpcKind.REQUEST, False),
    (RpcKind.CONTROL, False),
    (RpcKind.REQUEST, True),
])
def test_egress_stage_latencies(kind, reliable):
    sim, a, b = build_pair(reliable_transport=reliable)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    times = _watch_egress(a)
    if kind is RpcKind.CONTROL:
        packet = _control_packet(1, "b")
    else:
        packet = RpcPacket(kind, 1, "echo", b"", 200)
    assert _egress_ns(a, times, packet) == _egress_floor(a, packet)
    assert a.monitor.connection_misses == 0


def test_inline_crypto_adds_latency_to_data_packets_only():
    sim, a, b = build_pair(inline_crypto=True)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    times = _watch_egress(a)
    data = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 200)
    crypto_ns = a._crypto_ns(data)
    assert crypto_ns > 0
    assert _egress_ns(a, times, data) == _egress_floor(a, data) + crypto_ns
    control = _control_packet(1, "b")
    assert _egress_ns(a, times, control) == _egress_floor(a, control)
    # Ingress: the data packet pays the same crypto before its lookup.
    steer_ns = _steered_at(b, RpcPacket(RpcKind.REQUEST, 1, "echo", b"",
                                        200))
    assert steer_ns == (b._cycle_ns + b._rpc_unit_ns + crypto_ns
                        + b.connection_manager._hit_ns + b._lb_ns)


@pytest.mark.parametrize("reliable", [False, True])
def test_egress_connection_miss_pays_dram_fetch_and_refills(reliable):
    sim, a, b = build_pair(reliable_transport=reliable)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    times = _watch_egress(a)
    cache = a.connection_manager.cache
    assert cache.invalidate(1)
    packet = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    miss_ns = _egress_ns(a, times, packet)
    assert miss_ns - _egress_floor(a, packet) == (
        CAL.nic_connection_miss_ns - a.connection_manager._hit_ns)
    assert a.monitor.connection_misses == 1
    assert packet.dst_address == "b"
    # The miss re-inserted the entry: the next packet hits again.
    assert cache.lookup(1) == (True, a.connection_manager._dram[1])
    again = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    assert _egress_ns(a, times, again) == _egress_floor(a, again)
    assert a.monitor.connection_misses == 1
