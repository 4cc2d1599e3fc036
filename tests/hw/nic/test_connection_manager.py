"""Unit tests for the connection manager (1W3R connection cache)."""

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.nic.connection_manager import ConnectionManager, ConnectionTuple
from repro.rpc.errors import ConnectionError_
from repro.sim import Simulator

CAL = DEFAULT_CALIBRATION


def make_cm(entries=4, dram_backed=True):
    sim = Simulator()
    return sim, ConnectionManager(sim, CAL, entries, dram_backed=dram_backed)


def lookup_miss(sim, cm, cid):
    """Run the DRAM fallback for ``cid``; return (entry, elapsed ns)."""
    start = sim.now

    def proc():
        entry = yield from cm.lookup_miss(cid)
        return entry, sim.now - start

    return sim.run_until_done(sim.spawn(proc()))


def test_tuple_validation():
    ConnectionTuple(1, 0, "server")
    with pytest.raises(ValueError):
        ConnectionTuple(-1, 0, "server")
    with pytest.raises(ValueError):
        ConnectionTuple(1, -1, "server")
    with pytest.raises(ValueError):
        ConnectionTuple(1, 0, "")


def test_open_and_lookup_hit():
    sim, cm = make_cm()
    cm.open_connection(ConnectionTuple(1, 0, "server"))
    hit, entry = cm.cache.lookup(1)
    assert hit
    assert entry.dest_address == "server"
    # The latency the NIC pipelines fold into their stage timer on a hit.
    assert cm._hit_ns == CAL.nic_connection_lookup_cycles * CAL.nic_cycle_ns


def test_double_open_rejected():
    _, cm = make_cm()
    cm.open_connection(ConnectionTuple(1, 0, "server"))
    with pytest.raises(ConnectionError_):
        cm.open_connection(ConnectionTuple(1, 1, "other"))


def test_lookup_unknown_connection():
    sim, cm = make_cm()
    assert cm.cache.lookup(42) == (False, None)
    with pytest.raises(ConnectionError_):
        cm.backing_entry(42)
    with pytest.raises(ConnectionError_):
        lookup_miss(sim, cm, 42)


def test_close_connection():
    sim, cm = make_cm()
    cm.open_connection(ConnectionTuple(1, 0, "server"))
    cm.close_connection(1)
    assert cm.open_count == 0
    with pytest.raises(ConnectionError_):
        cm.close_connection(1)


def test_evicted_connection_served_from_dram_with_penalty():
    sim, cm = make_cm(entries=1)  # all ids conflict
    cm.open_connection(ConnectionTuple(1, 0, "a"))
    cm.open_connection(ConnectionTuple(2, 0, "b"))  # evicts 1
    assert cm.cache.lookup(1) == (False, None)
    entry, elapsed = lookup_miss(sim, cm, 1)
    assert entry.dest_address == "a"
    assert elapsed >= CAL.nic_connection_miss_ns
    # The miss refilled the cache; the victim now misses instead.
    assert cm.cache.lookup(1) == (True, entry)
    assert cm._hit_ns < CAL.nic_connection_miss_ns


def test_without_dram_backing_eviction_is_fatal():
    sim, cm = make_cm(entries=1, dram_backed=False)
    cm.open_connection(ConnectionTuple(1, 0, "a"))
    cm.open_connection(ConnectionTuple(2, 0, "b"))
    assert cm.cache.lookup(1) == (False, None)
    with pytest.raises(ConnectionError_, match="evicted"):
        cm.backing_entry(1)
    with pytest.raises(ConnectionError_, match="evicted"):
        lookup_miss(sim, cm, 1)


def test_open_count():
    _, cm = make_cm(entries=64)
    for cid in range(10):
        cm.open_connection(ConnectionTuple(cid, 0, "x"))
    assert cm.open_count == 10
