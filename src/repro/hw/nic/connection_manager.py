"""Connection Manager: the 1W3R direct-mapped connection cache (section 4.2).

The connection table maps connection IDs onto ``<src_flow, dest_addr,
load_balancer>`` tuples. The RTL breaks the tuple into three tables indexed
by the low bits of the connection ID so that the outgoing flow, the
incoming flow, and the CM itself can read concurrently (1W3R); here the
banked organisation is modelled as a single direct-mapped cache with no
port contention, which matches the RTL's stall-free behaviour.

Misses fall back to a DRAM-backed table (the paper's planned extension,
implemented here) at ``nic_connection_miss_ns`` — or raise when DRAM
backing is hard-configured off, modelling the paper's current prototype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.hw.cache import DirectMappedCache
from repro.hw.calibration import Calibration
from repro.rpc.errors import ConnectionError_
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class ConnectionTuple:
    """One connection-table entry."""

    connection_id: int
    src_flow: int
    dest_address: str
    load_balancer: Optional[str] = None  # None -> NIC-wide default scheme

    def __post_init__(self):
        if self.connection_id < 0:
            raise ValueError(f"negative connection id {self.connection_id}")
        if self.src_flow < 0:
            raise ValueError(f"negative flow {self.src_flow}")
        if not self.dest_address:
            raise ValueError("empty destination address")


class ConnectionManager:
    """Functional + timing model of the CM block."""

    def __init__(
        self,
        sim: Simulator,
        calibration: Calibration,
        num_entries: int,
        dram_backed: bool = True,
    ):
        self.sim = sim
        self.calibration = calibration
        self.cache = DirectMappedCache(num_entries, name="connection-cache")
        self.dram_backed = dram_backed
        self._dram: Dict[int, ConnectionTuple] = {}
        # Constant per-lookup latency, precomputed off the hot path.
        self._hit_ns = (calibration.nic_connection_lookup_cycles
                        * calibration.nic_cycle_ns)

    # -- control path (software, via soft reconfiguration unit) -------------

    def open_connection(self, entry: ConnectionTuple) -> None:
        if entry.connection_id in self._dram:
            raise ConnectionError_(
                f"connection {entry.connection_id} already open"
            )
        self._dram[entry.connection_id] = entry
        self.cache.insert(entry.connection_id, entry)

    def close_connection(self, connection_id: int) -> None:
        if connection_id not in self._dram:
            raise ConnectionError_(f"connection {connection_id} not open")
        del self._dram[connection_id]
        self.cache.invalidate(connection_id)

    @property
    def open_count(self) -> int:
        return len(self._dram)

    # -- data path (NIC pipeline) --------------------------------------------

    # The NIC pipelines look a connection up with ``cache.lookup`` at stage
    # entry: a hit folds ``_hit_ns`` into the stage's timer, a miss pays
    # the DRAM refill through :meth:`lookup_miss` (egress) or
    # :meth:`backing_entry` plus their own timer (ingress).

    def lookup_miss(self, connection_id: int) -> Generator:
        """DRAM fallback after a recorded cache miss; yields timing, then
        re-inserts and returns the ConnectionTuple."""
        backing = self.backing_entry(connection_id)
        yield self.calibration.nic_connection_miss_ns
        self.cache.insert(connection_id, backing)
        return backing

    def backing_entry(self, connection_id: int) -> ConnectionTuple:
        """The DRAM copy a miss refills from; raises if it cannot recover.

        The caller pays ``nic_connection_miss_ns`` and then re-inserts the
        entry into the cache (as :meth:`lookup_miss` does).
        """
        backing = self._dram.get(connection_id)
        if backing is None:
            raise ConnectionError_(f"connection {connection_id} not open")
        if not self.dram_backed:
            # The prototype without DRAM backing cannot recover the state of
            # a conflict-evicted connection.
            raise ConnectionError_(
                f"connection {connection_id} evicted from the connection "
                "cache and DRAM backing is disabled"
            )
        return backing
