"""Deterministic cost gate: spawns and kernel events per echo RPC.

The NIC, switch and interconnect data paths run on timed callbacks
(``Simulator.call_later``), not on a process per packet. Event and spawn
counts are simulated quantities — identical on every machine — so this
gate is exact: a change that puts a per-packet process back, or adds events
to the echo path, fails here unless it re-baselines the ceiling.
"""

from repro.harness.runner import EchoRig
from repro.sim.kernel import Simulator

NREQ = 1000

#: Committed ceiling on kernel events per RPC for the 1000-RPC echo run
#: below (measured: 39.675; 45.267 with a process per packet).
EVENTS_PER_RPC_CEILING = 39.7


def test_echo_data_path_spawns_nothing_and_stays_under_event_ceiling(
        monkeypatch):
    rig = EchoRig(batch_size=4)
    spawned = []
    spawn = Simulator.spawn

    def counting_spawn(self, generator, name=""):
        spawned.append(generator.gi_frame.f_globals["__name__"])
        return spawn(self, generator, name)

    monkeypatch.setattr(Simulator, "spawn", counting_spawn)
    before = rig.sim.events_fired
    result = rig.closed_loop(window=64, nreq=NREQ, warmup_ns=0)
    events_per_rpc = (rig.sim.events_fired - before) / NREQ
    assert result.count == NREQ
    # Only the load driver's own processes: one issue process per client
    # and the completion waiter. Nothing per packet or per batch.
    assert spawned == ["repro.harness.load"] * (len(rig.clients) + 1)
    assert events_per_rpc <= EVENTS_PER_RPC_CEILING
