"""Deterministic cost gates: spawns and kernel events per request.

The NIC, switch and interconnect data paths run on timed callbacks
(``Simulator.call_later``), not on a process per packet, and pure-delay NIC
stages are fused into one timer. Event and spawn counts are simulated
quantities — identical on every machine — so these gates are exact: a
change that puts a per-packet process back, or adds events to a data path,
fails here unless it re-baselines the ceiling.

Echo is the reference run. The cluster, lossy and mesh gates cover the
paths echo does not: microservice fan-out through the load balancer, the
reliable transport and credit flow control under wire loss, and the
windowed multi-host engine.
"""

import pytest

from repro.harness.runner import EchoRig
from repro.sim.kernel import Simulator

NREQ = 1000

#: Committed ceiling on kernel events per RPC for the 1000-RPC echo run
#: below (measured: 28.142; 39.675 before the NIC stage fusion; 45.267 with
#: a process per packet).
EVENTS_PER_RPC_CEILING = 28.2

#: Events per user request on the golden cluster point (measured: 164.328;
#: 218.200 before the NIC stage fusion).
CLUSTER_EVENTS_PER_REQUEST_CEILING = 164.4

#: Events per RPC on the golden ``loss`` chaos point (measured: 57.775;
#: 72.624 before the NIC stage fusion).
LOSSY_EVENTS_PER_RPC_CEILING = 57.8

#: Events per RPC on a 4-host, 500-RPC-per-host mesh in one shard
#: (measured: 30.887; 40.516 before the NIC stage fusion).
MESH_EVENTS_PER_RPC_CEILING = 30.9


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


@pytest.fixture
def events_fired(monkeypatch):
    """Total events fired by every Simulator built inside the test."""
    sims = []
    init = Simulator.__init__

    def recording_init(self):
        init(self)
        sims.append(self)

    monkeypatch.setattr(Simulator, "__init__", recording_init)
    return lambda: sum(sim.events_fired for sim in sims)


def test_cluster_events_per_request(events_fired):
    from repro.harness.cluster import run_cluster_point

    result = run_cluster_point(app="social_network", machines=8,
                               policy="p2c", modulation="bursty", nreq=500)
    assert result["completed"] == 500
    assert (events_fired() / result["completed"]
            <= CLUSTER_EVENTS_PER_REQUEST_CEILING)


def test_lossy_events_per_rpc(events_fired):
    from repro.chaos.rig import run_chaos_point

    result = run_chaos_point("loss")
    assert result["completed"] == result["nreq"]
    assert events_fired() / result["nreq"] <= LOSSY_EVENTS_PER_RPC_CEILING


def test_mesh_events_per_rpc(events_fired):
    from repro.harness.mesh import run_echo_mesh

    result = run_echo_mesh(hosts=4, shards=1, nreq_per_host=500,
                           warmup_ns=0)
    assert result.count == 4 * 500
    # With one shard every host runs in this process: the engine's own
    # count and the simulators' agree.
    assert result.events_total == events_fired()
    assert result.events_total / result.count <= MESH_EVENTS_PER_RPC_CEILING
