"""The shared load driver: request split, arrivals, and the drop policy.

Lost calls never complete. Without the drop policy a closed loop whose
window filled with lost calls polled forever (the poll kept the event heap
alive), and an open loop raised "event heap drained before process
completed". Both now end, fail the lost calls and report what completed.
"""

import pytest

from repro.chaos import ChaosConfig
from repro.harness.load import LoadDriver, poisson_arrivals, split
from repro.harness.runner import EchoRig
from repro.sim import Constant, Simulator


def test_split_keeps_the_remainder():
    assert split(10, 3) == [4, 3, 3]
    assert split(1, 2) == [1, 0]
    with pytest.raises(ValueError, match="nreq"):
        split(0, 2)


def test_poisson_arrivals_start_at_first_next():
    sim = Simulator()
    arrivals = poisson_arrivals(sim, Constant(5), "ab")

    def late():
        yield 100
        assert list(arrivals) == [(105, "a"), (110, "b")]

    sim.run_until_done(sim.spawn(late()))


def lossy_rig():
    # 2% wire loss with no reliable transport: some calls are simply gone.
    return EchoRig(batch_size=4, chaos=ChaosConfig.from_dict(
        {"wire": {"loss": 0.02}, "seed": 1}))


def test_closed_loop_gives_up_on_lost_calls():
    rig = lossy_rig()
    result = rig.closed_loop(nreq=2000, warmup_ns=0)
    assert 0 < result.count < 2000
    assert all(client.outstanding == 0 for client in rig.clients)
    assert not rig.sim.has_pending()


def test_open_loop_reports_what_completed_under_loss():
    rig = lossy_rig()
    result = rig.open_loop(1.0, nreq=2000, warmup_ns=0)
    assert 0 < result.count < 2000
    assert all(client.outstanding == 0 for client in rig.clients)


@pytest.mark.parametrize("measure_from_issue, starts",
                         [(False, [10, 11]), (True, [10, 17])])
def test_open_loop_latency_origin(measure_from_issue, starts):
    sim = Simulator()
    spans = []
    load = LoadDriver(sim, lambda start, finish: spans.append((start, finish)),
                      target=2)

    def issue(_item, callback):
        yield 7  # the second arrival (t=11) waits behind this submission
        sim.timeout(3).callbacks.append(callback)

    load.open(iter([(10, None), (11, None)]), issue,
              measure_from_issue=measure_from_issue)
    load.run(drain=False)
    assert [start for start, _ in spans] == starts
    assert (load.completed, load.issued, sim.now) == (2, [2], 27)
