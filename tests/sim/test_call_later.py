"""Timed callbacks (``Simulator.call_later``) and the pooled ``inject`` path.

``call_later`` is the kernel primitive behind the NIC, switch and
interconnect data paths: a process that only sleeps and then acts becomes a
chain of pooled timed callbacks. The property test pins the slot rule that
makes such a conversion order-exact — ``call_later(0, ...)`` takes the slot
of a spawned process's start event and each later ``call_later(d, ...)`` the
slot of the process's ``yield d`` — and the unit tests pin the pool contract
and error behaviour.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import SimulationError, Simulator

# Tiny delays so that many steps share a timestamp (the ties are the point).
_delays = st.lists(st.integers(min_value=0, max_value=3), max_size=4)
# (delays, follow-up program started after the last step, run as a chain?)
_programs = st.lists(
    st.tuples(_delays, st.one_of(st.none(), _delays), st.booleans()),
    min_size=1, max_size=12,
)


def _run(programs, chains_allowed):
    """Run every program, as a chain where flagged and allowed, else as a
    spawned process; return the ``(tag, step, now)`` log."""
    sim = Simulator()
    log = []

    def proc(tag, delays, follow_up, as_chain):
        log.append((tag, 0, sim.now))
        for step, delay in enumerate(delays, 1):
            yield delay
            log.append((tag, step, sim.now))
        if follow_up is not None:
            start(tag + "+", follow_up, None, as_chain)

    def chain_step(event):
        tag, delays, follow_up, index = event.value
        log.append((tag, index, sim.now))
        if index < len(delays):
            sim.call_later(delays[index], chain_step,
                           (tag, delays, follow_up, index + 1))
        elif follow_up is not None:
            start(tag + "+", follow_up, None, True)

    def start(tag, delays, follow_up, as_chain):
        if as_chain and chains_allowed:
            sim.call_later(0, chain_step, (tag, delays, follow_up, 0))
        else:
            sim.spawn(proc(tag, delays, follow_up, as_chain))

    for index, (delays, follow_up, as_chain) in enumerate(programs):
        start(str(index), delays, follow_up, as_chain)
    sim.run()
    return log


@given(programs=_programs)
@settings(max_examples=200, deadline=None)
def test_chains_fire_in_spawned_process_order(programs):
    # Any mix of chains and processes fires exactly like all processes.
    assert _run(programs, chains_allowed=True) == _run(
        programs, chains_allowed=False)


def test_callback_sees_value_and_pooled_event_is_cleared():
    sim = Simulator()
    seen = []

    def callback(event):
        seen.append((event, event.value, sim.now))

    sim.call_later(7, callback, "payload")
    sim.run()
    [(event, value, when)] = seen
    assert (value, when) == ("payload", 7)
    assert event.value is None
    assert event.triggered is False
    assert event.callbacks == []
    assert sim._control_free == [event]
    # The recycled event carries the next timer with a fresh value.
    sim.call_later(1, callback, "second")
    sim.run()
    assert seen[1] == (event, "second", 8)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative"):
        sim.call_later(-1, lambda event: None)
    assert not sim.has_pending()


def test_callback_exception_propagates_out_of_run():
    sim = Simulator()

    def explode(event):
        raise ValueError(event.value)

    sim.call_later(3, explode, "boom")
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert sim.now == 3
    assert sim.events_fired == 1


def test_events_fired_counts_every_loop_and_step():
    sim = Simulator()
    for delay in (0, 1, 2, 3):
        sim.call_later(delay, lambda event: None)
    sim.run(until=1)
    assert sim.events_fired == 2
    sim.step()
    assert sim.events_fired == 3
    assert sim.run_horizon(None) == 1
    assert sim.events_fired == 4


def test_events_fired_counts_process_events():
    sim = Simulator()

    def proc():
        yield 5
        yield sim.timeout(5)

    sim.spawn(proc())
    sim.run()
    # Start, int-yield timer, Timeout, then the process's own completion.
    assert sim.events_fired == 4


def test_inject_rides_the_control_pool():
    sim = Simulator()
    fired = []
    sim.inject(4, lambda: fired.append(sim.now))
    sim.inject(4, lambda: fired.append(("keyed", sim.now)), seq_key=-1)
    sim.run()
    assert fired == [("keyed", 4), 4]
    assert len(sim._control_free) == 2
    assert all(event.value is None for event in sim._control_free)
