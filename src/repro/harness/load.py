"""The load driver every rig shares: issue, count completions, drain.

A rig builds its deployment and its recorder, spawns one closed-loop
(``window`` calls outstanding) or open-loop (intended-arrival) issue
process per client on a :class:`LoadDriver`, and calls
:meth:`LoadDriver.run`. The rig supplies only ``issue(item, callback)``:
the generator that submits one request with ``callback`` as its
completion hook. See docs/architecture.md, "Load driver".
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.sim.kernel import SimulationError

#: Closed-loop poll period while a client's window is full.
POLL_NS = 100

#: Simulated time without a completion after which a blocked closed-loop
#: client gives up on its window (also the cluster watchdog's default).
IDLE_LIMIT_NS = 50_000_000


def split(nreq: int, parts: int) -> List[int]:
    """Split ``nreq`` requests over ``parts`` clients, remainder first."""
    if nreq < 1:
        raise ValueError(f"nreq must be >= 1, got {nreq}")
    base, extra = divmod(nreq, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def poisson_arrivals(sim, interarrival, items: Iterable):
    """``(t_ns, item)`` per item, spaced by ``interarrival`` samples.

    The clock starts at the first ``next()``; each gap is drawn when the
    issue process asks for its next arrival, so clients sharing one
    distribution draw in issue order.
    """
    next_arrival = sim.now
    for item in items:
        next_arrival += interarrival.sample_ns()
        yield next_arrival, item


class LoadDriver:
    """Issue processes, completion counting and the end of one run.

    ``record(start_ns, finish_ns)`` receives each completion. ``target``
    completions end :meth:`run` (``None``: the run ends when the simulator
    drains). ``clients`` are the RPC clients whose pending calls fail when
    calls are lost. ``issued`` holds each issue process's count, bumped
    *before* its request is submitted.
    """

    def __init__(self, sim, record: Callable[[int, int], None],
                 target: Optional[int] = None, clients: Iterable = ()):
        self.sim = sim
        self.record = record
        self.target = target
        self.clients = list(clients)
        self.completed = 0
        self.issued: List[int] = []
        self.done = sim.event()
        self._last_completion_ns = sim.now

    def _callback(self, record, start_ns: int):
        def on_complete(_result):
            now = self.sim.now
            record(start_ns, now)
            self._last_completion_ns = now
            self.completed += 1
            if self.completed == self.target and not self.done.triggered:
                self.done.succeed()

        return on_complete

    def closed(self, client, items: Iterable, window: int, issue):
        """Spawn a process issuing one request per item, ``window`` deep."""
        self.issued.append(0)
        return self.sim.spawn(self._closed(len(self.issued) - 1, client,
                                           items, window, issue))

    def _closed(self, index, client, items, window, issue):
        record = self.record
        sim = self.sim
        issued = self.issued
        for item in items:
            while client.outstanding >= window:
                if self.done.triggered:
                    return  # another client gave up
                if sim.now - self._last_completion_ns >= IDLE_LIMIT_NS:
                    self.done.succeed()  # the window holds lost calls
                    return
                yield POLL_NS
            issued[index] += 1
            yield from issue(item, self._callback(record, sim.now))

    def open(self, arrivals: Iterable, issue,
             measure_from_issue: bool = False, record=None):
        """Spawn a process issuing each ``(t_ns, item)`` at ``t_ns``.

        ``record`` overrides the driver's recorder for this process (one
        recorder per tenant, one completion target for the run).
        """
        self.issued.append(0)
        return self.sim.spawn(self._open(len(self.issued) - 1, arrivals,
                                         issue, measure_from_issue,
                                         record or self.record))

    def _open(self, index, arrivals, issue, measure_from_issue, record):
        sim = self.sim
        issued = self.issued
        for t_ns, item in arrivals:
            if t_ns > sim.now:
                yield t_ns - sim.now
            issued[index] += 1
            start = sim.now if measure_from_issue else t_ns
            yield from issue(item, self._callback(record, start))

    def run(self, drain: bool = True) -> None:
        """Run until ``target`` completions, then drain.

        ``drain=False`` skips the drain after a run that completed
        everything, leaving the clock at the last completion. A run that
        lost calls always fails them and drains.
        """
        sim = self.sim
        done = self.done

        def waiter():
            yield done

        try:
            sim.run_until_done(sim.spawn(waiter()))
        except SimulationError:
            if sim.has_pending():
                raise  # a process failed; only a drained heap means loss
        if self.completed != self.target:
            for client in self.clients:
                client.fail_pending("lost: no completion")
            drain = True
        if drain:
            sim.run()
