"""Event loop and primitive events for the discrete-event simulator.

The kernel keeps a binary heap of ``(time, sequence, event)`` triples. Each
:class:`Event` carries a list of callbacks; triggering an event schedules it
on the heap, and when the loop pops it the callbacks run at that simulated
time. Processes (see :mod:`repro.sim.process`) are generator coroutines that
suspend by yielding events and are resumed by a callback installed on the
yielded event.

Time is an integer number of nanoseconds. Determinism is guaranteed: events
scheduled for the same timestamp fire in scheduling order.

Hot-path design (see docs/performance.md): a simulated RPC is dominated by
the timeout/resume cycle, so the kernel avoids per-event overhead there.
``triggered``/``processed`` are plain slot attributes (no property
indirection), scheduling is inlined into the trigger paths (one
``heappush``, no helper call), the run loop caches heap/bound-method
lookups in locals, and short-lived kernel-owned events are recycled
through free lists instead of being reallocated:

- :class:`Timeout` objects created via :meth:`Simulator.timeout` are
  returned to a pool once the run loop has fired their callbacks. This is
  safe because a timeout is single-shot and kernel-owned: every in-tree use
  is ``yield sim.timeout(...)``, which drops the reference on resume.
- Internal process-control events (spawn kick-off, post-processed wakeups,
  interrupt carriers) are pooled the same way via
  :meth:`Simulator._control_event`.

Events created with :meth:`Simulator.event` are *never* pooled — callers
hold those handles and may inspect ``triggered``/``value`` long after the
callbacks ran (e.g. completion gates).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional

#: Upper bound on each free list; beyond this, recycled events are simply
#: dropped for the garbage collector (prevents pathological workloads from
#: pinning unbounded memory in the pools).
_POOL_CAP = 4096

#: Run-loop bound with no time limit.
_FOREVER = float("inf")

#: ``Event._recyclable`` values: not pooled / Timeout pool / control pool.
_NO_POOL, _TIMEOUT_POOL, _CONTROL_POOL = 0, 1, 2

#: Lazily bound Process class (avoids a circular import; resolved once by
#: the first ``spawn`` instead of re-importing per call).
_Process = None


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. re-triggering)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called (which schedules it on the event loop), and is
    *processed* once its callbacks have run. Processes yield events to wait
    for them; the value passed to :meth:`succeed` becomes the result of the
    ``yield`` expression.

    ``triggered`` and ``processed`` are plain attributes, written only by
    the kernel; treat them as read-only flags.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "triggered",
        "processed",
        "value",
        "_exception",
        "_recyclable",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.processed = False
        self.value: Any = None
        self._exception: Optional[BaseException] = None
        self._recyclable = _NO_POOL

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        return self.triggered and self._exception is None

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully ``delay`` ns from now."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.triggered = True
        self.value = value
        sim = self.sim
        if delay:
            heappush(sim._heap, (sim.now + delay, sim._seq, self))
            sim._seq += 1
        else:
            sim._nowq.append(self)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.triggered = True
        self._exception = exception
        sim = self.sim
        if delay:
            heappush(sim._heap, (sim.now + delay, sim._seq, self))
            sim._seq += 1
        else:
            sim._nowq.append(self)
        return self

    def _run_callbacks(self) -> None:
        self.processed = True
        callbacks = self.callbacks
        if len(callbacks) == 1:
            # The dominant case: exactly one waiter (a process resume).
            # Dispatch it directly instead of snapshotting the list.
            callback = callbacks[0]
            callbacks.clear()
            callback(self)
        elif callbacks:
            snapshot = tuple(callbacks)
            callbacks.clear()
            for callback in snapshot:
                callback(self)


class Timeout(Event):
    """An event that triggers itself ``delay`` ns after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + succeed(): a timeout is born triggered
        # and scheduled, so skip the pending state entirely.
        self.sim = sim
        self.callbacks = []
        self.triggered = True
        self.processed = False
        self.value = value
        self._exception = None
        self._recyclable = _TIMEOUT_POOL
        if delay:
            heappush(sim._heap, (sim.now + delay, sim._seq, self))
            sim._seq += 1
        else:
            sim._nowq.append(self)


#: ``stop`` for run loops that stop only on time or an empty heap: an
#: event of no simulator, never triggered.
_NEVER = Event(None)


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        def proc(sim):
            yield sim.timeout(10)
            return 42
        handle = sim.spawn(proc(sim))
        sim.run()
        assert handle.value == 42
    """

    __slots__ = ("now", "_heap", "_nowq", "_seq", "_timeout_free",
                 "_control_free")

    def __init__(self):
        self.now: int = 0
        self._heap: list = []
        # Zero-delay events (grants, hand-offs, process control — the
        # majority) bypass the heap through this FIFO: a deque append/
        # popleft is much cheaper than a heap siftdown/siftup, and the
        # smaller heap makes the remaining timed pushes cheaper too.
        # Firing order stays exact: time only advances when this queue
        # is empty, so every heap entry due at the current time was
        # scheduled before everything queued here and fires first (see
        # the pop logic in _dispatch()); within the queue, FIFO ==
        # scheduling order. Heap entries keep a seq tie-break for equal
        # times.
        self._nowq: deque = deque()
        self._seq: int = 0
        self._timeout_free: list = []
        self._control_free: list = []

    # -- scheduling ---------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event (never pooled; safe to hold)."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` ns from now."""
        free = self._timeout_free
        if free:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            timeout = free.pop()
            timeout.triggered = True
            timeout.value = value
            if delay:
                heappush(self._heap, (self.now + delay, self._seq, timeout))
                self._seq += 1
            else:
                self._nowq.append(timeout)
            return timeout
        return Timeout(self, delay, value)

    def _control_event(self) -> Event:
        """A pooled kernel-internal event (process start/wakeup/interrupt).

        The caller must fully configure it (callbacks, trigger state) and
        must not expose it outside the kernel: it is recycled as soon as the
        run loop has fired its callbacks.
        """
        free = self._control_free
        if free:
            return free.pop()
        event = Event(self)
        event._recyclable = _CONTROL_POOL
        return event

    def spawn(self, generator: Generator, name: str = "") -> "Process":
        """Start a new process from a generator coroutine."""
        global _Process
        if _Process is None:
            from repro.sim.process import Process as _Process  # noqa: F811
        return _Process(self, generator, name)

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`SimulationError` when nothing is scheduled, like the
        kernel's other misuse paths (rather than leaking a bare
        ``IndexError`` from the heap). Events fired through ``step`` are
        not recycled — only the run loop feeds the pools.
        """
        nowq = self._nowq
        heap = self._heap
        if nowq and not (heap and heap[0][0] <= self.now):
            event = nowq.popleft()
        elif heap:
            self.now, _, event = heappop(heap)
        else:
            raise SimulationError("no scheduled events")
        event._run_callbacks()

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or None if nothing is scheduled."""
        if self._nowq:
            return self.now
        return self._heap[0][0] if self._heap else None

    def has_pending(self) -> bool:
        """True when any event is scheduled (the run loop would continue).

        Used by self-terminating background processes (e.g. the telemetry
        sampler) to avoid keeping an otherwise-finished simulation alive.
        """
        return bool(self._nowq or self._heap)

    def run(self, until: Optional[int] = None) -> None:
        """Run until the heap drains or simulated time passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until`` and
        any events scheduled later stay on the heap (the simulator can be
        resumed with another ``run`` call).
        """
        if until is None:
            self._dispatch(_FOREVER, _NEVER)
            return
        if until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        self._dispatch(until, _NEVER)
        self.now = until

    def inject(self, when: int, action: Callable[[], None],
               seq_key: Optional[int] = None) -> None:
        """Schedule ``action()`` at absolute simulated time ``when``.

        Entry point for externally produced event batches (the sharded
        engine delivers cross-shard packets through this). By default the
        callback is interleaved with locally scheduled events in exact
        ``(time, seq)`` order: an injected event at time ``t`` fires after
        same-``t`` events that were already scheduled and before same-``t``
        events scheduled later — an order that depends on *when* the
        injection happened relative to local scheduling.

        ``seq_key`` decouples that: when given, it replaces the local
        sequence number as the heap tie-break, so the position of the
        injected event among same-timestamp events is a pure function of
        the key — independent of how the caller batches its injections.
        Negative keys fire before every locally scheduled event at the
        same timestamp (local sequence numbers start at 0). Callers must
        guarantee keys are unique per ``(when, seq_key)`` pair; the sharded
        engine derives them from the canonical ``(src_host, seq)`` commit
        identity. ``when`` must not lie in this simulator's past.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot inject at {when}: simulator clock is at {self.now}"
            )
        event = Event(self)
        event.triggered = True
        event.callbacks.append(lambda _event: action())
        if when == self.now and seq_key is None:
            self._nowq.append(event)
        elif seq_key is not None:
            heappush(self._heap, (when, seq_key, event))
        else:
            heappush(self._heap, (when, self._seq, event))
            self._seq += 1

    def run_horizon(self, horizon: Optional[int]) -> int:
        """Process every event strictly before ``horizon``; count them.

        The conservative-window entry point for sharded simulation: unlike
        :meth:`run`, the boundary is *exclusive* (an event at exactly
        ``horizon`` stays pending — it may still race with a cross-shard
        arrival at the same timestamp) and the clock is left at the last
        processed event rather than fast-forwarded, so a later
        :meth:`inject` at any ``t >= horizon`` keeps exact ordering against
        the events that remain on the heap.

        ``horizon=None`` is the *drain* grant: no boundary at all — run
        until the heap is empty. The adaptive sharded coordinator issues it
        when every host has proven it cannot produce another cross-shard
        packet, collapsing the run-out into a single window.

        Returns the number of events dispatched in this window.
        """
        if horizon is None:
            return self._dispatch(_FOREVER, _NEVER)
        if self._nowq and self.now >= horizon:
            raise SimulationError(
                f"horizon {horizon} is not ahead of pending work at {self.now}"
            )
        # Simulated time is integral: "before horizon" is "at or before
        # horizon - 1".
        return self._dispatch(horizon - 1, _NEVER)

    def run_until_done(self, process: "Process") -> Any:
        """Run until a given process finishes; return its value.

        Raises the process's exception if it failed, and a
        :class:`SimulationError` if the heap drains first (deadlock).
        """
        self._dispatch(_FOREVER, process)
        if not process.triggered:
            raise SimulationError(
                "event heap drained before process completed (deadlock?)"
            )
        if process._exception is not None:
            process.defuse()
            raise process._exception
        return process.value

    def _dispatch(self, until, stop: Event) -> int:
        """The run loop: fire events due at or before ``until``.

        Returns when the queues drain, the next event lies past ``until``
        or ``stop`` has triggered; the clock is left at the last event
        fired. Returns the number of events fired.

        The body inlines the dual-queue pop (a heap entry due now predates
        everything in the now-queue, so it fires first), the single-callback
        dispatch of :meth:`Event._run_callbacks` and the pool recycling: at
        one pooled event per timeout/resume cycle, the method-call overhead
        of factored versions is the single largest kernel cost. The public
        run methods are thin wrappers that never call each other, so each
        stays separately patchable.
        """
        heap = self._heap
        nowq = self._nowq
        pop = heappop
        popleft = nowq.popleft
        tfree = self._timeout_free
        cfree = self._control_free
        now = self.now
        count = 0
        while not stop.triggered:
            if nowq:
                if heap and heap[0][0] <= now:
                    head = pop(heap)
                    now = self.now = head[0]
                    event = head[2]
                else:
                    event = popleft()
            elif heap:
                when = heap[0][0]
                if when > until:
                    break
                event = pop(heap)[2]
                now = self.now = when
            else:
                break
            count += 1
            callbacks = event.callbacks
            recyclable = event._recyclable
            if recyclable:
                # Pooled single-shot event: dispatch without touching the
                # ``processed`` flag (it is reset here anyway) and refile.
                try:
                    [callback] = callbacks
                except ValueError:
                    event._run_callbacks()
                    event.processed = False
                else:
                    callbacks.clear()
                    callback(event)
                    if callbacks:
                        callbacks.clear()
                event.triggered = False
                event.value = None
                event._exception = None
                free = tfree if recyclable == _TIMEOUT_POOL else cfree
                if len(free) < _POOL_CAP:
                    free.append(event)
            else:
                try:
                    [callback] = callbacks
                except ValueError:
                    event._run_callbacks()
                else:
                    event.processed = True
                    callbacks.clear()
                    callback(event)
        return count
