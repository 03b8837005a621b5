"""Discrete-event simulation engine.

This is the foundational substrate for the cloud-bursting simulator. The
paper's testbed (an 8-VM internal Hadoop cluster plus a 2-VM Amazon EMR
external cloud connected by a thin Internet pipe) is replaced here by a
deterministic event-driven simulation; every other subsystem (clusters,
fluid-flow network links, upload/download pipelines) is built on top of
this engine.

Design notes
------------
* The engine is a classic calendar-queue simulator: a binary heap of
  :class:`Event` objects ordered by ``(time, seq)`` via ``Event.__lt__``.
  The monotonically increasing sequence number guarantees a
  *deterministic* FIFO tie-break for events scheduled at the same instant,
  which in turn makes whole simulation runs reproducible bit-for-bit given
  a seeded RNG.
* Events are cheap, cancellable ``__slots__`` handles. Cancellation is
  lazy: a cancelled event stays in the heap and is skipped when popped.
  This keeps ``cancel`` O(1), which matters because the fluid-flow link
  model (:mod:`repro.sim.network`) reschedules its next-completion event on
  every capacity change.
* That same rescheduling pattern fills the heap with dead entries, so the
  engine periodically *compacts*: every ``_COMPACT_CHECK_EVERY`` pushes
  (stretched for very large heaps so the scan amortises to O(1)/push) it
  counts cancelled entries and, past a size floor and a cancelled
  fraction, rebuilds the heap from the live events only. The trigger
  depends only on push counts and cancellation flags — both deterministic
  — and heapify preserves the total ``(time, seq)`` order, so compaction
  never changes execution order.
* Callbacks run synchronously at their scheduled time; they may schedule
  further events (including at the current time).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Event:
    """A cancellable handle to a scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    seq:
        Monotone tie-break counter assigned by the simulator.
    callback:
        Zero-or-more argument callable invoked at ``time``.
    args:
        Positional arguments passed to ``callback``.
    cancelled:
        Lazily honoured cancellation flag.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled

    def __lt__(self, other: "Event") -> bool:
        # Heap order: earliest time first, FIFO (schedule order) on ties.
        # Hot path (every heap sift): locals instead of repeated slot loads.
        t = self.time
        o = other.time
        if t != o:
            return t < o
        return self.seq < other.seq

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.seq}{state})"

    def cancel(self) -> None:
        """Mark this event so the engine skips it when popped."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled


#: Base push-count interval between cancelled-entry censuses of the heap.
#: For heaps larger than twice this, the interval stretches to half the
#: heap size so the O(n) scan stays amortised O(1) per push.
_COMPACT_CHECK_EVERY = 512
#: Never bother compacting heaps smaller than this.
_COMPACT_MIN_SIZE = 128
#: Rebuild when at least this fraction of heap entries is cancelled.
_COMPACT_FRACTION = 0.5


class Simulator:
    """Deterministic event-driven simulator with a float time axis.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Event] = []
        self._next_seq = 0
        self._pushes_until_census = _COMPACT_CHECK_EVERY
        self._running = False
        self._events_processed = 0
        self.compactions = 0
        #: Opt-in observer invoked for every executed event, after the clock
        #: advances and before the callback runs. The runtime invariant
        #: checker (:mod:`repro.analysis.invariants`) hangs off this; it is
        #: a single attribute (not a list) to keep the hot loop at one
        #: ``None`` check per event.
        self.on_event: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    def peek(self) -> Optional[float]:
        """Time of the next *active* event, or ``None`` if the heap is drained.

        Cancelled events at the top of the heap are discarded as a side
        effect, so this is amortised O(log n).
        """
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0].time

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self._now + float(delay), callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        time = float(time)
        if time != time:  # repro: allow[FLT001] NaN is the one float that differs from itself
            raise SimulationError("cannot schedule an event at NaN time")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: t={time} < now={self._now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, event)
        self._pushes_until_census -= 1
        if self._pushes_until_census <= 0:
            self._maybe_compact()
        return event

    def _maybe_compact(self) -> None:
        """Census the heap; rebuild it from live events when mostly dead.

        Cancellation is lazy (O(1) flag), so the fluid-flow link's
        cancel-and-reschedule pattern leaves the heap dominated by dead
        entries. The census runs every ``_COMPACT_CHECK_EVERY`` pushes
        (stretched to half the heap size for very large heaps) —
        an O(n) scan amortised to O(1) per push — and the rebuild is a
        filter + ``heapify``, which preserves the total ``(time, seq)``
        order exactly, so execution order (and trace hashes) are unchanged.

        The rebuild mutates the heap list *in place* (slice assignment):
        the execution loops hold a local alias to the list, and rebinding
        ``self._heap`` under them would strand them on the stale storage.
        """
        heap = self._heap
        n = len(heap)
        # Amortise the O(n) census: a heap that stays large and mostly
        # live is rescanned only after ~n/2 further pushes, so the scan
        # cost stays O(1) per push no matter the heap size. The interval
        # depends only on the (deterministic) heap length at census time.
        self._pushes_until_census = max(_COMPACT_CHECK_EVERY, n >> 1)
        if n < _COMPACT_MIN_SIZE:
            return
        n_cancelled = sum(1 for event in heap if event.cancelled)
        if n_cancelled < _COMPACT_FRACTION * n:
            return
        heap[:] = [event for event in heap if not event.cancelled]
        heapq.heapify(heap)
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next active event.

        Returns ``True`` if an event ran, ``False`` if the heap is empty.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            event = pop(heap)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            if self.on_event is not None:
                self.on_event(event)
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            If given, stop once the next event lies strictly beyond this
            time, and advance the clock to exactly ``until``.
        max_events:
            Safety valve for tests: stop after this many events.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    return
                event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if until is not None and event.time > until:
                    break
                pop(heap)
                self._now = event.time
                self._events_processed += 1
                if self.on_event is not None:
                    self.on_event(event)
                event.callback(*event.args)
                executed += 1
            if until is not None and until > self._now:
                self._now = float(until)
        finally:
            self._running = False

    def run_until(self, time: float, inclusive: bool = False) -> int:
        """Incrementally step the simulation up to an external instant.

        Processes every active event with ``event.time < time`` (or
        ``<= time`` when ``inclusive``), then advances the clock to exactly
        ``time``. Returns the number of events executed.

        This is the interleaving primitive for online use: a broker that
        receives a job submission stamped ``t`` calls ``run_until(t)`` so
        all simulation activity that precedes the arrival has happened,
        while events scheduled *at* ``t`` by the running simulation stay
        pending and fire after the arrival is handled — the same tie-break
        an offline run gives batch-arrival events, which are scheduled
        before the event loop starts and therefore carry lower sequence
        numbers than any event the running simulation produces.

        An arrival landing exactly on the next event time leaves that event
        pending (exclusive boundary); an arrival with an empty heap simply
        advances the clock.
        """
        if math.isnan(time):
            raise SimulationError("cannot run until NaN time")
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards: until={time} < now={self._now}"
            )
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if event.time > time:
                    break
                if not inclusive and event.time >= time:
                    break
                pop(heap)
                self._now = event.time
                self._events_processed += 1
                if self.on_event is not None:
                    self.on_event(event)
                event.callback(*event.args)
                executed += 1
            if time > self._now:
                self._now = float(time)
        finally:
            self._running = False
        return executed
