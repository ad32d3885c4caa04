"""The discrete-event simulation environment.

:class:`Environment` owns the simulation clock and the event heap.  All other
components (servers, workload generators, controllers, agents) are processes
or callbacks scheduled on a single environment, which makes every experiment
fully deterministic given its random seed.

Example
-------
>>> from repro.sim.core import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
3.0

Performance notes
-----------------
:meth:`Environment.run` is the kernel's innermost loop — every simulated
event in every experiment passes through it — so it inlines the work of
:meth:`step` (heap pop, clock advance, callback dispatch) with
function-local bindings instead of calling ``self.step()`` per event.
There is exactly one dispatch loop: an unbounded run is a bounded one
with ``stop_time = inf``.  :meth:`step` keeps the identical one-event
semantics for callers that single-step.  The monotonic-clock sanitizer
guard reads a module-level boolean (``_CLOCK_CHECK``) kept current by a
:func:`repro.check.config.subscribe` callback rather than calling
``config.active("clock")`` per event; ``run`` binds it to a loop-local
once on entry, so (dis)arming the sanitizer takes effect at the next
``run``/``step`` call.

A still-``PENDING`` event popped off the heap is, by construction, a
:class:`Process` placeholder for its own first resume (see
``Process.__init__``); the dispatch loop recognises it and calls
``Process._start`` directly.  Consequently only *triggered* events may be
passed to :meth:`schedule`.

The pending-event set is a plain ``heapq`` list of ``(when, priority,
seq, event)`` tuples.  An amortised-O(1) bucket queue was tried as an
alternative and lost to the C ``heapq`` on every workload measured (see
DESIGN.md, "Million-user scale"), so the heap is the only structure.

Defused first-resume placeholders (see :meth:`Process.interrupt`) stay in
the heap until their timestamp is reached (*lazy deletion*); the
environment counts them in ``_dead`` so :attr:`queue_size` and :meth:`peek`
report only live events.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

from repro.check import config as _checks
from repro.errors import InvariantViolation, SimulationError
from repro.sim.events import (
    NORMAL,
    PENDING,
    PROCESSED,
    Condition,
    Event,
    Process,
    Timeout,
    all_of,
    any_of,
)

_INF = float("inf")

#: Cached ``config.active("clock")``; re-resolved whenever the sanitizer
#: configuration changes.
_CLOCK_CHECK = False


def _refresh_check_flags() -> None:
    global _CLOCK_CHECK
    _CLOCK_CHECK = _checks.active("clock")


_checks.subscribe(_refresh_check_flags)


def _clock_violation(now: float, when: float) -> InvariantViolation:
    return InvariantViolation(
        "sim.core", "monotonic-clock", now,
        f"event scheduled at t={when!r} popped after the clock "
        f"reached {now!r}",
    )


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Simulated time at which the clock starts (seconds); must be finite.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        now = float(initial_time)
        if not -_INF < now < _INF:  # rejects NaN as well as +/-inf
            raise SimulationError(
                f"initial_time must be finite, got {initial_time!r}"
            )
        self._now = now
        self._seq = 0
        #: Defused-but-still-queued entries awaiting lazy deletion.
        self._dead = 0
        self._active_proc: Optional[Process] = None
        self._active_event: Optional[Event] = None
        self._heap: list[tuple[float, int, int, Event]] = []

    # -- clock & introspection ----------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    @property
    def active_event(self) -> Optional[Event]:
        """The event whose callbacks are currently running, if any."""
        return self._active_event

    @property
    def events_scheduled(self) -> int:
        """Number of events scheduled on this environment since it was made.

        Every heap push counts once: a triggered event, a timeout, a
        process's first resume, an interrupt wakeup.  An event a component
        dispatches in place without queueing it (a lone processor
        completion, see :mod:`repro.sim.processor`) does not count.  Dividing
        by completed requests gives the kernel's events per request.
        """
        return self._seq

    @property
    def queue_size(self) -> int:
        """Number of *live* events currently scheduled.

        Defused first-resume placeholders awaiting lazy deletion are
        excluded — callers see only events that can still fire.
        """
        return len(self._heap) - self._dead

    # -- event construction ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now with ``value``."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when *all* of ``events`` have fired successfully."""
        return all_of(self, events)

    def any_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when *any* of ``events`` fires successfully."""
        return any_of(self, events)

    # -- scheduling -----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a *triggered* ``event`` on the queue ``delay`` seconds from now.

        ``delay`` must be finite and non-negative: a negative delay would
        schedule into the past, and NaN/inf delays (which sail past a plain
        ``delay < 0`` guard because every NaN comparison is false) would
        silently corrupt the ordering invariant of the pending-event set.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule into the past or with a non-finite delay "
                f"(delay={delay!r})"
            )
        self._seq += 1
        heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next *live* scheduled event, or ``inf`` if none remain.

        Dead entries (defused first-resume placeholders) at the front of the
        queue are purged rather than reported, so the returned time is one at
        which simulation state can actually change.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[3]
            if event._state == PENDING and getattr(event, "_defused", False):
                heappop(heap)
                self._dead -= 1
                continue
            return head[0]
        return _INF

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its fire time.

        One step may also run a second event's callbacks: a
        :class:`~repro.sim.processor.ContentionProcessor` whose completion
        timer finds exactly one job done, with nothing else due at that
        instant, dispatches the job's ``done`` event in place, exactly as
        the next step would have.
        """
        heap = self._heap
        if not heap:
            raise SimulationError("step() on an empty event heap")
        when, _prio, _seq, event = heappop(heap)
        if when < self._now and _CLOCK_CHECK:
            raise _clock_violation(self._now, when)
        self._now = when
        if event._state == PENDING:
            # A process's directly-scheduled first resume.
            event._start()
            return
        event._state = PROCESSED
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            self._active_event = event
            for callback in callbacks:
                callback(event)
            self._active_event = None
        elif not event._ok and isinstance(event, Process):
            # A failed process nobody is waiting on: surface the error rather
            # than dropping it silently.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number (run
        until that simulated time), or an :class:`Event` (run until it has
        been processed; its value is returned, and a failed event re-raises
        its exception).

        The time bound is **inclusive**: events scheduled exactly at
        ``until`` execute before the call returns, and the clock lands on
        ``until`` afterwards.  ``until=inf`` is equivalent to unbounded;
        NaN is rejected.
        """
        stop_event: Optional[Event] = None
        stop_time = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time != stop_time:  # NaN: every comparison below would lie
                raise SimulationError("run(until=nan) is not a simulated time")
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})"
                )

        # Hot loop: inlined step() with local bindings, semantically
        # identical to step(); event states are the literal PENDING=0 /
        # PROCESSED=2.  With no bound, stop_time is inf and the head check
        # never fires.
        heap = self._heap
        pop = heappop
        clock_check = _CLOCK_CHECK  # resolved once per run() entry
        now = self._now
        # The clock lives in the loop-local ``now``; ``self._now`` is only
        # written at points where user code can observe it (process resume,
        # callback dispatch, an escaping exception) and once when the loop
        # ends.  Events with no observers never pay the attribute store.
        while heap:
            if stop_event is not None and stop_event._state == 2:
                break
            if heap[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _prio, _seq, event = pop(heap)
            if clock_check and when < now:
                self._now = now
                raise _clock_violation(now, when)
            now = when
            if event._state == 0:
                self._now = now
                event._start()
                continue
            event._state = 2
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                self._now = now
                self._active_event = event
                for callback in callbacks:
                    callback(event)
                self._active_event = None
            elif not event._ok and isinstance(event, Process):
                self._now = now
                raise event._value
        self._now = now

        if stop_event is not None:
            if stop_event._state != PROCESSED:
                raise SimulationError("run() ended before its `until` event fired")
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time != _INF and self._now < stop_time:
            self._now = stop_time
        return None
