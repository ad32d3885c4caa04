"""Regression tests for the kernel-correctness bugfix pass.

Four latent kernel bugs, each pinned here:

1. ``float("nan")`` sailed past the ``delay < 0`` guard (every NaN
   comparison is false) in ``schedule()`` / ``timeout()``, silently
   corrupting the heap's ordering invariant; ``run(until=nan)`` made
   every stop-time comparison false and ran to queue exhaustion.  All
   three now raise :class:`SimulationError`, as do infinite delays.
2. ``Environment(initial_time=...)`` accepted NaN and +/-inf, leaving a
   clock that every later timestamp inherits.  It now raises too.
3. ``peek()`` and ``queue_size`` counted defused first-resume
   placeholders (dead entries kept by lazy deletion), so an idle-looking
   environment reported phantom pending work and a wrong next-event time.
4. The ``run(until=t)`` boundary is *inclusive* — events at exactly ``t``
   execute and the clock lands on ``t`` — for a time bound, a stop event
   and ``until=inf`` alike.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


class TestNonFiniteDelays:
    def test_nan_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError, match="non-finite"):
            env.timeout(float("nan"))

    def test_infinite_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError, match="non-finite"):
            env.timeout(math.inf)

    def test_negative_timeout_still_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_schedule_rejects_nan_inf_negative(self):
        env = Environment()
        for delay in (float("nan"), math.inf, -math.inf, -0.5):
            with pytest.raises(SimulationError):
                env.schedule(env.event(), delay=delay)
        assert env.queue_size == 0  # nothing leaked onto the queue

    def test_run_until_nan_rejected(self):
        env = Environment()
        env.timeout(1.0)
        with pytest.raises(SimulationError, match="nan"):
            env.run(until=float("nan"))
        assert env.now == 0.0  # nothing dispatched

    @pytest.mark.parametrize("start", [float("nan"), math.inf, -math.inf])
    def test_non_finite_initial_time_rejected(self, start):
        with pytest.raises(SimulationError, match="finite"):
            Environment(initial_time=start)


def _defused_placeholder(env):
    """Spawn-and-interrupt a process in one step, leaving its queued
    first-resume entry dead in the heap (lazy deletion)."""
    def body(env):
        yield env.timeout(100.0)

    proc = env.process(body(env))
    proc.callbacks.append(lambda ev: None)  # observe the Interrupt failure
    proc.interrupt("die")
    return proc


class TestDeadEntryAccounting:
    def test_queue_size_excludes_defused_placeholders(self):
        # Defusing leaves the dead placeholder queued (lazy deletion) next
        # to two live entries: the interrupt delivery and the timeout.
        env = Environment()
        _defused_placeholder(env)
        env.timeout(5.0)
        assert len(env._heap) == 3
        assert env.queue_size == 2  # pre-fix: reported 3

    def test_peek_purges_dead_head(self):
        env = Environment()
        _defused_placeholder(env)  # dead placeholder heads the queue at t=0
        env.timeout(5.0)
        assert env.peek() == 0.0  # the live interrupt delivery, not the corpse
        assert env._dead == 0     # the purge decremented the dead count
        assert len(env._heap) == env.queue_size == 2

    def test_accounting_settles_after_run(self):
        env = Environment()
        for _ in range(3):
            _defused_placeholder(env)
        env.timeout(1.0)
        env.run()
        assert env.queue_size == 0
        assert env._dead == 0  # every dead entry decremented exactly once


class TestInclusiveUntilBoundary:
    def test_event_exactly_at_until_executes(self):
        env = Environment()
        fired = []
        env.timeout(5.0).callbacks.append(lambda ev: fired.append(env.now))
        env.timeout(5.5).callbacks.append(lambda ev: fired.append("late"))
        env.run(until=5.0)
        assert fired == [5.0]
        assert env.now == 5.0

    def test_clock_lands_on_until_when_queue_is_quiet(self):
        env = Environment()
        env.timeout(1.0).callbacks.append(lambda ev: None)
        env.run(until=7.0)
        assert env.now == 7.0

    def test_until_inf_is_unbounded(self):
        env = Environment()
        fired = []
        env.timeout(3.0).callbacks.append(lambda ev: fired.append(env.now))
        env.run(until=math.inf)
        assert fired == [3.0]
        assert env.now == 3.0

    def test_heap_bounded_loop_with_stop_event(self):
        # The stop-event bound of the dispatch loop: events at the
        # stop event's own timestamp but queued after it do not run.
        env = Environment()
        fired = []
        stop = env.timeout(5.0)
        env.timeout(5.0).callbacks.append(lambda ev: fired.append("same-time"))
        env.run(until=stop)
        assert env.now == 5.0
        # The same-time event queued *after* the stop event stays pending.
        assert fired == []
        assert env.queue_size == 1
