"""State-dependent processor-sharing CPU with multi-threading contention.

This is the physical heart of the substrate.  The paper's service-time model
(Section III-B) says that with ``N`` concurrently executing threads, each
request's service time inflates from the single-threaded ``S0`` to

    S*(N) = S0 + alpha*(N-1) + beta*N*(N-1)

i.e. by an *inflation factor* ``phi(N) = S*(N)/S0``.  We simulate exactly that
physics: when ``n`` jobs are in service, every job progresses through its
remaining work at rate ``1/phi(n)`` (work is measured in single-threaded
seconds).  Aggregate completion rate is therefore ``n / (S0*phi(n)) = n/S*(n)``
for homogeneous jobs — the paper's Eq (6)/(7) emerges from the simulation
rather than being baked into measurement code.

The implementation uses the classic *virtual time* trick for egalitarian
processor sharing: all active jobs accrue virtual work at the same rate, so a
job submitted when the accrued virtual work was ``V0`` completes when the
accrued work reaches ``V0 + work``.  Completion order is then a priority
queue on that threshold, and every arrival/departure costs ``O(log n)``.

Performance notes
-----------------
Every request pays for several arrivals and completions here, so the
completion path is kept lean without changing a single float or the order
of any event:

* **Per-n coefficients.**  ``phi(n)``, ``phi(n)*slowdown``, the rate and the
  two gauge coefficients are computed once per concurrency level and cached
  until :meth:`ContentionProcessor.set_slowdown`; :meth:`_advance` is left
  with one division and a few multiply-adds, the same float operations in
  the same order as computing them afresh.
* **Closure-free timers.**  Every completion timer calls one bound method
  made in ``__init__``; a timer superseded by a later arrival or departure
  recognises itself by identity (``timer is not self._timer``) and returns.
* **In-place dispatch of a lone completion.**  When exactly one job
  completes and no other event is due at the current instant, the kernel's
  next step would pop that job's ``done`` event and run its callbacks.
  :meth:`_on_timer` does exactly that in place instead of pushing ``done``
  onto the heap only to pop it again, so the event order is unchanged.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import NORMAL, PENDING, PROCESSED, TRIGGERED, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

_EPS = 1e-12
_INF = float("inf")

#: Per-concurrency coefficients: ``(phi(n), phi(n)*slowdown, rate, util
#: coefficient, eff coefficient)``.
_Coef = tuple[float, float, float, float, float]


def _checked_phi(n: int, raw: float) -> float:
    """``raw`` as the inflation factor for ``n`` jobs, or raise
    :class:`SimulationError` if it is unphysical."""
    val = float(raw)
    if n == 1 and abs(val - 1.0) > 1e-9:
        raise SimulationError(f"inflation(1) must be 1.0, got {val}")
    # One chained comparison: a bare ``val < 1`` lets NaN through, and a
    # NaN phi arms zero-delay timers forever.
    if not 1.0 - 1e-9 <= val < _INF:
        raise SimulationError(
            f"inflation({n}) = {val} is unphysical (must be finite and >= 1)"
        )
    return val


class ContentionProcessor:
    """A CPU shared by concurrent jobs under a contention-inflation law.

    Parameters
    ----------
    env:
        Owning environment.
    inflation:
        ``phi(n) -> float``; must satisfy ``phi(1) == 1`` and ``phi(n) >= 1``
        (finite).  ``phi`` is sampled lazily and cached, so it must be pure.
    peak_search_limit:
        Upper bound of the concurrency range scanned to find the peak
        processing rate used for the utilization metric.  The scan checks
        every value it samples, so a law that is unphysical anywhere in
        ``1..peak_search_limit`` fails at construction.
    name:
        Label for diagnostics.
    """

    def __init__(
        self,
        env: "Environment",
        inflation: Callable[[int], float],
        peak_search_limit: int = 2048,
        name: str = "",
    ) -> None:
        self.env = env
        self.name = name
        self._inflation_fn = inflation
        self._phi_cache: dict[int, float] = {}
        self._peak_rate, self._peak_concurrency = self._find_peak(peak_search_limit)

        # Virtual-time machinery.
        self._virtual = 0.0          # accrued per-job virtual work
        self._last_update = env.now  # last wall-clock at which _virtual advanced
        self._jobs: list[tuple[float, int, Event]] = []  # (threshold, seq, done)
        self._seq = 0
        # The armed completion timer, or None with no job in service.  A
        # timer that fires while not armed was superseded and does nothing.
        self._timer: Optional[Event] = None
        self._on_timer_cb = self._on_timer  # one bound method for every timer
        # Degradation multiplier on the effective inflation (SlowNode fault).
        # Exactly 1.0 multiplies through without changing any float (IEEE
        # guarantees x*1.0 == x), so the healthy path stays bit-identical.
        self._slowdown = 1.0
        self._coef: dict[int, _Coef] = {}  # n -> coefficients; see _coefficients

        # Monitoring accumulators.
        self._util_integral = 0.0    # integral of min(1, n/n_peak) dt
        self._eff_integral = 0.0     # integral of (rate ratio) dt
        self._busy_integral = 0.0    # integral of active job count dt
        self._nonidle_integral = 0.0  # time with >= 1 job in service
        self._completions = 0
        self._work_done = 0.0

    # -- inflation helpers ----------------------------------------------------
    def phi(self, n: int) -> float:
        """Cached inflation factor for ``n`` concurrent jobs."""
        val = self._phi_cache.get(n)
        if val is None:
            val = _checked_phi(n, self._inflation_fn(n))
            self._phi_cache[n] = val
        return val

    def rate(self, n: int) -> float:
        """Aggregate work-completion rate with ``n`` jobs (work-sec / sec)."""
        return 0.0 if n <= 0 else n / self.phi(n)

    @property
    def peak_rate(self) -> float:
        """Maximum achievable aggregate rate over all concurrency levels."""
        return self._peak_rate

    @property
    def peak_concurrency(self) -> int:
        """Concurrency level at which the aggregate rate peaks."""
        return self._peak_concurrency

    def _find_peak(self, limit: int) -> tuple[float, int]:
        best, best_n = 0.0, 1
        for n in range(1, limit + 1):
            rate = n / _checked_phi(n, self._inflation_fn(n))
            if rate > best:
                best, best_n = rate, n
        return best, best_n

    # -- introspection ----------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    @property
    def completions(self) -> int:
        """Total jobs completed since creation."""
        return self._completions

    @property
    def work_done(self) -> float:
        """Total single-threaded work-seconds completed since creation."""
        return self._work_done

    def utilization_integral(self) -> float:
        """Integral over time of the CPU-busy gauge.

        This is what a ``top``-style CPU gauge reports: how loaded the CPU
        looks.  Defined as ``max(rate(n)/peak_rate, n/n_peak)`` capped at 1:
        a CPU delivering 80 % of its peak useful throughput reads at least
        80 % busy, and an over-threaded CPU reads 100 % busy even though it
        delivers *less* useful work (thrash burns cycles).  Threshold
        controllers (EC2-AutoScale, DCM's VM level) consume this metric.
        """
        self._advance()
        return self._util_integral

    def efficiency_integral(self) -> float:
        """Integral over time of the *rate ratio* ``rate(n)/peak_rate``.

        Dividing a window's delta by the window length gives the fraction of
        the CPU's peak useful throughput actually delivered.  Unlike
        :meth:`utilization_integral` it reaches 1.0 only at the optimal
        concurrency and *drops* under over-threading — the waste DCM's
        concurrency management eliminates (visible in the ablation benches).
        """
        self._advance()
        return self._eff_integral

    def busy_integral(self) -> float:
        """Integral over time of the in-service job count (for mean conc.)."""
        self._advance()
        return self._busy_integral

    def nonidle_integral(self) -> float:
        """Total time with at least one job in service.

        Conditioning window averages on non-idle time puts measured
        (concurrency, throughput) pairs *on* the contention curve even at
        low load, where naive window averages fall below it (the server
        idles between requests).
        """
        self._advance()
        return self._nonidle_integral

    # -- degradation (SlowNode fault) -------------------------------------------
    @property
    def slowdown(self) -> float:
        """Current degradation multiplier (1.0 = healthy)."""
        return self._slowdown

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore) the CPU: effective inflation is
        ``phi(n) * factor``.  Settles accrued work at the old speed first,
        then re-arms the completion timer at the new speed."""
        if not 1.0 <= factor < _INF:
            raise SimulationError(
                f"slowdown factor must be finite and >= 1.0, got {factor}"
            )
        self._advance()
        self._slowdown = float(factor)
        self._coef.clear()
        self._reschedule()

    # -- job submission ---------------------------------------------------------
    def execute(self, work: float) -> Event:
        """Submit a job needing ``work`` single-threaded seconds.

        Returns an event that fires when the job completes.  Zero-work jobs
        complete immediately (still via the event queue, preserving FIFO
        causality).
        """
        if not 0.0 <= work < _INF:
            raise SimulationError(f"negative or non-finite work: {work!r}")
        done = Event(self.env)
        if work == 0.0:
            done.succeed()
            return done
        self._advance()
        self._seq += 1
        heappush(self._jobs, (self._virtual + work, self._seq, done))
        self._reschedule()
        return done

    # -- internals ----------------------------------------------------------------
    def _coefficients(self, n: int) -> _Coef:
        """Compute and cache the coefficients for ``n`` jobs in service."""
        phi = self.phi(n)
        phis = phi * self._slowdown
        rate = n / phis
        eff = rate / self._peak_rate
        coef = (phi, phis, rate, min(1.0, max(eff, n / self._peak_concurrency)), eff)
        self._coef[n] = coef
        return coef

    def _advance(self) -> None:
        """Accrue virtual work and monitoring integrals up to ``env.now``."""
        now = self.env._now
        dt = now - self._last_update
        self._last_update = now
        if dt > 0.0:
            n = len(self._jobs)
            if n:
                _phi, phis, rate, util, eff = (
                    self._coef.get(n) or self._coefficients(n)
                )
                self._virtual += dt / phis
                self._util_integral += dt * util
                self._eff_integral += dt * eff
                self._busy_integral += dt * n
                self._nonidle_integral += dt
                self._work_done += dt * rate

    def _reschedule(self) -> None:
        """(Re)arm the completion timer for the earliest-finishing job."""
        jobs = self._jobs
        if not jobs:
            self._timer = None
            return
        n = len(jobs)
        phi = (self._coef.get(n) or self._coefficients(n))[0]
        # Left-associated exactly as ``remaining * phi(n) * slowdown`` so a
        # slowed CPU rounds the same way it always has.
        delay = (jobs[0][0] - self._virtual) * phi * self._slowdown
        if delay <= 0.0:
            delay = 0.0
        elif not delay < _INF:  # NaN or inf
            raise SimulationError(
                f"{self.name or 'processor'}: non-finite completion delay {delay!r}"
            )
        env = self.env
        timer = Event(env)
        timer._state = TRIGGERED
        timer.callbacks.append(self._on_timer_cb)
        self._timer = timer
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now + delay, NORMAL, seq, timer))

    def _on_timer(self, timer: Event) -> None:
        if timer is not self._timer:
            return  # superseded by a later arrival/departure
        self._advance()
        jobs = self._jobs
        limit = self._virtual + _EPS * max(1.0, abs(self._virtual)) * 1e3
        completed: list[Event] = []
        while jobs and jobs[0][0] <= limit:
            completed.append(heappop(jobs)[2])
        self._completions += len(completed)
        self._reschedule()
        if len(completed) == 1:
            env = self.env
            heap = env._heap
            done = completed[0]
            if done._state == PENDING and (not heap or heap[0][0] > env._now):
                # ``done.succeed()`` would make ``done`` the very next event
                # the kernel pops (nothing else is due now), so dispatch it
                # here exactly as the kernel would.
                done._state = PROCESSED
                callbacks = done.callbacks
                done.callbacks = None
                env._active_event = done
                for callback in callbacks:
                    callback(done)
                env._active_event = timer
                return
        for done in completed:
            done.succeed()
