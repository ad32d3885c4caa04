"""Tests for the state-dependent processor-sharing CPU.

The crucial property (the whole substrate rests on it): with ``n`` jobs held
constant, aggregate throughput equals ``n / S*(n)`` where ``S*`` is the
paper's Eq (5) service time — i.e. Eq (7) emerges from the simulation.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import ContentionProcessor, Environment


def flat(n):
    """No contention: phi == 1 everywhere (ideal parallel CPU)."""
    return 1.0


def linear(alpha, s0):
    """Linear contention: S*(n) = s0 + alpha*(n-1)."""
    return lambda n: (s0 + alpha * (n - 1)) / s0


def paperlike(s0, alpha, beta):
    """The paper's Eq (5) inflation."""
    return lambda n: (s0 + alpha * (n - 1) + beta * n * (n - 1)) / s0


def test_single_job_takes_exactly_its_work():
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    done = cpu.execute(2.5)
    env.run(until=done)
    assert env.now == pytest.approx(2.5)
    assert cpu.completions == 1
    assert cpu.work_done == pytest.approx(2.5)


def test_zero_work_completes_immediately():
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    done = cpu.execute(0.0)
    env.run(until=done)
    assert env.now == 0.0


def test_negative_work_rejected():
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    with pytest.raises(SimulationError):
        cpu.execute(-1.0)


def test_inflation_must_be_one_at_single_thread():
    env = Environment()
    with pytest.raises(SimulationError, match=r"inflation\(1\)"):
        ContentionProcessor(env, lambda n: 2.0)


def test_two_equal_jobs_without_contention_finish_together_at_work():
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    d1 = cpu.execute(3.0)
    d2 = cpu.execute(3.0)
    env.run(until=env.all_of([d1, d2]))
    # phi == 1: each progresses at full rate despite sharing.
    assert env.now == pytest.approx(3.0)


def test_two_equal_jobs_with_linear_contention_are_slowed():
    s0, alpha = 1.0, 0.5
    env = Environment()
    cpu = ContentionProcessor(env, linear(alpha, s0))
    d1 = cpu.execute(1.0)
    d2 = cpu.execute(1.0)
    env.run(until=env.all_of([d1, d2]))
    # phi(2) = 1.5 -> both jobs take 1.0 * 1.5 = 1.5 s.
    assert env.now == pytest.approx(1.5)


def test_processor_sharing_is_egalitarian():
    """A short job submitted alongside a long one finishes first, and the
    long job's finish time accounts for the shared period."""
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    long = cpu.execute(10.0)
    short = cpu.execute(2.0)
    env.run(until=short)
    assert env.now == pytest.approx(2.0)
    env.run(until=long)
    assert env.now == pytest.approx(10.0)


def test_rate_change_on_departure_is_applied():
    """With linear contention, after the short job leaves, the long job
    speeds back up: finish = analytic hand computation."""
    s0, alpha = 1.0, 1.0  # phi(2) = 2, phi(1) = 1
    env = Environment()
    cpu = ContentionProcessor(env, linear(alpha, s0))
    long = cpu.execute(2.0)
    short = cpu.execute(1.0)
    env.run(until=short)
    # Shared at rate 1/2 each until short done: short finishes at t = 2.0.
    assert env.now == pytest.approx(2.0)
    env.run(until=long)
    # Long had 1.0 work left, now alone at rate 1: finishes at t = 3.0.
    assert env.now == pytest.approx(3.0)


def test_late_arrival_shares_remaining_work():
    s0, alpha = 1.0, 1.0
    env = Environment()
    cpu = ContentionProcessor(env, linear(alpha, s0))
    first = cpu.execute(2.0)
    holder = {}

    def second_submitter(env):
        yield env.timeout(1.0)
        holder["second"] = cpu.execute(2.0)

    env.process(second_submitter(env))
    env.run(until=first)
    # first: 1 work-unit alone (1 s), then 1 unit at rate 1/2 -> t = 3.0.
    assert env.now == pytest.approx(3.0)
    env.run(until=holder["second"])
    # second: had 1 unit left at t=3, alone at rate 1 -> t = 4.0.
    assert env.now == pytest.approx(4.0)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 40, 80, 160])
def test_sustained_throughput_matches_eq7(n):
    """Closed loop with n permanently busy jobs: measured completion rate
    must equal n / S*(n) — the paper's Eq (7) with gamma*K = 1."""
    s0, alpha, beta = 7.19e-3, 5.04e-3 / 4.45, 1.65e-6 / 4.45
    env = Environment()
    cpu = ContentionProcessor(env, paperlike(s0, alpha, beta))

    def looper(env):
        while True:
            yield cpu.execute(s0)

    for _ in range(n):
        env.process(looper(env))
    warmup = 5.0
    env.run(until=warmup)
    base = cpu.completions
    env.run(until=warmup + 20.0)
    measured = (cpu.completions - base) / 20.0
    s_star = s0 + alpha * (n - 1) + beta * n * (n - 1)
    expected = n / s_star
    assert measured == pytest.approx(expected, rel=0.02)


def test_peak_rate_found_at_optimum():
    s0, alpha, beta = 1.0, 0.1, 0.01
    # n_opt = sqrt((s0-alpha)/beta) = sqrt(90) ~ 9.49 -> peak near n=9..10
    env = Environment()
    cpu = ContentionProcessor(env, paperlike(s0, alpha, beta))
    rates = {n: n / (s0 + alpha * (n - 1) + beta * n * (n - 1)) for n in range(1, 100)}
    assert cpu.peak_rate == pytest.approx(max(rates.values()))


def test_utilization_and_efficiency_are_one_at_optimal_concurrency():
    s0, alpha, beta = 1.0, 0.1, 0.01
    env = Environment()
    cpu = ContentionProcessor(env, paperlike(s0, alpha, beta))
    n_opt = cpu.peak_concurrency
    rate_opt = n_opt / (s0 + alpha * (n_opt - 1) + beta * n_opt * (n_opt - 1))
    assert rate_opt == pytest.approx(cpu.peak_rate)

    def looper(env):
        while True:
            yield cpu.execute(s0)

    for _ in range(n_opt):
        env.process(looper(env))
    env.run(until=50.0)
    util = cpu.utilization_integral() / 50.0
    eff = cpu.efficiency_integral() / 50.0
    assert util > 0.99
    assert eff > 0.99


def test_utilization_tracks_delivered_throughput_fraction_below_peak():
    """Below the peak the busy gauge equals the delivered-throughput
    fraction (>= the raw thread fraction): at n = n_peak/3 the flat curve
    already delivers most of the peak, and the gauge must reflect that so
    threshold controllers scale before saturation."""
    s0, alpha, beta = 1.0, 0.1, 0.01
    env = Environment()
    cpu = ContentionProcessor(env, paperlike(s0, alpha, beta))
    n = max(1, cpu.peak_concurrency // 3)
    expected = max(cpu.rate(n) / cpu.peak_rate, n / cpu.peak_concurrency)

    def looper(env):
        while True:
            yield cpu.execute(s0)

    for _ in range(n):
        env.process(looper(env))
    env.run(until=50.0)
    util = cpu.utilization_integral() / 50.0
    assert util == pytest.approx(expected, rel=0.02)
    assert util >= n / cpu.peak_concurrency


def test_efficiency_degrades_past_optimum_but_utilization_saturates():
    """Over-threading: CPU looks 100 % busy (utilization) while delivering
    less useful work (efficiency) — the phenomenon behind Fig 2(a)."""
    s0, alpha, beta = 1.0, 0.1, 0.01
    env = Environment()
    cpu = ContentionProcessor(env, paperlike(s0, alpha, beta))

    def looper(env):
        while True:
            yield cpu.execute(s0)

    for _ in range(50):  # way past n_opt ~ 9.5
        env.process(looper(env))
    env.run(until=50.0)
    util = cpu.utilization_integral() / 50.0
    eff = cpu.efficiency_integral() / 50.0
    assert util > 0.99
    assert eff < 0.85


def test_busy_integral_tracks_mean_concurrency():
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    cpu.execute(4.0)
    cpu.execute(2.0)
    env.run()
    # concurrency 2 for [0,2], 1 for [2,4] -> integral = 6
    assert cpu.busy_integral() == pytest.approx(6.0)


def test_conservation_all_submitted_jobs_complete():
    env = Environment()
    cpu = ContentionProcessor(env, paperlike(1.0, 0.2, 0.005))
    done = [cpu.execute(0.5 + 0.1 * i) for i in range(30)]
    env.run(until=env.all_of(done))
    assert cpu.completions == 30
    assert all(d.processed and d.ok for d in done)
    assert cpu.active_jobs == 0


# -- bad input fails loudly ----------------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_inflation_is_rejected(bad):
    """A NaN phi passed both range checks and armed zero-delay timers
    forever (the clock never left t=0).  Inside the peak scan it fails at
    construction; past the scan, at the first use."""
    env = Environment()
    with pytest.raises(SimulationError, match=r"inflation\(2\)"):
        ContentionProcessor(env, lambda n: 1.0 if n == 1 else bad,
                            peak_search_limit=4)
    cpu = ContentionProcessor(env, lambda n: 1.0 if n <= 4 else bad,
                              peak_search_limit=4)
    with pytest.raises(SimulationError):
        cpu.phi(5)
    for _ in range(4):
        cpu.execute(1.0)
    with pytest.raises(SimulationError):
        cpu.execute(1.0)  # n = 5 needs phi(5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.5])
def test_unphysical_inflation_anywhere_in_the_peak_scan_fails_at_construction(
    bad,
):
    """The peak scan samples phi at every n <= peak_search_limit; a bad
    value there is an error at construction, not a latent one at the n
    the run first reaches."""
    env = Environment()
    with pytest.raises(SimulationError, match=r"inflation\(2048\)"):
        ContentionProcessor(env, lambda n: bad if n == 2048 else 1.0)


@pytest.mark.parametrize("work", [float("nan"), float("inf")])
def test_non_finite_work_rejected(work):
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    with pytest.raises(SimulationError):
        cpu.execute(work)
    assert cpu.active_jobs == 0


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.5])
def test_bad_slowdown_rejected(factor):
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    with pytest.raises(SimulationError):
        cpu.set_slowdown(factor)
    assert cpu.slowdown == 1.0


# -- the completion path -------------------------------------------------------

def test_lone_completion_dispatches_in_place():
    """A lone completion with nothing else due runs its waiters at once,
    as the active event, without queueing ``done`` on the heap."""
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    seen = []

    def waiter(env):
        done = cpu.execute(1.0)
        yield done
        seen.append((env.now, env.active_event is done))

    env.process(waiter(env))
    env.timeout(5.0)  # keeps the heap non-empty past the completion
    env.run(until=2.0)
    assert seen == [(1.0, True)]
    # Process start, timeout, completion timer and process exit; ``done``
    # itself is never queued.
    assert env.events_scheduled == 4


def test_completion_tied_with_timeout_runs_after_it():
    """A timeout queued before the completion instant fires first, exactly
    as when ``done`` goes through ``succeed()``: in-place dispatch is only
    taken when nothing else is due now."""
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    order = []

    def job(env):
        yield cpu.execute(1.0)
        order.append(("job", env.now))

    def ticker(env):
        yield env.timeout(1.0)
        order.append(("timeout", env.now))

    env.process(job(env))
    env.process(ticker(env))  # its timeout is queued after the CPU timer
    env.run()
    assert order == [("timeout", 1.0), ("job", 1.0)]


def test_equal_jobs_complete_as_a_batch_in_fifo_order():
    env = Environment()
    cpu = ContentionProcessor(env, linear(0.5, 1.0))
    order = []

    def job(env, name):
        yield cpu.execute(1.0)
        order.append((name, env.now))

    for name in "abc":
        env.process(job(env, name))
    env.run()
    # phi(3) = 2: all three finish together at t = 2, in submission order.
    assert order == [("a", 2.0), ("b", 2.0), ("c", 2.0)]
    assert cpu.completions == 3


def test_run_until_completion_returns_at_it():
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    later = env.timeout(10.0)
    done = cpu.execute(2.5)
    assert env.run(until=done) is None
    assert env.now == 2.5
    assert done.processed and done.ok
    assert not later.processed


def test_slowdown_mid_job_invalidates_coefficients():
    """The per-n coefficients cached before a slowdown must not survive
    it: 1 work-s at full speed, then 1 work-s at half speed."""
    env = Environment()
    cpu = ContentionProcessor(env, flat)
    done = cpu.execute(2.0)
    env.run(until=1.0)
    cpu.set_slowdown(2.0)
    env.run(until=done)
    assert env.now == pytest.approx(3.0)
    assert cpu.work_done == pytest.approx(2.0)
    assert cpu.busy_integral() == pytest.approx(3.0)
    # Restoring the speed takes effect too.
    cpu.set_slowdown(1.0)
    again = cpu.execute(1.0)
    env.run(until=again)
    assert env.now == pytest.approx(4.0)


def test_fig5_scenario_event_budget():
    """Deterministic event count of the digest-pinned Fig-5 scenario: the
    completion path queues at most 260 000 events for its 10 791 requests
    (320 320 when every completion went through the heap)."""
    from repro.perf import run_fig5

    dep = run_fig5()
    assert len(dep.system.request_log) == 10_791
    assert dep.env.events_scheduled <= 260_000
