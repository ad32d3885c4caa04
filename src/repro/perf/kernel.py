"""Kernel microbenchmark scenarios and the same-seed digest helpers.

Five scenarios exercise the discrete-event kernel's hot paths in
isolation — exactly the operations every experiment in the reproduction is
made of:

``event-dispatch``
    raw dispatch throughput: N pre-triggered events drained by ``run()``
    (pop, clock advance, state flip; no callbacks) in batches of
    ``DISPATCH_BATCH`` so the heap stays at a realistic depth and the C
    ``heappop`` does not drown out the dispatch loop being measured.  This
    is the headline *event throughput* number the CI regression gate
    tracks; GC is paused over the timed drains so the setup allocations
    don't bill collection pauses to the kernel.
``timeout-churn``
    a process yielding fresh ``timeout`` events back to back (generator
    resume + timeout allocation + dispatch).
``acquire-release``
    uncontended :class:`repro.sim.resources.Resource` cycles (the thread /
    connection pool fast path).
``condition-fanin``
    ``all_of``/``any_of`` over K timeouts, repeated (the broker's blocking
    poll shape).
``fig5-autoscale``
    a miniature end-to-end DCM autoscale run shaped like the paper's
    Fig 5 race — the same scenario the same-seed digest regression test
    pins bit-for-bit (see :func:`fig5_scenario` / :func:`autoscale_digest`).

A separate *scale* section exercises the million-user path:
``fig5-100k`` / ``fig5-1m`` replay the Large Variation trace over a
:class:`~repro.workload.batched.BatchedPopulation` at 10⁵ and 10⁶ users
respectively (see :func:`fig5_scale_scenario`).  The 10⁶ variant is the
acceptance run the committed baseline records — a full Large Variation
trace at a million users in minutes, impossible with per-user sessions.

Wall-clock reads in this module are benchmark telemetry only — they are
what is being *measured* — and never feed back into simulation results,
hence the ``DCM001`` suppressions.
"""

from __future__ import annotations

import gc
import hashlib
import json
from time import perf_counter  # repro: noqa[DCM001] -- benchmark timing is the product here
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim import Environment, Resource

#: (full, quick) operation counts per scenario.
SIZES = {
    "event-dispatch": (200_000, 50_000),
    "timeout-churn": (100_000, 25_000),
    "acquire-release": (50_000, 12_000),
    "condition-fanin": (5_000, 1_200),
}

#: Fan-in width for the condition scenario.
FANIN_WIDTH = 8

#: Heap depth per timed drain in the dispatch scenario.
DISPATCH_BATCH = 2_000

#: Fixed parameters of the Fig-5-shaped digest scenario.  Changing any of
#: these invalidates the golden digest in tests/test_kernel_digest.py.
FIG5_SEED = 0
FIG5_DEMAND_SCALE = 8.0
FIG5_TRACE = (300.0, 150.0, 0.3, 0.9)  # sine_trace(duration, period, lo, hi)
FIG5_MAX_USERS = 185

#: Populations for the batched Large-Variation scale benches.
FIG5_1M_USERS = 1_000_000
FIG5_100K_USERS = 100_000
#: The 100k variant caps its horizon so CI's quick gate stays seconds-fast
#: (the full Large Variation trace is 600 simulated seconds).
FIG5_100K_DURATION = 60.0


def bench_event_dispatch(n: int) -> Tuple[int, float]:
    """Drain ``n`` pre-triggered events; timed regions are ``run()`` only."""
    env = Environment()
    batch = DISPATCH_BATCH
    elapsed = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n // batch):
            for i in range(batch):
                env.event().succeed(i)
            start = perf_counter()  # repro: noqa[DCM001] -- benchmark timing
            env.run()
            elapsed += perf_counter() - start  # repro: noqa[DCM001] -- benchmark timing
    finally:
        if gc_was_enabled:
            gc.enable()
    return n, elapsed


def bench_timeout_churn(n: int) -> Tuple[int, float]:
    """One process yielding ``n`` fresh timeouts back to back."""
    env = Environment()

    def ticker(env: Environment):
        for _ in range(n):
            yield env.timeout(1.0)

    env.process(ticker(env))
    start = perf_counter()  # repro: noqa[DCM001] -- benchmark timing
    env.run()
    return n, perf_counter() - start  # repro: noqa[DCM001] -- benchmark timing


def bench_acquire_release(n: int) -> Tuple[int, float]:
    """Uncontended acquire/yield/release cycles on a capacity-4 pool."""
    env = Environment()
    pool = Resource(env, capacity=4, name="bench")

    def worker(env: Environment):
        for _ in range(n):
            req = pool.acquire()
            try:
                yield req
            finally:
                pool.release(req)

    env.process(worker(env))
    start = perf_counter()  # repro: noqa[DCM001] -- benchmark timing
    env.run()
    return n, perf_counter() - start  # repro: noqa[DCM001] -- benchmark timing


def bench_condition_fanin(n: int) -> Tuple[int, float]:
    """``all_of`` + ``any_of`` over FANIN_WIDTH timeouts, ``n`` rounds."""
    env = Environment()
    width = FANIN_WIDTH

    def worker(env: Environment):
        for _ in range(n):
            yield env.all_of([env.timeout(1.0) for _ in range(width)])
            yield env.any_of([env.timeout(1.0) for _ in range(width)])

    env.process(worker(env))
    start = perf_counter()  # repro: noqa[DCM001] -- benchmark timing
    env.run()
    return 2 * n * width, perf_counter() - start  # repro: noqa[DCM001] -- benchmark timing


def fig5_scenario(seed: int = FIG5_SEED,
                  demand_scale: float = FIG5_DEMAND_SCALE):
    """The Fig-5-shaped autoscale scenario the digest test pins
    bit-for-bit."""
    from repro.model import ConcurrencyModel
    from repro.scenario import ScenarioSpec
    from repro.workload import sine_trace

    # Analytic Table-I models (knee-invariant rescale), so the scenario
    # needs no training sweep.
    models = {
        "app": ConcurrencyModel(
            s0=2.84e-2 / 11.03 * demand_scale,
            alpha=9.87e-3 / 11.03 * demand_scale,
            beta=4.54e-5 / 11.03 * demand_scale,
            tier="app",
        ),
        "db": ConcurrencyModel(
            s0=7.19e-3 / 4.45 * demand_scale,
            alpha=5.04e-3 / 4.45 * demand_scale,
            beta=1.65e-6 / 4.45 * demand_scale,
            tier="db",
        ),
    }
    return ScenarioSpec(
        hardware="1/1/1",
        controller="dcm",
        models=models,
        workload="trace",
        trace=sine_trace(*FIG5_TRACE),
        max_users=FIG5_MAX_USERS,
        seed=seed,
        demand_scale=demand_scale,
    )


def run_fig5(spec=None):
    """Run the Fig-5-shaped scenario to its horizon; returns the stopped
    :class:`~repro.scenario.Deployment`."""
    from repro.scenario import Deployment

    with Deployment(spec if spec is not None else fig5_scenario()) as dep:
        dep.run()
    return dep


def digest_payload(dep) -> Dict[str, Any]:
    """The JSON-able projection of an autoscale run the digest covers."""
    return {
        "request_log": dep.system.request_log,
        "failed": len(dep.system.failure_log),
        "vm_seconds": dep.hypervisor.billing.vm_seconds(dep.duration),
        "timelines": {t: dep.controller.scaling_timeline(t)
                      for t in ("app", "db")},
    }


def autoscale_digest(dep) -> str:
    """sha256 over the canonical JSON of :func:`digest_payload`."""
    text = json.dumps(digest_payload(dep), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bench_fig5(quick: bool) -> Tuple[int, float, int]:
    """End-to-end Fig-5-shaped run: ``(events scheduled, seconds,
    completed requests)``."""
    spec = fig5_scenario(
        demand_scale=FIG5_DEMAND_SCALE * (2.0 if quick else 1.0)
    )
    start = perf_counter()  # repro: noqa[DCM001] -- benchmark timing
    dep = run_fig5(spec)
    elapsed = perf_counter() - start  # repro: noqa[DCM001] -- benchmark timing
    return dep.env.events_scheduled, elapsed, len(dep.system.request_log)


def fig5_scale_scenario(max_users: int, duration: Optional[float] = None,
                        seed: int = 0):
    """A Large-Variation replay at ``max_users`` via the million-user path:
    batched aggregate population, no monitoring (pure workload/kernel
    pressure)."""
    from repro.scenario import ScenarioSpec
    from repro.workload import large_variation

    return ScenarioSpec(
        hardware="1/1/1",
        soft="1000/100/80",
        seed=seed,
        monitoring=False,
        workload="batched-trace",
        max_users=max_users,
        think_time=3.0,
        trace=large_variation(),
        batches=8,
        window=1000,
        duration=duration,
    )


def bench_fig5_scale(max_users: int, duration: Optional[float] = None
                     ) -> Tuple[int, float, int]:
    """Run one batched Large-Variation replay: ``(events scheduled,
    seconds, completed requests)``."""
    from repro.scenario import Deployment

    spec = fig5_scale_scenario(max_users, duration)
    start = perf_counter()  # repro: noqa[DCM001] -- benchmark timing
    with Deployment(spec) as dep:
        dep.run()
    elapsed = perf_counter() - start  # repro: noqa[DCM001] -- benchmark timing
    return dep.env.events_scheduled, elapsed, len(dep.system.request_log)


def bench_fig5_100k() -> Tuple[int, float, int]:
    """The CI-sized scale bench: 10⁵ users, 60 s horizon."""
    return bench_fig5_scale(FIG5_100K_USERS, FIG5_100K_DURATION)


def bench_fig5_1m() -> Tuple[int, float, int]:
    """The acceptance-sized scale bench: 10⁶ users, full 600 s trace."""
    return bench_fig5_scale(FIG5_1M_USERS)


#: name -> callable(ops_count) used by the suite runner; fig5 is special
#: cased there because its cost is a scenario, not an op count.
MICRO_BENCHES: Dict[str, Callable[[int], Tuple[int, float]]] = {
    "event-dispatch": bench_event_dispatch,
    "timeout-churn": bench_timeout_churn,
    "acquire-release": bench_acquire_release,
    "condition-fanin": bench_condition_fanin,
}
