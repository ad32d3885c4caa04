"""The parallel experiment engine.

``run(spec, jobs=..., cache=...)`` executes the runner specs
(:mod:`repro.runner.specs`: steady points, sweeps, stress, training and
validation); a :class:`~repro.scenario.ScenarioSpec`, an autoscale run
included, executes through :class:`repro.scenario.Deployment`.  The engine

1. expands the spec into independent *point payloads* (plain dicts),
2. answers as many points as possible from the on-disk result cache,
3. fans the remaining points out over a ``ProcessPoolExecutor`` (``fork``
   start method; serial fallback when ``jobs == 1``, when only one point is
   pending, or when the platform lacks ``fork``),
4. gathers results in submission order (scheduling never affects output),
5. reduces them into the spec's value and reports timing/cache telemetry.

Determinism: each point's seed is a pure function of the spec (see
:mod:`repro.runner.specs`) and both fresh and cached results pass through
the same JSON encode/decode, so the reduced value is bit-identical at any
worker count and across cold/warm cache runs.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache, default_cache_dir, point_key
from repro.runner.points import decode_result, run_payload


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class RunTelemetry:
    """Timing and cache accounting for one engine invocation."""

    jobs: int
    cache_enabled: bool
    cache_dir: Optional[str] = None
    points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    point_seconds: List[float] = field(default_factory=list)

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker pool's wall-clock spent computing."""
        if self.wall_seconds <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.wall_seconds * self.jobs))

    def render(self) -> str:
        """ASCII telemetry table (see :func:`repro.analysis.tables.render_run_telemetry`)."""
        from repro.analysis.tables import render_run_telemetry

        return render_run_telemetry(self)


@dataclass
class EngineResult:
    """What :func:`run` returns: the spec's value plus run telemetry."""

    value: Any
    telemetry: RunTelemetry


def run(
    spec: Any,
    *,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    store: Optional[ResultCache] = None,
) -> EngineResult:
    """Execute one spec; see the module docstring for the pipeline."""
    result = run_many(
        [spec], jobs=jobs, cache=cache, cache_dir=cache_dir, store=store
    )
    return EngineResult(value=result.value[0], telemetry=result.telemetry)


def run_many(
    specs: Sequence[Any],
    *,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    store: Optional[ResultCache] = None,
) -> EngineResult:
    """Execute several specs as one shared point pool.

    All points from all specs go through one cache pass and one worker
    pool, so a heterogeneous benchmark (e.g. two training sweeps plus two
    capacity probes) saturates the workers.  ``value`` is the list of
    per-spec values in input order.

    ``store`` injects a :class:`~repro.runner.cache.ResultCache` directly
    (the lab executor shares its artifact store this way); otherwise one is
    opened at ``cache_dir`` / the default location when ``cache`` is on.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()  # repro: noqa[DCM001] -- wall-clock telemetry, never reaches results
    if store is None and cache:
        store = ResultCache(cache_dir or default_cache_dir())
    elif not cache:
        store = None
    telemetry = RunTelemetry(
        jobs=jobs, cache_enabled=cache, cache_dir=store.root if store else None
    )

    # Per spec, entries of [payload, key, result slot].
    sharded = [[[p, point_key(p), None] for p in spec.payloads()]
               for spec in specs]
    telemetry.points = sum(len(entries) for entries in sharded)

    # Cache pass.
    pending = []
    for entries in sharded:
        for entry in entries:
            cached = store.get(entry[1]) if store else None
            if cached is not None:
                entry[2] = cached["result"]
                telemetry.cache_hits += 1
                telemetry.point_seconds.append(0.0)
            else:
                pending.append(entry)

    # Compute misses — in parallel when it pays, serially otherwise.
    if pending:
        payloads = [entry[0] for entry in pending]
        workers = min(jobs, len(payloads))
        if workers > 1 and _fork_available():
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                outputs = list(pool.map(run_payload, payloads))
        else:
            outputs = [run_payload(p) for p in payloads]
        for entry, (encoded, seconds) in zip(pending, outputs):
            entry[2] = encoded
            telemetry.cache_misses += 1
            telemetry.busy_seconds += seconds
            telemetry.point_seconds.append(seconds)
            if store is not None:
                store.put(entry[1], entry[0], encoded)

    values = [
        spec.reduce([decode_result(payload["kind"], encoded)
                     for payload, _key, encoded in entries])
        for spec, entries in zip(specs, sharded)
    ]

    telemetry.wall_seconds = time.perf_counter() - start  # repro: noqa[DCM001] -- telemetry
    return EngineResult(value=values, telemetry=telemetry)
