"""Point execution — the worker side of the engine.

A *payload* (see :mod:`repro.runner.specs`) is a plain JSON-able dict that
fully describes one independent simulation point.  :func:`run_payload`
executes one payload and returns its **encoded** (JSON-able) result plus
the compute wall-clock; the parent decodes via :func:`decode_result`.  Both
the fresh path and the cache-hit path go through the same encode/decode
round-trip, so results are bit-identical regardless of worker count or
cache state (Python floats survive JSON exactly).

These functions are module-level so :class:`concurrent.futures.ProcessPoolExecutor`
can pickle them by reference.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from repro.errors import ConfigurationError
from repro.ntier.softconfig import HardwareConfig, SoftResourceConfig
from repro.scenario.spec import _dec_contention


@dataclass(frozen=True)
class SteadyResult:
    """Decoded result of one steady-state point.

    ``server_busy`` maps each tier to the sorted per-server mean busy
    concurrency over the *whole* run (warmup included), which is what the
    balance ablation inspects for skew asymmetry.
    """

    steady: Any  # repro.scenario.SteadyState
    server_busy: Dict[str, Tuple[float, ...]]


def _execute_steady(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.scenario import Deployment, ScenarioSpec, measure_steady_state

    spec = ScenarioSpec(
        hardware=HardwareConfig.parse(payload["hardware"]),
        soft=SoftResourceConfig.parse(payload["soft"]),
        seed=payload["seed"],
        demand_scale=payload["demand_scale"],
        demand_distribution=payload["demand_distribution"],
        imbalance=payload["imbalance"],
        balancer_policy=payload["balancer_policy"],
        mysql_contention=_dec_contention(payload.get("mysql_contention")),
        tomcat_contention=_dec_contention(payload.get("tomcat_contention")),
        monitoring=False,
        workload=payload["workload"],
        users=payload["users"],
        think_time=payload["think_time"],
    )
    with Deployment(spec) as dep:
        dep.start()
        steady = measure_steady_state(
            dep.env, dep.system, payload["warmup"], payload["duration"]
        )
        server_busy = {
            tier: sorted(
                s.cpu.busy_integral() / dep.env.now
                for s in dep.system.tier_servers(tier)
            )
            for tier in ("web", "app", "db")
        }
    return {"steady": asdict(steady), "server_busy": server_busy}


def _execute_stress(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.analysis.experiments import _stress_servlet
    from repro.ntier import MySQLServer, TomcatServer
    from repro.ntier.balancer import Balancer
    from repro.ntier.request import Request
    from repro.sim import Environment, RandomStreams
    from repro.workload import browse_only_catalog

    tier = payload["tier"]
    conc = payload["concurrency"]
    demand_distribution = payload["demand_distribution"]
    catalog = browse_only_catalog(
        demand_distribution=demand_distribution,
        demand_scale=payload["demand_scale"],
    )
    servlet, visit_ratio = _stress_servlet(catalog, tier)

    env = Environment()
    streams = RandomStreams(payload["seed"])
    rng = streams.stream("stress.demand")
    if tier == "db":
        server = MySQLServer(env, "mysql-stress", max_connections=10 * conc + 50)
    else:
        dummy = Balancer("stress-db")
        server = TomcatServer(
            env, "tomcat-stress", db_balancer=dummy, threads=conc, db_connections=1
        )

    def loop():
        while True:
            demand = servlet.sample_demand(rng, demand_distribution)
            request = Request(servlet=servlet, created=env.now, demand=demand)
            if tier == "db":
                yield server.handle(request, demand=demand.db_queries[0])
            else:
                yield server.handle(request)

    for _ in range(conc):
        env.process(loop())
    warmup, duration = payload["warmup"], payload["duration"]
    env.run(until=warmup)
    base_completions = server.completions
    base_busy = server.cpu.busy_integral()
    env.run(until=warmup + duration)
    return {
        "target_concurrency": conc,
        "measured_concurrency": (server.cpu.busy_integral() - base_busy) / duration,
        "throughput": (server.completions - base_completions)
        / duration
        / visit_ratio,
    }


_EXECUTORS = {
    "steady": _execute_steady,
    "stress": _execute_stress,
}


def run_payload(payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """Execute one payload; return ``(encoded result, compute seconds)``."""
    fn = _EXECUTORS.get(payload.get("kind"))
    if fn is None:
        raise ConfigurationError(f"unknown point kind {payload.get('kind')!r}")
    start = time.perf_counter()  # repro: noqa[DCM001] -- wall-clock telemetry, never reaches results
    encoded = fn(payload)
    return encoded, time.perf_counter() - start  # repro: noqa[DCM001] -- telemetry


def decode_result(kind: str, encoded: Dict[str, Any]) -> Any:
    """Reconstruct the rich result object from its cached/transported form."""
    if kind == "steady":
        from repro.scenario import SteadyState

        return SteadyResult(
            steady=SteadyState(**encoded["steady"]),
            server_busy={
                tier: tuple(vals)
                for tier, vals in encoded["server_busy"].items()
            },
        )
    if kind == "stress":
        from repro.analysis.experiments import StressPoint

        return StressPoint(
            target_concurrency=encoded["target_concurrency"],
            measured_concurrency=encoded["measured_concurrency"],
            throughput=encoded["throughput"],
        )
    raise ConfigurationError(f"unknown point kind {kind!r}")
