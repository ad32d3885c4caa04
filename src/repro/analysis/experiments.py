"""High-level experiment runners shared by benchmarks and examples.

Each paper artefact (Fig 2a/2b, Table I, Fig 4a/4b, Fig 5) maps to one
experiment; since the engine redesign the canonical entry point is a
frozen spec dataclass executed by :func:`repro.runner.run` (parallel
fan-out + spec-keyed result caching; see DESIGN.md §3 "Experiment
engine").  This module keeps

* result dataclasses the engine's point functions and reducers use
  (the building blocks themselves now live in the scenario layer:
  :func:`repro.scenario.build_system`,
  :func:`repro.scenario.measure_steady_state` — re-exported here so
  historical imports keep working),
* the in-process autoscale point (:func:`_autoscale_core`) and the
  offline model cache (:func:`trained_models`).

The historical serial wrappers (``stress_tier_sweep``, ``jmeter_sweep``,
``train_tier_model``, ``validation_curves``, ``run_autoscale_experiment``)
have been removed: build the corresponding :mod:`repro.runner` spec and
call :func:`repro.runner.run` (``jobs=1, cache=False`` reproduces the old
serial behaviour bit-for-bit).

Runners are deterministic given a seed and support ``demand_scale`` — a
speed knob that multiplies all CPU demands (capacities shrink by the same
factor, optimal concurrencies are *unchanged* because they depend only on
the contention law; see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster import Hypervisor
from repro.control import AppAgent, VMAgent
from repro.errors import ConfigurationError
from repro.model import (
    ConcurrencyModel,
    FitResult,
)
from repro.monitor import MetricCollector
from repro.ntier import (
    HardwareConfig,
    NTierSystem,
    SoftResourceConfig,
)
from repro.runner.specs import DB_TRAINING_LEVELS, TRAINING_LEVELS  # noqa: F401
from repro.scenario import (  # noqa: F401
    Deployment,
    ScenarioSpec,
    SteadyState,
    build_system,
    measure_steady_state,
)
from repro.workload import TraceDrivenGenerator
from repro.workload.servlets import Servlet, ServletCatalog


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------
#
# ``build_system``, ``SteadyState``, and ``measure_steady_state`` now live
# in the scenario layer (the composition root measures what it builds);
# they are re-imported above so every historical ``from
# repro.analysis.experiments import measure_steady_state`` keeps working.


# ---------------------------------------------------------------------------
# Fig 2(a): direct tier stress with controlled concurrency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StressPoint:
    """One point of a direct-stress sweep."""

    target_concurrency: int
    measured_concurrency: float
    throughput: float  # HTTP-equivalent requests/s


def _stress_servlet(catalog: ServletCatalog, tier: str) -> Tuple[Servlet, float]:
    """A synthetic single-tier servlet matching the mix's mean demands.

    Returns the servlet and the visit ratio used to normalise throughput to
    HTTP-equivalents.
    """
    means = catalog.mean_demands()
    if tier == "db":
        queries = means["db_queries"]
        per_query = means["db_total"] / queries
        return (
            Servlet("StressQuery", "browse", 0.0, 0.0, (per_query,)),
            queries,
        )
    if tier == "app":
        return Servlet("StressServlet", "browse", 0.0, means["tomcat"], ()), 1.0
    raise ConfigurationError(f"unsupported stress tier {tier!r}")


# ---------------------------------------------------------------------------
# JMeter sweeps and model training (Table I)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One JMeter operating point against the full system."""

    users: int
    steady: SteadyState


@dataclass(frozen=True)
class TrainingOutcome:
    """Everything the Table I row for one tier needs."""

    tier: str
    fit: FitResult
    samples: List[Tuple[float, float]]

    @property
    def model(self) -> ConcurrencyModel:
        """The fitted model."""
        return self.fit.model


def hardware_count(hardware: HardwareConfig, tier: str) -> int:
    """Server count of ``tier`` in a hardware config."""
    return {"web": hardware.web, "app": hardware.app, "db": hardware.db}[tier]


_MODEL_CACHE: Dict[Tuple[float, int], Dict[str, ConcurrencyModel]] = {}


def trained_models(
    demand_scale: float = 1.0, seed: int = 0
) -> Dict[str, ConcurrencyModel]:
    """Offline-trained models per tier, cached per (scale, seed).

    This is what DCM seeds its online estimator with — the paper trains
    with JMeter before the autoscaling runs.
    """
    from repro.runner import TrainingSpec, run

    key = (demand_scale, seed)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = {
            tier: run(
                TrainingSpec(tier=tier, seed=seed, demand_scale=demand_scale),
                jobs=1,
                cache=False,
            ).value.model
            for tier in ("app", "db")
        }
    return _MODEL_CACHE[key]


# ---------------------------------------------------------------------------
# Fig 4: validation under realistic RUBBoS workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCurve:
    """Throughput-vs-users curve for one soft allocation."""

    soft: SoftResourceConfig
    users: Tuple[int, ...]
    throughput: Tuple[float, ...]
    mean_response_time: Tuple[float, ...]

    @property
    def peak_throughput(self) -> float:
        """Best sustained throughput across the user ramp."""
        return max(self.throughput)


# ---------------------------------------------------------------------------
# Fig 5: DCM vs EC2-AutoScale under a bursty trace
# ---------------------------------------------------------------------------

@dataclass
class AutoscaleRun:
    """Everything captured from one autoscaling experiment."""

    controller_name: str
    duration: float
    system: NTierSystem
    controller: object
    collector: MetricCollector
    hypervisor: Hypervisor
    vm_agent: VMAgent
    app_agent: Optional[AppAgent]
    trace_gen: TraceDrivenGenerator
    request_log: List[Tuple[float, float]] = field(default_factory=list)
    failed: int = 0

    @property
    def vm_seconds(self) -> float:
        """Billed VM-seconds up to the end of the run."""
        return self.hypervisor.billing.vm_seconds(self.duration)

    def tier_vm_timeline(self, tier: str) -> List[Tuple[float, int]]:
        """(time, server count) change points for ``tier``."""
        return self.controller.scaling_timeline(tier)

    def records(self, tier: str) -> List:
        """All retained metric records for ``tier``, time-sorted."""
        rows = []
        for name in self.collector.servers(tier):
            rows.extend(self.collector.recent(name, 0.0))
        return sorted(rows, key=lambda r: r.timestamp)


def _autoscale_core(spec) -> AutoscaleRun:
    """Execute one :class:`repro.runner.AutoscaleSpec` (the engine's
    in-process autoscale point).

    All controllers start from the same 1/1/1 hardware and
    ``spec.initial_soft`` allocation; DCM variants immediately apply their
    model-derived allocation (the paper starts DCM at 1000-200-40, i.e.
    with the optimal DB connection total) and re-allocate after every
    scaling action.
    """
    scenario = ScenarioSpec(
        hardware=HardwareConfig(1, 1, 1),
        soft=spec.initial_soft,
        seed=spec.seed,
        demand_scale=spec.demand_scale,
        imbalance=spec.imbalance,
        controller=spec.controller,
        policy=spec.policy,
        models=spec.models,
        online_refit=spec.online_refit,
        preparation_periods=spec.preparation_periods,
        workload="trace",
        trace=spec.trace,
        max_users=spec.max_users,
        think_time=spec.think_time,
    )
    with Deployment(scenario) as dep:
        dep.run()

    return AutoscaleRun(
        controller_name=spec.controller,
        duration=dep.duration,
        system=dep.system,
        controller=dep.controller,
        collector=dep.collector,
        hypervisor=dep.hypervisor,
        vm_agent=dep.vm_agent,
        app_agent=dep.app_agent,
        trace_gen=dep.workload,
        request_log=list(dep.system.request_log),
        failed=len(dep.system.failure_log),
    )
