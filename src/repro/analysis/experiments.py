"""High-level experiment runners shared by benchmarks and examples.

Each paper artefact (Fig 2a/2b, Table I, Fig 4a/4b, Fig 5) maps to one
experiment; since the engine redesign the canonical entry point is a
frozen spec dataclass executed by :func:`repro.runner.run` (parallel
fan-out + spec-keyed result caching; see DESIGN.md §3 "Experiment
engine").  This module keeps

* result dataclasses the engine's point functions and reducers use
  (the building blocks themselves live in the scenario layer:
  :func:`repro.scenario.build_system`,
  :func:`repro.scenario.measure_steady_state`),
* the offline model cache (:func:`trained_models`).

An autoscale run (Fig 5) is a :class:`repro.scenario.ScenarioSpec` with
``workload="trace"`` and a controller, executed by
:class:`repro.scenario.Deployment`; callers read the run's request log,
billing and scaling timelines from the deployment directly.

The historical serial wrappers (``stress_tier_sweep``, ``jmeter_sweep``,
``train_tier_model``, ``validation_curves``) have been removed: build the
corresponding :mod:`repro.runner` spec and call :func:`repro.runner.run`
(``jobs=1, cache=False`` reproduces the old serial behaviour
bit-for-bit).  ``run_autoscale_experiment`` became the scenario above.

Runners are deterministic given a seed and support ``demand_scale`` — a
speed knob that multiplies all CPU demands (capacities shrink by the same
factor, optimal concurrencies are *unchanged* because they depend only on
the contention law; see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.model import ConcurrencyModel, FitResult
from repro.ntier import HardwareConfig, SoftResourceConfig
from repro.scenario import SteadyState
from repro.workload.servlets import Servlet, ServletCatalog


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
