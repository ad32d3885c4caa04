"""repro.runner — the parallel experiment engine.

Frozen spec dataclasses describe experiments (:mod:`repro.runner.specs`),
:func:`run` / :func:`run_many` execute them with process-pool fan-out and
spec-keyed on-disk result caching (:mod:`repro.runner.engine`,
:mod:`repro.runner.cache`).  See DESIGN.md §3 "Experiment engine".
"""

from repro.runner.cache import ResultCache, default_cache_dir, point_key
from repro.runner.engine import EngineResult, RunTelemetry, run, run_many
from repro.runner.points import SteadyResult
from repro.runner.specs import (
    SPEC_KINDS,
    SteadySpec,
    StressSpec,
    SweepSpec,
    TrainingSpec,
    ValidationSpec,
    spec_from_json,
)

__all__ = [
    "EngineResult",
    "ResultCache",
    "RunTelemetry",
    "SPEC_KINDS",
    "SteadyResult",
    "SteadySpec",
    "StressSpec",
    "SweepSpec",
    "TrainingSpec",
    "ValidationSpec",
    "default_cache_dir",
    "point_key",
    "run",
    "run_many",
    "spec_from_json",
]
