"""Declarative scenario specifications — the composition root's input.

A :class:`ScenarioSpec` is a frozen dataclass that fully describes one
deployment of the DCM stack: topology + soft configuration, broker and
monitoring settings, the controller and its models/policy, the workload
generator, and the run duration.  Like the runner specs it round-trips
through JSON (``from_json(to_json(spec)) == spec``), so a scenario can be
stored in a file, shipped to the CLI (``repro scenario run spec.json``),
or embedded in an audit corpus.

The spec names its controller and workload by **registry key** (see
:mod:`repro.scenario.registry`); third parties register new kinds without
touching the assembly code in :mod:`repro.scenario.deploy`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from repro.control.policy import ScalingPolicy
from repro.errors import ConfigurationError, SchemaError
from repro.faults import FaultSpec, PolicyConfig, fault_from_json_obj
from repro.model.service_time import ConcurrencyModel
from repro.ntier.cache import CacheSpec
from repro.ntier.contention import ContentionModel
from repro.ntier.sharding import ShardingSpec
from repro.ntier.softconfig import HardwareConfig, SoftResourceConfig
from repro.workload.batched import DEFAULT_BATCHES
from repro.workload.traces import WorkloadTrace


#: Schema tag written by :meth:`ScenarioSpec.to_json_obj`.  v1 payloads
#: (written before the fault subsystem) carry no ``schema`` key and no
#: ``faults``/``resilience`` keys; v2 payloads predate the batched-workload
#: fields; v3 payloads predate the stateful tiers (``cache`` / ``sharding``
#: / ``write_fraction``).  All are accepted unchanged — the new fields
#: default to the old behaviour (unbatched populations, no cache, single
#: unsharded MySQL tier).  v3 and v4 payloads may also carry the retired
#: ``scheduler`` key (see :func:`check_legacy_scheduler`).
SCHEMA = "repro-scenario/4"

_ACCEPTED_SCHEMAS = (
    "repro-scenario/1",
    "repro-scenario/2",
    "repro-scenario/3",
    SCHEMA,
)


def check_legacy_scheduler(obj: Dict[str, Any]) -> None:
    """Validate the retired ``scheduler`` key of an older spec payload.

    Specs written while the kernel had a second pending-event structure
    may name ``"heap"`` or ``"calendar"``.  Both dequeued in the same
    order, so either now runs on the heap and the key is dropped.  Any
    other value was never valid and still raises.
    """
    value = obj.get("scheduler", "heap")
    if value not in ("heap", "calendar"):
        raise ConfigurationError(f"unknown scheduler {value!r}")


def _enc_contention(model: Optional[ContentionModel]) -> Optional[Dict[str, Any]]:
    if model is None:
        return None
    return {"s0": model.s0, "alpha": model.alpha, "beta": model.beta,
            "delta": model.delta, "knee": model.knee}


def _dec_contention(obj: Optional[Dict[str, Any]]) -> Optional[ContentionModel]:
    return None if obj is None else ContentionModel(**obj)


def _enc_model(model: ConcurrencyModel) -> Dict[str, Any]:
    return {"s0": model.s0, "alpha": model.alpha, "beta": model.beta,
            "gamma": model.gamma, "tier": model.tier}


def _enc_policy(policy: Optional[ScalingPolicy]) -> Optional[Dict[str, Any]]:
    if policy is None:
        return None
    return {f.name: getattr(policy, f.name) for f in fields(policy)}


def _dec_policy(obj: Optional[Dict[str, Any]]) -> Optional[ScalingPolicy]:
    return None if obj is None else ScalingPolicy(**obj)


def _dec_models(
    obj: Optional[Dict[str, Any]],
) -> Optional[Dict[str, ConcurrencyModel]]:
    if obj is None:
        return None
    return {tier: ConcurrencyModel(**m) for tier, m in obj.items()}


def _enc_trace(trace: Optional[WorkloadTrace]) -> Optional[Dict[str, Any]]:
    if trace is None:
        return None
    return {"times": list(trace.times), "levels": list(trace.levels)}


def _dec_trace(obj: Optional[Dict[str, Any]]) -> Optional[WorkloadTrace]:
    if obj is None:
        return None
    return WorkloadTrace(tuple(obj["times"]), tuple(obj["levels"]))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to assemble and run one deployment of the stack.

    Field groups, in lifecycle order:

    * **Topology / substrate** — ``hardware``, ``soft``, ``seed``,
      ``demand_scale``, ``demand_distribution``, ``imbalance``,
      ``balancer_policy``, and optional contention-law overrides.
    * **Stateful tiers** — optional ``cache`` (a
      :class:`~repro.ntier.cache.CacheSpec`: cache-aside tier in front of
      MySQL) and ``sharding`` (a
      :class:`~repro.ntier.sharding.ShardingSpec`: consistent-hash shards,
      each a primary plus read replicas, replacing ``hardware.db``);
      ``write_fraction`` > 0 swaps the browse-only servlet catalogue for
      the read/write mix so invalidations and primary-routed writes occur.
    * **Monitoring pipeline** — ``monitoring`` gates the whole
      agents → Kafka → collector chain; ``partitions``,
      ``sample_interval``, and ``collector_history`` tune it.
    * **Control plane** — ``controller`` is a registry key
      (``static`` / ``ec2`` / ``dcm`` / ``predictive`` built in, or any
      third-party registration); ``None`` runs without actuation.
      ``policy``, ``models``, ``online_refit``, ``preparation_periods``
      and ``target_servers`` parameterise the built-in controllers.
    * **Workload** — ``workload`` is a registry key (``jmeter`` /
      ``rubbos`` / ``trace`` / ``batched`` / ``batched-trace`` built in);
      ``users`` feeds the closed-loop generators, ``trace`` +
      ``max_users`` the trace replayers, and ``batches`` / ``window``
      the batched aggregate populations (million-user scale).
    * **Duration** — explicit ``duration`` or, when ``None``, the trace's
      own length.

    ``models``, ``preparation_periods`` and ``target_servers`` accept
    plain dicts and are frozen to sorted tuples so the spec stays
    hashable and equality-comparable after a JSON round-trip.
    """

    kind = "scenario"

    # -- topology / substrate ------------------------------------------------
    hardware: HardwareConfig = HardwareConfig(1, 1, 1)
    soft: SoftResourceConfig = SoftResourceConfig.DEFAULT
    seed: int = 0
    demand_scale: float = 1.0
    demand_distribution: str = "exponential"
    imbalance: float = 0.05
    balancer_policy: str = "least_conn"
    mysql_contention: Optional[ContentionModel] = None
    tomcat_contention: Optional[ContentionModel] = None

    # -- stateful tiers (schema v4) ------------------------------------------
    cache: Optional[CacheSpec] = None
    sharding: Optional[ShardingSpec] = None
    write_fraction: float = 0.0

    # -- monitoring pipeline -------------------------------------------------
    monitoring: bool = True
    partitions: int = 4
    sample_interval: float = 1.0
    collector_history: Optional[int] = None

    # -- control plane -------------------------------------------------------
    controller: Optional[str] = None
    policy: Optional[ScalingPolicy] = None
    models: Optional[Tuple[Tuple[str, ConcurrencyModel], ...]] = None
    online_refit: bool = True
    preparation_periods: Optional[Tuple[Tuple[str, float], ...]] = None
    target_servers: Optional[Tuple[Tuple[str, int], ...]] = None

    # -- workload ------------------------------------------------------------
    workload: Optional[str] = None
    users: int = 100
    max_users: int = 100
    think_time: float = 3.0
    trace: Optional[WorkloadTrace] = None
    batches: int = DEFAULT_BATCHES
    window: Optional[int] = None

    # -- faults & resilience -------------------------------------------------
    faults: Tuple[FaultSpec, ...] = ()
    resilience: Tuple[PolicyConfig, ...] = ()

    # -- duration ------------------------------------------------------------
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        from repro.scenario.registry import resolve_controller, resolve_workload

        if isinstance(self.hardware, str):
            object.__setattr__(self, "hardware", HardwareConfig.parse(self.hardware))
        if isinstance(self.soft, str):
            object.__setattr__(self, "soft", SoftResourceConfig.parse(self.soft))
        if isinstance(self.cache, dict):
            object.__setattr__(self, "cache", CacheSpec.from_json_obj(self.cache))
        if isinstance(self.sharding, dict):
            object.__setattr__(
                self, "sharding", ShardingSpec.from_json_obj(self.sharding)
            )
        if self.cache is not None and not isinstance(self.cache, CacheSpec):
            raise ConfigurationError(
                f"cache must be a CacheSpec (or None), got {self.cache!r}"
            )
        if self.sharding is not None and not isinstance(self.sharding, ShardingSpec):
            raise ConfigurationError(
                f"sharding must be a ShardingSpec (or None), got {self.sharding!r}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError(
                f"write_fraction must be in [0, 1], got {self.write_fraction}"
            )
        if (
            self.cache is not None
            and self.sharding is not None
            and (self.cache.keys, self.cache.zipf)
            != (self.sharding.keys, self.sharding.zipf)
        ):
            # NTierSystem enforces this too; failing here keeps the error at
            # the spec boundary where the JSON author can see it.
            raise ConfigurationError(
                "cache and sharding must agree on the key population: "
                f"cache has (keys={self.cache.keys}, zipf={self.cache.zipf}), "
                f"sharding has (keys={self.sharding.keys}, zipf={self.sharding.zipf})"
            )
        if isinstance(self.models, dict):
            object.__setattr__(self, "models", tuple(sorted(self.models.items())))
        if isinstance(self.preparation_periods, dict):
            object.__setattr__(
                self,
                "preparation_periods",
                tuple(sorted(self.preparation_periods.items())),
            )
        if isinstance(self.target_servers, dict):
            object.__setattr__(
                self, "target_servers", tuple(sorted(self.target_servers.items()))
            )
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        if not isinstance(self.resilience, tuple):
            object.__setattr__(self, "resilience", tuple(self.resilience))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise ConfigurationError(
                    f"faults entries must be FaultSpec instances, got {fault!r}"
                )
        for cfg in self.resilience:
            if not isinstance(cfg, PolicyConfig):
                raise ConfigurationError(
                    f"resilience entries must be PolicyConfig instances, got {cfg!r}"
                )
        if self.controller is not None:
            resolve_controller(self.controller)  # fail fast on unknown keys
        if self.workload is not None:
            resolve_workload(self.workload)
        if self.workload in ("trace", "batched-trace") and self.trace is None:
            raise ConfigurationError(
                f"workload {self.workload!r} requires a trace"
            )
        if self.batches < 1:
            raise ConfigurationError(
                f"batches must be >= 1, got {self.batches}"
            )
        if self.window is not None and self.window < 1:
            raise ConfigurationError(
                f"window must be >= 1 (or None), got {self.window}"
            )
        if self.partitions < 1:
            raise ConfigurationError(
                f"partitions must be >= 1, got {self.partitions}"
            )
        if self.sample_interval <= 0:
            raise ConfigurationError(
                f"sample_interval must be > 0, got {self.sample_interval}"
            )
        if self.users < 1:
            raise ConfigurationError(f"users must be >= 1, got {self.users}")
        if self.max_users < 1:
            raise ConfigurationError(
                f"max_users must be >= 1, got {self.max_users}"
            )
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError(
                f"duration must be > 0, got {self.duration}"
            )
        if self.controller is not None and not self.monitoring:
            raise ConfigurationError(
                "controllers read the metric collector; monitoring=False is "
                "only valid for controller-less scenarios"
            )

    # -- derived -------------------------------------------------------------

    def effective_duration(self) -> Optional[float]:
        """The run horizon: explicit ``duration``, else the trace length."""
        if self.duration is not None:
            return self.duration
        if self.trace is not None:
            return self.trace.duration
        return None

    def effective_collector_history(self) -> int:
        """Metric retention window: explicit, else duration + 2 min slack."""
        if self.collector_history is not None:
            return self.collector_history
        horizon = self.effective_duration()
        return int(horizon) + 120 if horizon is not None else 600

    # -- JSON round-trip -----------------------------------------------------

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "schema": SCHEMA,
            "hardware": str(self.hardware),
            "soft": str(self.soft),
            "seed": self.seed,
            "demand_scale": self.demand_scale,
            "demand_distribution": self.demand_distribution,
            "imbalance": self.imbalance,
            "balancer_policy": self.balancer_policy,
            "mysql_contention": _enc_contention(self.mysql_contention),
            "tomcat_contention": _enc_contention(self.tomcat_contention),
            "cache": None if self.cache is None else self.cache.to_json_obj(),
            "sharding": None if self.sharding is None
            else self.sharding.to_json_obj(),
            "write_fraction": self.write_fraction,
            "monitoring": self.monitoring,
            "partitions": self.partitions,
            "sample_interval": self.sample_interval,
            "collector_history": self.collector_history,
            "controller": self.controller,
            "policy": _enc_policy(self.policy),
            "models": None if self.models is None else {
                tier: _enc_model(m) for tier, m in self.models
            },
            "online_refit": self.online_refit,
            "preparation_periods": None if self.preparation_periods is None
            else dict(self.preparation_periods),
            "target_servers": None if self.target_servers is None
            else dict(self.target_servers),
            "workload": self.workload,
            "users": self.users,
            "max_users": self.max_users,
            "think_time": self.think_time,
            "trace": _enc_trace(self.trace),
            "batches": self.batches,
            "window": self.window,
            "faults": [f.to_json_obj() for f in self.faults],
            "resilience": [p.to_json_obj() for p in self.resilience],
            "duration": self.duration,
        }

    def to_json(self) -> str:
        """Canonical JSON text for this scenario (stable across runs)."""
        # Imported here: the lab package imports this module.
        from repro.lab.store import canonical_json

        return canonical_json(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "ScenarioSpec":
        kind = obj.get("kind", cls.kind)
        if kind == "autoscale":
            return cls._from_autoscale_obj(obj)
        if kind != cls.kind:
            raise ConfigurationError(
                f"expected a {cls.kind!r} spec, got kind {kind!r}"
            )
        # v1 payloads predate the schema tag (and the fault subsystem);
        # they carry no "schema" key and are read unchanged.
        schema = obj.get("schema", "repro-scenario/1")
        if schema not in _ACCEPTED_SCHEMAS:
            raise SchemaError(
                f"unsupported scenario schema {schema!r}; this library reads "
                f"{list(_ACCEPTED_SCHEMAS)}"
            )
        check_legacy_scheduler(obj)
        return cls(
            hardware=obj["hardware"],
            soft=obj["soft"],
            seed=obj["seed"],
            demand_scale=obj["demand_scale"],
            demand_distribution=obj["demand_distribution"],
            imbalance=obj["imbalance"],
            balancer_policy=obj["balancer_policy"],
            mysql_contention=_dec_contention(obj.get("mysql_contention")),
            tomcat_contention=_dec_contention(obj.get("tomcat_contention")),
            cache=None if obj.get("cache") is None
            else CacheSpec.from_json_obj(obj["cache"]),
            sharding=None if obj.get("sharding") is None
            else ShardingSpec.from_json_obj(obj["sharding"]),
            write_fraction=obj.get("write_fraction", 0.0),
            monitoring=obj["monitoring"],
            partitions=obj["partitions"],
            sample_interval=obj["sample_interval"],
            collector_history=obj.get("collector_history"),
            controller=obj.get("controller"),
            policy=_dec_policy(obj.get("policy")),
            models=_dec_models(obj.get("models")),
            online_refit=obj["online_refit"],
            preparation_periods=None if obj.get("preparation_periods") is None
            else dict(obj["preparation_periods"]),
            target_servers=None if obj.get("target_servers") is None
            else dict(obj["target_servers"]),
            workload=obj.get("workload"),
            users=obj["users"],
            max_users=obj["max_users"],
            think_time=obj["think_time"],
            trace=_dec_trace(obj.get("trace")),
            batches=obj.get("batches", DEFAULT_BATCHES),
            window=obj.get("window"),
            faults=tuple(
                fault_from_json_obj(o) for o in obj.get("faults", ())
            ),
            resilience=tuple(
                PolicyConfig.from_json_obj(o) for o in obj.get("resilience", ())
            ),
            duration=obj.get("duration"),
        )

    @classmethod
    def _from_autoscale_obj(cls, obj: Dict[str, Any]) -> "ScenarioSpec":
        """Read a ``kind: "autoscale"`` payload, written when the Fig-5
        harness had its own spec type: one controller replaying one trace
        on 1/1/1, starting from the ``initial_soft`` allocation."""
        check_legacy_scheduler(obj)
        return cls(
            hardware="1/1/1",
            soft=obj["initial_soft"],
            seed=obj["seed"],
            demand_scale=obj["demand_scale"],
            imbalance=obj["imbalance"],
            controller=obj["controller"],
            policy=_dec_policy(obj.get("policy")),
            models=_dec_models(obj.get("models")),
            online_refit=obj["online_refit"],
            preparation_periods=obj.get("preparation_periods"),
            workload="trace",
            trace=_dec_trace(obj["trace"]),
            max_users=obj["max_users"],
            think_time=obj["think_time"],
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Reconstruct a scenario from its ``to_json()`` text."""
        return cls.from_json_obj(json.loads(text))
