"""Suite manifests — the lab's declarative experiment descriptions.

A :class:`SuiteManifest` (schema ``repro-lab/1``) is a frozen,
JSON-round-tripping description of a whole experiment suite: named
*experiments* (each a list of runner specs and/or
:class:`~repro.scenario.ScenarioSpec`\\ s plus the analysis steps that turn
their values into artifacts) and cross-experiment *comparisons*.  It
follows the spec-validation conventions of :mod:`repro.runner.specs` and
:mod:`repro.scenario.spec`: frozen dataclasses, ``__post_init__``
validation that fails fast with :class:`~repro.errors.ConfigurationError`,
canonical JSON via ``to_json`` / ``from_json``, and a schema tag checked
with :class:`~repro.errors.SchemaError` on load.

An experiment's ``specs`` list mixes spec kinds freely: objects carrying a
``kind`` from :data:`repro.runner.specs.SPEC_KINDS` are runner specs
(executed through :func:`repro.runner.run_many`); objects carrying a
``repro-scenario/*`` ``schema`` tag, or the older ``kind: "autoscale"``,
are scenario specs (executed through :class:`repro.scenario.Deployment`).
Analysis steps name either a built-in from
:data:`repro.lab.analyses.LAB_ANALYSES` or any importable
``"package.module:function"`` dotted reference.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SchemaError
from repro.lab.store import canonical_json
from repro.runner.specs import SPEC_KINDS, _SpecBase
from repro.scenario.spec import ScenarioSpec

#: Schema tag written by :meth:`SuiteManifest.to_json_obj`.
SCHEMA = "repro-lab/1"

_ACCEPTED_SCHEMAS = (SCHEMA,)

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def _check_name(name: str, what: str) -> None:
    if not isinstance(name, str) or not _NAME.match(name):
        raise ConfigurationError(
            f"{what} name {name!r} must match {_NAME.pattern}"
        )


def spec_from_json_obj(obj: Dict[str, Any]) -> Any:
    """Decode either spec family from its JSON object."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"spec entry must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind in SPEC_KINDS:
        return SPEC_KINDS[kind].from_json_obj(obj)
    schema = obj.get("schema", "")
    if kind == "autoscale" or (
        isinstance(schema, str) and schema.startswith("repro-scenario/")
    ):
        return ScenarioSpec.from_json_obj(obj)
    # Pre-fault scenario payloads (schema v1) carried no schema key but do
    # carry the scenario-only field set; require an explicit tag here to
    # keep manifests unambiguous.
    raise ConfigurationError(
        f"unrecognised spec entry (kind={kind!r}, schema={schema!r}); "
        f"runner kinds: {sorted(SPEC_KINDS)}; scenarios need a "
        f"'repro-scenario/*' schema tag"
    )


def is_scenario_spec(spec: Any) -> bool:
    """Whether ``spec`` executes through the composition root."""
    return isinstance(spec, ScenarioSpec)


@dataclass(frozen=True)
class AnalysisStep:
    """One analysis: a function applied to the experiment's values.

    ``analysis`` names a built-in (:data:`repro.lab.analyses.LAB_ANALYSES`
    key) or an importable ``"module:function"`` dotted reference.  ``name``
    is the artifact name (and the ``out/<name>.txt`` file for text
    payloads); it defaults to the last path component of ``analysis``.
    ``params`` is an arbitrary JSON object handed to the function — it
    participates in the artifact key, so changing a parameter invalidates
    exactly that artifact.
    """

    analysis: str
    name: Optional[str] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.analysis:
            raise ConfigurationError("analysis reference must not be empty")
        if isinstance(self.params, dict):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )
        _check_name(self.artifact_name, "analysis artifact")

    @property
    def artifact_name(self) -> str:
        if self.name:
            return self.name
        return self.analysis.split(":")[-1].split(".")[-1]

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {"analysis": self.analysis}
        if self.name:
            obj["name"] = self.name
        if self.params:
            obj["params"] = self.params_dict()
        return obj

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "AnalysisStep":
        return cls(
            analysis=obj.get("analysis", ""),
            name=obj.get("name"),
            params=obj.get("params", {}),
        )


@dataclass(frozen=True)
class ExperimentEntry:
    """One named experiment: specs to execute + analyses over their values.

    ``specs`` may be empty for analysis-only experiments (e.g. the kernel
    microbenchmark suite, which measures the simulator itself rather than
    reducing simulation results); ``analyses`` must not be empty — an
    experiment that records no artifact leaves nothing to cache, compare,
    or diff.
    """

    name: str
    specs: Tuple[Any, ...] = ()
    analyses: Tuple[AnalysisStep, ...] = ()
    tags: Tuple[str, ...] = ()
    title: str = ""

    def __post_init__(self) -> None:
        _check_name(self.name, "experiment")
        specs = tuple(
            spec_from_json_obj(s) if isinstance(s, dict) else s
            for s in self.specs
        )
        for spec in specs:
            if not isinstance(spec, (ScenarioSpec, _SpecBase)):
                raise ConfigurationError(
                    f"experiment {self.name!r}: {type(spec).__name__} is "
                    f"neither a runner spec nor a ScenarioSpec"
                )
        object.__setattr__(self, "specs", specs)
        analyses = tuple(
            AnalysisStep.from_json_obj(a) if isinstance(a, dict) else a
            for a in self.analyses
        )
        if not analyses:
            raise ConfigurationError(
                f"experiment {self.name!r} needs at least one analysis step"
            )
        names = [a.artifact_name for a in analyses]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"experiment {self.name!r}: duplicate artifact names {names}"
            )
        object.__setattr__(self, "analyses", analyses)
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))

    def runner_specs(self) -> List[Any]:
        return [s for s in self.specs if not is_scenario_spec(s)]

    def scenario_specs(self) -> List[ScenarioSpec]:
        return [s for s in self.specs if is_scenario_spec(s)]

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "name": self.name,
            "specs": [s.to_json_obj() for s in self.specs],
            "analyses": [a.to_json_obj() for a in self.analyses],
        }
        if self.title:
            obj["title"] = self.title
        if self.tags:
            obj["tags"] = list(self.tags)
        return obj

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "ExperimentEntry":
        return cls(
            name=obj.get("name", ""),
            specs=tuple(obj.get("specs", ())),
            analyses=tuple(obj.get("analyses", ())),
            tags=tuple(obj.get("tags", ())),
            title=obj.get("title", ""),
        )


@dataclass(frozen=True)
class ComparisonEntry:
    """A cross-experiment report: metrics of several experiments side by
    side (rendered by the built-in ``metric_compare`` analysis unless
    ``analysis`` names another one)."""

    name: str
    experiments: Tuple[str, ...] = ()
    analysis: str = "metric_compare"
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.name, "comparison")
        object.__setattr__(
            self, "experiments", tuple(str(e) for e in self.experiments)
        )
        if len(self.experiments) < 2:
            raise ConfigurationError(
                f"comparison {self.name!r} needs at least two experiments"
            )
        if isinstance(self.params, dict):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "name": self.name,
            "experiments": list(self.experiments),
        }
        if self.analysis != "metric_compare":
            obj["analysis"] = self.analysis
        if self.params:
            obj["params"] = self.params_dict()
        return obj

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "ComparisonEntry":
        return cls(
            name=obj.get("name", ""),
            experiments=tuple(obj.get("experiments", ())),
            analysis=obj.get("analysis", "metric_compare"),
            params=obj.get("params", {}),
        )


@dataclass(frozen=True)
class SuiteManifest:
    """The whole suite: experiments + comparisons, JSON-round-tripping."""

    name: str
    experiments: Tuple[ExperimentEntry, ...] = ()
    comparisons: Tuple[ComparisonEntry, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _check_name(self.name, "suite")
        experiments = tuple(
            ExperimentEntry.from_json_obj(e) if isinstance(e, dict) else e
            for e in self.experiments
        )
        if not experiments:
            raise ConfigurationError(f"suite {self.name!r} has no experiments")
        names = [e.name for e in experiments]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"suite {self.name!r}: duplicate experiment names {names}"
            )
        object.__setattr__(self, "experiments", experiments)
        comparisons = tuple(
            ComparisonEntry.from_json_obj(c) if isinstance(c, dict) else c
            for c in self.comparisons
        )
        known = set(names)
        comparison_names = [c.name for c in comparisons]
        if len(set(comparison_names)) != len(comparison_names):
            raise ConfigurationError(
                f"suite {self.name!r}: duplicate comparison names "
                f"{comparison_names}"
            )
        for comparison in comparisons:
            missing = [e for e in comparison.experiments if e not in known]
            if missing:
                raise ConfigurationError(
                    f"comparison {comparison.name!r} references unknown "
                    f"experiments {missing}"
                )
        object.__setattr__(self, "comparisons", comparisons)

    def experiment(self, name: str) -> ExperimentEntry:
        for entry in self.experiments:
            if entry.name == name:
                return entry
        raise ConfigurationError(f"no experiment named {name!r} in suite {self.name!r}")

    def select(
        self,
        keyword: Optional[str] = None,
        tags: Sequence[str] = (),
    ) -> "SuiteManifest":
        """A sub-suite: experiments matching the keyword substring and/or
        carrying any of ``tags``; comparisons whose inputs all survive."""
        chosen = []
        for entry in self.experiments:
            if keyword and keyword not in entry.name:
                continue
            if tags and not (set(tags) & set(entry.tags)):
                continue
            chosen.append(entry)
        if not chosen:
            raise ConfigurationError(
                f"selection (keyword={keyword!r}, tags={list(tags)!r}) "
                f"matches no experiment in suite {self.name!r}"
            )
        names = {e.name for e in chosen}
        comparisons = tuple(
            c for c in self.comparisons
            if all(e in names for e in c.experiments)
        )
        return SuiteManifest(
            name=self.name, experiments=tuple(chosen), comparisons=comparisons
        )

    # -- JSON ----------------------------------------------------------------

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "schema": SCHEMA,
            "name": self.name,
            "experiments": [e.to_json_obj() for e in self.experiments],
        }
        if self.comparisons:
            obj["comparisons"] = [c.to_json_obj() for c in self.comparisons]
        return obj

    def to_json(self) -> str:
        """Canonical JSON text (stable across runs — hash-friendly)."""
        return canonical_json(self.to_json_obj())

    def to_json_pretty(self) -> str:
        """Indented JSON for the committed, human-reviewed manifest file."""
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "SuiteManifest":
        schema = obj.get("schema")
        if schema not in _ACCEPTED_SCHEMAS:
            raise SchemaError(
                f"unsupported lab manifest schema {schema!r}; accepted: "
                f"{list(_ACCEPTED_SCHEMAS)}"
            )
        return cls(
            name=obj.get("name", ""),
            experiments=tuple(obj.get("experiments", ())),
            comparisons=tuple(obj.get("comparisons", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "SuiteManifest":
        try:
            obj = json.loads(text)
        except ValueError as err:
            raise SchemaError(f"malformed manifest JSON: {err}") from None
        if not isinstance(obj, dict):
            raise SchemaError("manifest JSON must be an object")
        return cls.from_json_obj(obj)

    @classmethod
    def load(cls, path: str) -> "SuiteManifest":
        """Read a manifest file (``repro lab run <path>``)."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigurationError(f"cannot read manifest {path!r}: {err}") from None
        return cls.from_json(text)


def manifest_roots(path: str) -> Tuple[str, str]:
    """Default (out_dir, store_dir) for a manifest file path.

    Outputs land beside the manifest (``<dir>/out``) and the store under
    them (``<dir>/out/.cache``) — for ``benchmarks/suite.json`` that is
    exactly the benchmark harnesses' historical layout.
    """
    base = os.path.dirname(os.path.abspath(path))
    out_dir = os.path.join(base, "out")
    return out_dir, os.path.join(out_dir, ".cache")
