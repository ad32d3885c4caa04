"""Tests for the experiment engine: specs, caching, parallel determinism."""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.control import ScalingPolicy
from repro.errors import ConfigurationError
from repro.model import ConcurrencyModel
from repro.runner import (
    ResultCache,
    SteadySpec,
    StressSpec,
    SweepSpec,
    TrainingSpec,
    ValidationSpec,
    point_key,
    run,
    run_many,
    spec_from_json,
)
from repro.scenario import ScenarioSpec
from repro.workload import WorkloadTrace

SCALE = 8.0

SWEEP = SweepSpec(
    users_levels=(5, 12, 25), seed=2, demand_scale=SCALE,
    warmup=1.5, duration=4.0,
)


MODELS = {
    "app": ConcurrencyModel(s0=0.02, alpha=0.007, beta=3e-5, tier="app"),
    "db": ConcurrencyModel(s0=0.013, alpha=0.009, beta=3e-6, tier="db"),
}


def tiny_autoscale_spec():
    return ScenarioSpec(
        hardware="1/1/1",
        seed=4,
        demand_scale=SCALE,
        controller="dcm",
        policy=ScalingPolicy(consecutive_low_periods=2),
        models=MODELS,
        preparation_periods={"app": 5.0, "db": 8.0},
        workload="trace",
        trace=WorkloadTrace((0.0, 15.0, 40.0, 60.0), (0.3, 0.3, 0.8, 0.4)),
        max_users=300,
    )


def legacy_autoscale_obj():
    """What the retired ``kind: "autoscale"`` spec wrote for
    :func:`tiny_autoscale_spec`."""
    return {
        "kind": "autoscale",
        "controller": "dcm",
        "trace": {"times": [0.0, 15.0, 40.0, 60.0],
                  "levels": [0.3, 0.3, 0.8, 0.4]},
        "max_users": 300,
        "seed": 4,
        "demand_scale": SCALE,
        "policy": dataclasses.asdict(ScalingPolicy(consecutive_low_periods=2)),
        "initial_soft": "1000/100/80",
        "models": {tier: {"s0": m.s0, "alpha": m.alpha, "beta": m.beta,
                          "gamma": m.gamma, "tier": m.tier}
                   for tier, m in MODELS.items()},
        "imbalance": 0.05,
        "think_time": 3.0,
        "online_refit": True,
        "preparation_periods": {"app": 5.0, "db": 8.0},
    }


ALL_SPECS = [
    SteadySpec(users=40, seed=3, demand_scale=SCALE, warmup=1.0, duration=3.0),
    SWEEP,
    StressSpec(tier="db", concurrencies=(2, 36), seed=1, duration=4.0),
    TrainingSpec(tier="app", seed=0, demand_scale=SCALE, levels=(5, 10)),
    ValidationSpec(
        hardware="1/2/1", soft_configs=("1000/100/18", "1000/100/80"),
        user_levels=(30, 60), seed=5, demand_scale=SCALE,
    ),
]


class TestDeterminism:
    def test_serial_equals_parallel(self, tmp_path):
        serial = run(SWEEP, jobs=1, cache=False)
        parallel = run(SWEEP, jobs=4, cache=False)
        assert serial.value == parallel.value
        assert parallel.telemetry.jobs == 4
        assert parallel.telemetry.cache_misses == 3

    def test_sweep_repeats_bit_identically(self):
        first = run(SWEEP, jobs=1, cache=False).value
        second = run(SWEEP, jobs=1, cache=False).value
        assert first == second

    def test_stress_repeats_bit_identically(self):
        spec = StressSpec(tier="db", concurrencies=(2, 36), seed=1, duration=4.0)
        first = run(spec, jobs=1, cache=False).value
        second = run(spec, jobs=1, cache=False).value
        assert first == second


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run(SWEEP, jobs=1, cache=True, cache_dir=cache_dir)
        assert cold.telemetry.cache_misses == 3
        assert cold.telemetry.cache_hits == 0
        warm = run(SWEEP, jobs=1, cache=True, cache_dir=cache_dir)
        assert warm.telemetry.cache_hits == 3
        assert warm.telemetry.cache_misses == 0
        assert warm.value == cold.value

    def test_warm_result_identical_across_jobs(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run(SWEEP, jobs=4, cache=True, cache_dir=cache_dir)
        warm = run(SWEEP, jobs=1, cache=True, cache_dir=cache_dir)
        assert warm.value == cold.value

    def test_training_shares_sweep_points(self, tmp_path):
        # A TrainingSpec's payloads ARE its underlying sweep's payloads, so
        # a sweep that covered the same operating points serves training
        # entirely from cache.
        cache_dir = str(tmp_path / "cache")
        training = TrainingSpec(
            tier="app", seed=0, demand_scale=SCALE,
            levels=(2, 4, 8, 16, 32), warmup=2.0, duration=8.0,
        )
        run(training.sweep_spec(), jobs=1, cache=True, cache_dir=cache_dir)
        res = run(training, jobs=1, cache=True, cache_dir=cache_dir)
        assert res.telemetry.cache_hits == 5
        assert res.telemetry.cache_misses == 0
        assert res.value.tier == "app"

    def _object_paths(self, cache_dir):
        objects_dir = os.path.join(cache_dir, "objects")
        return [
            os.path.join(objects_dir, name)
            for name in os.listdir(objects_dir)
            if name.endswith(".json")
        ]

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run(SWEEP, jobs=1, cache=True, cache_dir=cache_dir)
        paths = self._object_paths(cache_dir)
        assert len(paths) == 3
        for path in paths:
            with open(path, "w") as fh:
                fh.write("{not json")
        res = run(SWEEP, jobs=1, cache=True, cache_dir=cache_dir)
        assert res.telemetry.cache_misses == 3

    def test_version_mismatch_entry_is_miss(self, tmp_path):
        # Entries stamped by another repro version are unreachable, never
        # half-trusted.
        cache_dir = str(tmp_path / "cache")
        run(SWEEP, jobs=1, cache=True, cache_dir=cache_dir)
        for path in self._object_paths(cache_dir):
            with open(path) as fh:
                entry = json.load(fh)
            entry["version"] = "0.0.0-stale"
            with open(path, "w") as fh:
                json.dump(entry, fh)
        res = run(SWEEP, jobs=1, cache=True, cache_dir=cache_dir)
        assert res.telemetry.cache_hits == 0
        assert res.telemetry.cache_misses == 3

    def test_point_key_depends_on_payload(self):
        a, b = SWEEP.payloads()[:2]
        assert point_key(a) != point_key(b)
        assert point_key(a) == point_key(dict(a))

    def test_point_key_is_artifact_key(self):
        # The engine's point keyspace IS the lab store's artifact keyspace
        # (empty inputs): one invalidation rule for both.
        from repro.lab.store import artifact_key

        payload = SWEEP.payloads()[0]
        assert point_key(payload) == artifact_key(payload)

    def test_cache_round_trip_preserves_payload(self, tmp_path):
        store = ResultCache(str(tmp_path / "c"))
        payload = SWEEP.payloads()[0]
        store.put(point_key(payload), payload, {"x": 1.25})
        assert store.get(point_key(payload)) == {
            "version": store.get(point_key(payload))["version"],
            "payload": payload,
            "result": {"x": 1.25},
        }


class TestSpecs:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_json_round_trip(self, spec):
        back = spec_from_json(spec.to_json())
        assert back == spec
        assert back.cache_key() == spec.cache_key()
        # Stability: a second encode of the decoded spec is byte-identical.
        assert back.to_json() == spec.to_json()

    def test_cache_key_changes_with_seed(self):
        a = SweepSpec(users_levels=(5,), seed=1)
        b = SweepSpec(users_levels=(5,), seed=2)
        assert a.cache_key() != b.cache_key()

    def test_point_seed_derivation(self):
        assert SWEEP.point_seed(25) == 27
        fixed = SweepSpec(users_levels=(5, 12), seed=9, seed_mode="fixed")
        assert fixed.point_seed(12) == 9

    def test_specs_are_hashable(self):
        assert len({spec for spec in ALL_SPECS}) == len(ALL_SPECS)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(users_levels=())
        with pytest.raises(ConfigurationError):
            StressSpec(tier="web", concurrencies=(1,))
        with pytest.raises(ConfigurationError):
            SteadySpec(workload="locust")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(controller="magic")

    def test_legacy_scheduler_key_accepted_and_dropped(self):
        obj = legacy_autoscale_obj()
        for legacy in ("heap", "calendar"):
            assert ScenarioSpec.from_json_obj(
                dict(obj, scheduler=legacy)) == tiny_autoscale_spec()
        with pytest.raises(ConfigurationError, match="splay"):
            ScenarioSpec.from_json_obj(dict(obj, scheduler="splay"))

    def test_legacy_autoscale_json_is_a_scenario(self):
        spec = ScenarioSpec.from_json_obj(legacy_autoscale_obj())
        assert spec == tiny_autoscale_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ConfigurationError, match="repro scenario run"):
            spec_from_json(json.dumps(legacy_autoscale_obj()))

    @pytest.mark.parametrize("spec", [
        SteadySpec(users=40, seed=3),
        TrainingSpec(tier="db", levels=(5, 10)),
    ], ids=lambda s: s.kind)
    def test_cache_key_is_the_legacy_construction(self, spec):
        from repro import __version__

        legacy = hashlib.sha256(
            spec.to_json().encode("utf-8") + b"\0"
            + __version__.encode("utf-8")
        ).hexdigest()
        assert spec.cache_key() == legacy

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_json(json.dumps({"kind": "nope"}))

    def test_string_configs_parsed(self):
        spec = SteadySpec(hardware="1/2/1", soft="1000/100/18")
        assert spec.hardware.app == 2
        assert spec.soft.db_connections == 18


class TestEngine:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            run(SWEEP, jobs=0)

    def test_run_many_mixed_specs(self, tmp_path):
        steady = SteadySpec(
            users=40, seed=3, demand_scale=SCALE, warmup=1.0, duration=3.0
        )
        stress = StressSpec(tier="db", concurrencies=(2, 36), seed=1,
                            duration=4.0)
        res = run_many(
            [steady, stress], jobs=2, cache=True,
            cache_dir=str(tmp_path / "cache"),
        )
        steady_res, stress_points = res.value
        assert steady_res.steady.completed > 0
        assert [p.target_concurrency for p in stress_points] == [2, 36]
        # One shared point pool: 1 steady point + 2 stress points.
        assert res.telemetry.points == 3
        assert res.telemetry.cache_misses == 3

    def test_telemetry_render(self, tmp_path):
        res = run(SWEEP, jobs=2, cache=True, cache_dir=str(tmp_path / "c"))
        text = res.telemetry.render()
        assert "engine telemetry" in text
        assert "cache misses" in text
        assert "worker utilization" in text
        disabled = run(SWEEP, jobs=1, cache=False)
        assert "cache: disabled" in disabled.telemetry.render()
