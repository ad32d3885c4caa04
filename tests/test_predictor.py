"""Tests for the analytic operating-point predictor, validated against the
simulator."""

import pytest

from repro.errors import ModelError
from repro.model.predictor import (
    OperatingPoint,
    TierSpec,
    predict_curve,
    predict_operating_point,
    specs_from_system,
)
from repro.ntier import HardwareConfig, SoftResourceConfig
from repro.ntier.contention import MYSQL_CONTENTION, TOMCAT_CONTENTION
from repro.scenario import build_system, measure_steady_state
from repro.workload import RubbosGenerator


def flat(n: int) -> float:
    return 1.0


def make_tier(**kw) -> TierSpec:
    defaults = dict(
        name="t", visit_ratio=1.0, base_demand=0.01, inflation=flat, servers=1
    )
    defaults.update(kw)
    return TierSpec(**defaults)


class TestTierSpec:
    def test_validation(self):
        with pytest.raises(ModelError):
            make_tier(visit_ratio=0.0)
        with pytest.raises(ModelError):
            make_tier(base_demand=-1.0)
        with pytest.raises(ModelError):
            make_tier(servers=0)
        with pytest.raises(ModelError):
            make_tier(concurrency_cap=0)

    def test_phi_interpolates(self):
        spec = make_tier(inflation=lambda n: float(n))  # phi(n) = n
        assert spec.phi(1.0) == 1.0
        assert spec.phi(2.5) == pytest.approx(2.5)

    def test_rate_and_inverse(self):
        spec = make_tier(
            inflation=MYSQL_CONTENTION.inflation, base_demand=1.6e-3,
            concurrency_cap=200,
        )
        for x in (100.0, 300.0, 500.0):
            n = spec.concurrency_for_rate(x)
            assert spec.rate(n) == pytest.approx(x, rel=1e-3)

    def test_rate_inverse_clamps_at_peak(self):
        spec = make_tier(
            inflation=MYSQL_CONTENTION.inflation, base_demand=1.6e-3,
            concurrency_cap=200,
        )
        n = spec.concurrency_for_rate(10 * spec.peak_rate())
        assert spec.rate(n) == pytest.approx(spec.peak_rate(), rel=1e-6)

    def test_capacity_scales_with_servers(self):
        one = make_tier(servers=1).capacity()
        three = make_tier(servers=3).capacity()
        assert three == pytest.approx(3 * one)

    def test_cap_limits_peak(self):
        free = make_tier(inflation=MYSQL_CONTENTION.inflation, base_demand=1.6e-3)
        capped = make_tier(
            inflation=MYSQL_CONTENTION.inflation, base_demand=1.6e-3,
            concurrency_cap=5,
        )
        assert capped.peak_rate() < free.peak_rate()


class TestOperatingPoint:
    def tiers(self):
        return [
            make_tier(name="app", base_demand=2.57e-3,
                      inflation=TOMCAT_CONTENTION.inflation),
            make_tier(name="db", visit_ratio=2.0, base_demand=0.81e-3,
                      inflation=MYSQL_CONTENTION.inflation, concurrency_cap=80),
        ]

    def test_light_load_is_interactive_law(self):
        point = predict_operating_point(30, 3.0, self.tiers())
        # R ~ base demands, X ~ N / (Z + R)
        base_rt = 2.57e-3 + 2 * 0.81e-3
        assert not point.saturated
        assert point.response_time == pytest.approx(base_rt, rel=0.2)
        assert point.throughput == pytest.approx(30 / (3.0 + base_rt), rel=0.05)

    def test_saturation_caps_at_bottleneck(self):
        tiers = self.tiers()
        point = predict_operating_point(10000, 3.0, tiers)
        assert point.saturated
        assert point.bottleneck == "db"
        caps = {t.name: t.capacity() for t in tiers}
        assert point.throughput == pytest.approx(caps["db"], rel=1e-6)
        # Saturated closed loop: R = N/X - Z.
        assert point.response_time == pytest.approx(10000 / point.throughput - 3.0)

    def test_throughput_monotone_in_users(self):
        curve = predict_curve((100, 500, 1000, 3000, 6000), 3.0, self.tiers())
        xs = [p.throughput for p in curve]
        assert all(b >= a - 1e-9 for a, b in zip(xs, xs[1:]))

    def test_validation(self):
        with pytest.raises(ModelError):
            predict_operating_point(0, 3.0, self.tiers())
        with pytest.raises(ModelError):
            predict_operating_point(10, -1.0, self.tiers())
        with pytest.raises(ModelError):
            predict_operating_point(10, 3.0, [])

    def test_utilization_helper(self):
        tiers = self.tiers()
        point = predict_operating_point(600, 3.0, tiers)
        caps = {t.name: t.capacity() for t in tiers}
        util = point.utilization(caps)
        assert 0 < util["db"] <= 1.0 + 1e-9


class TestAgainstSimulation:
    """The headline property: predictions track the simulator."""

    @pytest.mark.parametrize("users", [600, 1800])
    def test_below_saturation(self, users):
        env, system = build_system(
            hardware=HardwareConfig(1, 1, 1),
            soft=SoftResourceConfig(1000, 100, 80),
            seed=17,
        )
        specs = specs_from_system(system)
        RubbosGenerator(env, system, users=users, think_time=3.0)
        steady = measure_steady_state(env, system, warmup=5.0, duration=15.0)
        predicted = predict_operating_point(users, 3.0, specs)
        assert predicted.throughput == pytest.approx(steady.throughput, rel=0.08)

    def test_at_saturation(self):
        env, system = build_system(
            hardware=HardwareConfig(1, 1, 1),
            soft=SoftResourceConfig(1000, 100, 80),
            seed=17,
        )
        specs = specs_from_system(system)
        RubbosGenerator(env, system, users=4000, think_time=3.0)
        steady = measure_steady_state(env, system, warmup=6.0, duration=15.0)
        predicted = predict_operating_point(4000, 3.0, specs)
        assert predicted.saturated
        assert predicted.throughput == pytest.approx(steady.throughput, rel=0.10)
        assert predicted.response_time == pytest.approx(
            steady.mean_response_time, rel=0.35
        )

    def test_specs_reflect_topology(self):
        env, system = build_system(
            hardware=HardwareConfig(1, 2, 1),
            soft=SoftResourceConfig(1000, 100, 18),
        )
        specs = {s.name: s for s in specs_from_system(system)}
        assert specs["app"].servers == 2
        assert specs["db"].concurrency_cap == 36
        assert specs["db"].visit_ratio == pytest.approx(
            system.catalog.visit_ratios()["db"]
        )
