"""Tests for :class:`repro.workload.batched.BatchedPopulation`.

The batched population must behave, in distribution, like the same
number of discrete closed-loop users: exact integer accounting under
retargeting, window-bounded materialisation, and aggregate arrival rates
matching the per-user think-time law.  A deployment-level test drives it
through the ``batched-trace`` registry entry under a real n-tier system.
"""

import pytest

from repro.errors import ConfigurationError
from repro.sim import Environment
from repro.sim.rng import RandomStreams
from repro.workload import BatchedPopulation, sine_trace


class _FakeSystem:
    """Duck-typed request sink: ``submit()`` completes after ``service``."""

    def __init__(self, env, service=0.0, seed=0):
        self.env = env
        self.streams = RandomStreams(seed)
        self.service = service
        self.completed = 0
        self.live = 0
        self.max_live = 0

    def submit(self):
        self.live += 1
        self.max_live = max(self.max_live, self.live)
        done = self.env.timeout(self.service)
        done.callbacks.append(self._finish)
        return None, done

    def _finish(self, _event):
        self.live -= 1
        self.completed += 1


def _population(env, **kwargs):
    system = _FakeSystem(env, service=kwargs.pop("service", 0.0))
    return system, BatchedPopulation(env, system, **kwargs)


class TestValidation:
    def test_rejects_bad_parameters(self):
        env = Environment()
        system = _FakeSystem(env)
        with pytest.raises(ConfigurationError):
            BatchedPopulation(env, system, users=-1)
        with pytest.raises(ConfigurationError):
            BatchedPopulation(env, system, think_time=0.0)
        with pytest.raises(ConfigurationError):
            BatchedPopulation(env, system, batches=0)
        with pytest.raises(ConfigurationError):
            BatchedPopulation(env, system, window=0)
        with pytest.raises(ConfigurationError):
            BatchedPopulation(env, system).set_users(-5)


class TestPopulationAccounting:
    def test_users_tracks_target_exactly(self):
        env = Environment()
        _system, pop = _population(env, users=97, batches=8)
        assert pop.users == 97
        for target in (3, 250, 0, 41):
            pop.set_users(target)
            assert pop.users == target
        assert [u for _t, u in pop.user_history] == [97, 3, 250, 0, 41]

    def test_retargeting_mid_run_stays_exact(self):
        env = Environment()
        _system, pop = _population(env, users=60, think_time=0.5, service=0.2)

        def retarget(env):
            for target in (10, 200, 5, 80):
                yield env.timeout(2.0)
                pop.set_users(target)
                assert pop.users == target

        env.process(retarget(env))
        env.run(until=30.0)
        assert pop.users == 80

    def test_stop_drains_to_zero_users(self):
        env = Environment()
        system, pop = _population(env, users=40, think_time=0.5, service=0.3)
        env.run(until=5.0)
        pop.stop()
        assert pop.users == 0
        env.run()  # in-flight requests finish; no new arrivals
        assert pop.outstanding == 0
        assert system.live == 0

    def test_no_arrivals_after_stop(self):
        env = Environment()
        system, pop = _population(env, users=40, think_time=0.5)
        env.run(until=5.0)
        pop.stop()
        issued = pop.requests_issued
        env.run(until=20.0)
        assert pop.requests_issued == issued


class TestArrivalRate:
    def test_matches_the_per_user_think_law(self):
        # N users thinking Exp(Z) with instant service arrive at rate N/Z;
        # over 100s with N=200, Z=2.0 that is 10 000 expected requests
        # (CV ~1%), so a 10% band is ~10 sigma.
        env = Environment()
        _system, pop = _population(env, users=200, think_time=2.0)
        env.run(until=100.0)
        assert pop.requests_issued == pytest.approx(10_000, rel=0.10)

    def test_single_batch_matches_too(self):
        env = Environment()
        _system, pop = _population(env, users=100, think_time=1.0, batches=1)
        env.run(until=50.0)
        assert pop.requests_issued == pytest.approx(5_000, rel=0.15)


class TestMaterialisationWindow:
    def test_live_requests_capped_per_batch(self):
        env = Environment()
        system = _FakeSystem(env, service=1.0)
        pop = BatchedPopulation(env, system, users=50, think_time=0.5,
                                batches=1, window=2)
        env.run(until=20.0)
        assert system.max_live <= 2
        assert pop.outstanding > 2  # backlog actually formed
        assert pop.users == 50      # backlogged users still counted

    def test_backlog_drains_as_slots_free(self):
        env = Environment()
        system = _FakeSystem(env, service=0.2)
        pop = BatchedPopulation(env, system, users=30, think_time=0.1,
                                batches=1, window=3)
        env.run(until=10.0)
        pop.stop()
        env.run()
        assert pop.outstanding == 0
        assert system.completed == pop.requests_issued

    def test_windowed_saturated_throughput_is_capacity_bound(self):
        # With the window pinning concurrency at w and service time s, the
        # served rate is w/s regardless of population — the regime where
        # batching + window makes 10^6 users affordable.
        env = Environment()
        system = _FakeSystem(env, service=0.5)
        BatchedPopulation(env, system, users=10_000, think_time=1.0,
                          batches=4, window=5)  # 4 batches * 5 = 20 live
        env.run(until=50.0)
        assert system.completed == pytest.approx(50.0 / 0.5 * 20, rel=0.05)


class TestDeploymentIntegration:
    def test_batched_trace_replay(self):
        from repro.scenario import Deployment, ScenarioSpec

        spec = ScenarioSpec(
            seed=3, workload="batched-trace", max_users=40,
            trace=sine_trace(20.0, 10.0, 0.2, 0.8), duration=20.0,
            batches=4, think_time=1.0,
        )
        with Deployment(spec) as dep:
            dep.run()
        history = dep.workload.population.user_history
        assert history, "trace must retarget the population"
        assert all(0 <= users <= 40 for _t, users in history)
        assert dep.system.completed_count() > 0
