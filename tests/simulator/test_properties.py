"""Property-based tests on simulator invariants."""

import functools
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platforms.catalog import platform, platform_names
from repro.simulator.analytic import AnalyticServerModel, mva_throughput
from repro.simulator.engine import Simulation
from repro.simulator.resources import Resource
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.workloads.suite import benchmark_names, make_workload


class TestMvaProperties:
    @given(
        demands=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=100.0),
                st.integers(min_value=1, max_value=16),
            ),
            min_size=1,
            max_size=5,
        ),
        population=st.integers(min_value=1, max_value=200),
        think=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_throughput_bounded_by_every_station(self, demands, population, think):
        x = mva_throughput(demands, population, think)
        for demand, servers in demands:
            assert x <= servers / demand + 1e-9
        # Also bounded by the no-queueing limit.
        total = sum(d for d, _ in demands) + think
        assert x <= population / total + 1e-9

    @given(
        demand=st.floats(min_value=0.1, max_value=50.0),
        servers=st.integers(min_value=1, max_value=8),
        population=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_more_servers_never_hurt(self, demand, servers, population):
        x1 = mva_throughput([(demand, servers)], population)
        x2 = mva_throughput([(demand, servers + 1)], population)
        assert x2 >= x1 - 1e-9


class TestResourceConservation:
    @given(
        services=st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=80
        ),
        servers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_jobs_complete_and_busy_time_conserved(self, services, servers):
        sim = Simulation()
        resource = Resource(sim, "r", servers)
        done = []
        for i, service in enumerate(services):
            resource.acquire(service, lambda i=i: done.append(i))
        sim.run()
        assert sorted(done) == list(range(len(services)))
        assert resource.stats.completions == len(services)
        assert resource.stats.busy_time_ms == pytest.approx(sum(services))
        # Makespan >= total work / servers (no work invented).
        assert sim.now >= sum(services) / servers - 1e-9


class TestServerSimInvariants:
    @pytest.mark.parametrize("bench", benchmark_names())
    def test_every_benchmark_runs_on_every_platform(self, bench):
        """Smoke matrix: 5 benchmarks x 6 platforms, small windows."""
        workload = make_workload(bench)
        config = SimConfig(warmup_requests=40, measure_requests=200, seed=3)
        for name in platform_names():
            result = ServerSimulator(
                platform(name), workload, population=8, config=config
            ).run()
            assert result.throughput_rps > 0, (bench, name)
            assert result.mean_response_ms > 0
            assert 0 < result.qos_percentile_ms or result.qos_percentile_ms >= 0

    def test_throughput_scales_down_with_uniform_slowdown(self, emb1):
        """A k-times CPU slowdown cannot speed anything up."""
        workload = make_workload("webmail")
        config = SimConfig(warmup_requests=60, measure_requests=400, seed=4)
        xs = [
            ServerSimulator(
                emb1, workload, population=16, config=config,
                memory_slowdown=factor,
            ).run().throughput_rps
            for factor in (1.0, 1.25, 1.5, 2.0)
        ]
        for a, b in zip(xs, xs[1:]):
            assert b <= a * 1.02


class TestAnalyticConsistency:
    @pytest.mark.parametrize("bench", benchmark_names())
    def test_saturation_dominates_any_population(self, bench):
        workload = make_workload(bench)
        model = AnalyticServerModel(platform("desk"), workload)
        saturation = model.saturation_rps()
        for population in (1, 8, 64, 256):
            assert model.throughput_rps(population) <= saturation * 1.001


#: Calibrating a workload costs more than a tiny-window run.
_workload = functools.cache(make_workload)


_LIFECYCLE_PLATFORMS = ("srvr1", "desk", "emb1")


class TestServerSimLifecycle:
    """Lifecycle invariants of both arrival modes, on tiny windows."""

    def _check(self, simulator, config, capped):
        result = simulator().run()
        assert result.measured_requests == config.measure_requests
        for name, utilization in result.utilization.items():
            assert 0.0 <= utilization <= 1.0, name
        assert 0.0 <= result.drop_rate <= 1.0
        if not capped:
            assert result.dropped_requests == 0
            assert result.drop_rate == 0.0
        # Same seed, same everything.
        assert simulator().run() == result
        return result

    @given(
        system=st.sampled_from(_LIFECYCLE_PLATFORMS),
        bench=st.sampled_from(benchmark_names()),
        population=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
        warmup=st.integers(min_value=0, max_value=40),
        measure=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_loop(self, system, bench, population, warmup, measure, seed):
        plat, workload = platform(system), _workload(bench)
        config = SimConfig(warmup_requests=warmup, measure_requests=measure,
                           seed=seed)
        result = self._check(
            lambda: ServerSimulator(plat, workload, population=population,
                                    config=config),
            config, capped=False,
        )
        assert result.population > 0
        if population is not None:
            assert result.population == population

    @given(
        system=st.sampled_from(_LIFECYCLE_PLATFORMS),
        bench=st.sampled_from(benchmark_names()),
        load=st.floats(min_value=0.05, max_value=3.0),
        queue_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        warmup=st.integers(min_value=0, max_value=40),
        measure=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_open_loop(self, system, bench, load, queue_cap, warmup, measure,
                       seed):
        plat, workload = platform(system), _workload(bench)
        if queue_cap is None:
            # Uncapped loads stay below saturation: beyond it the run
            # is meant to fail loudly, not to report.
            load = min(load, 0.8)
        rate = load * AnalyticServerModel(plat, workload).saturation_rps()
        config = SimConfig(warmup_requests=warmup, measure_requests=measure,
                           seed=seed)
        with warnings.catch_warnings():
            # Capped overloads warn that most arrivals were dropped.
            warnings.simplefilter("ignore", RuntimeWarning)
            result = self._check(
                lambda: ServerSimulator(plat, workload, config=config,
                                        arrival_rate_rps=rate,
                                        queue_cap=queue_cap),
                config, capped=queue_cap is not None,
            )
        assert result.population == 0
