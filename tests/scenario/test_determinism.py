"""Scenario execution is bit-identical across worker counts."""

from repro.scenario import (
    OverloadSpec,
    RetrySpec,
    ScenarioBuilder,
    compile_scenario,
)
from repro.scenario.compiler import derive_seed


def _small_diurnal():
    """A 2-rack diurnal day with tiny windows (fast but multi-plan)."""
    return (
        ScenarioBuilder("determinism-diurnal")
        .racks(2)
        .tier("web", design="N1", servers=4)
        .benchmark("websearch")
        .open_loop(utilization=0.5, warmup_ms=200.0)
        .diurnal(sim_ms_per_hour=300.0, flash_crowd_hour=21)
        .region("us", weight=0.6)
        .region("eu", weight=0.4, peak_hour_offset=-5.0)
        .overlay("protected", retry=RetrySpec(jitter=True),
                 overload=OverloadSpec(queue_cap="auto"))
        .seed(11)
        .build()
    )


def _small_enclosure():
    """A surge on four enclosure cells (each cell is its own run)."""
    return (
        ScenarioBuilder("determinism-enclosure")
        .tier("web", design="N1", servers=8, enclosure_size=2,
              balancer_scope="enclosure")
        .benchmark("websearch")
        .open_loop(utilization=0.6, warmup_ms=500.0, measure_ms=3000.0)
        .surge(multiplier=3.0, start_ms=1500.0, end_ms=2500.0)
        .overlay("protected", retry=RetrySpec(jitter=True),
                 overload=OverloadSpec(queue_cap="auto"))
        .seed(5)
        .build()
    )


def test_serial_vs_jobs4_digest_identical():
    for scenario in (_small_diurnal(), _small_enclosure()):
        compiled = compile_scenario(scenario)
        serial = compiled.execute(jobs=1)
        parallel = compiled.execute(jobs=4)
        assert serial.digest() == parallel.digest()
        assert [r.run_id for r in serial.runs] == \
            [r.run_id for r in parallel.runs]
        assert [r.digest for r in serial.runs] == \
            [r.digest for r in parallel.runs]


def test_recompile_is_deterministic():
    a = compile_scenario(_small_diurnal())
    b = compile_scenario(_small_diurnal())
    assert a.plans == b.plans


def test_rack_and_segment_seeds_are_distinct():
    compiled = compile_scenario(_small_diurnal())
    seeds = {(p.rack, p.segment): p.seed for p in compiled.plans}
    assert len(set(seeds.values())) == len(seeds)


def test_scale_reports_modeled_population():
    compiled = compile_scenario(_small_diurnal())
    scale = compiled.scale()
    assert scale["racks"] == 2.0
    assert scale["servers_total"] == 8.0
    assert scale["modeled_users"] > 0
    assert scale["modeled_requests_per_day"] > 0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_distinct_streams(self):
        seeds = {derive_seed(7, cell, server, stream)
                 for cell in range(4) for server in range(4)
                 for stream in range(2)}
        assert len(seeds) == 32
