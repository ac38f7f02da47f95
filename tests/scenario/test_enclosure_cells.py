"""Enclosure-scoped tiers compile to independent per-cell runs.

``balancer_scope: enclosure`` is lowered by the compiler exactly like
racks and diurnal segments: one plan per cell, each an ordinary
cluster run.  The pinned digests in ``data/enclosure_cell_digests.json``
were recorded from the cell-partitioned cluster engine this lowering
replaced; every compiled cell must still reproduce its stream.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenario import (
    FailslowSpec,
    OverloadSpec,
    RetrySpec,
    ScenarioBuilder,
    TracingSpec,
    compile_scenario,
)

PINNED = json.loads(
    (Path(__file__).parent / "data" / "enclosure_cell_digests.json")
    .read_text())

#: ``fallback_reason`` of a run whose tier puts flash in front of disk.
FLASH_REASON = "disk model FlashCachedDiskModel"


def _diurnal():
    """Open loop, two racks, a diurnal day: 2 x 24 x 2 cell runs."""
    return (
        ScenarioBuilder("enclosure-diurnal")
        .racks(2)
        .tier("web", design="N1", servers=4, enclosure_size=2,
              balancer_scope="enclosure")
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


def _surge(**tier):
    """EXT-10's 5x surge, naive vs protected, on two enclosure cells."""
    return (
        ScenarioBuilder("enclosure-surge")
        .tier("N1", design="N1", servers=8, enclosure_size=4,
              balancer_scope="enclosure", **tier)
        .benchmark("websearch")
        .open_loop(utilization=0.6, warmup_ms=2000.0, measure_ms=22_000.0)
        .surge(multiplier=5.0, start_ms=6000.0, end_ms=11_000.0)
        .seed(3)
        .overlay("naive", retry=RetrySpec(),
                 overload=OverloadSpec(protected=False, queue_cap=None))
        .overlay("protected", retry=RetrySpec(jitter=True),
                 overload=OverloadSpec(queue_cap="auto"))
        .build()
    )


def _failslow():
    """Server 5 goes gray: it lands in cell 1 at local index 1."""
    return (
        ScenarioBuilder("enclosure-failslow")
        .tier("N1", design="N1", servers=8, enclosure_size=4,
              balancer_scope="enclosure")
        .benchmark("websearch")
        .open_loop(utilization=0.5, warmup_ms=1000.0, measure_ms=8000.0)
        .seed(5)
        .overlay("failslow-detected",
                 failslow=FailslowSpec(server=5, factor=10.0, at_ms=1000.0,
                                       detection=True))
        .build()
    )


def _closed():
    """Closed loop, four enclosures grouped into two explicit cells."""
    return (
        ScenarioBuilder("enclosure-closed")
        .tier("N1", design="N1", servers=8, clients_per_server=4,
              enclosure_size=2, balancer_scope="enclosure", cells=2)
        .benchmark("websearch")
        .closed_loop(warmup_requests=100, measure_requests=800)
        .seed(7)
        .build()
    )


SCENARIOS = {
    "diurnal": _diurnal,
    "surge": _surge,
    "failslow": _failslow,
    "closed": _closed,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cells_reproduce_pinned_digests(name):
    result = compile_scenario(SCENARIOS[name](), quick=True).execute()
    assert {r.run_id: r.digest for r in result.runs} == PINNED[name]


def test_cell_plans_split_the_tier():
    plans = compile_scenario(_failslow(), quick=True).plans
    assert [p.run_id for p in plans] == [
        "N1/failslow-detected/cell00", "N1/failslow-detected/cell01"]
    assert [p.cell for p in plans] == [0, 1]
    assert {p.tier.servers for p in plans} == {4}
    assert len({p.seed for p in plans}) == 2
    tier_rate = compile_scenario(
        _failslow(), quick=True).arrivals[0].base_rate_rps
    for plan in plans:
        assert plan.arrival.base_rate_rps == tier_rate * (4 / 8)


def test_failslow_lands_in_its_cell_only():
    result = compile_scenario(_failslow(), quick=True).execute()
    healthy, slow = result.runs
    # Both cells run the detector; only cell 1 holds the gray server.
    assert healthy.result.failslow_report is not None
    assert slow.result.failslow_report is not None
    assert healthy.p99_ms < slow.p99_ms


def test_scale_counts_the_whole_tier():
    enclosure = _surge()
    cluster_tier = replace(enclosure.topology.tiers[0],
                           balancer_scope="cluster")
    cluster = replace(enclosure, topology=replace(
        enclosure.topology, tiers=(cluster_tier,)))
    assert compile_scenario(enclosure).scale() == \
        compile_scenario(cluster).scale()


def test_flash_is_honoured_per_cell():
    plain = compile_scenario(_surge(), quick=True).execute()
    flash = compile_scenario(_surge(flash=True), quick=True).execute()
    assert all(r.engine_used == "cohort" for r in plain.runs)
    assert all(r.engine_used == "scalar" for r in flash.runs)
    assert {r.fallback_reason for r in flash.runs} == {FLASH_REASON}
    assert all(a.digest != b.digest
               for a, b in zip(plain.runs, flash.runs))


def test_cells_report_qos():
    result = compile_scenario(_surge(), quick=True).execute()
    naive = [r for r in result.runs if r.overlay == "naive"]
    assert any(r.qos_violation_rate > 0.0 for r in naive)


def test_tracing_runs_per_cell():
    scenario = replace(_closed(), overlays=(
        replace(_closed().overlays[0],
                tracing=TracingSpec(sample_rate=1.0)),))
    result = compile_scenario(scenario, quick=True).execute()
    assert [r.fallback_reason for r in result.runs] == [
        "closed-loop mode"] * 2
    assert all(r.tracer is not None for r in result.runs)
