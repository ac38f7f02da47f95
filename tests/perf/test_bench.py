"""Smoke tests of the benchmark harness and its regression gate."""

import copy

import pytest

from repro.perf import bench


@pytest.fixture(scope="module")
def document():
    # Tiny workloads: this checks plumbing, not statistics.
    return bench.run_benchmarks(quick=True, e2e=False, jobs=1)


class TestHarness:
    def test_document_shape(self, document):
        assert document["schema"] == 1
        assert document["quick"] is True
        assert {
            "engine_ping",
            "engine_churn",
            "engine_batch",
            "alloc_request_state",
            "alloc_attempt",
            "cluster_surge",
            "trace_overhead",
            "mrc_sweep",
            "flash_replay",
        } <= set(document["results"])

    def test_headline_present_and_positive(self, document):
        headline = document["headline"]
        assert headline["metric"] == "engine_churn/events_per_sec"
        assert headline["events_per_sec"] > 0
        assert headline["speedup_vs_legacy"] > 0

    def test_engine_beats_legacy_on_timer_churn(self, document):
        # The acceptance criterion proper (>= 1.5x) is measured in full
        # mode; quick mode just guards against outright regressions.
        churn = document["results"]["engine_churn"]
        assert churn["speedup_vs_legacy"] > 1.0

    def test_slots_shrink_hot_records(self, document):
        for record in ("alloc_request_state", "alloc_attempt"):
            metrics = document["results"][record]
            assert metrics["slotted_bytes_per_obj"] < metrics["dict_bytes_per_obj"]

    def test_kernels_beat_scalar_oracles(self, document):
        # The >=5x acceptance criterion for mrc_sweep is measured in full
        # mode; quick mode guards that the kernels win at all.  The
        # section itself asserts counter equality before reporting.
        assert document["results"]["mrc_sweep"]["speedup_vs_scalar"] > 1.0
        assert document["results"]["flash_replay"]["speedup_vs_scalar"] > 1.0


def _synthetic_document() -> dict:
    """A quick-mode results document whose every gated field passes.

    The gate-logic tests perturb this instead of a real harness run:
    real quick-mode timings sit close to some bounds (the cohort
    ``cluster_surge`` speedup reads 4-5x against its 5x escape), which
    made these tests flaky.  The bounds themselves are enforced on real
    timings by ``repro-bench --check`` in CI.
    """
    return {
        "schema": 1,
        "quick": True,
        "headline": {
            "metric": "engine_churn/events_per_sec",
            "events_per_sec": 1_300_000.0,
            "speedup_vs_legacy": 1.7,
        },
        "results": {
            "engine_batch": {"speedup_vs_legacy": 1.5},
            "cluster_surge": {
                "sim_ms_per_wall_s": 2 * bench.CLUSTER_SURGE_FLOOR,
                "speedup_vs_scalar": 2 * bench.CLUSTER_SURGE_SPEEDUP,
                "digest_match": 1.0,
            },
            "trace_overhead": {"overhead_ratio": 1.0},
            "failslow_detect": {"overhead_ratio": 1.0},
            "rebuild_overhead": {"overhead_ratio": 1.0},
            "scenario_compile": {"overhead_ratio": 1.0},
            "mrc_sweep": {"speedup_vs_scalar": 6.0},
            "flash_replay": {"speedup_vs_scalar": 6.5},
        },
    }


class TestRegressionGate:
    @pytest.fixture
    def document(self):
        return _synthetic_document()

    def test_passes_against_self(self, document):
        assert bench.check_regression(document, document) == []

    def test_flags_large_slowdown(self, document):
        slowed = copy.deepcopy(document)
        slowed["headline"]["speedup_vs_legacy"] = (
            document["headline"]["speedup_vs_legacy"] * (1 - bench.REGRESSION_TOLERANCE) * 0.9
        )
        failures = bench.check_regression(slowed, document)
        assert failures and "regressed" in failures[0]

    def test_tolerates_small_noise(self, document):
        noisy = copy.deepcopy(document)
        noisy["headline"]["speedup_vs_legacy"] = (
            document["headline"]["speedup_vs_legacy"] * 0.9
        )
        assert bench.check_regression(noisy, document) == []

    def test_improvement_never_fails(self, document):
        faster = copy.deepcopy(document)
        faster["headline"]["speedup_vs_legacy"] = (
            document["headline"]["speedup_vs_legacy"] * 2.0
        )
        assert bench.check_regression(faster, document) == []

    @pytest.mark.parametrize("key", ("mrc_sweep", "flash_replay"))
    def test_flags_kernel_regression(self, document, key):
        slowed = copy.deepcopy(document)
        slowed["results"][key]["speedup_vs_scalar"] = (
            document["results"][key]["speedup_vs_scalar"]
            * (1 - bench.REGRESSION_TOLERANCE) * 0.9
        )
        failures = bench.check_regression(slowed, document)
        assert failures and key in failures[0]

    def test_old_baseline_without_kernel_entries_passes(self, document):
        older = copy.deepcopy(document)
        del older["results"]["mrc_sweep"]
        del older["results"]["flash_replay"]
        del older["results"]["trace_overhead"]
        assert bench.check_regression(document, older) == []

    def test_flags_excess_trace_overhead(self, document):
        slowed = copy.deepcopy(document)
        slowed["results"]["trace_overhead"]["overhead_ratio"] = (
            bench.TRACE_OVERHEAD_LIMIT * 1.2
        )
        failures = bench.check_regression(slowed, document)
        assert failures and "trace overhead" in failures[0]

    def test_trace_overhead_gate_is_absolute_not_relative(self, document):
        # The gate compares against TRACE_OVERHEAD_LIMIT, not the
        # baseline's measured ratio: an in-limit ratio passes even if
        # the baseline happened to record a lower one.
        current = copy.deepcopy(document)
        current["results"]["trace_overhead"]["overhead_ratio"] = (
            bench.TRACE_OVERHEAD_LIMIT - 0.01
        )
        assert bench.check_regression(current, document) == []

    def test_cluster_surge_fails_when_floor_and_speedup_missed(self, document):
        slow = copy.deepcopy(document)
        surge = slow["results"]["cluster_surge"]
        surge["sim_ms_per_wall_s"] = bench.CLUSTER_SURGE_FLOOR * 0.9
        surge["speedup_vs_scalar"] = bench.CLUSTER_SURGE_SPEEDUP * 0.9
        failures = bench.check_regression(slow, document)
        assert failures and "cluster_surge below" in failures[0]

    @pytest.mark.parametrize("cleared", ("sim_ms_per_wall_s", "speedup_vs_scalar"))
    def test_cluster_surge_passes_when_either_bound_cleared(self, document, cleared):
        slow = copy.deepcopy(document)
        surge = slow["results"]["cluster_surge"]
        surge["sim_ms_per_wall_s"] = bench.CLUSTER_SURGE_FLOOR * 0.9
        surge["speedup_vs_scalar"] = bench.CLUSTER_SURGE_SPEEDUP * 0.9
        surge[cleared] = document["results"]["cluster_surge"][cleared]
        assert bench.check_regression(slow, document) == []
