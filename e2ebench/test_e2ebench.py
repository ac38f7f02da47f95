"""Self-tests of the benchmark's own code (no program run needed).

Run with ``python3 -m pytest e2ebench/test_e2ebench.py -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import canonical  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def make(span_id, parent, start, end, name="x"):
    return spans.Span(span_id, parent, name, start, end)


def test_self_time_subtracts_nested_children():
    tree = [make(0, None, 0.0, 10.0), make(1, 0, 1.0, 3.0), make(2, 0, 5.0, 6.0),
            make(3, 1, 1.5, 2.5)]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 7.0, 1: 1.0, 2: 1.0, 3: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [make(0, None, 0.0, 10.0), make(1, 0, 1.0, 5.0), make(2, 0, 4.0, 8.0),
            make(3, 0, 8.0, 12.0), make(4, 0, 2.0, 3.0)]
    # Union of children inside [0, 10] is [1, 10]: the child reaching past
    # the parent's end is clipped, the contained one adds nothing.
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_self_time_is_never_negative():
    tree = [make(0, None, 0.0, 1.0), make(1, 0, -1.0, 2.0)]
    assert spans.self_times(tree)[0] == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_recorder_links_parents_and_survives_exceptions():
    rec = spans.Recorder(clock=FakeClock())

    def inner():
        raise ValueError("boom")

    outer = rec.begin("outer")
    first = rec.begin("first")
    rec.end(first)
    with pytest.raises(ValueError):
        spans.traced(rec, "failing", inner)()
    after = rec.begin("after")
    rec.end(after)
    rec.end(outer)
    top = rec.begin("top")
    rec.end(top)
    parents = {s.name: s.parent_id for s in rec.spans}
    assert parents == {"outer": None, "first": outer.span_id,
                       "failing": outer.span_id, "after": outer.span_id, "top": None}
    assert all(s.end > s.start for s in rec.spans)


def test_traced_wrapper_renames_and_annotates():
    rec = spans.Recorder(clock=FakeClock())

    def annotate(span, args, kwargs, result):
        span.counts["items"] = len(result)

    fn = spans.traced(rec, "layer", lambda n: list(range(n)), annotate,
                      rename=lambda args, result: f"layer.{args[0]}")
    assert fn(3) == [0, 1, 2]
    assert fn(2) == [0, 1]
    totals = spans.layer_totals(rec.spans)
    assert totals["layer.3"] == {"calls": 1, "self_s": 1.0, "items": 3}
    assert totals["layer.2"]["items"] == 2


def test_recorder_writes_jsonl(tmp_path):
    rec = spans.Recorder(clock=FakeClock())
    span = rec.begin("a")
    span.counts["n"] = 2
    rec.end(span)
    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(str(path))
    [line] = path.read_text().splitlines()
    assert json.loads(line) == {"span_id": 0, "parent_id": None, "name": "a",
                                "start_s": 1.0, "end_s": 2.0, "counts": {"n": 2}}


def test_canonical_encoding_is_pinned():
    fields = [("a", 1), ("b", 0.1 + 0.2), ("c", "x\ny"), ("d", None),
              ("e", [True, 2, 3.5, "s"])]
    assert canonical.encode(fields) == (
        "e2ebench-canonical-v1\n"
        "a=i:1\n"
        "b=f:0.30000000000000004\n"
        'c=s:"x\\ny"\n'
        "d=null\n"
        'e=[true,i:2,f:3.5,s:"s"]\n'
    )
    assert canonical.digest(fields) == canonical.digest(list(fields))
    assert canonical.digest(fields) != canonical.digest(fields[::-1])


def test_canonical_encoding_distinguishes_types_and_last_bits():
    assert canonical.encode_value(1) != canonical.encode_value(1.0)
    assert canonical.encode_value(1) != canonical.encode_value(True)
    assert canonical.encode_value(0.3) != canonical.encode_value(0.1 + 0.2)
    assert canonical.encode_value("1") != canonical.encode_value(1)
    with pytest.raises(TypeError):
        canonical.encode_value({"a": 1})


def test_scaling_arithmetic():
    ref = hostspeed.REFERENCE_PROBE_S
    # At the reference speed only the probes' own CPU time comes off.
    assert hostspeed.scale(2.0, [ref, ref]) == pytest.approx(2.0 - 2 * ref)
    # A host twice as slow as the reference reads half its busy seconds.
    assert hostspeed.scale(2.0 + 4 * ref, [2 * ref, 2 * ref]) == pytest.approx(1.0)
    # The mean probe sets the speed: fast and slow moments average out.
    assert hostspeed.scale(1.0 + 4 * ref, [ref, 3 * ref]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostspeed.scale(1.0, [])
    with pytest.raises(ValueError):
        hostspeed.scale(1.0, [0.0])
    assert hostspeed.probe() > 0


def test_layer_metrics_from_spans():
    layers = {
        "op": {"calls": 1, "self_s": 0.5},
        "cluster.cohort": {"calls": 2, "self_s": 1.0, "sim_requests": 100,
                           "useful": 90, "attempts": 100, "retries": 0,
                           "hedges": 0, "shed": 10},
        "cluster.scalar": {"calls": 1, "self_s": 2.0, "sim_requests": 50,
                           "useful": 45, "attempts": 60, "retries": 3,
                           "hedges": 1, "shed": 0, "fallback.closed_loop": 1},
    }
    m = run.layer_metrics(layers, 0.5)
    assert m["cluster.cohort.calls"] == 2
    assert m["cluster.cohort.self_s"] == pytest.approx(0.5)
    assert m["cluster.scalar.sim_requests"] == 50
    assert m["cluster.useful_ratio"] == pytest.approx(135 / 160)
    assert (m["cluster.retries"], m["cluster.hedges"], m["cluster.shed"]) == (3, 1, 10)
    assert m["cluster.fallback.closed_loop"] == 1
    assert m["cluster.fallback.tracer"] == 0
    assert m["simulator.server_sim.calls"] == 0
    assert m["op.self_s"] == pytest.approx(0.25)
    reported = set(m) | {"process.import_s", "paper.cells_in_band",
                         "paper.mean_abs_delta_pp", "host.probe_s", "host.raw_run_s",
                         "host.raw_setup_s", "bench.trace_overhead"}
    assert reported == set(run.PER_LAYER)


@pytest.mark.parametrize("reason, slug", [
    ("closed-loop mode", "closed_loop"),
    ("tracer attached", "tracer"),
    ("remote memory blade", "remote_memory"),
    ("stochastic fault injection", "faults"),
    ("scripted failures/recoveries", "scripted_failures"),
    ("redundancy/rebuild traffic", "redundancy"),
    ("maintenance drains", "maintenance"),
    ("disk model FlashCacheDiskModel", "disk_model"),
    ("something new", "other"),
])
def test_fallback_slugs(reason, slug):
    assert worker.fallback_slug(reason) == slug
    assert slug in run.FALLBACK_SLUGS


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    assert set(golden) == set(run.WORKLOADS)
    for workload, names in worker.SCENARIOS.items():
        assert set(golden[workload]) == set(names)
